//! Golden snapshot tests for the `/rollup` surfaces: fixed-seed rollup
//! CSVs are committed under `tests/fixtures/golden/rollups/`, pinning
//! the cube fold, the civil-time bucket edges and the CSV rendering
//! down to the byte — including one fixture whose window
//! straddles the America/Chicago fall-back DST transition, so a
//! regression in the fold/gap handling shows up as a reviewable diff.
//!
//! To regenerate after an *intentional* change:
//!
//! ```text
//! BLESS=1 cargo test --test golden_rollups
//! git diff tests/fixtures/golden/rollups/   # review what moved, commit
//! ```

use delta_gpu_resilience::corpus;
use delta_gpu_resilience::prelude::*;
use hpclog::{PciAddr, XidEvent};
use servd::{RollupMetric, RollupQuery, StudyStore};
use std::path::PathBuf;

/// Same snapshot campaign as `golden_report.rs`, so one seed pins both
/// the paper surfaces and the rollup layer.
const SCALE: f64 = 0.02;
const SEED: u64 = 0x601D;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("golden")
        .join("rollups")
}

fn snapshot_store() -> StudyStore {
    let c = corpus::build(SCALE, SEED, 0.0, true);
    let report = c.pipeline.run(
        &c.campaign.archive,
        &bridge::jobs(&c.outcome.jobs),
        &bridge::jobs(&c.outcome.cpu_jobs),
        &bridge::outages(c.campaign.ledger.outages()),
    );
    StudyStore::build_sharded(report, None, 4)
}

fn check(name: &str, rendered: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("create golden dir");
        std::fs::write(&path, rendered).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with \
             BLESS=1 cargo test --test golden_rollups",
            path.display()
        )
    });
    assert_eq!(
        rendered,
        golden,
        "rollup drifted from {}; if intentional, regenerate with \
         BLESS=1 cargo test --test golden_rollups and review the diff",
        path.display()
    );
}

fn q(metric: RollupMetric, bucket: Bucket, tz: &str) -> RollupQuery {
    RollupQuery {
        bucket,
        tz: tz.to_owned(),
        ..RollupQuery::for_metric(metric)
    }
}

#[test]
fn golden_rollups_match() {
    let store = snapshot_store();
    let render = |query: &RollupQuery| store.rollup_csv(query).expect("golden query renders");
    check(
        "errors_week_utc.csv",
        &render(&q(RollupMetric::Errors, Bucket::Week, "UTC")),
    );
    check(
        "errors_month_chicago.csv",
        &render(&q(RollupMetric::Errors, Bucket::Month, "America/Chicago")),
    );
    check(
        "mtbe_month_utc.csv",
        &render(&q(RollupMetric::Mtbe, Bucket::Month, "UTC")),
    );
    check(
        "impact_week_berlin.csv",
        &render(&q(RollupMetric::Impact, Bucket::Week, "Europe/Berlin")),
    );
    check(
        "availability_week_utc.csv",
        &render(&q(RollupMetric::Availability, Bucket::Week, "UTC")),
    );
}

/// A hand-built study whose whole window straddles the America/Chicago
/// fall-back transition (2024-11-03 07:00 UTC): the committed fixture
/// pins the fold hour's double bucket, the 25-hour day, and the outage
/// split at the transition boundary.
#[test]
fn golden_dst_straddle_matches() {
    let fold = Timestamp::from_ymd_hms(2024, 11, 3, 7, 0, 0).expect("valid instant");
    let mk = |secs_from_fold: i64, host: &str, gpu: u8, code: u16| {
        let t = Timestamp::from_unix((fold.unix() as i64 + secs_from_fold) as u64);
        XidEvent::new(t, host, PciAddr::for_gpu_index(gpu), XidCode::new(code), "")
    };
    let events = vec![
        mk(-5400, "gpub001", 0, 31),  // 00:30 CDT
        mk(-1800, "gpub001", 0, 119), // 01:30 CDT (first pass)
        mk(-60, "gpub002", 1, 74),    // 01:59 CDT
        mk(60, "gpub002", 1, 74),     // 01:01 CST (second pass)
        mk(1800, "gpub003", 2, 119),  // 01:30 CST
        mk(7200, "gpub003", 2, 63),   // 03:00 CST
    ];
    let outages = vec![OutageRecord {
        host: "gpub001".to_owned(),
        start: fold - Duration::from_secs(1800),
        duration: Duration::from_hours(3),
    }];
    let report = Pipeline::delta().run_events(events, None, &[], &[], &outages);
    let store = StudyStore::build_sharded(report, None, 2);
    let render = |query: &RollupQuery| store.rollup_csv(query).expect("golden query renders");
    check(
        "dst_straddle_errors_hour_chicago.csv",
        &render(&q(RollupMetric::Errors, Bucket::Hour, "America/Chicago")),
    );
    check(
        "dst_straddle_errors_day_chicago.csv",
        &render(&q(RollupMetric::Errors, Bucket::Day, "America/Chicago")),
    );
    check(
        "dst_straddle_availability_hour_chicago.csv",
        &render(&q(
            RollupMetric::Availability,
            Bucket::Hour,
            "America/Chicago",
        )),
    );
}
