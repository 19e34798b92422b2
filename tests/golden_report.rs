//! Golden snapshot tests for the report layer: the canonical Table
//! I/II/III and Fig. 2 renders of a fixed-seed campaign are committed
//! under `tests/fixtures/golden/`, so any drift in the renderers, the
//! pipeline's numbers, or the generators' streams fails loudly with a
//! diff-able artefact.
//!
//! To regenerate after an *intentional* change:
//!
//! ```text
//! BLESS=1 cargo test --test golden_report
//! git diff tests/fixtures/golden/   # review what moved, then commit
//! ```

use delta_gpu_resilience::corpus;
use delta_gpu_resilience::prelude::*;
use resilience::markdown;
use std::path::PathBuf;

/// The snapshot campaign: small enough to run in seconds, large enough
/// that every table has non-trivial rows.
const SCALE: f64 = 0.02;
const SEED: u64 = 0x601D;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("golden")
}

fn snapshot_report() -> StudyReport {
    let c = corpus::build(SCALE, SEED, 0.0, true);
    c.pipeline.run(
        &c.campaign.archive,
        &bridge::jobs(&c.outcome.jobs),
        &bridge::jobs(&c.outcome.cpu_jobs),
        &bridge::outages(c.campaign.ledger.outages()),
    )
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
             BLESS=1 cargo test --test golden_report",
            path.display()
        )
    });
    assert_eq!(
        rendered,
        golden,
        "render drifted from {}; if intentional, regenerate with \
         BLESS=1 cargo test --test golden_report and review the diff",
        path.display()
    );
}

#[test]
fn golden_snapshots_match() {
    let report = snapshot_report();
    check("table1.txt", &report::table1(&report));
    check("table2.txt", &report::table2(&report));
    check("table3.txt", &report::table3(&report));
    check("figure2.txt", &report::figure2(&report));
    check("table1.md", &markdown::table1_md(&report));
    check("table2.md", &markdown::table2_md(&report));
    check("table3.md", &markdown::table3_md(&report));
}
