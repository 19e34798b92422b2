//! The rollup-cube differential battery: every `/rollup` surface must be
//! byte-identical to a brute-force fold over the raw event stream —
//! across chaos {0%,5%} × buckets {hour,day,week,month} × every
//! built-in timezone (UTC, the default, and two DST-observing zones) —
//! and the `/errors` time window must be `[from, to)` on the exact edge.
//!
//! The oracles here trust only `simtime::civiltime` (whose bucket
//! functions are proven total/monotone/partition-complete by
//! `crates/simtime/tests/civiltime_properties.rs`); everything the
//! rollup layer adds on top — the cube fold, sparse-cell rendering,
//! window slicing, filters — is recomputed from
//! scratch with plain `BTreeMap` folds and compared byte-for-byte. The
//! DST legs pin the calendar facts directly: a fold-hour appears as two
//! buckets disambiguated by offset suffix, and the fall-back local day
//! is a single 25-hour bucket.

use delta_gpu_resilience::corpus;
use delta_gpu_resilience::prelude::*;
use hpclog::{PciAddr, XidEvent};
use servd::testutil::{connect, get_on};
use servd::{RollupMetric, RollupQuery, ServerConfig, StoreHandle, StudyStore};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

const SCALE: f64 = 0.02;
const SEED: u64 = 0x0C0B;
const LOG_YEAR: i32 = 2022;
/// The DST-observing built-in zones the served leg requests.
const TZS: [&str; 2] = ["America/Chicago", "Europe/Berlin"];

// ---------------------------------------------------------------- dataset

/// One simulated study, optionally chaos-corrupted, through the lenient
/// pipeline.
fn study(chaos_rate: f64) -> (StudyReport, QuarantineReport) {
    let c = corpus::build(SCALE, SEED, chaos_rate, true);
    c.pipeline
        .run_lenient(c.log(), LOG_YEAR, c.gpu_csv(), c.cpu_csv(), c.out_csv())
}

// ---------------------------------------------------------------- oracles

/// Position of a studied kind in Table I order — recomputed here so the
/// oracle shares nothing with `resilience::rollup::kind_index`.
fn studied_pos(kind: ErrorKind) -> Option<usize> {
    ErrorKind::STUDIED.iter().position(|&k| k == kind)
}

/// Whether a bucket start survives the `[from, to)` window.
fn in_window(start: Timestamp, from: Option<Timestamp>, to: Option<Timestamp>) -> bool {
    from.is_none_or(|f| start >= f) && to.is_none_or(|t| start < t)
}

/// Brute-force per-bucket error counts: an independent `BTreeMap` fold
/// over the raw coalesced rows (no cube, no merge, no linear scan).
fn fold_errors(
    report: &StudyReport,
    tz: &Tz,
    bucket: Bucket,
    host: Option<&str>,
) -> BTreeMap<Timestamp, (u64, Vec<u64>)> {
    let mut counts: BTreeMap<Timestamp, (u64, Vec<u64>)> = BTreeMap::new();
    for e in &report.errors {
        if host.is_some_and(|h| e.host != h) {
            continue;
        }
        let entry = counts
            .entry(tz.bucket_start(bucket, e.time))
            .or_insert_with(|| (0, vec![0; ErrorKind::STUDIED.len()]));
        entry.0 += 1;
        if let Some(i) = studied_pos(e.kind) {
            entry.1[i] += 1;
        }
    }
    counts
}

/// The `/rollup?metric=errors` oracle rendering.
fn oracle_errors(
    report: &StudyReport,
    tz: &Tz,
    bucket: Bucket,
    host: Option<&str>,
    kind: Option<ErrorKind>,
    from: Option<Timestamp>,
    to: Option<Timestamp>,
) -> String {
    let mut out = String::from("bucket,start,end,count\n");
    for (start, (total, by_kind)) in fold_errors(report, tz, bucket, host) {
        if !in_window(start, from, to) {
            continue;
        }
        let count = kind.and_then(studied_pos).map_or(total, |i| by_kind[i]);
        if count == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "{},{start},{},{count}",
            tz.bucket_label(bucket, start),
            tz.bucket_end(bucket, start),
        );
    }
    out
}

/// The `/rollup?metric=mtbe` oracle: the same counts with the MTBE each
/// bucket's UTC span implies, formatted like the store's `fmt_cell`.
fn oracle_mtbe(report: &StudyReport, tz: &Tz, bucket: Bucket, kind: Option<ErrorKind>) -> String {
    let nodes = report.stats.node_count() as f64;
    let mut out = String::from("bucket,start,end,count,mtbe_system_h,mtbe_node_h\n");
    for (start, (total, by_kind)) in fold_errors(report, tz, bucket, None) {
        let count = kind.and_then(studied_pos).map_or(total, |i| by_kind[i]);
        if count == 0 {
            continue;
        }
        let end = tz.bucket_end(bucket, start);
        let span_h = (end.unix() - start.unix()) as f64 / 3600.0;
        let system = span_h / count as f64;
        let _ = writeln!(
            out,
            "{},{start},{end},{count},{:.3},{:.3}",
            tz.bucket_label(bucket, start),
            system,
            system * nodes,
        );
    }
    out
}

/// The `/rollup?metric=impact` oracle: distinct GPU-failed jobs folded
/// by the bucket of their termination instant.
fn oracle_impact(report: &StudyReport, tz: &Tz, bucket: Bucket, kind: Option<ErrorKind>) -> String {
    let mut counts: BTreeMap<Timestamp, u64> = BTreeMap::new();
    match kind {
        None => {
            for (end, _job) in report.impact.failed_job_ends() {
                *counts.entry(tz.bucket_start(bucket, end)).or_default() += 1;
            }
        }
        Some(want) => {
            for (end, k, _job) in report.impact.attributions() {
                if k == want {
                    *counts.entry(tz.bucket_start(bucket, end)).or_default() += 1;
                }
            }
        }
    }
    let mut out = String::from("bucket,start,end,failed_jobs\n");
    for (start, count) in counts {
        if count == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "{},{start},{},{count}",
            tz.bucket_label(bucket, start),
            tz.bucket_end(bucket, start),
        );
    }
    out
}

/// The `/rollup?metric=availability` oracle: downtime apportioned to
/// buckets with an independent accumulation (its own cursor walk and
/// map; only the civiltime bucket functions are shared, and those are
/// property-proven elsewhere).
fn oracle_availability(report: &StudyReport, tz: &Tz, bucket: Bucket) -> String {
    let mut secs: BTreeMap<Timestamp, u64> = BTreeMap::new();
    for outage in &report.op_outages {
        let end = outage.start + outage.duration;
        let mut cursor = outage.start;
        while cursor < end {
            let bucket_end = tz.bucket_end(bucket, cursor);
            let slice_end = bucket_end.min(end);
            *secs.entry(tz.bucket_start(bucket, cursor)).or_default() +=
                slice_end.unix() - cursor.unix();
            cursor = bucket_end;
        }
    }
    let mut out = String::from("bucket,start,end,downtime_node_hours\n");
    for (start, s) in secs {
        if s == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "{},{start},{},{:.3}",
            tz.bucket_label(bucket, start),
            tz.bucket_end(bucket, start),
            s as f64 / 3600.0,
        );
    }
    out
}

fn query(metric: RollupMetric, bucket: Bucket, tz: &str) -> RollupQuery {
    RollupQuery {
        bucket,
        tz: tz.to_owned(),
        ..RollupQuery::for_metric(metric)
    }
}

// ---------------------------------------------------------------- tests

/// The full sweep: chaos × buckets × every built-in timezone, all four
/// metrics byte-compared against the brute-force oracles.
#[test]
fn rollups_match_brute_force_across_shards_chaos_buckets_timezones() {
    for chaos_rate in [0.0, 0.05] {
        let (report, quarantine) = study(chaos_rate);
        assert!(
            report.errors.len() > 100,
            "chaos={chaos_rate}: dataset too small to exercise the cubes"
        );
        assert!(
            report.impact.gpu_failed_jobs() > 0,
            "chaos={chaos_rate}: need failed jobs for the impact surface"
        );
        assert!(
            !report.op_outages.is_empty(),
            "chaos={chaos_rate}: need outages for the availability surface"
        );
        let store = StudyStore::build(report.clone(), Some(&quarantine));
        for tzname in Tz::BUILTIN {
            let tz = Tz::by_name(tzname).expect("builtin tz");
            for bucket in Bucket::ALL {
                let tag = format!("chaos={chaos_rate} {tzname} {bucket:?}");
                assert_eq!(
                    store
                        .rollup_csv(&query(RollupMetric::Errors, bucket, tzname))
                        .unwrap(),
                    oracle_errors(&report, &tz, bucket, None, None, None, None),
                    "{tag}: errors diverged"
                );
                assert_eq!(
                    store
                        .rollup_csv(&query(RollupMetric::Mtbe, bucket, tzname))
                        .unwrap(),
                    oracle_mtbe(&report, &tz, bucket, None),
                    "{tag}: mtbe diverged"
                );
                assert_eq!(
                    store
                        .rollup_csv(&query(RollupMetric::Impact, bucket, tzname))
                        .unwrap(),
                    oracle_impact(&report, &tz, bucket, None),
                    "{tag}: impact diverged"
                );
                assert_eq!(
                    store
                        .rollup_csv(&query(RollupMetric::Availability, bucket, tzname))
                        .unwrap(),
                    oracle_availability(&report, &tz, bucket),
                    "{tag}: availability diverged"
                );
            }
        }
    }
}

/// Filtered legs on one store: kind and host restrictions,
/// `[from, to)` windows, all three at once, and an inverted window, all
/// against the oracles.
#[test]
fn filtered_rollups_match_brute_force() {
    let (report, quarantine) = study(0.0);
    let store = StudyStore::build(report.clone(), Some(&quarantine));
    let tzname = "America/Chicago";
    let tz = Tz::by_name(tzname).expect("builtin tz");

    // A kind and host that actually occur, pulled from the data.
    let probe = &report.errors[report.errors.len() / 2];
    let kind = probe.kind;
    let host = probe.host.clone();
    let from = tz.bucket_start(Bucket::Day, report.errors[report.errors.len() / 4].time);
    let to = tz.bucket_start(Bucket::Day, report.errors[3 * report.errors.len() / 4].time);

    for bucket in Bucket::ALL {
        let kind_q = RollupQuery {
            kind: Some(kind),
            ..query(RollupMetric::Errors, bucket, tzname)
        };
        assert_eq!(
            store.rollup_csv(&kind_q).unwrap(),
            oracle_errors(&report, &tz, bucket, None, Some(kind), None, None),
            "{bucket:?}: kind filter diverged"
        );
        let host_q = RollupQuery {
            host: Some(host.clone()),
            ..query(RollupMetric::Errors, bucket, tzname)
        };
        assert_eq!(
            store.rollup_csv(&host_q).unwrap(),
            oracle_errors(&report, &tz, bucket, Some(&host), None, None, None),
            "{bucket:?}: host filter diverged"
        );
        let window_q = RollupQuery {
            from: Some(from),
            to: Some(to),
            ..query(RollupMetric::Errors, bucket, tzname)
        };
        assert_eq!(
            store.rollup_csv(&window_q).unwrap(),
            oracle_errors(&report, &tz, bucket, None, None, Some(from), Some(to)),
            "{bucket:?}: window diverged"
        );
        // README's example query: host, kind and window at once.
        let combined_q = RollupQuery {
            host: Some(host.clone()),
            kind: Some(kind),
            from: Some(from),
            to: Some(to),
            ..query(RollupMetric::Errors, bucket, tzname)
        };
        let combined = store.rollup_csv(&combined_q).unwrap();
        assert_eq!(
            combined,
            oracle_errors(
                &report,
                &tz,
                bucket,
                Some(&host),
                Some(kind),
                Some(from),
                Some(to)
            ),
            "{bucket:?}: host + xid + window diverged"
        );
        if bucket == Bucket::Hour {
            assert!(
                combined.lines().count() > 1,
                "the probe row's hour must survive the combined filter: {combined}"
            );
        }
        // The same filter with `from` and `to` swapped keeps nothing.
        let inverted_q = RollupQuery {
            from: Some(to),
            to: Some(from),
            ..combined_q
        };
        let inverted = store.rollup_csv(&inverted_q).unwrap();
        assert_eq!(
            inverted,
            oracle_errors(
                &report,
                &tz,
                bucket,
                Some(&host),
                Some(kind),
                Some(to),
                Some(from)
            ),
            "{bucket:?}: inverted window diverged"
        );
        assert_eq!(inverted, "bucket,start,end,count\n", "{bucket:?}");
        let mtbe_q = RollupQuery {
            kind: Some(kind),
            ..query(RollupMetric::Mtbe, bucket, tzname)
        };
        assert_eq!(
            store.rollup_csv(&mtbe_q).unwrap(),
            oracle_mtbe(&report, &tz, bucket, Some(kind)),
            "{bucket:?}: mtbe kind filter diverged"
        );
        let impact_q = RollupQuery {
            kind: Some(kind),
            ..query(RollupMetric::Impact, bucket, tzname)
        };
        assert_eq!(
            store.rollup_csv(&impact_q).unwrap(),
            oracle_impact(&report, &tz, bucket, Some(kind)),
            "{bucket:?}: impact kind filter diverged"
        );
    }
}

/// The DST ground truths, end to end through the store: the fall-back
/// fold hour is two buckets disambiguated by offset suffix, the
/// fall-back local day is one 25-hour bucket, the spring-forward day is
/// 23 hours, and an outage spanning the transition splits exactly at
/// the fold boundary. Verified against exhaustive per-second downtime
/// accumulation, not the cursor walk.
#[test]
fn dst_transitions_shape_the_cubes_correctly() {
    let chicago = Tz::by_name("America/Chicago").expect("builtin tz");
    // America/Chicago falls back 2024-11-03 at 07:00 UTC (01:59:59 CDT →
    // 01:00:00 CST) and springs forward 2024-03-10 at 08:00 UTC.
    let fold = Timestamp::from_ymd_hms(2024, 11, 3, 7, 0, 0).unwrap();
    let spring = Timestamp::from_ymd_hms(2024, 3, 10, 8, 0, 0).unwrap();
    let mk = |t: Timestamp, host: &str, gpu: u8| {
        XidEvent::new(t, host, PciAddr::for_gpu_index(gpu), XidCode::new(119), "")
    };
    let events = vec![
        // One event in each repetition of the 01:xx local hour.
        mk(fold - Duration::from_secs(1800), "gpub001", 0),
        mk(fold + Duration::from_secs(1800), "gpub002", 1),
        // And one the morning after the spring-forward gap.
        mk(spring + Duration::from_secs(900), "gpub003", 2),
    ];
    let outages = vec![OutageRecord {
        host: "gpub001".to_owned(),
        start: fold - Duration::from_secs(1800),
        duration: Duration::from_hours(2),
    }];
    let report = Pipeline::delta().run_events(events, None, &[], &[], &outages);
    let store = StudyStore::build(report.clone(), None);

    // Hour cubes: the two fold events land in *different* buckets with
    // the *same* local label except for the offset suffix.
    let hours = store
        .rollup_csv(&query(
            RollupMetric::Errors,
            Bucket::Hour,
            "America/Chicago",
        ))
        .unwrap();
    assert!(
        hours.contains("2024-11-03T01:00-05:00,"),
        "first pass through 01:xx CDT missing:\n{hours}"
    );
    assert!(
        hours.contains("2024-11-03T01:00-06:00,"),
        "second pass through 01:xx CST missing:\n{hours}"
    );

    // Day cubes: both fold events share one 25 h bucket; the spring day
    // is 23 h.
    let days = store
        .rollup_csv(&query(RollupMetric::Errors, Bucket::Day, "America/Chicago"))
        .unwrap();
    let fall_row = days
        .lines()
        .find(|l| l.starts_with("2024-11-03,"))
        .expect("fall-back day row");
    let fields: Vec<&str> = fall_row.split(',').collect();
    let day_start = servd_parse_time(fields[1]);
    let day_end = servd_parse_time(fields[2]);
    assert_eq!(day_end.unix() - day_start.unix(), 25 * 3600, "{fall_row}");
    assert!(fall_row.ends_with(",2"), "{fall_row}");
    let spring_row = days
        .lines()
        .find(|l| l.starts_with("2024-03-10,"))
        .expect("spring-forward day row");
    let sfields: Vec<&str> = spring_row.split(',').collect();
    assert_eq!(
        servd_parse_time(sfields[2]).unix() - servd_parse_time(sfields[1]).unix(),
        23 * 3600,
        "{spring_row}"
    );

    // Availability across the fold, against an exhaustive per-second
    // accumulation (feasible here: the outage is two hours long).
    for bucket in Bucket::ALL {
        let mut per_second: BTreeMap<Timestamp, u64> = BTreeMap::new();
        let outage = &report.op_outages[0];
        for s in outage.start.unix()..(outage.start + outage.duration).unix() {
            *per_second
                .entry(chicago.bucket_start(bucket, Timestamp::from_unix(s)))
                .or_default() += 1;
        }
        let mut want = String::from("bucket,start,end,downtime_node_hours\n");
        for (start, secs) in per_second {
            let _ = writeln!(
                want,
                "{},{start},{},{:.3}",
                chicago.bucket_label(bucket, start),
                chicago.bucket_end(bucket, start),
                secs as f64 / 3600.0,
            );
        }
        assert_eq!(
            store
                .rollup_csv(&query(
                    RollupMetric::Availability,
                    bucket,
                    "America/Chicago"
                ))
                .unwrap(),
            want,
            "{bucket:?}: availability across the fold diverged"
        );
    }

    // A query window that straddles the transition slices on bucket
    // start: [fold-1h, fold+1h) keeps both fold hours and nothing else.
    let windowed = store
        .rollup_csv(&RollupQuery {
            from: Some(fold - Duration::from_secs(3600)),
            to: Some(fold + Duration::from_secs(3600)),
            ..query(RollupMetric::Errors, Bucket::Hour, "America/Chicago")
        })
        .unwrap();
    assert_eq!(windowed.lines().count(), 1 + 2, "{windowed}");
}

/// Parses the store's ISO timestamp rendering back to a [`Timestamp`].
fn servd_parse_time(raw: &str) -> Timestamp {
    servd::store::parse_time(raw).expect("store-rendered timestamp parses back")
}

/// HTTP leg: `/rollup` over the wire is byte-identical to the in-process
/// renderer for every metric × bucket × tz, 400s stay 400, and the
/// `/errors` boundary contract holds on the exact edge.
#[test]
fn served_rollups_match_in_process_and_errors_window_is_half_open() {
    let (report, quarantine) = study(0.0);
    let edge_from = report.errors[report.errors.len() / 4].time;
    let edge_to = report.errors[3 * report.errors.len() / 4].time;
    let on_edge = report
        .errors
        .iter()
        .filter(|e| e.time >= edge_from && e.time < edge_to)
        .count();
    assert!(
        report.errors.iter().any(|e| e.time == edge_to),
        "the exclusive edge must sit on a real row for the test to bite"
    );

    let mut paths: Vec<String> = Vec::new();
    for metric in ["errors", "mtbe", "impact", "availability"] {
        for bucket in Bucket::ALL {
            for tzname in TZS {
                paths.push(format!(
                    "/rollup?metric={metric}&bucket={}&tz={tzname}",
                    bucket.as_str()
                ));
            }
        }
    }

    let store = StudyStore::build(report.clone(), Some(&quarantine));
    let handle = Arc::new(StoreHandle::new(store));
    let server = servd::start(
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            ..ServerConfig::default()
        },
        Arc::clone(&handle),
    )
    .expect("server starts");
    let mut conn = connect(server.addr());

    // The wire bytes equal the in-process renderer, and repeating a
    // request hits the snapshot-scoped cache with the same bytes.
    for p in &paths {
        let first = get_on(&mut conn, p);
        assert_eq!(first.status, 200, "{p}");
        let again = get_on(&mut conn, p);
        assert_eq!(again.body, first.body, "cache changed bytes at {p}");
        let raw = p.strip_prefix("/rollup?").expect("rollup path");
        let mut q = RollupQuery::for_metric(RollupMetric::Errors);
        let mut metric = RollupMetric::Errors;
        for pair in raw.split('&') {
            let (k, v) = pair.split_once('=').expect("k=v");
            match k {
                "metric" => metric = RollupMetric::parse(v).expect("metric"),
                "bucket" => q.bucket = v.parse().expect("bucket"),
                "tz" => q.tz = v.to_owned(),
                other => panic!("unexpected key {other}"),
            }
        }
        q.metric = metric;
        assert_eq!(
            String::from_utf8_lossy(&first.body),
            handle.current().store.rollup_csv(&q).expect("renders"),
            "wire bytes diverge from in-process at {p}"
        );
    }

    // Bad queries are 400 over the wire too.
    for bad in [
        "/rollup",
        "/rollup?metric=bogus",
        "/rollup?metric=errors&bucket=decade",
        "/rollup?metric=errors&tz=Mars/Olympus",
        "/rollup?metric=mtbe&host=x",
    ] {
        assert_eq!(get_on(&mut conn, bad).status, 400, "{bad}");
    }

    // Satellite fix pinned over HTTP: `from` inclusive, `to`
    // exclusive on the exact row instants.
    let errors_csv = get_on(
        &mut conn,
        &format!("/errors?from={}&to={}", edge_from.unix(), edge_to.unix()),
    );
    assert_eq!(errors_csv.status, 200);
    let rows = String::from_utf8_lossy(&errors_csv.body)
        .lines()
        .count()
        .saturating_sub(1);
    assert_eq!(rows, on_edge, "half-open window [from, to) mis-sliced");
    server.shutdown();
}
