//! The serving-equals-offline proof for `servd`: every HTTP endpoint
//! must return byte-identical output to the offline renderers run over
//! the same study, for clean and 5%-corrupted inputs; every filtered
//! `/errors` query — every host in the dictionary among them — must
//! equal an independently implemented brute-force scan of the oracle's
//! error list; and no reader may ever observe a torn or mixed-snapshot
//! response while stores are swapped under load.
//!
//! The oracle side never touches `servd`'s index machinery: the
//! expected bytes come from `resilience::report` and from plain linear
//! scans over `StudyReport::errors` written in this file. If the store's
//! posting lists, binary-searched time slices, response cache or snapshot
//! pinning are wrong in any observable way, one of these legs diverges.

use delta_gpu_resilience::corpus::{self, Corpus};
use delta_gpu_resilience::prelude::*;
use hpclog::{PciAddr, XidEvent};
use servd::{ErrorFilter, ServerConfig, StoreHandle, StudyStore};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use xid::XidCode;

const SCALE: f64 = 0.02;
const SEED: u64 = 0x0B5;
/// The every-host `/errors` sweep's own study.
const SWEEP_SEED: u64 = 0x5AAD;
/// The scaled calendar stays inside 2022 (see E12/E13).
const LOG_YEAR: i32 = 2022;

// ---------------------------------------------------------------- dataset

/// One simulated campaign, optionally corrupted, plus its CSV exports.
fn dataset(chaos_rate: f64) -> Corpus {
    corpus::build(SCALE, SEED, chaos_rate, true)
}

// ------------------------------------------------------- tiny HTTP client
//
// The one-write keep-alive client lives in `servd::testutil` (shared by
// every server suite); this file only aliases the GET helper.

use servd::testutil::{connect, get_on};

fn serve(handle: Arc<StoreHandle>) -> servd::RunningServer {
    servd::start(
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            ..ServerConfig::default()
        },
        handle,
    )
    .expect("server starts on an ephemeral port")
}

// ------------------------------------------------------ oracle rendering

/// Brute-force `/errors` oracle: a linear scan with `[from, to)` time
/// bounds (from inclusive, to exclusive), written without reference to
/// the store's indexes.
fn brute_force_errors(
    report: &StudyReport,
    host: Option<&str>,
    xid: Option<XidCode>,
    from: Option<Timestamp>,
    to: Option<Timestamp>,
) -> String {
    let kind = xid.map(ErrorKind::from_code);
    let mut out = String::from("time,host,pci,xid,kind,merged_lines\n");
    for e in &report.errors {
        if host.is_some_and(|h| e.host != h)
            || kind.is_some_and(|k| e.kind != k)
            || from.is_some_and(|t| e.time < t)
            || to.is_some_and(|t| e.time >= t)
        {
            continue;
        }
        let _ = writeln!(
            out,
            "{},{},{},{},{},{}",
            e.time,
            e.host,
            e.pci,
            e.kind.primary_code(),
            e.kind.abbreviation(),
            e.merged_lines
        );
    }
    out
}

/// Brute-force `/mtbe` oracle straight off the report's statistics.
fn brute_force_mtbe(report: &StudyReport, only: Option<ErrorKind>) -> String {
    let cell = |v: Option<f64>| v.map_or(String::new(), |v| format!("{v:.3}"));
    let mut out = String::from("xid,kind,phase,count,mtbe_system_h,mtbe_node_h\n");
    let kinds: Vec<ErrorKind> = match only {
        Some(k) => vec![k],
        None => ErrorKind::STUDIED.to_vec(),
    };
    for k in kinds {
        for (phase, label) in [(Phase::PreOp, "pre_op"), (Phase::Op, "op")] {
            let _ = writeln!(
                out,
                "{},{},{label},{},{},{}",
                k.primary_code(),
                k.abbreviation(),
                report.stats.count(k, phase),
                cell(report.stats.mtbe_system(k, phase)),
                cell(report.stats.mtbe_per_node(k, phase)),
            );
        }
    }
    out
}

/// Brute-force `/availability` oracle.
fn brute_force_availability(report: &StudyReport) -> String {
    let num = |v: Option<f64>| match v {
        Some(v) if v.is_finite() => format!("{:.6}", v + 0.0),
        _ => "null".to_owned(),
    };
    let a = &report.availability;
    format!(
        "{{\n  \"outages\": {},\n  \"mttr_hours\": {},\n  \"total_downtime_node_hours\": {},\n  \"mttf_hours\": {},\n  \"availability\": {},\n  \"availability_empirical\": {}\n}}\n",
        a.outage_count(),
        num(a.mttr_hours()),
        num(Some(a.total_downtime_node_hours())),
        num(report.mttf_hours),
        num(report.availability_estimate()),
        num(Some(a.availability_empirical())),
    )
}

// ---------------------------------------------------------------- tests

#[test]
fn every_endpoint_is_byte_identical_to_the_offline_oracle() {
    for chaos_rate in [0.0, 0.05] {
        let d = dataset(chaos_rate);
        let (oracle, quarantine) =
            d.pipeline
                .run_lenient(d.log(), LOG_YEAR, d.gpu_csv(), d.cpu_csv(), d.out_csv());
        assert!(
            oracle.errors.len() > 100,
            "chaos={chaos_rate}: dataset too small to be a meaningful oracle"
        );

        let store = StudyStore::build(oracle.clone(), Some(&quarantine));
        let handle = Arc::new(StoreHandle::new(store));
        let server = serve(Arc::clone(&handle));
        let addr = server.addr();
        let mut conn = connect(addr);

        // The paper surfaces, byte-for-byte against the offline renderers.
        for (path, expected) in [
            ("/tables/1", report::table1(&oracle)),
            ("/tables/2", report::table2(&oracle)),
            ("/tables/3", report::table3(&oracle)),
            ("/fig2", report::figure2(&oracle)),
        ] {
            let resp = get_on(&mut conn, path);
            assert_eq!(resp.status, 200, "chaos={chaos_rate} {path}");
            assert_eq!(resp.text(), expected, "chaos={chaos_rate} {path}");
            assert_eq!(resp.header("X-Snapshot"), Some("1"));
        }

        // Table II CSV + the failed-jobs total.
        let resp = get_on(&mut conn, "/jobs/impact");
        let mut expected = resilience::report::table2_csv(&oracle);
        let _ = writeln!(
            expected,
            "total_gpu_failed_jobs,{}",
            oracle.impact.gpu_failed_jobs()
        );
        assert_eq!(resp.text(), expected, "chaos={chaos_rate} /jobs/impact");
        assert_eq!(resp.header("Content-Type"), Some("text/csv; charset=utf-8"));

        // Availability JSON.
        let resp = get_on(&mut conn, "/availability");
        assert_eq!(
            resp.text(),
            brute_force_availability(&oracle),
            "chaos={chaos_rate} /availability"
        );
        assert_eq!(resp.header("Content-Type"), Some("application/json"));

        // MTBE rows, full and restricted.
        assert_eq!(
            get_on(&mut conn, "/mtbe").text(),
            brute_force_mtbe(&oracle, None),
            "chaos={chaos_rate} /mtbe"
        );
        assert_eq!(
            get_on(&mut conn, "/mtbe?xid=119").text(),
            brute_force_mtbe(&oracle, Some(ErrorKind::GspError)),
            "chaos={chaos_rate} /mtbe?xid=119"
        );

        // Filtered /errors vs the brute-force scan. Filter values are
        // taken from the data so every leg exercises non-empty slices,
        // plus a miss leg for the empty case.
        let probe = &oracle.errors[oracle.errors.len() / 2];
        let host = probe.host.clone();
        let xid = probe.kind.primary_code();
        let from = oracle.errors[oracle.errors.len() / 4].time;
        let to = oracle.errors[3 * oracle.errors.len() / 4].time;
        let legs: Vec<(String, String)> = vec![
            (
                "/errors".to_owned(),
                brute_force_errors(&oracle, None, None, None, None),
            ),
            (
                format!("/errors?host={host}"),
                brute_force_errors(&oracle, Some(&host), None, None, None),
            ),
            (
                format!("/errors?xid={xid}"),
                brute_force_errors(&oracle, None, Some(xid), None, None),
            ),
            (
                format!("/errors?from={}&to={}", from.unix(), to.unix()),
                brute_force_errors(&oracle, None, None, Some(from), Some(to)),
            ),
            (
                format!(
                    "/errors?host={host}&xid={xid}&from={}&to={}",
                    from.unix(),
                    to.unix()
                ),
                brute_force_errors(&oracle, Some(&host), Some(xid), Some(from), Some(to)),
            ),
            (
                // ISO-8601 time bounds parse to the same instants.
                format!("/errors?from={from}&to={to}"),
                brute_force_errors(&oracle, None, None, Some(from), Some(to)),
            ),
            (
                "/errors?host=nosuchhost".to_owned(),
                brute_force_errors(&oracle, Some("nosuchhost"), None, None, None),
            ),
        ];
        for (path, expected) in &legs {
            let resp = get_on(&mut conn, path);
            assert_eq!(resp.status, 200, "chaos={chaos_rate} {path}");
            assert_eq!(&resp.text(), expected, "chaos={chaos_rate} {path}");
        }
        // The non-trivial legs must actually select something.
        assert!(legs[1].1.lines().count() > 1, "host leg selected nothing");
        assert!(legs[3].1.lines().count() > 1, "time leg selected nothing");

        // Error paths stay errors.
        assert_eq!(get_on(&mut conn, "/nope").status, 404);
        assert_eq!(get_on(&mut conn, "/errors?bogus=1").status, 400);
        assert_eq!(get_on(&mut conn, "/errors?xid=13").status, 400);
        assert_eq!(get_on(&mut conn, "/mtbe?xid=abc").status, 400);

        server.shutdown();
    }
}

/// Store-level `/errors` sweep at chaos {0%, 5%}: five representative
/// filters, then every host in the dictionary — alone and
/// `[from, to)`-bounded — each against the brute-force scan.
#[test]
fn every_host_and_filter_matches_the_brute_force_scan() {
    for chaos_rate in [0.0, 0.05] {
        let c = corpus::build(SCALE, SWEEP_SEED, chaos_rate, true);
        let (oracle, quarantine) =
            c.pipeline
                .run_lenient(c.log(), LOG_YEAR, c.gpu_csv(), c.cpu_csv(), c.out_csv());
        assert!(
            oracle.errors.len() > 100,
            "chaos={chaos_rate}: dataset too small to exercise the index"
        );
        let mut hosts: Vec<String> = oracle.errors.iter().map(|e| e.host.clone()).collect();
        hosts.sort();
        hosts.dedup();
        assert!(hosts.len() >= 4, "need several hosts to sweep");
        let store = StudyStore::build(oracle.clone(), Some(&quarantine));
        let scan = |f: &ErrorFilter| {
            let xid = f.kind.map(ErrorKind::primary_code);
            brute_force_errors(&oracle, f.host.as_deref(), xid, f.from, f.to)
        };

        // Representative filters, anchored in the data.
        let probe = &oracle.errors[oracle.errors.len() / 2];
        let from = oracle.errors[oracle.errors.len() / 4].time;
        let to = oracle.errors[3 * oracle.errors.len() / 4].time;
        let filters = vec![
            ErrorFilter::default(),
            ErrorFilter {
                kind: Some(probe.kind),
                ..ErrorFilter::default()
            },
            ErrorFilter {
                from: Some(from),
                to: Some(to),
                ..ErrorFilter::default()
            },
            ErrorFilter {
                host: Some(probe.host.clone()),
                kind: Some(probe.kind),
                from: Some(from),
                to: Some(to),
            },
            ErrorFilter {
                host: Some("nosuchhost".to_owned()),
                ..ErrorFilter::default()
            },
        ];
        for filter in &filters {
            assert_eq!(
                store.errors_csv(filter),
                scan(filter),
                "chaos={chaos_rate}: filter {filter:?} diverged from brute force"
            );
        }
        // Every host in the dictionary, so the first and last host and
        // every posting list between are exercised.
        for host in &hosts {
            let by_host = ErrorFilter {
                host: Some(host.clone()),
                ..ErrorFilter::default()
            };
            assert_eq!(
                store.errors_csv(&by_host),
                scan(&by_host),
                "chaos={chaos_rate}: host {host} diverged"
            );
            let bounded = ErrorFilter {
                host: Some(host.clone()),
                from: Some(from),
                to: Some(to),
                ..ErrorFilter::default()
            };
            assert_eq!(
                store.errors_csv(&bounded),
                scan(&bounded),
                "chaos={chaos_rate}: bounded host {host} diverged"
            );
        }
    }
}

/// Two distinguishable synthetic studies for the swap tests.
fn synthetic_report(variant: u8) -> StudyReport {
    let base = StudyPeriods::delta().op.start;
    let mk = |secs: u64, host: &str, gpu: u8, code: u16| {
        XidEvent::new(
            base + Duration::from_secs(secs),
            host,
            PciAddr::for_gpu_index(gpu),
            XidCode::new(code),
            "",
        )
    };
    let events = match variant {
        0 => vec![
            mk(100, "gpub001", 0, 119),
            mk(5_000, "gpub002", 1, 74),
            mk(90_000, "gpub001", 2, 31),
        ],
        _ => vec![
            mk(300, "gpub003", 0, 63),
            mk(7_000, "gpub001", 1, 79),
            mk(40_000, "gpub004", 2, 119),
            mk(95_000, "gpub002", 3, 48),
        ],
    };
    Pipeline::delta().run_events(events, None, &[], &[], &[])
}

#[test]
fn no_reader_observes_a_torn_response_across_snapshot_swaps() {
    let report_a = synthetic_report(0);
    let report_b = synthetic_report(1);
    let body_a = brute_force_errors(&report_a, None, None, None, None);
    let body_b = brute_force_errors(&report_b, None, None, None, None);
    assert_ne!(body_a, body_b, "variants must be distinguishable");

    // Snapshot ids are monotone from 1 (= A); the writer below alternates
    // B, A, B, … so every even id serves B and every odd id serves A.
    let handle = Arc::new(StoreHandle::new(StudyStore::build(report_a.clone(), None)));
    let server = serve(Arc::clone(&handle));
    let addr = server.addr();

    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let stop = Arc::clone(&stop);
            let body_a = body_a.clone();
            let body_b = body_b.clone();
            std::thread::spawn(move || {
                let mut conn = connect(addr);
                let (mut served, mut saw_b) = (0u64, 0u64);
                while !stop.load(Ordering::Relaxed) {
                    let resp = get_on(&mut conn, "/errors");
                    assert_eq!(resp.status, 200);
                    let id: u64 = resp
                        .header("X-Snapshot")
                        .and_then(|v| v.parse().ok())
                        .expect("snapshot header");
                    // The strong form of "not torn": the body is exactly
                    // the render of the snapshot the header names, never
                    // a mix and never a partial write.
                    let expected = if id % 2 == 1 { &body_a } else { &body_b };
                    assert_eq!(
                        &resp.text(),
                        expected,
                        "snapshot {id} served the wrong or a torn body"
                    );
                    served += 1;
                    saw_b += u64::from(id.is_multiple_of(2));
                }
                (served, saw_b)
            })
        })
        .collect();

    // Writer: 24 full swaps while the readers hammer.
    for i in 0..24 {
        let report = if i % 2 == 0 { &report_b } else { &report_a };
        handle.publish(StudyStore::build(report.clone(), None));
        std::thread::sleep(std::time::Duration::from_millis(3));
    }
    stop.store(true, Ordering::Relaxed);

    let mut total = 0;
    let mut total_b = 0;
    for reader in readers {
        let (served, saw_b) = reader.join().expect("reader thread clean");
        assert!(served > 0, "every reader must have been served");
        total += served;
        total_b += saw_b;
    }
    assert!(total >= 24, "load too light to exercise the swaps: {total}");
    assert!(total_b > 0, "no reader ever saw a post-swap snapshot");
    server.shutdown();
}

/// A growing event stream: publish `i` is built from a longer prefix of
/// it, as a streaming pipeline would produce.
fn event_stream() -> Vec<XidEvent> {
    let base = StudyPeriods::delta().op.start;
    let codes: [u16; 8] = [119, 74, 31, 63, 79, 48, 94, 95];
    (0..120u64)
        .map(|i| {
            XidEvent::new(
                base + Duration::from_secs(500 + i * 997),
                format!("gpub{:03}", 1 + (i * 5) % 8).as_str(),
                PciAddr::for_gpu_index((i % 4) as u8),
                XidCode::new(codes[(i as usize * 3) % codes.len()]),
                "",
            )
        })
        .collect()
}

/// Torn-response stress over growing snapshots: a writer publishes 12
/// stores, each from a longer prefix of one event stream, while six
/// keep-alive readers alternate `/errors` and `/mtbe`. Every response
/// names one snapshot in `X-Snapshot`, and its body is exactly the
/// offline render of that snapshot. The whole sequence is precomputed,
/// so readers can assert exact bodies for whatever id they are served.
#[test]
fn errors_and_mtbe_are_never_torn_across_growing_publishes() {
    /// Snapshots published after the initial store (ids 2..=PUBLISHES+1).
    const PUBLISHES: usize = 12;
    const READERS: usize = 6;
    let events = event_stream();
    // Snapshot id -> the report it serves. Id 1 is the initial store;
    // ids 2.. are the publishes, each a longer prefix of the stream.
    let reports: Vec<StudyReport> = (0..=PUBLISHES)
        .map(|i| {
            let len = events.len() * (i + 1) / (PUBLISHES + 1);
            Pipeline::delta().run_events(events[..len.max(3)].to_vec(), None, &[], &[], &[])
        })
        .collect();
    let expected_errors: Arc<Vec<String>> = Arc::new(
        reports
            .iter()
            .map(|r| brute_force_errors(r, None, None, None, None))
            .collect(),
    );
    let expected_mtbe: Arc<Vec<String>> =
        Arc::new(reports.iter().map(|r| brute_force_mtbe(r, None)).collect());
    for pair in expected_errors.windows(2) {
        assert_ne!(pair[0], pair[1], "consecutive snapshots must differ");
    }

    let handle = Arc::new(StoreHandle::new(StudyStore::build(
        reports[0].clone(),
        None,
    )));
    let server = serve(Arc::clone(&handle));
    let addr = server.addr();

    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let stop = Arc::clone(&stop);
            let expected_errors = Arc::clone(&expected_errors);
            let expected_mtbe = Arc::clone(&expected_mtbe);
            std::thread::spawn(move || {
                let mut conn = connect(addr);
                let (mut served, mut distinct_max) = (0u64, 0u64);
                while !stop.load(Ordering::Relaxed) {
                    // Alternate the two endpoints per reader.
                    let (path, table): (&str, &Vec<String>) =
                        if (served as usize + r).is_multiple_of(2) {
                            ("/errors", &expected_errors)
                        } else {
                            ("/mtbe", &expected_mtbe)
                        };
                    let resp = get_on(&mut conn, path);
                    assert_eq!(resp.status, 200, "{path} failed mid-swap");
                    let id: u64 = resp
                        .header("X-Snapshot")
                        .and_then(|v| v.parse().ok())
                        .expect("every store response names its snapshot");
                    let expected = table
                        .get((id - 1) as usize)
                        .unwrap_or_else(|| panic!("unknown snapshot id {id}"));
                    // Not torn, not mixed: the body is exactly the
                    // offline render of the named snapshot.
                    assert_eq!(
                        &resp.text(),
                        expected,
                        "{path}: snapshot {id} served a torn or mixed body"
                    );
                    served += 1;
                    distinct_max = distinct_max.max(id);
                }
                (served, distinct_max)
            })
        })
        .collect();

    for report in reports.iter().skip(1) {
        handle.publish(StudyStore::build(report.clone(), None));
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    stop.store(true, Ordering::Relaxed);

    let mut total = 0u64;
    let mut max_seen = 0u64;
    for reader in readers {
        let (served, distinct_max) = reader.join().expect("reader thread clean");
        assert!(served > 0, "every reader must have been served");
        total += served;
        max_seen = max_seen.max(distinct_max);
    }
    assert!(
        total >= PUBLISHES as u64,
        "load too light to exercise the swaps: {total}"
    );
    assert!(max_seen > 1, "no reader ever observed a post-swap snapshot");
    server.shutdown();
}

#[test]
fn cache_hits_reordered_queries_and_invalidates_on_publish() {
    let report = synthetic_report(0);
    let handle = Arc::new(StoreHandle::new(StudyStore::build(report.clone(), None)));
    let server = serve(Arc::clone(&handle));
    let mut conn = connect(server.addr());

    let miss = get_on(&mut conn, "/errors?host=gpub001&xid=119");
    assert_eq!(miss.header("X-Cache"), Some("miss"));
    assert_eq!(miss.header("X-Snapshot"), Some("1"));

    // Same query, different parameter order: canonicalized to a hit.
    let hit = get_on(&mut conn, "/errors?xid=119&host=gpub001");
    assert_eq!(hit.header("X-Cache"), Some("hit"));
    assert_eq!(hit.body, miss.body);

    // A publish invalidates the whole cache and bumps the snapshot id.
    handle.publish(StudyStore::build(synthetic_report(1), None));
    let after = get_on(&mut conn, "/errors?host=gpub001&xid=119");
    assert_eq!(after.header("X-Cache"), Some("miss"));
    assert_eq!(after.header("X-Snapshot"), Some("2"));

    // Snapshot-independent endpoints never carry cache headers.
    let health = get_on(&mut conn, "/healthz");
    assert_eq!(health.header("X-Cache"), None);
    assert_eq!(health.text(), "ok\n");
    server.shutdown();
}

#[test]
fn streaming_publishes_feed_the_server_live() {
    // End-to-end: a streaming pipeline's materialized view is published
    // the way live ingest publishes it, and an HTTP client sees the
    // refreshed study.
    let handle = Arc::new(StoreHandle::new(StudyStore::build(
        synthetic_report(0),
        None,
    )));
    let server = serve(Arc::clone(&handle));
    let mut conn = connect(server.addr());
    assert_eq!(
        get_on(&mut conn, "/snapshot").header("X-Snapshot"),
        Some("1")
    );

    let d = dataset(0.0);
    let mut engine = resilience::StreamingPipeline::new(d.pipeline, LOG_YEAR);
    for piece in d.log().chunks(1 << 16) {
        engine.push_log(piece);
    }
    engine.finish_log();
    engine.push_gpu_jobs_csv(d.gpu_csv());
    engine.push_cpu_jobs_csv(d.cpu_csv());
    engine.push_outages_csv(d.out_csv());
    let (report, quarantine) = engine.materialize_full();
    handle.publish_study(report, &quarantine);

    let (oracle, _) = engine.finalize();
    let resp = get_on(&mut conn, "/errors");
    assert_eq!(resp.header("X-Snapshot"), Some("2"));
    assert_eq!(
        resp.text(),
        brute_force_errors(&oracle, None, None, None, None)
    );
    assert_eq!(
        get_on(&mut conn, "/tables/1").text(),
        report::table1(&oracle)
    );
    server.shutdown();
}
