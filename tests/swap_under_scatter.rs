//! Torn-response stress for snapshot swaps *across shard layouts*: a
//! writer publishes a growing sequence of sharded stores — cycling the
//! shard count 1→2→4→8 so every publish changes how an `/errors` miss
//! scans and merges its shards — while many keep-alive connections
//! hammer `/errors` and `/mtbe`. The strong invariant, inherited from
//! `tests/serve_equivalence.rs` and sharpened for sharding: every
//! response names exactly one snapshot in `X-Snapshot`, and its body
//! is byte-identical to the offline render of *that* snapshot — never
//! a partial write, never a merge that mixed shards from two
//! generations, never a cache entry from a stale store.
//!
//! The publish sequence imitates live ingest (each snapshot is a
//! strict prefix-growth of the next, as a streaming pipeline would
//! produce), but the whole sequence is precomputed so readers can
//! assert exact bodies for whatever snapshot id they are served.

use delta_gpu_resilience::prelude::*;
use hpclog::{PciAddr, XidEvent};
use servd::testutil::{connect, get_on};
use servd::{ServerConfig, StoreHandle, StudyStore};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use xid::XidCode;

/// Snapshots published after the initial store (ids 2..=PUBLISHES+1).
const PUBLISHES: usize = 12;
const READERS: usize = 6;

/// The full event stream; snapshot `i` is built from a prefix of it.
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

/// Offline `/errors` render, written independently of the store.
fn render_errors(report: &StudyReport) -> String {
    let mut out = String::from("time,host,pci,xid,kind,merged_lines\n");
    for e in &report.errors {
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

/// Offline `/mtbe` render straight off the report's statistics.
fn render_mtbe(report: &StudyReport) -> String {
    let cell = |v: Option<f64>| v.map_or(String::new(), |v| format!("{v:.3}"));
    let mut out = String::from("xid,kind,phase,count,mtbe_system_h,mtbe_node_h\n");
    for k in ErrorKind::STUDIED {
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

#[test]
fn scattered_responses_are_never_torn_across_sharded_snapshot_swaps() {
    let events = event_stream();
    // Snapshot id -> the report it serves. Id 1 is the initial store;
    // ids 2.. are the publishes, each a longer prefix of the stream.
    let reports: Vec<StudyReport> = (0..=PUBLISHES)
        .map(|i| {
            let len = events.len() * (i + 1) / (PUBLISHES + 1);
            Pipeline::delta().run_events(events[..len.max(3)].to_vec(), None, &[], &[], &[])
        })
        .collect();
    let expected_errors: Arc<Vec<String>> = Arc::new(reports.iter().map(render_errors).collect());
    let expected_mtbe: Arc<Vec<String>> = Arc::new(reports.iter().map(render_mtbe).collect());
    for pair in expected_errors.windows(2) {
        assert_ne!(pair[0], pair[1], "consecutive snapshots must differ");
    }

    // The initial store is already sharded; each later publish cycles
    // the shard count so the shard layout changes under the readers.
    let shard_cycle = [1usize, 2, 4, 8];
    let handle = Arc::new(StoreHandle::new(StudyStore::build_sharded(
        reports[0].clone(),
        None,
        4,
    )));
    let server = servd::start(
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            ..ServerConfig::default()
        },
        Arc::clone(&handle),
    )
    .expect("server starts");
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

    for (i, report) in reports.iter().enumerate().skip(1) {
        let shards = shard_cycle[i % shard_cycle.len()];
        handle.publish(StudyStore::build_sharded(report.clone(), None, shards));
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
