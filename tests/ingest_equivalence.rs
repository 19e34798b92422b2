//! The live-ingest-equals-offline proof for `servd`: a corpus POSTed to
//! `/ingest/*` — in any chunking, with duplicates, and across an
//! in-process restart — must converge to the exact bytes the offline
//! oracle (`Pipeline::run_lenient` over the whole corpus) renders for
//! every report surface.
//!
//! Three legs:
//!
//! 1. The full simulated campaign, clean and 5%-corrupted, chunked at
//!    1 KiB and as one whole-corpus POST.
//! 2. A corpus prefix chunked at 1 and 7 bytes — the degenerate
//!    chunkings that shake out every boundary in the WAL framing, the
//!    seq protocol, and the streaming scanner's carry logic.
//! 3. A simulated crash: chunks acknowledged (WAL-durable) but never
//!    applied because no worker ran, then a recovery on the same
//!    directory that must replay every acknowledged byte, absorb
//!    re-sent duplicates, and still converge.
//!
//! The oracle never touches the ingest machinery: expected bytes come
//! from `resilience::report` over a batch run of the identical corpus.

use delta_gpu_resilience::corpus::{self, Corpus};
use delta_gpu_resilience::prelude::*;
use servd::{IngestConfig, ServerConfig, StoreHandle, StudyStore};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const SCALE: f64 = 0.02;
const SEED: u64 = 0x0B5;
/// The scaled calendar stays inside 2022 (see E12/E13).
const LOG_YEAR: i32 = 2022;

// ---------------------------------------------------------------- dataset

/// One simulated campaign, optionally corrupted, plus its CSV exports.
fn dataset(chaos_rate: f64) -> Corpus {
    corpus::build(SCALE, SEED, chaos_rate, true)
}

/// A fresh scratch directory under the system temp root; unique per
/// process and per call so parallel tests never collide.
fn scratch(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ingest-eq-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

// ------------------------------------------------------- tiny HTTP client
//
// The one-write keep-alive client lives in `servd::testutil` (shared by
// every server suite); only the 429-aware chunk POST is local.

use servd::testutil::{connect, get_on, request_on};

/// POSTs one chunk with its sequence number, honouring `429` shedding by
/// backing off and retrying until the server accepts (or the attempt
/// budget proves it never will). A `200` duplicate is success: the
/// record is already durable server-side.
fn post_chunk(conn: &mut TcpStream, stream: &str, seq: u64, payload: &[u8]) {
    for _ in 0..10_000 {
        let resp = request_on(
            conn,
            "POST",
            &format!("/ingest/{stream}?seq={seq}"),
            payload,
        );
        match resp.status {
            200 => return,
            429 => {
                let retry: u64 = resp
                    .header("Retry-After")
                    .and_then(|v| v.parse().ok())
                    .expect("429 must carry a parseable Retry-After");
                assert!(retry >= 1, "Retry-After must be at least a second");
                // The header is sized for polite external clients; the
                // test backs off just long enough for the worker to
                // drain a slot.
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            other => panic!(
                "POST /ingest/{stream}?seq={seq} -> {other}: {}",
                resp.text()
            ),
        }
    }
    panic!("chunk {stream}/{seq} never accepted after 10000 attempts");
}

// --------------------------------------------------------- live harness

/// One live-ingest server instance over a durable directory: recovered
/// engine, worker, store, HTTP listener.
struct Live {
    handle: Arc<servd::IngestHandle>,
    worker: servd::IngestWorker,
    server: servd::RunningServer,
}

impl Live {
    /// Per-stream accepted chunk counts, straight off the handle.
    fn accepted(&self) -> [u64; 4] {
        self.handle.accepted()
    }
}

impl Live {
    /// Recovers `dir` and serves it with a live ingest worker.
    fn start(dir: &Path, pipeline: Pipeline, queue_capacity: usize) -> Live {
        let mut config = IngestConfig::new(dir);
        config.queue_capacity = queue_capacity;
        // Cadence semantics (publish every N events / T seconds) are
        // covered by the servd unit tests and exercised live by E16 in
        // release builds; here a debug-build materialization costs tens
        // of seconds, so mid-feed publishes would starve the apply loop.
        // This suite proves convergence: the flush barrier publishes.
        config.publish_every_events = u64::MAX;
        config.publish_every = std::time::Duration::from_secs(24 * 3600);
        let recovered = servd::ingest::recover(config, pipeline, LOG_YEAR).expect("recover");
        let (report, quarantine) = recovered.engine.materialize_full();
        let store = Arc::new(StoreHandle::new(StudyStore::build(
            report,
            Some(&quarantine),
        )));
        let worker = servd::ingest::spawn_worker(
            recovered.engine,
            Arc::clone(&recovered.handle),
            Arc::clone(&store),
        );
        let server = servd::start_with_ingest(
            ServerConfig {
                addr: "127.0.0.1:0".to_owned(),
                // The whole-corpus leg POSTs the entire campaign log as
                // one body; give it generous headroom.
                max_body_bytes: 256 * 1024 * 1024,
                ..ServerConfig::default()
            },
            store,
            Some(Arc::clone(&recovered.handle)),
        )
        .expect("server starts on an ephemeral port");
        Live {
            handle: recovered.handle,
            worker,
            server,
        }
    }

    fn connect(&self) -> TcpStream {
        connect(self.server.addr())
    }

    /// Graceful stop: HTTP first, then drain + final checkpoint.
    fn stop(self) {
        self.server.shutdown();
        self.worker.stop();
    }
}

// ------------------------------------------------------ oracle + compare

/// The offline truth for a corpus: batch `run_lenient` over the whole
/// thing, rendered to the four compared surfaces.
fn oracle_surfaces(
    pipeline: &Pipeline,
    log: &[u8],
    [gpu_csv, cpu_csv, out_csv]: [&str; 3],
) -> Vec<(&'static str, String)> {
    let (report, _) = pipeline.run_lenient(log, LOG_YEAR, gpu_csv, cpu_csv, out_csv);
    surfaces_of(&report)
}

/// A corpus's CSV exports in acceptance order: GPU jobs, CPU jobs,
/// outages.
fn csvs(d: &Corpus) -> [&str; 3] {
    [d.gpu_csv(), d.cpu_csv(), d.out_csv()]
}

fn surfaces_of(report: &StudyReport) -> Vec<(&'static str, String)> {
    let a = &report.availability;
    let num = |v: Option<f64>| match v {
        Some(v) if v.is_finite() => format!("{:.6}", v + 0.0),
        _ => "null".to_owned(),
    };
    let availability = format!(
        "{{\n  \"outages\": {},\n  \"mttr_hours\": {},\n  \"total_downtime_node_hours\": {},\n  \"mttf_hours\": {},\n  \"availability\": {},\n  \"availability_empirical\": {}\n}}\n",
        a.outage_count(),
        num(a.mttr_hours()),
        num(Some(a.total_downtime_node_hours())),
        num(report.mttf_hours),
        num(report.availability_estimate()),
        num(Some(a.availability_empirical())),
    );
    let mut errors = String::from("time,host,pci,xid,kind,merged_lines\n");
    for e in &report.errors {
        use std::fmt::Write as _;
        let _ = writeln!(
            errors,
            "{},{},{},{},{},{}",
            e.time,
            e.host,
            e.pci,
            e.kind.primary_code(),
            e.kind.abbreviation(),
            e.merged_lines
        );
    }
    vec![
        ("/tables/1", report::table1(report)),
        ("/tables/2", report::table2(report)),
        ("/tables/3", report::table3(report)),
        ("/fig2", report::figure2(report)),
        ("/errors", errors),
        ("/availability", availability),
    ]
}

/// Feeds the corpus through the ingest endpoints in acceptance order
/// (logs, then the three CSV streams), `chunk` bytes per POST.
fn post_corpus(conn: &mut TcpStream, log: &[u8], csvs: [&str; 3], chunk: usize) {
    for (i, piece) in log.chunks(chunk).enumerate() {
        post_chunk(conn, "logs", i as u64, piece);
    }
    for (stream, csv) in ["jobs", "cpu-jobs", "outages"].into_iter().zip(csvs) {
        for (i, piece) in csv.as_bytes().chunks(chunk).enumerate() {
            post_chunk(conn, stream, i as u64, piece);
        }
    }
}

/// Flushes (publish + checkpoint barrier) and asserts every compared
/// surface is byte-identical to the oracle.
fn assert_converged(conn: &mut TcpStream, expected: &[(&'static str, String)], context: &str) {
    let flushed = request_on(conn, "POST", "/ingest/flush", &[]);
    assert_eq!(
        flushed.status,
        200,
        "{context}: flush failed: {}",
        flushed.text()
    );
    for (path, body) in expected {
        let resp = get_on(conn, path);
        assert_eq!(resp.status, 200, "{context} {path}");
        assert_eq!(
            &resp.text(),
            body,
            "{context} {path} diverged from the oracle"
        );
    }
}

// ---------------------------------------------------------------- tests

#[test]
fn chunked_posts_converge_to_the_offline_oracle() {
    for chaos_rate in [0.0, 0.05] {
        let d = dataset(chaos_rate);
        let expected = oracle_surfaces(&d.pipeline, d.log(), csvs(&d));
        assert!(
            expected
                .iter()
                .any(|(p, b)| *p == "/errors" && b.lines().count() > 100),
            "chaos={chaos_rate}: dataset too small to be a meaningful oracle"
        );
        for chunk in [1024usize, usize::MAX] {
            let dir = scratch("matrix");
            let live = Live::start(&dir, d.pipeline, 64);
            let mut conn = live.connect();
            post_corpus(&mut conn, d.log(), csvs(&d), chunk);
            let want_logs = d.log().chunks(chunk).count() as u64;
            assert_eq!(
                live.accepted()[0],
                want_logs,
                "chaos={chaos_rate} chunk={chunk}: accepted count drifted"
            );
            assert_converged(
                &mut conn,
                &expected,
                &format!("chaos={chaos_rate} chunk={chunk}"),
            );
            live.stop();
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn degenerate_one_and_seven_byte_chunks_converge() {
    // Byte-at-a-time POSTs over the full campaign would be quadratic in
    // round trips; a corpus prefix exercises every boundary condition
    // (WAL framing, seq handoff, mid-line and mid-token scanner carries)
    // at a few thousand requests. The cut deliberately ignores line
    // boundaries — the oracle sees the identical torn tail.
    for chaos_rate in [0.0, 0.05] {
        let d = dataset(chaos_rate);
        let log = &d.log()[..d.log().len().min(1500)];
        let gpu_csv = d.gpu_csv().lines().take(8).collect::<Vec<_>>().join("\n");
        let cpu_csv = d.cpu_csv().lines().take(8).collect::<Vec<_>>().join("\n");
        let out_csv = d.out_csv().lines().take(4).collect::<Vec<_>>().join("\n");
        let small = [gpu_csv.as_str(), cpu_csv.as_str(), out_csv.as_str()];
        let expected = oracle_surfaces(&d.pipeline, log, small);
        for chunk in [1usize, 7] {
            let dir = scratch("tiny");
            let live = Live::start(&dir, d.pipeline, 32);
            let mut conn = live.connect();
            post_corpus(&mut conn, log, small, chunk);
            assert_converged(
                &mut conn,
                &expected,
                &format!("chaos={chaos_rate} chunk={chunk}"),
            );
            live.stop();
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn acknowledged_chunks_survive_a_restart_and_duplicates_are_absorbed() {
    let d = dataset(0.0);
    let expected = oracle_surfaces(&d.pipeline, d.log(), csvs(&d));
    let chunks: Vec<&[u8]> = d.log().chunks(1024).collect();
    let dir = scratch("restart");

    // Phase A — a server that acknowledges but never applies: no worker
    // is spawned, so every accepted chunk exists only in the WAL. This
    // is the worst crash window: durable, acked, not yet in the engine,
    // no checkpoint ever written.
    let mut acked = 0u64;
    {
        let mut config = IngestConfig::new(&dir);
        config.queue_capacity = 48;
        let recovered =
            servd::ingest::recover(config, d.pipeline, LOG_YEAR).expect("fresh recover");
        let (report, quarantine) = recovered.engine.materialize_full();
        let store = Arc::new(StoreHandle::new(StudyStore::build(
            report,
            Some(&quarantine),
        )));
        let server = servd::start_with_ingest(
            ServerConfig {
                addr: "127.0.0.1:0".to_owned(),
                ..ServerConfig::default()
            },
            store,
            Some(Arc::clone(&recovered.handle)),
        )
        .expect("server starts");
        let mut conn = connect(server.addr());
        for (i, piece) in chunks.iter().enumerate().take(40) {
            let resp = request_on(&mut conn, "POST", &format!("/ingest/logs?seq={i}"), piece);
            assert_eq!(resp.status, 200, "phase A chunk {i}");
            acked += 1;
        }
        // SIGKILL-equivalent for an in-process test: the server vanishes
        // with a full queue and no checkpoint on disk.
        server.shutdown();
    }

    // Phase B — recovery on the same directory must replay every
    // acknowledged record from the WAL alone.
    let live = Live::start(&dir, d.pipeline, 64);
    let mut conn = live.connect();
    let status = get_on(&mut conn, "/ingest/status");
    assert!(
        status.text().contains(&format!("\"accepted\":{acked}")),
        "restart lost acknowledged chunks: {}",
        status.text()
    );

    // A client that never saw the acks re-sends from an earlier seq; the
    // duplicates are absorbed as no-ops.
    for i in (acked - 3)..acked {
        let resp = request_on(
            &mut conn,
            "POST",
            &format!("/ingest/logs?seq={i}"),
            chunks[i as usize],
        );
        assert_eq!(resp.status, 200, "duplicate {i} not absorbed");
    }
    // A gap is still refused — recovery must not have weakened the
    // protocol.
    let gap = request_on(&mut conn, "POST", "/ingest/logs?seq=9999999", b"x");
    assert_eq!(gap.status, 409, "gap accepted after restart");

    // The rest of the corpus, then the CSV streams, then the proof.
    for (i, piece) in chunks.iter().enumerate().skip(acked as usize) {
        post_chunk(&mut conn, "logs", i as u64, piece);
    }
    for (stream, csv) in [
        ("jobs", d.gpu_csv()),
        ("cpu-jobs", d.cpu_csv()),
        ("outages", d.out_csv()),
    ] {
        for (i, piece) in csv.as_bytes().chunks(4096).enumerate() {
            post_chunk(&mut conn, stream, i as u64, piece);
        }
    }
    assert_converged(&mut conn, &expected, "restart leg");
    live.stop();

    // A second recovery of the now-checkpointed directory is a clean
    // no-replay load: everything is inside the checkpoint.
    let mut config = IngestConfig::new(&dir);
    config.queue_capacity = 64;
    let recovered = servd::ingest::recover(config, d.pipeline, LOG_YEAR).expect("re-recover");
    assert_eq!(recovered.replayed, 0, "post-flush WAL should be compacted");
    assert_eq!(recovered.accepted[0] as usize, chunks.len());
    let (report, _) = recovered.engine.materialize_full();
    for (path, body) in surfaces_of(&report) {
        let want = expected.iter().find(|(p, _)| *p == path).map(|(_, b)| b);
        assert_eq!(Some(&body), want, "{path} diverged after second recovery");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
