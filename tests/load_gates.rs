//! Load gates for the serving, live-ingest and what-if paths: the
//! throughput floors, tail-latency budgets and overload contracts that
//! no differential suite holds, each at the smoke parameters and budget
//! of the sweep it comes from (EXPERIMENTS.md E15, E16, E17, E20).
//!
//! - A keep-alive fleet of 80 connections × 25 requests over the
//!   13-endpoint mix, against 4 event loops, gets only complete `200`s,
//!   at no less than `150 × min(cores, 8)` requests per second.
//! - Readers of `/tables/1` keep their p99 within
//!   `max(2 × idle p99, 25 ms)` while a whole corpus is POSTed to
//!   `/ingest/*` and published.
//! - A cached `/whatif` answer is byte-identical and its p99 is under a
//!   tenth of the cold compute; distinct campaigns all finish `200`
//!   across worker pools; and at a full campaign queue a distinct spec
//!   is shed with `429` + `Retry-After` within 1 s, an identical one
//!   joins with `202`, and reads keep the same p99 budget over as many
//!   reads as the idle sample.
//!
//! The gates run one at a time under a suite lock: each reads the wall
//! clock. CI runs them in release (`cargo test --release --test
//! load_gates`), the build the budgets were set for; they hold in a
//! debug build as well.

use bench::{human_ns, percentile, run_fleet, run_study, RunOptions, DEFAULT_SEED, ENDPOINTS};
use delta_gpu_resilience::corpus;
use servd::testutil::{connect, request_on, whatif_to_completion, TestResponse};
use servd::{IngestConfig, ServerConfig, StoreHandle, StudyStore, WhatifConfig};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// The sweeps' smoke corpus.
const SMOKE: RunOptions = RunOptions {
    scale: 0.02,
    seed: DEFAULT_SEED,
};

/// The tail budget's absolute floor: it absorbs timer noise on very
/// fast idle baselines.
const TAIL_FLOOR_NS: u64 = 25_000_000;

/// Runs the gates one at a time: each reads the wall clock, and two at
/// once would share the machine.
fn suite_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The conservative machine-scaled throughput floor, in requests per
/// second.
fn machine_floor() -> f64 {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    (150 * cores.min(8)) as f64
}

/// Asserts a loaded read p99 within `max(2 × idle p99, 25 ms)`.
fn assert_tail_within_budget(what: &str, loaded_p99: u64, idle_p99: u64) {
    let budget = (2 * idle_p99).max(TAIL_FLOOR_NS);
    assert!(
        loaded_p99 <= budget,
        "read p99 under {what} {} exceeds budget {} (2x idle p99 {}, floor {})",
        human_ns(loaded_p99),
        human_ns(budget),
        human_ns(idle_p99),
        human_ns(TAIL_FLOOR_NS),
    );
}

/// `count` sequential GETs of `/tables/1` on one connection; returns the
/// sorted latencies in nanoseconds.
fn idle_reads(addr: &str, count: usize) -> Vec<u64> {
    let mut conn = connect(addr);
    let mut latencies: Vec<u64> = (0..count)
        .map(|_| {
            let started = Instant::now();
            let resp = request_on(&mut conn, "GET", "/tables/1", b"");
            assert_eq!(resp.status, 200, "idle read failed");
            started.elapsed().as_nanos() as u64
        })
        .collect();
    latencies.sort_unstable();
    latencies
}

/// A thread reading `/tables/1` in a loop until `stop` is set, adding
/// one to `reads` per read; joins to the sorted latencies in
/// nanoseconds. Returns once the first read is back, so the load that
/// follows always has reads beside it.
fn spawn_reader(
    addr: &str,
    stop: &Arc<AtomicBool>,
    reads: &Arc<AtomicUsize>,
) -> std::thread::JoinHandle<Vec<u64>> {
    let addr = addr.to_owned();
    let stop = Arc::clone(stop);
    let reads = Arc::clone(reads);
    let (reading, first_read) = std::sync::mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut conn = connect(&addr);
        let mut latencies = Vec::new();
        loop {
            let started = Instant::now();
            let resp = request_on(&mut conn, "GET", "/tables/1", b"");
            assert_eq!(resp.status, 200, "read failed under load");
            latencies.push(started.elapsed().as_nanos() as u64);
            reads.fetch_add(1, Ordering::Relaxed);
            let _ = reading.send(());
            if stop.load(Ordering::Relaxed) {
                break;
            }
        }
        latencies.sort_unstable();
        latencies
    });
    let _ = first_read.recv();
    reader
}

fn join_reader(reader: std::thread::JoinHandle<Vec<u64>>) -> Vec<u64> {
    reader
        .join()
        .unwrap_or_else(|_| panic!("reader thread panicked"))
}

// ---------------------------------------------------------------- serving

#[test]
fn serving_fleet_gets_only_200s_above_the_machine_floor() {
    let _guard = suite_lock();
    let report = run_study(SMOKE, false).report;
    let (conns, per_conn) = (80, 25);
    let m = run_fleet(
        &report,
        1,
        ServerConfig::default(),
        ENDPOINTS,
        conns,
        per_conn,
    );
    assert_eq!(
        m.errors,
        0,
        "{} of {} requests failed or were misframed",
        m.errors,
        conns * per_conn
    );
    let floor = machine_floor();
    assert!(
        m.rate >= floor,
        "fleet throughput {:.0} req/s below the machine floor {floor:.0} (p99 {})",
        m.rate,
        human_ns(m.p99)
    );
}

// ------------------------------------------------------------ live ingest

/// POSTs one chunk, retrying through `429`s; returns how many it
/// absorbed.
fn post_chunk(conn: &mut TcpStream, stream: &str, seq: u64, payload: &[u8]) -> u64 {
    let mut shed = 0u64;
    loop {
        let path = format!("/ingest/{stream}?seq={seq}");
        let resp = request_on(conn, "POST", &path, payload);
        match resp.status {
            200 => return shed,
            429 => {
                shed += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
            other => panic!("POST {path} -> {other}: {}", resp.text()),
        }
        assert!(shed <= 100_000, "chunk {stream}/{seq} never accepted");
    }
}

#[test]
fn ingest_reads_keep_their_tail_while_a_corpus_streams_in() {
    let _guard = suite_lock();
    let corpus = corpus::build(SMOKE.scale, SMOKE.seed, 0.0, true);
    // Rendered before any timing starts.
    let streams = [
        ("logs", corpus.log()),
        ("jobs", corpus.gpu_csv().as_bytes()),
        ("cpu-jobs", corpus.cpu_csv().as_bytes()),
        ("outages", corpus.out_csv().as_bytes()),
    ];
    let dir = std::env::temp_dir().join(format!("load-gates-ingest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("scratch dir: {e}"));

    let mut config = IngestConfig::new(&dir);
    config.queue_capacity = 256;
    config.publish_every_events = 20_000;
    config.publish_every = Duration::from_secs(1);
    let recovered = servd::ingest::recover(config, corpus.pipeline, 2022)
        .unwrap_or_else(|e| panic!("recover failed: {e}"));
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
            workers: 8,
            max_queue: 16,
            ..ServerConfig::default()
        },
        store,
        Some(Arc::clone(&recovered.handle)),
    )
    .unwrap_or_else(|e| panic!("failed to start server: {e}"));
    let addr = server.addr().to_string();

    let idle_p99 = percentile(&idle_reads(&addr, 400), 99);

    let chunk = 16 * 1024;
    let stop = Arc::new(AtomicBool::new(false));
    let reads = Arc::new(AtomicUsize::new(0));
    let readers: Vec<_> = (0..2).map(|_| spawn_reader(&addr, &stop, &reads)).collect();
    let mut writer = connect(&addr);
    let mut posted = 0u64;
    for (stream, bytes) in streams {
        for (seq, piece) in bytes.chunks(chunk).enumerate() {
            post_chunk(&mut writer, stream, seq as u64, piece);
            posted += 1;
        }
    }
    let flush = request_on(&mut writer, "POST", "/ingest/flush", b"");
    assert_eq!(flush.status, 200, "flush failed: {}", flush.text());
    stop.store(true, Ordering::Relaxed);
    let mut under_ingest: Vec<u64> = readers.into_iter().flat_map(join_reader).collect();
    under_ingest.sort_unstable();

    assert_eq!(
        recovered.handle.applied().iter().sum::<u64>(),
        posted,
        "applied chunk count drifted from posted"
    );
    assert_tail_within_budget("sustained ingest", percentile(&under_ingest, 99), idle_p99);
    server.shutdown();
    worker.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------- what-if

/// A server over an empty study: the what-if service does not read the
/// snapshot, so the store can stay tiny.
fn whatif_server(whatif: WhatifConfig) -> servd::RunningServer {
    let report = resilience::Pipeline::delta().run_events(Vec::new(), None, &[], &[], &[]);
    servd::start(
        ServerConfig {
            whatif,
            ..ServerConfig::default()
        },
        Arc::new(StoreHandle::new(StudyStore::build(report, None))),
    )
    .unwrap_or_else(|e| panic!("failed to start server: {e}"))
}

fn expect(resp: &TestResponse, status: u16, context: &str) {
    assert_eq!(
        resp.status,
        status,
        "{context}: expected {status}, got {} ({})",
        resp.status,
        resp.text()
    );
}

#[test]
fn whatif_cache_hits_are_identical_and_far_under_the_cold_compute() {
    let _guard = suite_lock();
    let server = whatif_server(WhatifConfig {
        workers: 2,
        ..WhatifConfig::default()
    });
    let mut conn = connect(server.addr());
    let path = "/whatif?seed=100&reps=2&mttr_scale=0.5";

    let started = Instant::now();
    let cold = request_on(&mut conn, "GET", path, b"");
    let cold_ns = started.elapsed().as_nanos() as u64;
    expect(&cold, 200, path);
    assert_eq!(cold.header("X-Cache"), Some("miss"), "first compute");

    let mut hits: Vec<u64> = (0..200)
        .map(|_| {
            let started = Instant::now();
            let hit = request_on(&mut conn, "GET", path, b"");
            let ns = started.elapsed().as_nanos() as u64;
            expect(&hit, 200, path);
            assert_eq!(hit.header("X-Cache"), Some("hit"), "cached recompute");
            assert_eq!(hit.body, cold.body, "cache served different bytes");
            ns
        })
        .collect();
    hits.sort_unstable();
    let hit_p99 = percentile(&hits, 99);
    assert!(
        hit_p99 * 10 < cold_ns,
        "cache hit p99 {} is not well under the cold compute {}",
        human_ns(hit_p99),
        human_ns(cold_ns)
    );
    server.shutdown();
}

#[test]
fn whatif_distinct_campaigns_all_finish_across_worker_pools() {
    let _guard = suite_lock();
    let campaigns = 4;
    let mut seed = 9000u64;
    for workers in [1usize, 2, 4] {
        for reps in [1u32, 4] {
            let server = whatif_server(WhatifConfig {
                workers,
                queue_capacity: campaigns + 1,
                ..WhatifConfig::default()
            });
            let addr = server.addr();
            // Distinct seeds are distinct cache keys: every request is a
            // campaign of its own, all submitted at once.
            let paths: Vec<String> = (0..campaigns)
                .map(|_| {
                    seed += 1;
                    format!("/whatif?seed={seed}&reps={reps}&xid_rate=79:2")
                })
                .collect();
            std::thread::scope(|scope| {
                let handles: Vec<_> = paths
                    .iter()
                    .map(|path| scope.spawn(move || whatif_to_completion(addr, path, 3000)))
                    .collect();
                for (handle, path) in handles.into_iter().zip(&paths) {
                    let resp = handle
                        .join()
                        .unwrap_or_else(|_| panic!("submitter panicked"));
                    expect(&resp, 200, &format!("workers={workers} {path}"));
                }
            });
            server.shutdown();
        }
    }
}

/// Polls the job a `202` names until a worker has taken it off the
/// queue: its status reads `running`, or it already finished.
fn wait_until_dequeued(conn: &mut TcpStream, accepted: &TestResponse) {
    let poll = accepted.poll_url();
    for _ in 0..500 {
        let resp = request_on(conn, "GET", &poll, b"");
        if resp.status == 200 || resp.text().contains("\"status\":\"running\"") {
            return;
        }
        expect(&resp, 202, &poll);
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("the worker did not start {poll} within 500 polls 10 ms apart");
}

#[test]
fn whatif_full_queue_sheds_at_once_while_reads_keep_their_tail() {
    let _guard = suite_lock();
    // One worker and a two-slot queue: long campaigns pin the worker so
    // the queue stays full for the probe window.
    let server = whatif_server(WhatifConfig {
        workers: 1,
        queue_capacity: 2,
        ..WhatifConfig::default()
    });
    let addr = server.addr().to_string();
    let sample = 300;
    let idle_p99 = percentile(&idle_reads(&addr, sample), 99);

    // Fill the worker and the queue. The first campaign must be off the
    // queue before the other two are submitted, or the third finds both
    // slots taken.
    let mut filler = connect(&addr);
    let reps = 6;
    let mut pending = Vec::new();
    for seed in 7000..7003u64 {
        let path = format!("/whatif?seed={seed}&reps={reps}");
        let resp = request_on(&mut filler, "GET", &path, b"");
        expect(&resp, 202, &path);
        if seed == 7000 {
            wait_until_dequeued(&mut filler, &resp);
        }
        pending.push(path);
    }

    // Probe until the reader has as many reads under shed load as the
    // idle sample, so the p99 below is a tail and not the slowest of a
    // handful.
    let stop = Arc::new(AtomicBool::new(false));
    let reads = Arc::new(AtomicUsize::new(0));
    let reader = spawn_reader(&addr, &stop, &reads);
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut shed = 0u64;
    let mut worst_shed = 0u64;
    let mut probe_seed = 8001u64;
    while reads.load(Ordering::Relaxed) < sample {
        assert!(
            Instant::now() < deadline,
            "the reader managed {} of {sample} reads in 60 s of shed load",
            reads.load(Ordering::Relaxed)
        );
        // A distinct spec needs a queue slot it cannot have.
        let path = format!("/whatif?seed={probe_seed}&reps={reps}");
        let started = Instant::now();
        let resp = request_on(&mut filler, "GET", &path, b"");
        let shed_ns = started.elapsed().as_nanos() as u64;
        if resp.status == 429 {
            shed += 1;
            worst_shed = worst_shed.max(shed_ns);
            assert!(
                resp.header("Retry-After").is_some(),
                "429 without Retry-After"
            );
        } else {
            // The worker freed a slot between probes and this spec took
            // it: allowed, as a 202.
            expect(&resp, 202, &path);
            pending.push(path);
        }
        // An identical pending spec joins its job instead of taking a
        // slot: never a 429.
        if probe_seed % 10 == 1 {
            if let Some(path) = pending.last() {
                let resp = request_on(&mut filler, "GET", path, b"");
                expect(&resp, 202, path);
            }
        }
        probe_seed += 1;
    }
    // The reads ran under shed load only if the queue is full still.
    let path = format!("/whatif?seed={probe_seed}&reps={reps}");
    expect(&request_on(&mut filler, "GET", &path, b""), 429, &path);
    stop.store(true, Ordering::Relaxed);
    let under_load = join_reader(reader);

    assert!(shed > 0, "queue never saturated: no 429 observed");
    assert!(
        worst_shed < 1_000_000_000,
        "shedding blocked for {} — not load shedding",
        human_ns(worst_shed)
    );
    assert_tail_within_budget("shed load", percentile(&under_load, 99), idle_p99);
    server.shutdown();
}
