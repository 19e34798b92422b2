//! E20 what-if scenario service sweep: campaign throughput as the
//! worker pool and per-request rep counts scale, cache-hit vs cold
//! compute latency, and the overload contract under a saturated
//! campaign queue.
//!
//! Three phases against live servd instances (the counterfactual
//! service is snapshot-independent, so the store can stay tiny):
//!
//! 1. **Cold vs cached** — one spec computed cold, then hammered as a
//!    cache hit: the hit must skip simulation entirely, so its latency
//!    sits orders of magnitude under the cold compute.
//! 2. **Throughput sweep** — distinct specs (seed-varied) across
//!    worker pools {1, 2, 4} × reps {1, 4}: arm-reps per second as the
//!    pool widens, all through the `202` + poll surface.
//! 3. **Shed probe** — a one-worker, capacity-2 queue pinned down by
//!    long campaigns: further distinct specs must come back `429` with
//!    `Retry-After` immediately, identical pending specs must *join*
//!    (202, no new slot), and concurrent read p99 must hold within a
//!    machine-scaled budget of the unloaded baseline.
//!
//! ```text
//! cargo run --release -p bench --bin whatif_sweep [--smoke]
//! ```

use servd::testutil::{self, TestResponse};
use servd::{ServerConfig, StoreHandle, StudyStore, WhatifConfig};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let smoke = std::env::args().skip(1).any(|a| a == "--smoke");
    println!(
        "what-if scenario service sweep (E20){}",
        if smoke { " [smoke]" } else { "" }
    );

    cold_vs_cached(smoke);
    throughput_sweep(smoke);
    shed_probe(smoke);

    println!(
        "\nReading: a cache hit is a map lookup on the canonical spec\n\
         key, so hot counterfactuals answer at read-endpoint speed while\n\
         cold ones pay the full paired campaign. Throughput scales with\n\
         the worker pool until campaigns outnumber cores; past the queue\n\
         the service sheds instantly instead of building a backlog, and\n\
         the read path stays flat because campaigns run on their own\n\
         pool, never on the event loops."
    );
}

fn empty_store() -> Arc<StoreHandle> {
    let report = resilience::Pipeline::delta().run_events(Vec::new(), None, &[], &[], &[]);
    Arc::new(StoreHandle::new(StudyStore::build(report, None)))
}

fn serve(whatif: WhatifConfig) -> servd::RunningServer {
    servd::start(
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            whatif,
            ..ServerConfig::default()
        },
        empty_store(),
    )
    .unwrap_or_else(|e| panic!("failed to start server: {e}"))
}

// ------------------------------------------------- phase 1: cold vs hit

fn cold_vs_cached(smoke: bool) {
    let server = serve(WhatifConfig {
        workers: 2,
        ..WhatifConfig::default()
    });
    let addr = server.addr().to_string();
    let mut conn = connect(&addr);
    let path = "/whatif?seed=100&reps=2&mttr_scale=0.5";

    let started = Instant::now();
    let cold = testutil::request_on(&mut conn, "GET", path, b"");
    let cold_ns = started.elapsed().as_nanos() as u64;
    expect(&cold, 200, path);
    assert_eq!(cold.header("X-Cache"), Some("miss"), "first compute");

    let hits = if smoke { 200 } else { 2000 };
    let mut latencies = Vec::with_capacity(hits);
    for _ in 0..hits {
        let started = Instant::now();
        let hit = testutil::request_on(&mut conn, "GET", path, b"");
        latencies.push(started.elapsed().as_nanos() as u64);
        expect(&hit, 200, path);
        assert_eq!(hit.header("X-Cache"), Some("hit"), "cached recompute");
        assert_eq!(hit.body, cold.body, "cache served different bytes");
    }
    latencies.sort_unstable();
    let hit_p99 = percentile(&latencies, 99);
    println!(
        "\ncold vs cached ({path}):\n  cold compute {}   cache hit p50 {}  p99 {}  ({hits} hits, byte-identical)",
        human_ns(cold_ns),
        human_ns(percentile(&latencies, 50)),
        human_ns(hit_p99),
    );
    assert!(
        hit_p99 * 10 < cold_ns,
        "cache hit p99 {} is not well under the cold compute {}",
        human_ns(hit_p99),
        human_ns(cold_ns)
    );
    server.shutdown();
}

// ------------------------------------------- phase 2: throughput sweep

fn throughput_sweep(smoke: bool) {
    println!("\ncampaign throughput (distinct specs via 202 + poll):");
    println!("  workers  reps  campaigns  arm-reps  wall      arm-reps/s");
    let campaigns = if smoke { 4 } else { 8 };
    let mut seed = 9000u64;
    for workers in [1usize, 2, 4] {
        for reps in [1u32, 4] {
            let server = serve(WhatifConfig {
                workers,
                queue_capacity: campaigns + 1,
                ..WhatifConfig::default()
            });
            let addr = server.addr().to_string();
            // Distinct seeds force distinct cache keys: every request
            // is a real campaign. reps over the sync threshold would
            // serialize the submitting connections, so submit through
            // the async surface regardless of rep count by spreading
            // submissions across connections first, then polling.
            let started = Instant::now();
            let polls: Vec<String> = (0..campaigns)
                .map(|_| {
                    seed += 1;
                    format!("/whatif?seed={seed}&reps={reps}&xid_rate=79:2")
                })
                .collect();
            let bodies: Vec<TestResponse> = std::thread::scope(|scope| {
                let handles: Vec<_> = polls
                    .iter()
                    .map(|path| {
                        let addr = addr.clone();
                        scope.spawn(move || testutil::whatif_to_completion(&*addr, path, 3000))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|_| panic!("submitter panicked")))
                    .collect()
            });
            let wall = started.elapsed().as_secs_f64();
            for (resp, path) in bodies.iter().zip(&polls) {
                expect(resp, 200, path);
            }
            // Each campaign runs `reps` paired arm-reps (baseline +
            // scenario share the fork, counted as 2 arms).
            let arm_reps = campaigns as u32 * reps * 2;
            println!(
                "  {workers:>7}  {reps:>4}  {campaigns:>9}  {arm_reps:>8}  {wall:>7.2}s  {:>10.1}",
                f64::from(arm_reps) / wall.max(1e-12),
            );
            server.shutdown();
        }
    }
}

// ------------------------------------------------- phase 3: shed probe

fn shed_probe(smoke: bool) {
    // One worker, a two-slot queue: long campaigns pin the worker so
    // the queue stays full for the probe window.
    let server = serve(WhatifConfig {
        workers: 1,
        queue_capacity: 2,
        ..WhatifConfig::default()
    });
    let addr = server.addr().to_string();

    // Idle read baseline before any campaign runs.
    let idle_reads = if smoke { 300 } else { 1500 };
    let idle = read_phase(&addr, idle_reads);
    let idle_p99 = percentile(&idle, 99);
    println!(
        "\nshed probe: idle reads p50 {}  p99 {}",
        human_ns(percentile(&idle, 50)),
        human_ns(idle_p99)
    );

    // Fill the worker + queue with long-running distinct campaigns. The
    // first must be off the queue before the other two are submitted, or
    // the third finds both slots still taken and draws a 429.
    let mut filler = connect(&addr);
    let reps = if smoke { 6 } else { 16 };
    let mut pending = Vec::new();
    for seed in 7000..7003u64 {
        let path = format!("/whatif?seed={seed}&reps={reps}");
        let resp = testutil::request_on(&mut filler, "GET", &path, b"");
        expect(&resp, 202, &path);
        if seed == 7000 {
            wait_until_dequeued(&mut filler, &resp);
        }
        pending.push(path);
    }

    // Concurrent reads while the probe hammers the full queue.
    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let addr = addr.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut conn = connect(&addr);
            let mut latencies = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let started = Instant::now();
                let resp = testutil::request_on(&mut conn, "GET", "/tables/1", b"");
                assert_eq!(resp.status, 200, "read failed during shedding");
                latencies.push(started.elapsed().as_nanos() as u64);
            }
            latencies
        })
    };

    let probes = if smoke { 50 } else { 200 };
    let mut shed = 0u64;
    let mut joined = 0u64;
    let mut worst_shed = 0u64;
    let mut probe_seed = 8000u64;
    for i in 0..probes {
        // A *distinct* spec needs a queue slot: with the queue full it
        // must shed immediately.
        probe_seed += 1;
        let path = format!("/whatif?seed={probe_seed}&reps={reps}");
        let started = Instant::now();
        let resp = testutil::request_on(&mut filler, "GET", &path, b"");
        let shed_ns = started.elapsed().as_nanos() as u64;
        if resp.status == 429 {
            shed += 1;
            worst_shed = worst_shed.max(shed_ns);
            assert!(
                resp.header("Retry-After").is_some(),
                "429 without Retry-After"
            );
        } else {
            // The worker drained a slot between probes; that request
            // legitimately queued. Tolerated, but must be a 202.
            expect(&resp, 202, &path);
            pending.push(path);
        }
        // An *identical* pending spec joins the in-flight job without
        // consuming a slot — never a 429.
        if i % 10 == 0 {
            if let Some(path) = pending.last() {
                let resp = testutil::request_on(&mut filler, "GET", path, b"");
                expect(&resp, 202, path);
                joined += 1;
            }
        }
    }
    stop.store(true, Ordering::Relaxed);
    let mut under_load = reader
        .join()
        .unwrap_or_else(|_| panic!("reader thread panicked"));
    under_load.sort_unstable();
    let load_p99 = percentile(&under_load, 99);
    assert!(shed > 0, "queue never saturated: no 429 observed");
    assert!(
        worst_shed < 1_000_000_000,
        "shedding blocked for {} — not load shedding",
        human_ns(worst_shed)
    );
    println!(
        "  {probes} distinct probes against a full queue: {shed} shed (429, worst {}), {joined} identical joins (202)",
        human_ns(worst_shed)
    );
    println!(
        "  reads under shed load: {} requests, p50 {}  p99 {}  (idle p99 {})",
        under_load.len(),
        human_ns(percentile(&under_load, 50)),
        human_ns(load_p99),
        human_ns(idle_p99)
    );

    // Machine-scaled tail gate, same shape as E16: campaigns and
    // shedding must not stall the read path. The absolute floor
    // absorbs timer noise on very fast idle baselines.
    let floor_ns = 25_000_000u64; // 25 ms
    let budget = (2 * idle_p99).max(floor_ns);
    assert!(
        load_p99 <= budget,
        "read p99 under shed load {} exceeds budget {} (2x idle p99 {}, floor {})",
        human_ns(load_p99),
        human_ns(budget),
        human_ns(idle_p99),
        human_ns(floor_ns)
    );
    println!(
        "  tail gate: p99 under load {} <= budget {} — ok",
        human_ns(load_p99),
        human_ns(budget)
    );
    server.shutdown();
}

// --------------------------------------------------------------- helpers

fn connect(addr: &str) -> TcpStream {
    testutil::connect(addr)
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

/// Polls the job a `202` names until the worker has taken it off the
/// queue: its status reads `running` (or it already finished).
fn wait_until_dequeued(conn: &mut TcpStream, accepted: &TestResponse) {
    let poll = accepted.poll_url();
    for _ in 0..500 {
        let resp = testutil::request_on(conn, "GET", &poll, b"");
        if resp.status == 200 || resp.text().contains("\"status\":\"running\"") {
            return;
        }
        expect(&resp, 202, &poll);
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("shed probe: the worker did not start the first filler campaign ({poll}) within 500 polls 10 ms apart");
}

/// Measures `count` sequential idle GETs of `/tables/1`; returns sorted
/// per-request latencies in nanoseconds.
fn read_phase(addr: &str, count: usize) -> Vec<u64> {
    let mut conn = connect(addr);
    let mut latencies = Vec::with_capacity(count);
    for _ in 0..count {
        let started = Instant::now();
        let resp = testutil::request_on(&mut conn, "GET", "/tables/1", b"");
        assert_eq!(resp.status, 200, "idle read failed");
        latencies.push(started.elapsed().as_nanos() as u64);
    }
    latencies.sort_unstable();
    latencies
}

fn percentile(sorted_ns: &[u64], pct: usize) -> u64 {
    if sorted_ns.is_empty() {
        return 0;
    }
    let rank = (sorted_ns.len() * pct).div_ceil(100);
    sorted_ns[rank.saturating_sub(1).min(sorted_ns.len() - 1)]
}

fn human_ns(ns: u64) -> String {
    let us = ns as f64 / 1e3;
    if us >= 1e3 {
        format!("{:.2} ms", us / 1e3)
    } else {
        format!("{us:.0} us")
    }
}
