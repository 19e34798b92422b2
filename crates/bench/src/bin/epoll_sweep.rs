//! E17 epoll/shard sweep: throughput and tail latency of the
//! event-loop servd core as the store shard count and the concurrent
//! connection fleet scale.
//!
//! One campaign is simulated and frozen once; then, for each shard
//! count in {1, 2, 4, 8}, a fresh sharded store is served by the epoll
//! core and hammered by a keep-alive fleet at 10× the E15 connection
//! count, round-robining the full endpoint surface (`/errors` and
//! `/mtbe` included). Every cache miss renders inline on the event loop
//! that read the request; a multi-shard `/errors` scans its shards one
//! after another and merges them there. A second pass holds the shard
//! count at `min(cores, 8)` and scales the fleet, showing how the fixed
//! event-loop threads multiplex a growing connection count without
//! thread-per-connection cost.
//!
//! ```text
//! cargo run --release -p bench --bin epoll_sweep [--smoke] [SCALE] [SEED]
//! ```
//!
//! Every response must be a complete `200` body — one error fails the
//! run. The paper-grade target is ≥100k req/s with p99 < 5 ms on
//! server-class hardware; CI asserts the conservative machine-scaled
//! floor (the same `150 × min(cores, 8)` gate E15 uses) so the sweep
//! stays an honest regression tripwire on small containers.

use bench::{banner, run_study, RunOptions, DEFAULT_SEED};
use servd::testutil::{connect, get_on};
use servd::{ServerConfig, StoreHandle, StudyStore};
use std::sync::Arc;
use std::time::Instant;

/// The E15 request mix, unchanged: comparable numbers across reports.
const ENDPOINTS: &[&str] = &[
    "/tables/1",
    "/tables/2",
    "/tables/3",
    "/fig2",
    "/errors",
    "/errors?host=gpub001",
    "/errors?xid=74",
    "/mtbe",
    "/mtbe?xid=119",
    "/jobs/impact",
    "/availability",
    "/snapshot",
    "/healthz",
];

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn main() {
    let (smoke, options) = parse_args();
    banner("servd epoll/shard sweep (E17)", options);

    let study = run_study(options, false);
    println!(
        "store: {} coalesced errors, {} GPU jobs, {} outages",
        study.report.errors.len(),
        study.report.impact.gpu_failed_jobs(),
        study.report.availability.outage_count()
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let floor = (150 * cores.min(8)) as f64;

    // 10× the E15 fleet; the epoll core multiplexes every connection
    // over a few event-loop threads, so unlike the old thread-pool
    // core the worker count no longer tracks the fleet size.
    let (conns, per_conn) = if smoke { (80, 25) } else { (160, 250) };
    let fleet_scaling: &[usize] = if smoke { &[8, 16, 80] } else { &[16, 40, 160] };

    println!("\n-- shard sweep at {conns} connections x {per_conn} requests --");
    println!("shards  req/s      p50        p90        p99        max      errors");
    let mut worst_floor_miss: Option<String> = None;
    for shards in SHARD_COUNTS {
        let m = run_fleet(&study.report, shards, conns, per_conn);
        println!(
            "{shards:>6}  {:>9.0}  {:>9}  {:>9}  {:>9}  {:>9}  {:>6}",
            m.rate,
            human_ns(m.p50),
            human_ns(m.p90),
            human_ns(m.p99),
            human_ns(m.max),
            m.errors
        );
        assert_eq!(m.errors, 0, "shard={shards}: {} failed requests", m.errors);
        if m.rate < floor {
            worst_floor_miss = Some(format!(
                "shards={shards}: {:.0} req/s below machine floor {floor:.0}",
                m.rate
            ));
        }
    }

    let width = cores.clamp(1, 8);
    println!("\n-- connection scaling at {width} shards, {per_conn} requests each --");
    println!(" conns  req/s      p50        p90        p99        max      errors");
    for &fleet in fleet_scaling {
        let m = run_fleet(&study.report, width, fleet, per_conn);
        println!(
            "{fleet:>6}  {:>9.0}  {:>9}  {:>9}  {:>9}  {:>9}  {:>6}",
            m.rate,
            human_ns(m.p50),
            human_ns(m.p90),
            human_ns(m.p99),
            human_ns(m.max),
            m.errors
        );
        assert_eq!(m.errors, 0, "conns={fleet}: {} failed requests", m.errors);
        if m.rate >= 100_000.0 && m.p99 < 5_000_000 {
            println!("        ^ paper-grade target met (>=100k req/s, p99 < 5 ms)");
        }
    }

    if let Some(miss) = worst_floor_miss {
        panic!("E17 floor violated — {miss}");
    }
    println!("\nfloor {floor:.0} req/s on {cores} cores — ok");
    println!(
        "\nReading: shard count changes how an /errors miss scans, not\n\
         what it returns — every miss renders inline on its event loop,\n\
         so the shard sweep adds only the per-shard scans and the merge,\n\
         small next to a socket round trip, while staying\n\
         byte-identical (tests/shard_equivalence.rs). The connection\n\
         scaling pass is the epoll dividend: the fleet grows 10x but the\n\
         event-loop thread count stays fixed, so req/s holds instead of\n\
         collapsing under thread-per-connection scheduling."
    );
}

struct FleetMetrics {
    rate: f64,
    p50: u64,
    p90: u64,
    p99: u64,
    max: u64,
    errors: usize,
}

/// Serves a freshly sharded store and drives `conns` keep-alive
/// clients of `per_conn` requests each; returns aggregate metrics.
fn run_fleet(
    report: &resilience::StudyReport,
    shards: usize,
    conns: usize,
    per_conn: usize,
) -> FleetMetrics {
    let store = Arc::new(StoreHandle::new(StudyStore::build_sharded(
        report.clone(),
        None,
        shards,
    )));
    let server = servd::start(
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            max_queue: conns + 16,
            ..ServerConfig::default()
        },
        Arc::clone(&store),
    )
    .unwrap_or_else(|e| panic!("failed to start server: {e}"));
    let addr = server.addr().to_string();

    let wall = Instant::now();
    let handles: Vec<_> = (0..conns)
        .map(|c| {
            let addr = addr.clone();
            std::thread::spawn(move || client_run(&addr, c, per_conn))
        })
        .collect();
    let mut latencies_ns: Vec<u64> = Vec::with_capacity(conns * per_conn);
    let mut errors = 0usize;
    for handle in handles {
        match handle.join() {
            Ok((lat, errs)) => {
                latencies_ns.extend(lat);
                errors += errs;
            }
            Err(_) => errors += per_conn,
        }
    }
    let wall_secs = wall.elapsed().as_secs_f64();
    server.shutdown();

    latencies_ns.sort_unstable();
    FleetMetrics {
        rate: latencies_ns.len() as f64 / wall_secs.max(1e-12),
        p50: percentile(&latencies_ns, 50),
        p90: percentile(&latencies_ns, 90),
        p99: percentile(&latencies_ns, 99),
        max: latencies_ns.last().copied().unwrap_or(0),
        errors,
    }
}

/// One keep-alive connection issuing `count` requests through the
/// shared `servd::testutil` client, phased per client like E15.
fn client_run(addr: &str, client: usize, count: usize) -> (Vec<u64>, usize) {
    let mut latencies = Vec::with_capacity(count);
    let mut errors = 0usize;
    let mut conn = connect(addr);
    for i in 0..count {
        let path = ENDPOINTS[(client + i) % ENDPOINTS.len()];
        let start = Instant::now();
        let resp = get_on(&mut conn, path);
        if resp.status == 200 && !resp.body.is_empty() {
            latencies.push(start.elapsed().as_nanos() as u64);
        } else {
            errors += 1;
        }
    }
    (latencies, errors)
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

fn parse_args() -> (bool, RunOptions) {
    let mut smoke = false;
    let mut positional: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else {
            positional.push(arg);
        }
    }
    let scale = positional
        .first()
        .map(|a| {
            a.parse::<f64>()
                .unwrap_or_else(|_| panic!("bad SCALE {a:?}"))
        })
        .unwrap_or(if smoke { 0.02 } else { 0.05 });
    assert!(scale > 0.0 && scale <= 0.25, "SCALE must be in (0, 0.25]");
    let seed = positional
        .get(1)
        .map(|a| {
            a.parse::<u64>()
                .unwrap_or_else(|_| panic!("bad SEED {a:?}"))
        })
        .unwrap_or(DEFAULT_SEED);
    (smoke, RunOptions { scale, seed })
}
