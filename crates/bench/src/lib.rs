//! Shared harness code for the table/figure regeneration binaries and
//! the serving load gates.
//!
//! Every regeneration binary accepts the same two optional arguments:
//!
//! ```text
//! <binary> [SCALE] [SEED]
//! ```
//!
//! `SCALE` (default 1.0) multiplies the simulated calendar; `SEED`
//! (default 0xDE17A) seeds every random stream. `EXPERIMENTS.md` records
//! the full-scale (`SCALE = 1.0`) outputs. The serving load gates
//! (`tests/load_gates.rs`) drive their servers with [`run_fleet`].

use delta_gpu_resilience::bridge;
use delta_gpu_resilience::corpus::{self, Corpus};
use faultsim::CampaignOutput;
use resilience::StudyReport;
use servd::testutil::{connect, get_on};
use servd::{ServerConfig, StoreHandle, StudyStore};
use std::sync::Arc;
use std::time::Instant;

/// The default campaign seed used across EXPERIMENTS.md.
pub const DEFAULT_SEED: u64 = 0xDE17A;

/// Parsed command-line options for a regeneration binary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOptions {
    /// Calendar scale in `(0, 1]`.
    pub scale: f64,
    /// Root seed.
    pub seed: u64,
}

impl RunOptions {
    /// Parses `[SCALE] [SEED]` from `std::env::args`, with defaults.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments.
    pub fn from_args() -> Self {
        let mut args = std::env::args().skip(1);
        let scale = args
            .next()
            .map(|a| {
                a.parse::<f64>()
                    .unwrap_or_else(|_| panic!("bad SCALE {a:?}"))
            })
            .unwrap_or(1.0);
        assert!(
            scale > 0.0 && scale <= 1.0,
            "SCALE must be in (0, 1], got {scale}"
        );
        let seed = args
            .next()
            .map(|a| {
                a.parse::<u64>()
                    .unwrap_or_else(|_| panic!("bad SEED {a:?}"))
            })
            .unwrap_or(DEFAULT_SEED);
        RunOptions { scale, seed }
    }
}

/// A fully executed study: the corpus and its analysis.
pub struct Study {
    /// The campaign, schedule, pipeline and rendered inputs.
    pub corpus: Corpus,
    /// The analysis report.
    pub report: StudyReport,
}

/// Runs the complete study at the given options.
///
/// `emit_logs` controls whether the campaign renders raw log text (the
/// Table I path needs it; job-only experiments can skip it for speed).
pub fn run_study(options: RunOptions, emit_logs: bool) -> Study {
    let corpus = corpus::build(options.scale, options.seed, 0.0, emit_logs);
    let (campaign, outcome) = (&corpus.campaign, &corpus.outcome);
    let gpu_jobs = bridge::jobs(&outcome.jobs);
    let cpu_jobs = bridge::jobs(&outcome.cpu_jobs);
    let outages = bridge::outages(campaign.ledger.outages());
    let report = if emit_logs {
        corpus
            .pipeline
            .run(&campaign.archive, &gpu_jobs, &cpu_jobs, &outages)
    } else {
        // Statistics-only path: feed ground truth straight into the
        // coalescer without rendering/parsing log text.
        corpus
            .pipeline
            .run_events(truth_events(campaign), None, &gpu_jobs, &cpu_jobs, &outages)
    };
    Study { corpus, report }
}

/// The campaign's ground truth as the XID events log extraction would
/// yield, one per injected error: the statistics-only input.
pub fn truth_events(campaign: &CampaignOutput) -> Vec<hpclog::XidEvent> {
    campaign
        .ground_truth
        .iter()
        .map(|e| {
            hpclog::XidEvent::new(
                e.time,
                e.gpu.node.hostname(),
                hpclog::PciAddr::for_gpu_index(e.gpu.index),
                e.kind.primary_code(),
                "",
            )
        })
        .collect()
}

/// The serving fleets' request mix: every store endpoint plus the
/// metadata ones, weighted equally. Filter queries use hosts and kinds
/// that exist in every Delta campaign.
pub const ENDPOINTS: &[&str] = &[
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

/// What one fleet run measured: served requests per second over the
/// wall clock, latency percentiles of the good responses in
/// nanoseconds, and how many requests failed.
pub struct FleetMetrics {
    /// Good responses per second of wall clock.
    pub rate: f64,
    /// Median latency.
    pub p50: u64,
    /// 90th-percentile latency.
    pub p90: u64,
    /// 99th-percentile latency.
    pub p99: u64,
    /// Slowest good response.
    pub max: u64,
    /// Requests that did not come back as a good response.
    pub errors: usize,
}

/// Serves `report` from a freshly built store under `config`, with the
/// connection cap raised above the fleet, and drives `conns` keep-alive
/// clients of `per_conn` requests each over `endpoints`. Each client
/// starts at its own offset in the mix.
///
/// A good response is a non-empty `200` that carries an `X-Trace-Id`
/// exactly when the server traces (`config.trace_capacity > 0`);
/// anything else, a dropped connection included, counts as an error.
pub fn run_fleet(
    report: &StudyReport,
    config: ServerConfig,
    endpoints: &'static [&'static str],
    conns: usize,
    per_conn: usize,
) -> FleetMetrics {
    let traced = config.trace_capacity > 0;
    let store = Arc::new(StoreHandle::new(StudyStore::build(report.clone(), None)));
    let server = servd::start(
        ServerConfig {
            max_queue: conns + 16,
            ..config
        },
        store,
    )
    .unwrap_or_else(|e| panic!("failed to start server: {e}"));
    let addr = server.addr().to_string();

    let wall = Instant::now();
    let handles: Vec<_> = (0..conns)
        .map(|c| {
            let addr = addr.clone();
            std::thread::spawn(move || client_run(&addr, endpoints, c, per_conn, traced))
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

/// One keep-alive connection issuing `count` requests, rotating through
/// `endpoints` from offset `client`; returns the good responses'
/// latencies and the error count.
fn client_run(
    addr: &str,
    endpoints: &[&str],
    client: usize,
    count: usize,
    traced: bool,
) -> (Vec<u64>, usize) {
    let mut latencies = Vec::with_capacity(count);
    let mut errors = 0usize;
    let mut conn = connect(addr);
    for i in 0..count {
        let path = endpoints[(client + i) % endpoints.len()];
        let start = Instant::now();
        let resp = get_on(&mut conn, path);
        if resp.status == 200
            && !resp.body.is_empty()
            && resp.header("X-Trace-Id").is_some() == traced
        {
            latencies.push(start.elapsed().as_nanos() as u64);
        } else {
            errors += 1;
        }
    }
    (latencies, errors)
}

/// The nearest-rank `pct`th percentile of ascending `sorted_ns`; 0 when
/// empty.
pub fn percentile(sorted_ns: &[u64], pct: usize) -> u64 {
    if sorted_ns.is_empty() {
        return 0;
    }
    let rank = (sorted_ns.len() * pct).div_ceil(100);
    sorted_ns[rank.saturating_sub(1).min(sorted_ns.len() - 1)]
}

/// Nanoseconds as `123 us` or `1.23 ms`.
pub fn human_ns(ns: u64) -> String {
    let us = ns as f64 / 1e3;
    if us >= 1e3 {
        format!("{:.2} ms", us / 1e3)
    } else {
        format!("{us:.0} us")
    }
}

/// Prints the standard experiment header.
pub fn banner(name: &str, options: RunOptions) {
    println!(
        "=== {name} (scale {}, seed {:#x}) ===",
        options.scale, options.seed
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_study_smoke() {
        let study = run_study(
            RunOptions {
                scale: 0.01,
                seed: 1,
            },
            true,
        );
        assert!(!study.corpus.campaign.ground_truth.is_empty());
        assert!(!study.corpus.outcome.jobs.is_empty());
        assert!(study.report.coalesce_summary.errors > 0);
    }

    #[test]
    fn statistics_only_path_works() {
        let study = run_study(
            RunOptions {
                scale: 0.01,
                seed: 2,
            },
            false,
        );
        assert_eq!(study.corpus.campaign.archive.line_count(), 0);
        assert!(study.report.coalesce_summary.errors > 0);
    }
}
