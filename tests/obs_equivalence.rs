//! The no-perturbation proof for the observability layer: running the
//! study with the `obs` registry **enabled** must produce byte-identical
//! rendered surfaces to the uninstrumented run, in every execution mode —
//! batch and streaming at chunk {7, 1024} — over clean and 5%-corrupted
//! logs. And because instrumentation hangs off
//! the same code paths everywhere, the *invariant* counters (lines
//! scanned, events coalesced, merges, attribution hits) must agree across
//! all modes for the same dataset. A stream viewed after every chunk
//! must move the per-stream counters by the same amounts: a view counts
//! nothing the stream counts when it completes the line.
//!
//! Everything runs inside one `#[test]` because the registry is
//! process-global: sequencing the legs keeps the per-mode counter deltas
//! exact. (Unit-level behavior of the registry itself is covered in
//! `crates/obs`, against private instances.)

use delta_gpu_resilience::corpus::{self, Corpus};
use delta_gpu_resilience::prelude::*;
use obs::registry::{counter_total, MetricSnapshot};
use resilience::csvio;
use resilience::incremental::StreamingPipeline;
use std::sync::Mutex;

/// Both tests flip the process-global `obs` switch and difference its
/// counters; they must not interleave.
static GLOBAL_OBS: Mutex<()> = Mutex::new(());

const SCALE: f64 = 0.02;
const SEED: u64 = 0x0B5;
/// The scaled calendar stays inside 2022 (see E13).
const LOG_YEAR: i32 = 2022;

/// The mode-invariant counters: whatever path the bytes take, these
/// totals describe the same dataset and must not move.
const INVARIANTS: &[&str] = &[
    "hpclog_lines_scanned_total",
    "hpclog_events_extracted_total",
    "core_events_coalesced_total",
    "core_coalesce_merges_total",
    "core_attribution_window_hits_total",
];

fn dataset(chaos_rate: f64) -> Corpus {
    corpus::build(SCALE, SEED, chaos_rate, true)
}

/// Every surface a run renders, plus the quarantine ledger.
fn render_all(r: &StudyReport, q: &QuarantineReport) -> String {
    format!(
        "{}\n{}\n{:?}\n{:?}\n{:?}",
        report::full(r),
        report::figure2(r),
        q.ledger.counts(),
        q.ledger.exemplars(),
        q.caveats
    )
}

/// The per-invariant deltas a closure's execution produced in the global
/// registry.
fn deltas_of(run: impl FnOnce()) -> Vec<(&'static str, u64)> {
    let before = obs::global().registry().snapshot();
    run();
    let after = obs::global().registry().snapshot();
    INVARIANTS
        .iter()
        .map(|name| (*name, counter_delta(&before, &after, name)))
        .collect()
}

fn counter_delta(before: &[MetricSnapshot], after: &[MetricSnapshot], name: &str) -> u64 {
    counter_total(after, name) - counter_total(before, name)
}

fn serial(d: &Corpus) -> (StudyReport, QuarantineReport) {
    d.pipeline
        .run_lenient(d.log(), LOG_YEAR, d.gpu_csv(), d.cpu_csv(), d.out_csv())
}

fn streaming(d: &Corpus, chunk: usize, views: bool) -> (StudyReport, QuarantineReport) {
    let mut engine = StreamingPipeline::new(d.pipeline, LOG_YEAR);
    for piece in d.log().chunks(chunk) {
        engine.push_log(piece);
        if views {
            std::hint::black_box(engine.materialize_full());
        }
    }
    engine.finish_log();
    engine.push_gpu_jobs_csv(d.gpu_csv());
    engine.push_cpu_jobs_csv(d.cpu_csv());
    engine.push_outages_csv(d.out_csv());
    engine.finalize()
}

#[test]
fn instrumented_runs_are_byte_identical_and_counters_agree_across_modes() {
    let _guard = GLOBAL_OBS.lock().unwrap_or_else(|e| e.into_inner());
    for chaos_rate in [0.0, 0.05] {
        let d = dataset(chaos_rate);

        // Oracle: the uninstrumented run. `obs` starts enabled in a
        // fresh process, so switch it off here; the explicit switches
        // also keep leg order from mattering if this test ever grows.
        obs::set_enabled(false);
        let (oracle_r, oracle_q) = serial(&d);
        let oracle = render_all(&oracle_r, &oracle_q);

        // Instrumented legs: every mode must render the oracle's bytes
        // and move the invariant counters by the same amounts.
        obs::set_enabled(true);
        let mut legs: Vec<(String, Vec<(&'static str, u64)>)> = Vec::new();

        let mut out = None;
        let deltas = deltas_of(|| out = Some(serial(&d)));
        let (r, q) = out.expect("serial leg ran");
        assert_eq!(render_all(&r, &q), oracle, "chaos={chaos_rate} serial");
        legs.push(("serial".to_owned(), deltas));

        for chunk in [7usize, 1024] {
            let mut out = None;
            let deltas = deltas_of(|| out = Some(streaming(&d, chunk, false)));
            let (r, q) = out.expect("streaming leg ran");
            assert_eq!(
                render_all(&r, &q),
                oracle,
                "chaos={chaos_rate} chunk={chunk}"
            );
            legs.push((format!("chunk={chunk}"), deltas));
        }

        let mut out = None;
        let view_deltas = deltas_of(|| out = Some(streaming(&d, 1024, true)));
        let (r, q) = out.expect("viewed streaming leg ran");
        assert_eq!(render_all(&r, &q), oracle, "chaos={chaos_rate} views");

        obs::set_enabled(false);

        let (ref_name, ref_deltas) = &legs[0];
        // Every view assembles a report, so the per-report attribution
        // counter moves once per view; the per-stream counters may not.
        let per_stream = |deltas: &[(&'static str, u64)]| -> Vec<(&'static str, u64)> {
            deltas
                .iter()
                .filter(|(name, _)| *name != "core_attribution_window_hits_total")
                .copied()
                .collect()
        };
        assert_eq!(
            per_stream(&view_deltas),
            per_stream(ref_deltas),
            "chaos={chaos_rate}: chunk=1024 with a view per chunk vs {ref_name}"
        );
        for (name, value) in ref_deltas {
            assert!(
                *value > 0 || *name == "core_attribution_window_hits_total",
                "chaos={chaos_rate} {ref_name}: {name} never incremented"
            );
        }
        for (leg_name, leg_deltas) in &legs[1..] {
            assert_eq!(
                leg_deltas, ref_deltas,
                "chaos={chaos_rate}: {leg_name} vs {ref_name}"
            );
        }
    }
}

#[test]
fn scheduler_kill_counter_matches_the_outcome() {
    let _guard = GLOBAL_OBS.lock().unwrap_or_else(|e| e.into_inner());
    // The slurmsim layer runs once per simulation, not per analysis mode;
    // its counters must agree with the outcome it returns, and running
    // the same seeded simulation instrumented vs not must not change the
    // outcome.
    let mut config = FaultConfig::delta_scaled(SCALE);
    config.seed = SEED;
    let campaign = Campaign::new(config).run();
    let cluster = Cluster::new(campaign.config.spec);
    let workload = WorkloadConfig::delta_scaled(SCALE);

    obs::set_enabled(false);
    let plain = Simulation::new(&cluster, workload.clone(), SEED)
        .run(&campaign.ground_truth, &campaign.holds);

    obs::set_enabled(true);
    let before = obs::global().registry().snapshot();
    let instrumented =
        Simulation::new(&cluster, workload, SEED).run(&campaign.ground_truth, &campaign.holds);
    let after = obs::global().registry().snapshot();
    obs::set_enabled(false);

    assert_eq!(
        csvio::render_jobs(&bridge::jobs(&plain.jobs)),
        csvio::render_jobs(&bridge::jobs(&instrumented.jobs)),
        "instrumentation changed the schedule"
    );
    assert_eq!(
        counter_delta(&before, &after, "slurmsim_jobs_killed_total"),
        instrumented.stats.error_kills,
        "kill counter disagrees with the outcome"
    );
    assert_eq!(
        counter_delta(&before, &after, "slurmsim_jobs_scheduled_total"),
        (instrumented.jobs.len() + instrumented.cpu_jobs.len()) as u64,
        "scheduled counter disagrees with the outcome"
    );
}
