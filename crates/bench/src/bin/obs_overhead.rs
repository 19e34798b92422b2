//! E14 observability overhead: the cost of running the study with the
//! `obs` registry and tracer enabled, against the uninstrumented run.
//!
//! One campaign is rendered to log bytes + CSV exports once. The batch
//! lenient pipeline and the streaming pipeline each run with `obs`
//! disabled (the default — one relaxed atomic load per would-be record)
//! and enabled (full counter/histogram/span recording), median of N.
//! Before timing, both configurations are run to completion and their
//! rendered surfaces compared byte-for-byte: instrumentation that changed
//! a single output byte would fail here before any number is printed.
//!
//! ```text
//! cargo run --release -p bench --bin obs_overhead [-- --smoke] [SCALE] [SEED]
//! ```
//!
//! `--smoke` runs a reduced iteration count and **asserts** the enabled /
//! disabled ratio stays under the CI budget (1.10× — generous against
//! timer noise on shared runners; the recorded full-run numbers in
//! `results/obs_overhead.txt` are the honest figure and sit well under
//! the paper-repro target of 1.03×).

use bench::{banner, RunOptions};
use delta_gpu_resilience::corpus;
use resilience::incremental::StreamingPipeline;
use resilience::{report, Pipeline};
use std::time::Instant;

/// The scaled calendar stays inside one year at scale ≤ 0.25.
const LOG_YEAR: i32 = 2022;
/// The CI gate on enabled/disabled wall-time ratio in `--smoke` mode.
const SMOKE_BUDGET: f64 = 1.10;
/// Streaming feed granularity (the E13 default cell).
const CHUNK: usize = 1 << 20;

fn main() {
    let (smoke, options) = RunOptions::from_smoke_args();
    banner("Observability overhead (E14)", options);
    let corpus = corpus::build(options.scale, options.seed, 0.0, true);
    let (pipeline, log) = (&corpus.pipeline, corpus.log());
    let (gpu_csv, cpu_csv, out_csv) = (corpus.gpu_csv(), corpus.cpu_csv(), corpus.out_csv());
    let lines = corpus.campaign.archive.line_count() as u64;
    println!(
        "workload: {} lines, {:.1} MiB of log",
        lines,
        log.len() as f64 / (1024.0 * 1024.0)
    );

    // Perturbation gate first: enabled and disabled runs must render the
    // same bytes, batch and streaming.
    obs::set_enabled(false);
    let (plain, _) = batch(pipeline, log, gpu_csv, cpu_csv, out_csv);
    let plain_render = render_all(&plain);
    obs::set_enabled(true);
    let (instr, _) = batch(pipeline, log, gpu_csv, cpu_csv, out_csv);
    assert_eq!(
        render_all(&instr),
        plain_render,
        "instrumentation perturbed the batch report"
    );
    let (instr_s, _) = stream(pipeline, log, gpu_csv, cpu_csv, out_csv).finalize();
    assert_eq!(
        render_all(&instr_s),
        plain_render,
        "instrumentation perturbed the streaming report"
    );
    obs::set_enabled(false);
    println!("perturbation gate: instrumented output byte-identical (batch + streaming)");

    let iters = if smoke { 7 } else { 11 };
    println!(
        "\nmedian of {iters} interleaved iters:\n{:>10} {:>14} {:>14} {:>8}",
        "leg", "disabled ms", "enabled ms", "ratio"
    );
    let mut worst: f64 = 0.0;
    for (leg, f) in legs(pipeline, log, gpu_csv, cpu_csv, out_csv) {
        let (off, on) = paired_medians(iters, &f);
        let ratio = on / off.max(1e-12);
        worst = worst.max(ratio);
        println!(
            "{leg:>10} {:>14.2} {:>14.2} {:>7.3}x",
            off * 1e3,
            on * 1e3,
            ratio
        );
    }

    let snapshot = obs::global().registry().snapshot();
    println!(
        "\nregistry after the sweep: {} series; span ring capacity {}, dropped {}",
        snapshot.len(),
        obs::global().tracer().capacity(),
        obs::global().tracer().dropped()
    );
    println!("worst leg ratio: {worst:.3}x");
    if smoke {
        assert!(
            worst <= SMOKE_BUDGET,
            "obs overhead {worst:.3}x exceeds the {SMOKE_BUDGET}x smoke budget"
        );
        println!("smoke gate passed ({worst:.3}x <= {SMOKE_BUDGET}x)");
    }
}

type Leg<'a> = (&'static str, Box<dyn Fn() + 'a>);

/// The timed workloads. Each closure runs a full analysis pass; whether
/// it records anything is decided by the global `obs` switch at call
/// time, so the same closure serves both sides of the comparison.
fn legs<'a>(
    pipeline: &'a Pipeline,
    log: &'a [u8],
    gpu_csv: &'a str,
    cpu_csv: &'a str,
    out_csv: &'a str,
) -> Vec<Leg<'a>> {
    vec![
        (
            "batch",
            Box::new(move || {
                std::hint::black_box(batch(pipeline, log, gpu_csv, cpu_csv, out_csv));
            }),
        ),
        (
            "streaming",
            Box::new(move || {
                std::hint::black_box(stream(pipeline, log, gpu_csv, cpu_csv, out_csv));
            }),
        ),
    ]
}

fn batch(
    pipeline: &Pipeline,
    log: &[u8],
    gpu_csv: &str,
    cpu_csv: &str,
    out_csv: &str,
) -> (resilience::StudyReport, resilience::QuarantineReport) {
    pipeline.run_lenient(log, LOG_YEAR, gpu_csv, cpu_csv, out_csv)
}

fn stream(
    pipeline: &Pipeline,
    log: &[u8],
    gpu_csv: &str,
    cpu_csv: &str,
    out_csv: &str,
) -> StreamingPipeline {
    let mut engine = StreamingPipeline::new(*pipeline, LOG_YEAR);
    for piece in log.chunks(CHUNK.min(log.len().max(1))) {
        engine.push_log(piece);
    }
    engine.finish_log();
    engine.push_gpu_jobs_csv(gpu_csv);
    engine.push_cpu_jobs_csv(cpu_csv);
    engine.push_outages_csv(out_csv);
    engine
}

/// Times the closure with the registry disabled and enabled in strict
/// alternation, so slow drift on a shared machine (thermal, cache, noisy
/// neighbours) hits both sides equally instead of masquerading as
/// instrumentation cost. Returns (disabled, enabled) medians.
fn paired_medians(iters: u32, f: &dyn Fn()) -> (f64, f64) {
    let timed = |on: bool| {
        obs::set_enabled(on);
        let start = Instant::now();
        f();
        start.elapsed().as_secs_f64()
    };
    // Warm both configurations before sampling.
    timed(false);
    timed(true);
    let mut off = Vec::with_capacity(iters as usize);
    let mut on = Vec::with_capacity(iters as usize);
    for _ in 0..iters.max(1) {
        off.push(timed(false));
        on.push(timed(true));
    }
    obs::set_enabled(false);
    (median(off), median(on))
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

fn render_all(r: &resilience::StudyReport) -> String {
    format!(
        "{}\n{}\n{:?}",
        report::full(r),
        report::figure2(r),
        r.availability_estimate()
    )
}
