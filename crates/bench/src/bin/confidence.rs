//! E8: multi-seed confidence intervals for the headline metrics.
//!
//! Single seeded runs answer "does the pipeline reproduce the paper?"; this
//! binary answers "how much of the remaining gap is sampling noise?" by
//! running N independent campaigns in parallel and reporting mean ± 95% CI
//! for every headline metric next to the paper's value.
//!
//! ```text
//! cargo run --release -p bench --bin confidence [SCALE] [SEED] [TRIALS]
//! ```

use bench::{truth_events, DEFAULT_SEED};
use delta_gpu_resilience::{bridge, corpus};
use simtime::Phase;
use xid::ErrorKind;

/// Extracts one metric from a trial.
type MetricFn = Box<dyn Fn(&Metrics) -> f64>;

/// One trial's headline metrics.
#[derive(Debug, Clone, Copy)]
struct Metrics {
    mtbe_pre: f64,
    mtbe_op: f64,
    memory_ratio: f64,
    gsp_ratio: f64,
    p_fail_mmu: f64,
    p_fail_nvlink: f64,
    availability: f64,
}

fn trial(scale: f64, seed: u64) -> Metrics {
    let corpus = corpus::build(scale, seed, 0.0, false);
    let report = corpus.pipeline.run_events(
        truth_events(&corpus.campaign),
        None,
        &bridge::jobs(&corpus.outcome.jobs),
        &[],
        &bridge::outages(corpus.campaign.ledger.outages()),
    );
    Metrics {
        mtbe_pre: report
            .stats
            .overall_mtbe_per_node(Phase::PreOp)
            .unwrap_or(f64::NAN),
        mtbe_op: report
            .stats
            .overall_mtbe_per_node(Phase::Op)
            .unwrap_or(f64::NAN),
        memory_ratio: report
            .stats
            .memory_vs_hardware_ratio(Phase::Op)
            .unwrap_or(f64::NAN),
        gsp_ratio: report.stats.gsp_degradation_ratio().unwrap_or(f64::NAN),
        p_fail_mmu: report
            .impact
            .kind(ErrorKind::MmuError)
            .failure_probability()
            .unwrap_or(f64::NAN),
        p_fail_nvlink: report
            .impact
            .kind(ErrorKind::NvlinkError)
            .failure_probability()
            .unwrap_or(f64::NAN),
        availability: report.availability_estimate().unwrap_or(f64::NAN),
    }
}

/// Mean and 95% CI half-width over finite samples.
fn ci(values: &[f64]) -> (f64, f64, usize) {
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    let n = finite.len();
    if n == 0 {
        return (f64::NAN, f64::NAN, 0);
    }
    let mean = finite.iter().sum::<f64>() / n as f64;
    if n == 1 {
        return (mean, f64::NAN, 1);
    }
    let var = finite.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1) as f64;
    (mean, 1.96 * (var / n as f64).sqrt(), n)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let scale: f64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(0.1);
    let seed: u64 = args
        .next()
        .and_then(|a| a.parse().ok())
        .unwrap_or(DEFAULT_SEED);
    let trials: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(10);
    println!("=== Confidence (E8): {trials} trials at scale {scale}, base seed {seed:#x} ===");

    // Independent trials in parallel (each is single-threaded and
    // deterministic in its own seed).
    let metrics: Vec<Metrics> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..trials)
            .map(|i| scope.spawn(move || trial(scale, seed.wrapping_add(i as u64))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("trial panicked"))
            .collect()
    });

    let rows: [(&str, f64, MetricFn); 7] = [
        ("per-node MTBE pre-op (h)", 199.0, Box::new(|m| m.mtbe_pre)),
        ("per-node MTBE op (h)", 154.0, Box::new(|m| m.mtbe_op)),
        ("memory/hardware ratio", 160.0, Box::new(|m| m.memory_ratio)),
        ("GSP degradation ratio", 5.6, Box::new(|m| m.gsp_ratio)),
        ("P(fail | MMU)", 0.9048, Box::new(|m| m.p_fail_mmu)),
        ("P(fail | NVLink)", 0.5375, Box::new(|m| m.p_fail_nvlink)),
        ("availability", 0.995, Box::new(|m| m.availability)),
    ];
    println!(
        "{:<26} {:>10} {:>12} {:>9} {:>3}",
        "metric", "paper", "mean", "±95% CI", "n"
    );
    for (name, paper, get) in rows {
        let values: Vec<f64> = metrics.iter().map(get).collect();
        let (mean, half, n) = ci(&values);
        println!("{name:<26} {paper:>10.3} {mean:>12.3} {half:>9.3} {n:>3}");
    }
}
