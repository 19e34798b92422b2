//! E9 data ablation: how the coalescing window Δt shapes Table I, and how
//! the attribution window shapes Table II.
//!
//! The paper's §III-B motivates coalescing but leaves Δt implicit; this
//! sweep makes the sensitivity explicit. Too small a Δt double-counts
//! duplicate lines; too large a Δt swallows genuinely distinct errors
//! (flapping-episode cycles, the storm). The attribution window trades
//! missed attributions against false ones the same way.
//!
//! ```text
//! cargo run --release -p bench --bin window_sweep [SCALE] [SEED]
//! ```

use bench::{banner, run_study, RunOptions};
use resilience::coalesce::coalesce;
use resilience::impact::JobImpact;
use simtime::{Duration, Phase};
use xid::ErrorKind;

fn main() {
    let mut options = RunOptions::from_args();
    if options.scale >= 1.0 {
        options.scale = 0.1;
    }
    banner("Window sweep (E9)", options);
    let study = run_study(options, true);

    // Re-extract once; re-coalesce per window.
    let mut extractor = hpclog::extract::XidExtractor::studied_only(2022);
    let events: Vec<_> = study
        .corpus
        .campaign
        .archive
        .iter()
        .filter_map(|l| extractor.extract(l))
        .collect();

    println!(
        "\ncoalescing window sweep (raw XID lines: {}):",
        events.len()
    );
    println!(
        "{:>8} {:>10} {:>10} {:>10} {:>10}",
        "Δt (s)", "errors", "GSP", "MMU", "storm-GPU"
    );
    for secs in [0u64, 1, 5, 20, 60, 300, 1800] {
        let merged = coalesce(events.clone(), Duration::from_secs(secs));
        let count = |kind: ErrorKind| merged.iter().filter(|e| e.kind == kind).count();
        let storm_gpu = merged
            .iter()
            .filter(|e| e.kind == ErrorKind::UncontainedMemoryError && e.host == "gpub038")
            .count();
        println!(
            "{:>8} {:>10} {:>10} {:>10} {:>10}",
            secs,
            merged.len(),
            count(ErrorKind::GspError),
            count(ErrorKind::MmuError),
            storm_gpu
        );
    }

    // Attribution window sweep over the fixed Δt=20 s error set.
    let errors = coalesce(events, Duration::from_secs(20));
    let op_errors: Vec<_> = errors
        .iter()
        .filter(|e| study.report.config.periods.period_of(e.time) == Some(Phase::Op))
        .cloned()
        .collect();
    let jobs = delta_gpu_resilience::bridge::jobs(&study.corpus.outcome.jobs);
    println!(
        "\nattribution window sweep (op-period errors: {}):",
        op_errors.len()
    );
    println!(
        "{:>10} {:>12} {:>14} {:>12}",
        "window (s)", "GPU-failed", "P(fail|MMU)%", "P(fail|GSP)%"
    );
    for secs in [1u64, 5, 20, 60, 300, 3600] {
        let impact = JobImpact::compute(&jobs, &op_errors, Duration::from_secs(secs));
        let p = |kind: ErrorKind| {
            impact
                .kind(kind)
                .failure_probability()
                .map_or("-".to_owned(), |p| format!("{:.2}", p * 100.0))
        };
        println!(
            "{:>10} {:>12} {:>14} {:>12}",
            secs,
            impact.gpu_failed_jobs(),
            p(ErrorKind::MmuError),
            p(ErrorKind::GspError)
        );
    }
    println!(
        "\nReading: error counts are stable for Δt between the duplicate window\n\
         (~10 s) and the episode cycle spacing (~30 min) — the paper's counts\n\
         are well-defined in that plateau. Attribution saturates by ~20 s,\n\
         supporting the paper's choice; very wide windows only add chance\n\
         co-occurrences."
    );
}
