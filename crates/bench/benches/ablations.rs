//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! * coalescing-window sweep — how Δt trades accuracy for work (and why
//!   the study's counts depend on it);
//! * attribution-window sweep — sensitivity of the Table II join;
//! * storm on/off — what the 17-day episode costs the parsing stage;
//! * pattern-matching — the filter engine vs a naive substring scan.
//!
//! Plain `harness = false` binaries on the in-repo [`bench::stopwatch`]
//! harness. Run with `cargo bench -p bench`.

use bench::stopwatch::bench;
use faultsim::{Campaign, FaultConfig};
use hpclog::extract::XidExtractor;
use hpclog::pattern::FilterSet;
use resilience::coalesce::coalesce;
use resilience::impact::JobImpact;
use simtime::Duration;
use std::hint::black_box;

fn corpus_events(storm: bool, seed: u64) -> (Vec<String>, Vec<hpclog::XidEvent>) {
    let mut config = FaultConfig::delta_scaled(0.02);
    config.seed = seed;
    if !storm {
        config.storm = None;
    }
    let campaign = Campaign::new(config).run();
    let lines: Vec<String> = campaign.archive.iter().map(|l| l.to_string()).collect();
    let mut extractor = XidExtractor::studied_only(2022);
    let events: Vec<_> = campaign
        .archive
        .iter()
        .filter_map(|l| extractor.extract(l))
        .collect();
    (lines, events)
}

fn bench_coalesce_window_sweep() {
    let (_, events) = corpus_events(true, 0xAB1);
    for window_secs in [1u64, 5, 20, 60, 300, 600] {
        bench(
            &format!("ablation_coalesce_window/{window_secs}"),
            events.len() as u64,
            10,
            || coalesce(events.clone(), Duration::from_secs(window_secs)).len(),
        );
    }
}

fn bench_attribution_window_sweep() {
    use delta_gpu_resilience::{bridge, corpus};

    let corpus = corpus::build(0.02, 0xAB2, 0.0, false);
    let jobs = bridge::jobs(&corpus.outcome.jobs);
    let events = bench::truth_events(&corpus.campaign);
    let errors = coalesce(events, Duration::from_secs(20));

    for window_secs in [5u64, 20, 60] {
        bench(
            &format!("ablation_attribution_window/{window_secs}"),
            errors.len() as u64,
            10,
            || JobImpact::compute(&jobs, &errors, Duration::from_secs(window_secs)),
        );
    }
}

fn bench_storm_parse_cost() {
    let (with_storm, _) = corpus_events(true, 0xAB3);
    let (without_storm, _) = corpus_events(false, 0xAB3);
    for (name, lines) in [
        ("with_storm", &with_storm),
        ("without_storm", &without_storm),
    ] {
        bench(
            &format!("ablation_storm_parse/{name}"),
            lines.len() as u64,
            5,
            || {
                let mut extractor = XidExtractor::studied_only(2022);
                lines
                    .iter()
                    .filter_map(|l| extractor.extract_raw(l))
                    .count()
            },
        );
    }
}

fn bench_pattern_engine() {
    let (lines, _) = corpus_events(false, 0xAB4);
    let filter = FilterSet::compile(&[
        "*NVRM: Xid (PCI:{w}): {d},*",
        "*Row remapping*",
        "*fallen off the bus*",
    ])
    .expect("static patterns compile");
    bench(
        "ablation_pattern_matching/filterset",
        lines.len() as u64,
        10,
        || black_box(lines.iter().filter(|l| filter.matches(l)).count()),
    );
    bench(
        "ablation_pattern_matching/naive_substring",
        lines.len() as u64,
        10,
        || {
            black_box(
                lines
                    .iter()
                    .filter(|l| {
                        l.contains("NVRM: Xid")
                            || l.contains("Row remapping")
                            || l.contains("fallen off the bus")
                    })
                    .count(),
            )
        },
    );
}

fn main() {
    bench_coalesce_window_sweep();
    bench_attribution_window_sweep();
    bench_storm_parse_cost();
    bench_pattern_engine();
}
