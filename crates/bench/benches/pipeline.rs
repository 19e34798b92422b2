//! Throughput benchmarks for every pipeline stage: log parsing/extraction,
//! coalescing, the impact join, and whole-campaign execution.
//!
//! Plain `harness = false` binaries on the in-repo [`bench::stopwatch`]
//! harness (no external benchmarking dependency; the workspace must build
//! offline). Run with `cargo bench -p bench`.

use bench::stopwatch::bench;
use clustersim::Cluster;
use delta_gpu_resilience::{bridge, corpus};
use faultsim::{Campaign, FaultConfig};
use hpclog::extract::XidExtractor;
use resilience::coalesce::coalesce;
use resilience::impact::JobImpact;
use resilience::Pipeline;
use simtime::Duration;
use slurmsim::{Simulation, WorkloadConfig};
use std::hint::black_box;

/// A prepared corpus: rendered log lines plus matching structured data.
struct Corpus {
    raw_lines: Vec<String>,
    events: Vec<hpclog::XidEvent>,
    jobs: Vec<resilience::AccountedJob>,
    errors: Vec<resilience::CoalescedError>,
}

fn build_corpus() -> Corpus {
    let corpus::Corpus {
        campaign, outcome, ..
    } = corpus::build(0.03, 0xBE7C, 0.0, true);
    let raw_lines: Vec<String> = campaign.archive.iter().map(|l| l.to_string()).collect();
    let mut extractor = XidExtractor::studied_only(2022);
    let events: Vec<_> = campaign
        .archive
        .iter()
        .filter_map(|l| extractor.extract(l))
        .collect();
    let errors = coalesce(events.clone(), Duration::from_secs(20));
    Corpus {
        raw_lines,
        events,
        jobs: bridge::jobs(&outcome.jobs),
        errors,
    }
}

fn main() {
    let corpus = build_corpus();

    // Stage I: raw-line parsing + XID extraction.
    bench(
        "stage1_extract/parse_and_extract",
        corpus.raw_lines.len() as u64,
        10,
        || {
            let mut extractor = XidExtractor::studied_only(2022);
            corpus
                .raw_lines
                .iter()
                .filter_map(|l| extractor.extract_raw(l))
                .count()
        },
    );

    // Stage II: coalescing.
    bench(
        "stage2_coalesce/coalesce_20s",
        corpus.events.len() as u64,
        10,
        || coalesce(corpus.events.clone(), Duration::from_secs(20)),
    );

    // Stage III: the impact join.
    bench(
        "stage3_impact/attribution_join",
        corpus.errors.len() as u64,
        10,
        || JobImpact::compute(&corpus.jobs, &corpus.errors, Duration::from_secs(20)),
    );

    // Whole campaign (fault injection only, logs off) and whole pipeline.
    bench("end_to_end/campaign_1pct_no_logs", 0, 5, || {
        let mut config = FaultConfig::delta_scaled(0.01);
        config.seed = 3;
        config.emit_logs = false;
        Campaign::new(config).run()
    });

    {
        let mut config = FaultConfig::delta_scaled(0.01);
        config.seed = 4;
        config.emit_logs = false;
        let campaign = Campaign::new(config).run();
        let cluster = Cluster::new(campaign.config.spec);
        bench("end_to_end/scheduler_1pct", 0, 5, || {
            Simulation::new(&cluster, WorkloadConfig::delta_scaled(0.01), 5)
                .run(&campaign.ground_truth, &campaign.holds)
        });
    }

    {
        let mut pipeline = Pipeline::delta();
        pipeline.periods = simtime::StudyPeriods::delta_scaled(0.03);
        bench("end_to_end/pipeline_on_corpus", 0, 5, || {
            black_box(pipeline.run_events(corpus.events.clone(), None, &corpus.jobs, &[], &[]))
        });
    }
}
