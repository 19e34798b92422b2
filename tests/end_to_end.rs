//! Cross-crate integration tests: the full substrate → pipeline round trip
//! on scaled campaigns, validating that the analysis recovers what the
//! generators injected.

use delta_gpu_resilience::corpus;
use delta_gpu_resilience::prelude::*;

/// A scaled campaign + schedule + analysis, shared across tests.
fn run_study(scale: f64, seed: u64) -> (CampaignOutput, StudyReport) {
    let c = corpus::build(scale, seed, 0.0, true);
    let report = c.pipeline.run(
        &c.campaign.archive,
        &bridge::jobs(&c.outcome.jobs),
        &bridge::jobs(&c.outcome.cpu_jobs),
        &bridge::outages(c.campaign.ledger.outages()),
    );
    (c.campaign, report)
}

#[test]
fn analysis_recovers_injected_error_counts() {
    let (campaign, report) = run_study(0.03, 11);
    // The pipeline reads only rendered log text, yet its per-kind counts
    // must track the injector's ground truth. Coalescing merges genuine
    // short bursts (MMU, PMU followers), so allow headroom on those.
    for kind in [
        ErrorKind::GspError,
        ErrorKind::NvlinkError,
        ErrorKind::FallenOffBus,
    ] {
        let truth = campaign
            .ground_truth
            .iter()
            .filter(|e| e.kind == kind)
            .count() as i64;
        let analysed =
            (report.stats.count(kind, Phase::PreOp) + report.stats.count(kind, Phase::Op)) as i64;
        assert!(
            (truth - analysed).abs() <= truth / 5 + 2,
            "{kind}: truth {truth} vs analysed {analysed}"
        );
    }
}

#[test]
fn coalescing_compresses_duplicates() {
    let (campaign, report) = run_study(0.02, 12);
    // Every ground-truth error emitted 1 + geometric raw lines (mean 2
    // normally, mean 26 during the storm), so the overall ratio is storm-
    // dominated but bounded, and no raw line may be lost.
    assert!(report.coalesce_summary.raw_lines > report.coalesce_summary.errors);
    let ratio = report.coalesce_summary.ratio();
    assert!((1.5..40.0).contains(&ratio), "dedup ratio {ratio}");
    assert_eq!(
        report.coalesce_summary.raw_lines,
        campaign.stats.raw_lines()
    );
    // Coalescing must recover the injected error count closely: duplicates
    // merge, real errors survive.
    let truth = campaign.ground_truth.len() as f64;
    let analysed = report.stats_raw.total_count(Phase::PreOp) as f64
        + report.stats_raw.total_count(Phase::Op) as f64
        - report.stats_raw.uncorrectable_count(Phase::PreOp) as f64
        - report.stats_raw.uncorrectable_count(Phase::Op) as f64;
    let rel = (analysed - truth).abs() / truth;
    assert!(
        rel < 0.12,
        "analysed {analysed} vs truth {truth} (rel {rel:.3})"
    );
}

#[test]
fn storm_is_detected_and_excluded() {
    let (campaign, report) = run_study(0.05, 13);
    let storm = campaign
        .config
        .storm
        .expect("scaled delta config keeps the storm");
    let outlier = report.outlier().expect("storm must trip the outlier rule");
    assert_eq!(outlier.host, storm.gpu.node.hostname());
    assert_eq!(outlier.kind, ErrorKind::UncontainedMemoryError);
    assert!(outlier.excluded_errors > 100);
    // Raw stats keep the storm; headline stats drop it.
    let raw = report
        .stats_raw
        .count(ErrorKind::UncontainedMemoryError, Phase::PreOp);
    let clean = report
        .stats
        .count(ErrorKind::UncontainedMemoryError, Phase::PreOp);
    assert!(raw > clean + 100, "raw {raw} clean {clean}");
}

#[test]
fn mtbe_matches_calibration_within_noise() {
    let (_, report) = run_study(0.08, 14);
    // GSP op per-node MTBE calibrates to ~590 h (Table I). Small scaled
    // samples are noisy; require the right decade.
    if let Some(mtbe) = report.stats.mtbe_per_node(ErrorKind::GspError, Phase::Op) {
        assert!(
            (250.0..1400.0).contains(&mtbe),
            "GSP op per-node MTBE {mtbe}"
        );
    }
    // NVLink op system-wide MTBE calibrates to ~11 h.
    if let Some(mtbe) = report.stats.mtbe_system(ErrorKind::NvlinkError, Phase::Op) {
        assert!((4.0..30.0).contains(&mtbe), "NVLink op system MTBE {mtbe}");
    }
}

#[test]
fn job_impact_has_paper_shape() {
    let (_, report) = run_study(0.08, 15);
    let mmu = report.impact.kind(ErrorKind::MmuError);
    assert!(
        mmu.encountered > 50,
        "need MMU sample, got {}",
        mmu.encountered
    );
    let p_mmu = mmu.failure_probability().unwrap();
    assert!((0.75..0.97).contains(&p_mmu), "P(fail|MMU) {p_mmu}");
    if let Some(p_nvl) = report
        .impact
        .kind(ErrorKind::NvlinkError)
        .failure_probability()
    {
        assert!(
            p_nvl < p_mmu,
            "NVLink {p_nvl} must be more survivable than MMU {p_mmu}"
        );
    }
}

#[test]
fn success_rates_track_targets() {
    let (_, report) = run_study(0.02, 16);
    let gpu = report.gpu_success.unwrap();
    let cpu = report.cpu_success.unwrap();
    assert!((0.70..0.78).contains(&gpu), "gpu success {gpu}");
    assert!((0.73..0.77).contains(&cpu), "cpu success {cpu}");
}

#[test]
fn availability_in_paper_band() {
    let (_, report) = run_study(0.08, 17);
    let mttr = report.availability.mttr_hours().expect("outages happened");
    assert!((0.6..1.2).contains(&mttr), "MTTR {mttr}");
    let avail = report.availability_estimate().expect("estimable");
    assert!((0.985..0.9995).contains(&avail), "availability {avail}");
}

#[test]
fn whole_study_is_deterministic() {
    let (a_campaign, a) = run_study(0.01, 18);
    let (b_campaign, b) = run_study(0.01, 18);
    assert_eq!(a_campaign.ground_truth, b_campaign.ground_truth);
    assert_eq!(a.coalesce_summary, b.coalesce_summary);
    assert_eq!(
        a.stats.total_count(Phase::Op),
        b.stats.total_count(Phase::Op)
    );
    assert_eq!(a.impact.gpu_failed_jobs(), b.impact.gpu_failed_jobs());
    assert_eq!(report::table1(&a), report::table1(&b));
}

#[test]
fn reports_render_on_real_output() {
    let (_, report) = run_study(0.01, 19);
    let t1 = report::table1(&report);
    assert!(t1.contains("GSP Error"));
    assert!(t1.contains("TOTAL"));
    let t3 = report::table3(&report);
    assert!(t3.contains("GPU job success rate"));
    let f2 = report::figure2(&report);
    assert!(f2.contains("MTTR"));
    // CSV variants parse as the right number of columns.
    for line in report::table1_csv(&report).lines().skip(1) {
        assert_eq!(line.split(',').count(), 8, "{line}");
    }
    for line in report::table3_csv(&report).lines().skip(1) {
        assert_eq!(line.split(',').count(), 8, "{line}");
    }
}

#[test]
fn findings_mostly_reproduce_at_moderate_scale() {
    let (_, report) = run_study(0.10, 0xDE17A);
    let findings = Findings::evaluate(&report);
    let (pass, total) = findings.score();
    assert!(total >= 9);
    assert!(pass as f64 >= total as f64 * 0.7, "{findings}");
}

#[test]
fn archive_roundtrip_preserves_analysis() {
    // Render the archive to per-day text files and ingest them back: the
    // analysis result must be identical (the real pipeline consumes files).
    let mut config = FaultConfig::delta_scaled(0.01);
    config.seed = 20;
    let campaign = Campaign::new(config).run();
    let mut reparsed = hpclog::archive::Archive::new();
    for (day, _) in campaign.archive.days() {
        let text = campaign.archive.render_day(day).unwrap();
        let year = hpclog::Timestamp::from_unix(day * 86_400).ymd().0;
        let (_, skipped) = reparsed.ingest_day(&text, year);
        assert_eq!(skipped, 0, "day {day} had unparseable lines");
    }
    let mut pipeline = Pipeline::delta();
    pipeline.periods = campaign.config.periods;
    let direct = pipeline.run(&campaign.archive, &[], &[], &[]);
    let roundtrip = pipeline.run(&reparsed, &[], &[], &[]);
    assert_eq!(direct.coalesce_summary, roundtrip.coalesce_summary);
    assert_eq!(report::table1(&direct), report::table1(&roundtrip));
}
