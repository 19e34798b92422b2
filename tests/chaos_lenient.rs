//! Robustness integration tests: the lenient ingestion path against the
//! committed golden corrupt corpus (`tests/fixtures/`) and against seeded
//! chaos at storm scale. The contract under test: `run_lenient` never
//! panics, every defect is classified into exactly one quarantine
//! category, and clean input leaves the ledger empty and agrees with the
//! archive path (`Pipeline::run`).

use delta_gpu_resilience::prelude::*;
use hpclog::archive::Archive;
use hpclog::chaos::{ChaosConfig, ChaosInjector};
use hpclog::extract::XidExtractor;
use hpclog::{QuarantineCategory, QuarantineLedger};
use resilience::{csvio, markdown};

const GOLDEN_LOG: &[u8] = include_bytes!("fixtures/corrupt_golden.log");
const CLEAN_LOG: &str = include_str!("fixtures/clean.log");
const CORRUPT_JOBS: &str = include_str!("fixtures/jobs_corrupt.csv");
const CORRUPT_OUTAGES: &str = include_str!("fixtures/outages_corrupt.csv");

/// The fixture's stamps are year-less; the corpus is defined against 2022.
const GOLDEN_YEAR: i32 = 2022;

#[test]
fn golden_corpus_counts_are_exact() {
    let mut ex = XidExtractor::studied_only(GOLDEN_YEAR);
    let mut ledger = QuarantineLedger::new();
    let events = ex.scan_reader_lenient(GOLDEN_LOG, &mut ledger);

    // Keep in sync with tests/fixtures/README.md.
    use QuarantineCategory as Q;
    let counts = ledger.counts();
    assert_eq!(counts.get(Q::Truncated), 2);
    assert_eq!(counts.get(Q::BadXid), 2);
    assert_eq!(counts.get(Q::Encoding), 1);
    assert_eq!(counts.get(Q::MalformedTimestamp), 2);
    assert_eq!(counts.get(Q::OutOfOrder), 2);
    assert_eq!(counts.get(Q::OversizedLine), 1);
    assert_eq!(counts.get(Q::BadRecord), 0);
    assert_eq!(ledger.total(), 10);
    assert_eq!(ledger.io_errors(), 0);

    assert_eq!(events.len(), 3, "XID 79, 31 and 94 must survive");
    assert_eq!(events[0].code.value(), 79);
    assert_eq!(events[1].code.value(), 31);
    assert_eq!(events[2].code.value(), 94);
    let stats = ex.stats();
    assert_eq!(stats.lines_seen, 16, "the empty line is skipped silently");
    assert_eq!(stats.excluded, 1, "XID 13 is excluded, not quarantined");
    assert_eq!(stats.quarantined, counts);

    // Exemplars point back into the corpus with 1-based line numbers.
    assert!(!ledger.exemplars().is_empty());
    for ex in ledger.exemplars() {
        assert!((1..=17).contains(&ex.line_no), "line {}", ex.line_no);
    }
}

#[test]
fn golden_corpus_through_run_lenient() {
    let pipeline = Pipeline::delta();
    let (report, quarantine) = pipeline.run_lenient(
        GOLDEN_LOG,
        GOLDEN_YEAR,
        CORRUPT_JOBS,
        CORRUPT_JOBS,
        CORRUPT_OUTAGES,
    );

    // 10 log defects + 2 bad GPU-job rows + 2 bad CPU-job rows + 1 bad
    // outage row, each in exactly one category.
    assert_eq!(quarantine.ledger.total(), 15);
    assert_eq!(
        quarantine
            .ledger
            .counts()
            .get(QuarantineCategory::BadRecord),
        5
    );

    // Three distinct errors survive (coalescing cannot merge them: three
    // different hosts), and the jobs/outages that parsed are analysed.
    assert_eq!(report.coalesce_summary.errors, 3);
    assert_eq!(report.availability.outage_count(), 1);
    assert!(report.gpu_success.is_some());

    // 10 of 16 log lines rejected: the result must be flagged, not hidden.
    assert!(
        quarantine.caveats.iter().any(|c| matches!(
            c,
            Caveat::HighRejectRate {
                rejected: 10,
                seen: 16
            }
        )),
        "caveats: {:?}",
        quarantine.caveats
    );
    assert!(!quarantine.is_clean());
}

#[test]
fn clean_input_produces_empty_ledger() {
    let gpu_jobs = csvio::render_jobs(&[]);
    let outages = csvio::render_outages(&[]);
    let pipeline = Pipeline::delta();
    let (report, quarantine) = pipeline.run_lenient(
        CLEAN_LOG.as_bytes(),
        GOLDEN_YEAR,
        &gpu_jobs,
        &gpu_jobs,
        &outages,
    );
    assert!(quarantine.is_clean(), "caveats: {:?}", quarantine.caveats);
    assert_eq!(quarantine.ledger.total(), 0);
    assert!(quarantine.ledger.exemplars().is_empty());
    assert_eq!(report.coalesce_summary.errors, 3);

    // And the archive path agrees exactly on the same input.
    let mut archive = Archive::new();
    let (_, skipped) = archive.ingest_day(CLEAN_LOG, GOLDEN_YEAR);
    assert_eq!(skipped, 0, "clean input must parse on the archive path too");
    let strict = pipeline.run(&archive, &[], &[], &[]);
    assert_eq!(strict.coalesce_summary, report.coalesce_summary);
}

#[test]
fn strict_and_lenient_agree_on_clean_bytes() {
    // Cross-path anchor: on a clean rendered campaign, the lenient byte
    // path and the archive path must agree on every aggregate the renders
    // show (the canonical event order makes them byte-identical).
    let c = delta_gpu_resilience::corpus::build(0.02, 0xFEED, 0.0, true);
    let strict = c.pipeline.run(
        &c.campaign.archive,
        &bridge::jobs(&c.outcome.jobs),
        &bridge::jobs(&c.outcome.cpu_jobs),
        &bridge::outages(c.campaign.ledger.outages()),
    );
    // The scaled calendar starts Jan 1 2022 and ends before New Year.
    let (lenient, q) = c
        .pipeline
        .run_lenient(c.log(), 2022, c.gpu_csv(), c.cpu_csv(), c.out_csv());
    assert!(q.is_clean(), "{:?}", q.ledger.counts());
    assert_eq!(
        lenient.coalesce_summary.errors,
        strict.coalesce_summary.errors
    );
    assert_eq!(markdown::table1_md(&lenient), markdown::table1_md(&strict));
    assert_eq!(markdown::table2_md(&lenient), markdown::table2_md(&strict));
    assert_eq!(
        lenient.availability.availability_empirical(),
        strict.availability.availability_empirical()
    );
}

#[test]
fn ten_percent_corruption_never_panics_and_accounts_fully() {
    // A real scaled campaign, rendered and then corrupted at 10% per line —
    // five times the worst plausible rate. The scaled calendar stays inside
    // 2022, so one log year resolves every stamp.
    let mut config = FaultConfig::delta_scaled(0.01);
    config.seed = 21;
    config.emit_logs = true;
    let campaign = Campaign::new(config).run();

    let mut chaos = ChaosInjector::new(ChaosConfig::uniform_with_duplicates(0.10, 0.02, 21));
    let bytes = chaos.corrupt_archive(&campaign.archive);
    let stats = chaos.stats();
    assert!(stats.quarantinable() > 0, "chaos must actually corrupt");

    let mut pipeline = Pipeline::delta();
    pipeline.periods = campaign.config.periods;
    let gpu_jobs = csvio::render_jobs(&[]);
    let outages = csvio::render_outages(&[]);
    let (report, quarantine) =
        pipeline.run_lenient(bytes.as_slice(), 2022, &gpu_jobs, &gpu_jobs, &outages);

    // The accounting identity: the ledger explains exactly the injected
    // corruption — nothing lost silently, nothing invented.
    assert_eq!(quarantine.ledger.total(), stats.quarantinable());
    assert_eq!(quarantine.ledger.io_errors(), 0);
    // The analysis still stands on the surviving 90%.
    assert!(report.coalesce_summary.errors > 0);
    assert!(
        report.stats_raw.total_count(Phase::PreOp) + report.stats_raw.total_count(Phase::Op) > 0
    );
}

#[test]
fn same_seed_means_byte_identical_corruption() {
    let mut config = FaultConfig::delta_scaled(0.01);
    config.seed = 22;
    config.emit_logs = true;
    let campaign = Campaign::new(config).run();
    let corrupt = |seed| {
        let mut chaos = ChaosInjector::new(ChaosConfig::uniform(0.05, seed));
        let bytes = chaos.corrupt_archive(&campaign.archive);
        (bytes, chaos.stats())
    };
    assert_eq!(corrupt(7), corrupt(7));
    assert_ne!(corrupt(7).0, corrupt(8).0);
}
