//! E11 chaos sweep: how much log corruption the lenient ingestion path
//! tolerates before the paper's headline results move.
//!
//! One campaign is rendered once; its byte stream is then corrupted at
//! increasing per-line rates (0 → 10%) with [`hpclog::chaos`] and re-analysed
//! through [`Pipeline::run_lenient`]. At every rate the quarantine ledger
//! must account for exactly the injected corruption (nothing lost silently);
//! at operationally plausible rates (≤ 2%) the Table I error-kind ordering,
//! the availability headline and the Table II ordering must survive.
//!
//! ```text
//! cargo run --release -p bench --bin chaos_sweep [SCALE] [SEED]
//! ```

use bench::{banner, run_study, RunOptions};
use hpclog::chaos::{ChaosConfig, ChaosInjector};
use resilience::pipeline::QuarantineReport;
use resilience::StudyReport;
use simtime::Phase;
use xid::ErrorKind;

/// Per-line corruption rates swept, low to high.
const RATES: [f64; 6] = [0.0, 0.005, 0.01, 0.02, 0.05, 0.10];

/// Rates at or below this are "operationally plausible" and must leave the
/// headline results intact.
const PLAUSIBLE_RATE: f64 = 0.02;

/// Availability may move by at most this many percentage points at
/// plausible rates.
const AVAILABILITY_TOLERANCE_PP: f64 = 0.2;

/// Coalesced error counts may move by at most this relative fraction at
/// plausible rates (coalescing means an error survives unless *every* line
/// of its episode is corrupted, so losses run well below the line rate).
const ERROR_COUNT_TOLERANCE: f64 = 0.05;

/// Table II failure-probability gaps narrower than this are treated as
/// ties when checking that the ordering survives.
const TABLE2_GAP: f64 = 0.05;

/// The scaled calendar starts Jan 1 2022; at scale ≤ 0.25 it ends before
/// New Year, so one fixed year resolves every year-less syslog stamp.
const LOG_YEAR: i32 = 2022;

/// The error kinds Table I tabulates.
const KINDS: [ErrorKind; 10] = [
    ErrorKind::MmuError,
    ErrorKind::DoubleBitError,
    ErrorKind::RowRemapEvent,
    ErrorKind::RowRemapFailure,
    ErrorKind::NvlinkError,
    ErrorKind::FallenOffBus,
    ErrorKind::ContainedMemoryError,
    ErrorKind::UncontainedMemoryError,
    ErrorKind::GspError,
    ErrorKind::PmuSpiError,
];

fn main() {
    let mut options = RunOptions::from_args();
    if options.scale > 0.25 {
        options.scale = 0.05;
    }
    banner("Chaos sweep (E11)", options);
    let study = run_study(options, true);
    let corpus = &study.corpus;
    let (pipeline, archive) = (corpus.pipeline, &corpus.campaign.archive);
    let (gpu_csv, cpu_csv, outages_csv) = (corpus.gpu_csv(), corpus.cpu_csv(), corpus.out_csv());

    println!(
        "\narchive: {} lines; corrupting at rates {:?}",
        archive.line_count(),
        RATES
    );
    println!(
        "{:>7} {:>9} {:>9} {:>8} {:>6} {:>6} {:>9} {:>8}  caveats",
        "rate %", "lines", "quarant.", "errors", "GSP", "MMU", "avail %", "GPUfail"
    );

    let mut baseline: Option<StudyReport> = None;
    for rate in RATES {
        let mut chaos = ChaosInjector::new(ChaosConfig::uniform(rate, options.seed ^ 0xE11));
        let bytes = chaos.corrupt_archive(archive);
        let stats = chaos.stats();
        let (report, quarantine) =
            pipeline.run_lenient(bytes.as_slice(), LOG_YEAR, gpu_csv, cpu_csv, outages_csv);

        // The accounting identity: every injected defect is in the ledger.
        assert_eq!(
            quarantine.ledger.total(),
            stats.quarantinable(),
            "rate {rate}: ledger does not account for the injected corruption\n\
             ledger: {:?}\nchaos:  {stats:?}",
            quarantine.ledger.counts()
        );

        print_row(rate, stats.lines_out, &report, &quarantine);

        match &baseline {
            None => {
                assert!(quarantine.is_clean(), "clean input raised caveats");
                baseline = Some(report);
            }
            Some(base) if rate <= PLAUSIBLE_RATE => check_tolerances(rate, base, &report),
            Some(_) => {}
        }
    }

    let base = baseline.expect("RATES starts at 0.0");
    println!(
        "\narchive-path cross-check: {} errors direct vs {} via rendered bytes",
        study.report.coalesce_summary.errors, base.coalesce_summary.errors
    );
    println!(
        "Reading: at ≤{:.0}% corruption the Table I kind ordering, the\n\
         availability headline and the Table II ordering all survive (asserted\n\
         above); the quarantine ledger accounts for every injected defect at\n\
         every rate. Heavier corruption degrades counts but never panics.",
        PLAUSIBLE_RATE * 100.0
    );
}

fn print_row(rate: f64, lines: u64, report: &StudyReport, quarantine: &QuarantineReport) {
    let caveats: Vec<String> = quarantine.caveats.iter().map(|c| c.to_string()).collect();
    println!(
        "{:>7.2} {:>9} {:>9} {:>8} {:>6} {:>6} {:>9.3} {:>8}  {}",
        rate * 100.0,
        lines,
        quarantine.ledger.total(),
        report.coalesce_summary.errors,
        report.stats.count(ErrorKind::GspError, Phase::Op),
        report.stats.count(ErrorKind::MmuError, Phase::Op),
        report.availability.availability_empirical() * 100.0,
        report.impact.gpu_failed_jobs(),
        if caveats.is_empty() {
            "-".to_owned()
        } else {
            caveats.join("; ")
        },
    );
}

/// Asserts that a corrupted run at a plausible rate preserves the headline
/// structure of the clean baseline.
fn check_tolerances(rate: f64, base: &StudyReport, got: &StudyReport) {
    // Table I: the relative ordering of op-phase error counts survives.
    // Pairwise with ties allowed: where the baseline separates two kinds,
    // the corrupted run must not invert them.
    for a in KINDS {
        for b in KINDS {
            let (base_a, base_b) = (
                base.stats.count(a, Phase::Op),
                base.stats.count(b, Phase::Op),
            );
            if base_a > base_b {
                let (got_a, got_b) = (got.stats.count(a, Phase::Op), got.stats.count(b, Phase::Op));
                assert!(
                    got_a >= got_b,
                    "rate {rate}: Table I ordering inverted: {a:?} ({base_a}->{got_a}) \
                     vs {b:?} ({base_b}->{got_b})"
                );
            }
        }
    }

    // Coalesced error volume stays within tolerance of the baseline.
    let (base_n, got_n) = (
        base.coalesce_summary.errors as f64,
        got.coalesce_summary.errors as f64,
    );
    assert!(
        (got_n - base_n).abs() <= base_n * ERROR_COUNT_TOLERANCE,
        "rate {rate}: error count moved {base_n} -> {got_n} \
         (tolerance {ERROR_COUNT_TOLERANCE})"
    );

    // Availability: outage records are a separate input, so the headline
    // must not move beyond rounding.
    let drift = (got.availability.availability_empirical()
        - base.availability.availability_empirical())
    .abs()
        * 100.0;
    assert!(
        drift <= AVAILABILITY_TOLERANCE_PP,
        "rate {rate}: availability drifted {drift:.3} pp"
    );

    // Table II: where the baseline separates two kinds' conditional failure
    // probabilities by a clear gap, the corrupted run keeps them ordered.
    for a in KINDS {
        for b in KINDS {
            let (Some(pa), Some(pb)) = (
                base.impact.kind(a).failure_probability(),
                base.impact.kind(b).failure_probability(),
            ) else {
                continue;
            };
            if pa > pb + TABLE2_GAP {
                let (Some(ga), Some(gb)) = (
                    got.impact.kind(a).failure_probability(),
                    got.impact.kind(b).failure_probability(),
                ) else {
                    continue;
                };
                assert!(
                    ga >= gb,
                    "rate {rate}: Table II ordering inverted: {a:?} ({pa:.3}->{ga:.3}) \
                     vs {b:?} ({pb:.3}->{gb:.3})"
                );
            }
        }
    }
}
