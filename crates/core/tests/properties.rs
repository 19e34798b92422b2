//! Property tests for the analysis pipeline's invariants: coalescing
//! conservation and idempotence, MTBE identities, attribution monotonicity,
//! histogram conservation, and job exports decoded straight into their
//! indexes reporting like the row path — on the in-repo `propcheck`
//! harness.

use hpclog::{PciAddr, Timestamp, XidEvent};
use propcheck::{run, Gen};
use resilience::coalesce::{coalesce, CoalesceSummary};
use resilience::csvio;
use resilience::histogram::{percentile, Histogram};
use resilience::impact::{JobImpact, JobIndex};
use resilience::job::AccountedJob;
use resilience::stats::ErrorStats;
use resilience::Pipeline;
use simtime::{Duration, Phase, StudyPeriods};
use xid::XidCode;

const NAME_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-";

/// Event streams over a few hosts/GPUs/codes within the study window,
/// sorted by time like a real archive.
fn event_stream(g: &mut Gen) -> Vec<XidEvent> {
    let start = StudyPeriods::delta().pre_op.start.unix();
    let mut raw: Vec<(u64, u8, u8, u16)> = g.vec_with(0, 120, |g| {
        (
            g.u64_below(100_000),
            g.u8_in(0, 3),
            g.u8_in(0, 2),
            g.choose(&[31u16, 74, 79, 119]),
        )
    });
    raw.sort();
    raw.into_iter()
        .map(|(offset, host, gpu, code)| {
            XidEvent::new(
                Timestamp::from_unix(start + offset),
                format!("gpub00{}", host + 1),
                PciAddr::for_gpu_index(gpu),
                XidCode::new(code),
                "",
            )
        })
        .collect()
}

/// Coalescing conserves raw lines and never grows the set.
#[test]
fn coalesce_conserves_lines() {
    run("coalesce_conserves_lines", 64, |g| {
        let events = event_stream(g);
        let window = g.u64_below(600);
        let n = events.len() as u64;
        let merged = coalesce(events, Duration::from_secs(window));
        let summary = CoalesceSummary::of(&merged);
        assert_eq!(summary.raw_lines, n);
        assert!(summary.errors <= n);
    });
}

/// Coalescing is idempotent: re-coalescing the representatives with the
/// same window changes nothing (anchors are at least a window apart).
#[test]
fn coalesce_idempotent() {
    run("coalesce_idempotent", 64, |g| {
        let events = event_stream(g);
        let window = Duration::from_secs(g.u64_below(600));
        let once = coalesce(events, window);
        let again = coalesce(
            once.iter()
                .map(|e| XidEvent::new(e.time, e.host.clone(), e.pci, e.kind.primary_code(), "")),
            window,
        );
        assert_eq!(again.len(), once.len());
        for (a, b) in once.iter().zip(&again) {
            assert_eq!(a.time, b.time);
            assert_eq!(&a.host, &b.host);
            assert_eq!(a.kind, b.kind);
        }
    });
}

/// A wider window never yields more errors.
#[test]
fn coalesce_monotone_in_window() {
    run("coalesce_monotone_in_window", 64, |g| {
        let events = event_stream(g);
        let w1 = g.u64_below(300);
        let w2 = g.u64_below(300);
        let (small, large) = (w1.min(w2), w1.max(w2));
        let a = coalesce(events.clone(), Duration::from_secs(small)).len();
        let b = coalesce(events, Duration::from_secs(large)).len();
        assert!(b <= a, "window {large} gave {b} > {a} from window {small}");
    });
}

/// MTBE identities: per-node = system × nodes; count × MTBE = hours.
#[test]
fn mtbe_identities() {
    run("mtbe_identities", 64, |g| {
        let events = event_stream(g);
        let nodes = g.usize_in(1, 500);
        let merged = coalesce(events, Duration::from_secs(20));
        let stats = ErrorStats::compute(&merged, StudyPeriods::delta(), nodes);
        for kind in xid::ErrorKind::STUDIED {
            for phase in [Phase::PreOp, Phase::Op] {
                let count = stats.count(kind, phase);
                match (
                    stats.mtbe_system(kind, phase),
                    stats.mtbe_per_node(kind, phase),
                ) {
                    (Some(sys), Some(node)) => {
                        assert!(count > 0);
                        assert!((node / sys - nodes as f64).abs() < 1e-6);
                        assert!((sys * count as f64 - stats.phase_hours(phase)).abs() < 1e-3);
                    }
                    (None, None) => assert_eq!(count, 0),
                    _ => panic!("inconsistent MTBE options"),
                }
            }
        }
    });
}

/// Attribution: failed ≤ encountered per kind; a wider attribution window
/// never attributes fewer failures.
#[test]
fn attribution_monotone() {
    run("attribution_monotone", 64, |g| {
        let events = event_stream(g);
        let end_offset = g.u64_in(1, 120);
        let merged = coalesce(events, Duration::from_secs(20));
        // One failing job per (host, gpu) covering the whole window.
        let periods = StudyPeriods::delta();
        let jobs: Vec<AccountedJob> = (0..3u8)
            .flat_map(|h| (0..2u8).map(move |g| (h, g)))
            .enumerate()
            .map(|(i, (h, g))| AccountedJob {
                id: i as u64,
                name: format!("j{i}"),
                submit: periods.pre_op.start,
                start: periods.pre_op.start,
                end: periods.pre_op.start + Duration::from_secs(100_000 + end_offset),
                gpus: 1,
                gpu_slots: vec![(format!("gpub00{}", h + 1), g)],
                completed: false,
            })
            .collect();
        let narrow = JobImpact::compute(&jobs, &merged, Duration::from_secs(5));
        let wide = JobImpact::compute(&jobs, &merged, Duration::from_secs(600_000));
        for kind in xid::ErrorKind::STUDIED {
            let (n, w) = (narrow.kind(kind), wide.kind(kind));
            assert!(n.failed <= n.encountered);
            assert!(w.failed <= w.encountered);
            assert!(n.failed <= w.failed);
            assert_eq!(n.encountered, w.encountered);
        }
        assert!(narrow.gpu_failed_jobs() <= wide.gpu_failed_jobs());
    });
}

/// Histograms conserve observations across bins + under/overflow.
#[test]
fn histogram_conserves() {
    run("histogram_conserves", 128, |g| {
        let values = g.vec_with(0, 200, |g| g.f64_in(-10.0, 100.0));
        let mut h = Histogram::new(0.0, 10.0, 7);
        for &v in &values {
            h.add(v);
        }
        let binned: u64 = h.bin_counts().iter().sum();
        assert_eq!(binned + h.overflow() + h.underflow(), values.len() as u64);
    });
}

/// Percentiles are monotone in p and bounded by the sample extremes.
#[test]
fn percentile_monotone() {
    run("percentile_monotone", 128, |g| {
        let values = g.vec_with(1, 100, |g| g.f64_in(-1e6, 1e6));
        let p1 = g.f64_in(0.0, 100.0);
        let p2 = g.f64_in(0.0, 100.0);
        let a = percentile(&values, p1.min(p2)).unwrap();
        let b = percentile(&values, p1.max(p2)).unwrap();
        assert!(a <= b + 1e-9);
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(a >= min - 1e-9 && b <= max + 1e-9);
    });
}

/// Arbitrary-ish job records for CSV round-trip testing (names restricted
/// to CSV-safe characters, as real sacct exports are).
fn arbitrary_job(g: &mut Gen) -> AccountedJob {
    let id = g.u32_in(0, u32::MAX) as u64;
    let name = g.string_of(NAME_CHARS, 1, 21);
    let submit = Timestamp::from_unix(g.u64_in(1_640_995_200, 1_741_000_000));
    let start = submit + Duration::from_secs(g.u64_below(10_000));
    let run_secs = g.u64_in(1, 500_000);
    let gpus = g.u32_in(0, 8);
    AccountedJob {
        id,
        name,
        submit,
        start,
        end: start + Duration::from_secs(run_secs),
        gpus,
        gpu_slots: (0..gpus.min(4) as u8)
            .map(|i| (format!("gpub{:03}", i + 1), i))
            .collect(),
        completed: g.bool(),
    }
}

/// The job CSV schema round-trips arbitrary records exactly.
#[test]
fn csv_jobs_roundtrip() {
    run("csv_jobs_roundtrip", 64, |g| {
        let jobs = g.vec_with(0, 30, arbitrary_job);
        let csv = csvio::render_jobs(&jobs);
        let back = csvio::parse_jobs(&csv).unwrap();
        assert_eq!(back, jobs);
    });
}

/// One row of a scheduler export over two hosts of two GPUs: overlapping
/// starts (so holders arrive out of start order), slot lists that need
/// not match the GPU count, and CPU and GPU rows in either export.
fn export_job(g: &mut Gen) -> AccountedJob {
    let start = StudyPeriods::delta().op.start + Duration::from_secs(g.u64_below(3_000));
    AccountedJob {
        id: g.u64_below(1_000),
        name: g
            .choose(&["train_net", "namd", "llm_eval", "cfd"])
            .to_owned(),
        submit: start - Duration::from_secs(g.u64_below(600)),
        start,
        end: start + Duration::from_secs(g.u64_below(900)),
        gpus: g.choose(&[0u32, 0, 1, 1, 2, 4, 8, 64, 300]),
        gpu_slots: (0..g.usize_in(0, 4))
            .map(|_| (g.choose(&["gpub001", "gpub002"]).to_owned(), g.u8_in(0, 2)))
            .collect(),
        completed: g.bool(),
    }
}

/// [`csvio::render_jobs`] of `jobs` with blank and whitespace-only lines
/// scattered among the rows.
fn export_text(g: &mut Gen, jobs: &[AccountedJob]) -> String {
    let mut text = String::new();
    for line in csvio::render_jobs(jobs).lines() {
        text.push_str(line);
        text.push('\n');
        if g.bool_with(0.15) {
            text.push_str(g.choose(&["", "  ", "\t"]));
            text.push('\n');
        }
    }
    text
}

/// The report from job exports decoded straight into their indexes
/// equals the report from `run_events` over the rows `parse_jobs` builds,
/// and on byte-mutated exports the decode fails exactly where, and with
/// the message, `parse_jobs` fails.
#[test]
fn decoded_indexes_report_like_the_row_path() {
    run("decoded_indexes_report_like_the_row_path", 128, |g| {
        let op = StudyPeriods::delta().op.start;
        let events: Vec<XidEvent> = g.vec_with(0, 24, |g| {
            XidEvent::new(
                op + Duration::from_secs(g.u64_below(4_000)),
                g.choose(&["gpub001", "gpub002"]),
                PciAddr::for_gpu_index(g.u8_in(0, 2)),
                XidCode::new(g.choose(&[31u16, 48, 79, 119])),
                "",
            )
        });
        let gpu_jobs = g.vec_with(0, 40, export_job);
        let cpu_jobs = g.vec_with(0, 20, export_job);
        let (mut gpu_text, cpu_text) = (export_text(g, &gpu_jobs), export_text(g, &cpu_jobs));
        let report = |gpu_text: &str| {
            let rows = csvio::parse_jobs(gpu_text);
            let index = JobIndex::from_csv(gpu_text);
            assert_eq!(index.as_ref().err(), rows.as_ref().err());
            let (Ok(rows), Ok(index)) = (rows, index) else {
                return;
            };
            let cpu_rows = csvio::parse_jobs(&cpu_text).unwrap();
            let cpu_index = JobIndex::from_csv(&cpu_text).unwrap();
            let pipeline = Pipeline::delta();
            let want = pipeline.run_events(events.clone(), None, &rows, &cpu_rows, &[]);
            let errors = pipeline.coalesce_events(events.clone());
            let got = pipeline.assemble_indexed(errors, None, &index, &cpu_index, &[]);
            assert_eq!(format!("{got:?}"), format!("{want:?}"));
            assert_eq!(index.jobs(), rows.len() as u64);
            let span = rows.iter().map(|j| (j.submit, j.end));
            let span = span.reduce(|(s, e), (s2, e2)| (s.min(s2), e.max(e2)));
            assert_eq!(index.time_span(), span);
        };
        report(&gpu_text);
        // Byte-mutated rows: the same first error, or the same report.
        for _ in 0..g.usize_in(1, 4) {
            let at = g.usize_in(0, gpu_text.len() + 1);
            let byte = g.choose(b"0123456789,;:-TZ x\n") as char;
            match g.u8_in(0, 3) {
                0 => gpu_text.insert(at, byte),
                _ if at == gpu_text.len() => gpu_text.push(byte),
                1 => {
                    gpu_text.remove(at);
                }
                _ => gpu_text.replace_range(at..at + 1, byte.encode_utf8(&mut [0; 4])),
            }
        }
        report(&gpu_text);
    });
}

/// The outage CSV schema round-trips arbitrary records exactly.
#[test]
fn csv_outages_roundtrip() {
    run("csv_outages_roundtrip", 64, |g| {
        let outages: Vec<resilience::OutageRecord> =
            g.vec_with(0, 30, |g| resilience::OutageRecord {
                host: format!("gpub{:03}", g.u16_in(1, 999)),
                start: Timestamp::from_unix(g.u64_in(1_640_995_200, 1_741_000_000)),
                duration: Duration::from_secs(g.u64_in(1, 100_000)),
            });
        let csv = csvio::render_outages(&outages);
        assert_eq!(csvio::parse_outages(&csv).unwrap(), outages);
    });
}
