//! The end-to-end Stage I–III pipeline driver.
//!
//! [`Pipeline::run`] wires the stages of Fig. 1 together: raw consolidated
//! logs are filtered and extracted (`hpclog`), coalesced ([`mod@crate::coalesce`]),
//! tallied into error statistics ([`crate::stats`], with the SRE outlier
//! rule applied for the headline MTBE numbers), joined against the job
//! records ([`crate::impact`]) and combined with outage records into the
//! availability estimate ([`crate::availability`]). The result is a
//! [`StudyReport`] from which every table and figure renders
//! ([`crate::report`]) and every headline finding evaluates
//! ([`crate::findings`]).

use crate::availability::Availability;
use crate::coalesce::{coalesce, CoalesceSummary, CoalescedError};
use crate::csvio;
use crate::impact::{JobImpact, JobIndex, JobMixRow, ATTRIBUTION_WINDOW};
use crate::job::{AccountedJob, OutageRecord};
use crate::stats::{exclude_dominant_gpu, ErrorStats, OutlierReport};
use hpclog::archive::Archive;
use hpclog::extract::{ExtractStats, ScanCounters, XidExtractor};
use hpclog::quarantine::QuarantineLedger;
use hpclog::XidEvent;
use simtime::{Duration, Phase, StudyPeriods};
use std::fmt;
use xid::ErrorKind;

/// Pipeline configuration: the analysis windows and the machine constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pipeline {
    /// The study calendar (phase boundaries).
    pub periods: StudyPeriods,
    /// GPU-node count for per-node MTBE (106 on Delta).
    pub node_count: usize,
    /// Coalescing window Δt (Fig. 1 stage ii).
    pub coalesce_window: Duration,
    /// Error→failure attribution window (§V-B, 20 s).
    pub attribution_window: Duration,
    /// Share above which one GPU's errors of a kind are excluded as an
    /// outlier (the SRE faulty-GPU rule).
    pub outlier_threshold: f64,
}

impl Pipeline {
    /// The paper's configuration: Delta calendar, 106 nodes, Δt = 20 s
    /// (duplicates repeat within ~10 s; distinct storm errors arrive ≥30 s
    /// apart, so Δt between them separates the two regimes), 20 s
    /// attribution, 50% outlier threshold.
    pub fn delta() -> Self {
        Pipeline {
            periods: StudyPeriods::delta(),
            node_count: 106,
            coalesce_window: Duration::from_secs(20),
            attribution_window: ATTRIBUTION_WINDOW,
            outlier_threshold: 0.5,
        }
    }

    /// Runs the full pipeline from a raw log archive.
    pub fn run(
        &self,
        archive: &Archive,
        gpu_jobs: &[AccountedJob],
        cpu_jobs: &[AccountedJob],
        outages: &[OutageRecord],
    ) -> StudyReport {
        let mut extractor = XidExtractor::studied_only(2024);
        let events: Vec<XidEvent> = {
            let mut span = obs::span("stage_extract");
            let events = archive
                .iter()
                .filter_map(|line| extractor.extract(line))
                .collect();
            span.add_items(extractor.stats().lines_seen);
            events
        };
        hpclog::extract::record_scan_metrics(
            &ScanCounters::default(),
            &ExtractStats::default(),
            &extractor.stats(),
        );
        self.run_events(events, Some(extractor.stats()), gpu_jobs, cpu_jobs, outages)
    }

    /// Runs the full pipeline from raw byte streams without ever failing:
    /// every defective log line and CSV row is classified into the
    /// returned [`QuarantineReport`]'s ledger, I/O errors truncate the log
    /// scan instead of aborting it, and the study is computed from
    /// whatever survived. [`Caveat`] flags say how much to trust the
    /// result.
    ///
    /// This is the entry point for real-world archives, where a multi-month
    /// consolidated log *will* contain truncated lines, interleaved
    /// writes and the occasional clock regression, and discarding three
    /// months of analysis over one bad byte is the wrong trade.
    /// `log_year` is the starting year for the year-less syslog stamps
    /// (the wire format drops the year); the scan advances it when the
    /// clock crosses New Year (see
    /// [`XidExtractor::scan_reader_lenient`]).
    ///
    /// Callers that must treat any defect as fatal check
    /// [`QuarantineReport::is_clean`] on the result.
    pub fn run_lenient<R: std::io::Read>(
        &self,
        log: R,
        log_year: i32,
        gpu_jobs_csv: &str,
        cpu_jobs_csv: &str,
        outages_csv: &str,
    ) -> (StudyReport, QuarantineReport) {
        let mut ledger = QuarantineLedger::new();
        let mut extractor = XidExtractor::studied_only(log_year);
        let events = extractor.scan_reader_lenient(log, &mut ledger);
        let extract_stats = extractor.stats();
        let gpu_jobs = csvio::parse_jobs_lenient(gpu_jobs_csv, &mut ledger);
        let cpu_jobs = csvio::parse_jobs_lenient(cpu_jobs_csv, &mut ledger);
        let outages = csvio::parse_outages_lenient(outages_csv, &mut ledger);
        let report = self.run_events(events, Some(extract_stats), &gpu_jobs, &cpu_jobs, &outages);
        let quarantine = QuarantineReport::from_scan(ledger, extract_stats);
        (report, quarantine)
    }

    /// Runs the pipeline from already-extracted events (Stage I done
    /// elsewhere, e.g. when replaying a pre-parsed export): indexes the
    /// job rows, then [`coalesce_events`](Self::coalesce_events) and
    /// [`assemble_indexed`](Self::assemble_indexed).
    pub fn run_events(
        &self,
        events: Vec<XidEvent>,
        extract_stats: Option<ExtractStats>,
        gpu_jobs: &[AccountedJob],
        cpu_jobs: &[AccountedJob],
        outages: &[OutageRecord],
    ) -> StudyReport {
        let (gpu, cpu) = {
            let mut span = obs::span("stage_job_index");
            span.add_items((gpu_jobs.len() + cpu_jobs.len()) as u64);
            (JobIndex::build(gpu_jobs), JobIndex::build(cpu_jobs))
        };
        let errors = self.coalesce_events(events);
        self.assemble_indexed(errors, extract_stats, &gpu, &cpu, outages)
    }

    /// Stage ii: puts events into the canonical `(time, host, seq)` order
    /// (see [`hpclog::shard`]), then coalesces them under
    /// `coalesce_window`. The sort is stable, every batch entry path
    /// funnels through it, and the streaming engine reproduces it online,
    /// so equal inputs always produce byte-identical reports. Coalescing
    /// never merges across hosts, so the sort cannot change any aggregate
    /// number.
    pub fn coalesce_events(&self, mut events: Vec<XidEvent>) -> Vec<CoalescedError> {
        hpclog::shard::canonical_sort(&mut events);
        let events_in = events.len() as u64;
        let errors = {
            let mut span = obs::span("stage_coalesce");
            span.add_items(events_in);
            coalesce(events, self.coalesce_window)
        };
        if obs::is_enabled() {
            obs::counter("core_events_coalesced_total", &[]).add(events_in);
            obs::counter("core_coalesce_merges_total", &[]).add(events_in - errors.len() as u64);
        }
        errors
    }

    /// Stages iii–v on errors [`coalesce_events`](Self::coalesce_events)
    /// returned, joined against job exports already indexed.
    pub fn assemble_indexed(
        &self,
        errors: Vec<CoalescedError>,
        extract_stats: Option<ExtractStats>,
        gpu_jobs: &JobIndex,
        cpu_jobs: &JobIndex,
        outages: &[OutageRecord],
    ) -> StudyReport {
        let records = Records {
            gpu_jobs,
            gpu_tail: &[],
            cpu_jobs,
            cpu_tail: &[],
            outages,
            outage_tail: &[],
        };
        self.assemble(errors, extract_stats, records)
    }

    /// Stages iii–v on an already-coalesced, canonically ordered error set.
    ///
    /// Shared tail of [`assemble_indexed`](Self::assemble_indexed) and the
    /// incremental engine's materialization (`core::incremental`): both
    /// paths produce their coalesced errors differently but must assemble
    /// the [`StudyReport`] through the one code path, so equivalence
    /// reduces to the error sets being equal.
    pub(crate) fn assemble(
        &self,
        errors: Vec<CoalescedError>,
        extract_stats: Option<ExtractStats>,
        records: Records<'_>,
    ) -> StudyReport {
        let mut span = obs::span("stage_assemble");
        span.add_items(errors.len() as u64);
        if obs::is_enabled() {
            obs::counter("core_errors_total", &[]).add(errors.len() as u64);
            obs::counter("core_reports_assembled_total", &[]).inc();
        }
        let coalesce_summary = CoalesceSummary::of(&errors);
        let stats_raw = ErrorStats::compute(&errors, self.periods, self.node_count);

        // SRE outlier rule: the dominant-GPU storm distorts pre-op memory
        // statistics; exclude it for the headline numbers.
        let (errors_clean, outlier) = exclude_dominant_gpu(
            &errors,
            ErrorKind::UncontainedMemoryError,
            Phase::PreOp,
            self.periods,
            self.outlier_threshold,
        );
        let stats = ErrorStats::compute(&errors_clean, self.periods, self.node_count);

        let impact =
            records
                .gpu_jobs
                .impact(records.gpu_tail, &errors_clean, self.attribution_window);
        let mix = records.gpu_jobs.mix(records.gpu_tail);

        // Availability over the operational period only (§V-C).
        let op = self.periods.op;
        let op_outages: Vec<OutageRecord> = records
            .outages
            .iter()
            .chain(records.outage_tail)
            .filter(|o| op.contains(o.start))
            .cloned()
            .collect();
        let availability = Availability::compute(&op_outages, self.node_count, op.hours());
        let mttf_hours = stats.overall_mtbe_per_node(Phase::Op);

        StudyReport {
            config: *self,
            extract_stats,
            coalesce_summary,
            errors: errors_clean,
            stats_raw,
            stats,
            outlier,
            impact,
            mix,
            gpu_success: records.gpu_jobs.success_rate(records.gpu_tail),
            cpu_success: records.cpu_jobs.success_rate(records.cpu_tail),
            availability,
            op_outages,
            mttf_hours,
        }
    }
}

/// The records [`Pipeline::assemble`] joins against the errors. Each
/// source is the rows so far followed by a tail not yet in them: a
/// streaming view's partial CSV row, empty on the batch path.
pub(crate) struct Records<'a> {
    /// The GPU jobs, indexed.
    pub(crate) gpu_jobs: &'a JobIndex,
    /// GPU job rows after the indexed ones.
    pub(crate) gpu_tail: &'a [AccountedJob],
    /// The CPU jobs, indexed.
    pub(crate) cpu_jobs: &'a JobIndex,
    /// CPU job rows after the indexed ones.
    pub(crate) cpu_tail: &'a [AccountedJob],
    /// The outages.
    pub(crate) outages: &'a [OutageRecord],
    /// Outage rows after `outages`.
    pub(crate) outage_tail: &'a [OutageRecord],
}

impl Default for Pipeline {
    fn default() -> Self {
        Pipeline::delta()
    }
}

/// Everything the pipeline computes; the source of every table, figure and
/// finding.
#[derive(Debug, Clone)]
pub struct StudyReport {
    /// The configuration the report was computed with.
    pub config: Pipeline,
    /// Stage I extraction counters (absent when extraction was external).
    pub extract_stats: Option<ExtractStats>,
    /// Coalescing summary (raw lines vs errors).
    pub coalesce_summary: CoalesceSummary,
    /// The coalesced, outlier-filtered error set.
    pub errors: Vec<CoalescedError>,
    /// Statistics *before* outlier exclusion (storm included).
    pub stats_raw: ErrorStats,
    /// Statistics after the SRE outlier rule — the Table I / headline
    /// numbers.
    pub stats: ErrorStats,
    /// The outlier exclusion performed, if any.
    pub outlier: Option<crate::stats::OutlierReport>,
    /// The Table II join.
    pub impact: JobImpact,
    /// The Table III rows.
    pub mix: Vec<JobMixRow>,
    /// GPU-job success rate (§V-A: 74.68%).
    pub gpu_success: Option<f64>,
    /// CPU-job success rate (§V-A: 74.90%).
    pub cpu_success: Option<f64>,
    /// §V-C availability analysis over the operational period.
    pub availability: Availability,
    /// The operational-period outages the availability analysis was
    /// computed from — retained so the serving layer can re-bucket
    /// downtime by civil time (the availability rollup).
    pub op_outages: Vec<OutageRecord>,
    /// MTTF estimate (overall operational per-node MTBE), the paper's
    /// conservative every-error-interrupts assumption.
    pub mttf_hours: Option<f64>,
}

impl StudyReport {
    /// The availability estimate via the paper's formula, if computable.
    pub fn availability_estimate(&self) -> Option<f64> {
        self.availability.availability_from_mttf(self.mttf_hours?)
    }

    /// The outlier exclusion, by reference.
    pub fn outlier(&self) -> Option<&OutlierReport> {
        self.outlier.as_ref()
    }
}

/// A trust qualifier attached to a lenient run's result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Caveat {
    /// The log stream died mid-scan; the error window is incomplete.
    InputIoError,
    /// More than [`QuarantineReport::HIGH_REJECT_RATE`] of the scanned
    /// log lines were quarantined — the surviving sample may be biased.
    HighRejectRate {
        /// Quarantined lines.
        rejected: u64,
        /// Lines scanned.
        seen: u64,
    },
    /// Lines were quarantined and *no* events were extracted at all: the
    /// corruption may have eaten the signal, not just the noise.
    NothingExtracted,
}

impl fmt::Display for Caveat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Caveat::InputIoError => {
                write!(f, "log stream I/O error: the scan ended early")
            }
            Caveat::HighRejectRate { rejected, seen } => write!(
                f,
                "high reject rate: {rejected} of {seen} log lines quarantined"
            ),
            Caveat::NothingExtracted => {
                write!(f, "lines were quarantined but no events were extracted")
            }
        }
    }
}

/// What a lenient run refused to ingest, and how much that should worry
/// the reader.
#[derive(Debug, Clone)]
pub struct QuarantineReport {
    /// Per-category reject counts plus exemplar bad lines.
    pub ledger: QuarantineLedger,
    /// Result-trust qualifiers derived from the ledger and the scan
    /// counters; empty means the inputs were clean (or losslessly dirty —
    /// e.g. only duplicate floods, which quarantine nothing).
    pub caveats: Vec<Caveat>,
}

impl QuarantineReport {
    /// Reject fraction above which [`Caveat::HighRejectRate`] is raised.
    pub const HIGH_REJECT_RATE: f64 = 0.05;

    /// Derives the caveats of a log scan from its ledger and counters.
    pub fn from_scan(ledger: QuarantineLedger, stats: ExtractStats) -> Self {
        let mut caveats = Vec::new();
        if ledger.io_errors() > 0 {
            caveats.push(Caveat::InputIoError);
        }
        // Rate the *log scan* only: the ledger is shared with the CSV
        // parsers, whose row rejects are counted in different units than
        // `lines_seen` and would skew the fraction.
        let rejected = stats.quarantined.total();
        let seen = stats.lines_seen;
        if seen > 0 && rejected as f64 / seen as f64 > Self::HIGH_REJECT_RATE {
            caveats.push(Caveat::HighRejectRate { rejected, seen });
        }
        if rejected > 0 && stats.extracted == 0 {
            caveats.push(Caveat::NothingExtracted);
        }
        QuarantineReport { ledger, caveats }
    }

    /// True when nothing was quarantined and no caveat applies.
    pub fn is_clean(&self) -> bool {
        self.ledger.is_empty() && self.caveats.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpclog::{LogLine, PciAddr, Timestamp};
    use xid::XidCode;

    fn pipeline() -> Pipeline {
        Pipeline::delta()
    }

    fn op_time(secs: u64) -> Timestamp {
        StudyPeriods::delta().op.start + Duration::from_secs(secs)
    }

    fn xid_line(t: Timestamp, host: &str, gpu: u8, code: u16) -> LogLine {
        XidEvent::new(
            t,
            host,
            PciAddr::for_gpu_index(gpu),
            XidCode::new(code),
            "detail",
        )
        .to_log_line()
    }

    fn gpu_job(id: u64, host: &str, gpu: u8, start: u64, end: u64, ok: bool) -> AccountedJob {
        AccountedJob {
            id,
            name: format!("job{id}"),
            submit: op_time(start.saturating_sub(10)),
            start: op_time(start),
            end: op_time(end),
            gpus: 1,
            gpu_slots: vec![(host.to_owned(), gpu)],
            completed: ok,
        }
    }

    #[test]
    fn end_to_end_from_raw_lines() {
        let mut archive = Archive::new();
        // Three duplicate GSP lines -> one coalesced error that kills a job.
        for d in [0, 5, 10] {
            archive.push(xid_line(op_time(1000 + d), "gpub001", 0, 119));
        }
        // Noise and an excluded software XID.
        archive.push(LogLine::new(
            op_time(500),
            "gpub001",
            "kernel",
            "usb 1-1 connected",
        ));
        archive.push(xid_line(op_time(2000), "gpub002", 1, 13));

        let jobs = [gpu_job(1, "gpub001", 0, 900, 1005, false)];
        let outages = [OutageRecord {
            host: "gpub001".to_owned(),
            start: op_time(1300),
            duration: Duration::from_mins(53),
        }];
        let report = pipeline().run(&archive, &jobs, &[], &outages);

        let es = report.extract_stats.unwrap();
        assert_eq!(es.extracted, 3);
        assert_eq!(es.excluded, 1);
        assert_eq!(report.coalesce_summary.errors, 1);
        assert_eq!(report.coalesce_summary.raw_lines, 3);
        assert_eq!(report.stats.count(ErrorKind::GspError, Phase::Op), 1);
        let k = report.impact.kind(ErrorKind::GspError);
        assert_eq!((k.encountered, k.failed), (1, 1));
        assert_eq!(report.impact.gpu_failed_jobs(), 1);
        assert!((report.availability.mttr_hours().unwrap() - 53.0 / 60.0).abs() < 1e-9);
        assert!(report.availability_estimate().is_some());
    }

    #[test]
    fn storm_outlier_excluded_from_headline_stats() {
        let pre = StudyPeriods::delta().pre_op.start;
        let mut events = Vec::new();
        // Faulty GPU: 500 uncontained errors, minutes apart (no coalescing).
        for i in 0..500u64 {
            events.push(XidEvent::new(
                pre + Duration::from_secs(i * 300),
                "gpub038",
                PciAddr::for_gpu_index(2),
                XidCode::UNCONTAINED_ECC,
                "",
            ));
        }
        // Healthy background: 5 uncontained errors elsewhere.
        for i in 0..5u64 {
            events.push(XidEvent::new(
                pre + Duration::from_days(i + 10),
                "gpub001",
                PciAddr::for_gpu_index(0),
                XidCode::UNCONTAINED_ECC,
                "",
            ));
        }
        let report = pipeline().run_events(events, None, &[], &[], &[]);
        // Raw stats see everything; headline stats see only the background.
        assert_eq!(
            report
                .stats_raw
                .count(ErrorKind::UncontainedMemoryError, Phase::PreOp),
            505
        );
        assert_eq!(
            report
                .stats
                .count(ErrorKind::UncontainedMemoryError, Phase::PreOp),
            5
        );
        let outlier = report.outlier().expect("storm detected");
        assert_eq!(outlier.host, "gpub038");
        assert_eq!(outlier.excluded_errors, 500);
    }

    #[test]
    fn availability_counts_op_outages_only() {
        let pre_outage = OutageRecord {
            host: "gpub001".to_owned(),
            start: StudyPeriods::delta().pre_op.start + Duration::from_days(3),
            duration: Duration::from_hours(2),
        };
        let op_outage = OutageRecord {
            host: "gpub002".to_owned(),
            start: op_time(5000),
            duration: Duration::from_mins(30),
        };
        let report = pipeline().run_events(Vec::new(), None, &[], &[], &[pre_outage, op_outage]);
        assert_eq!(report.availability.outage_count(), 1);
        assert!((report.availability.mttr_hours().unwrap() - 0.5).abs() < 1e-9);
        // No errors -> no MTTF -> no formula-based estimate.
        assert_eq!(report.mttf_hours, None);
        assert_eq!(report.availability_estimate(), None);
    }

    fn render_log(archive: &Archive) -> Vec<u8> {
        let mut out = Vec::new();
        for line in archive.iter() {
            out.extend_from_slice(line.to_string().as_bytes());
            out.push(b'\n');
        }
        out
    }

    fn sample_inputs() -> (Archive, String, String) {
        let mut archive = Archive::new();
        for d in [0, 5, 10] {
            archive.push(xid_line(op_time(1000 + d), "gpub001", 0, 119));
        }
        archive.push(LogLine::new(
            op_time(500),
            "gpub001",
            "kernel",
            "usb 1-1 connected",
        ));
        let jobs = crate::csvio::render_jobs(&[gpu_job(1, "gpub001", 0, 900, 1005, false)]);
        let outages = crate::csvio::render_outages(&[OutageRecord {
            host: "gpub001".to_owned(),
            start: op_time(1300),
            duration: Duration::from_mins(53),
        }]);
        (archive, jobs, outages)
    }

    #[test]
    fn run_lenient_matches_run_on_clean_input() {
        let (archive, jobs, outages) = sample_inputs();
        let empty = crate::csvio::render_jobs(&[]);
        let expect = pipeline().run(
            &archive,
            &crate::csvio::parse_jobs(&jobs).unwrap(),
            &[],
            &crate::csvio::parse_outages(&outages).unwrap(),
        );
        let (report, quarantine) = pipeline().run_lenient(
            render_log(&archive).as_slice(),
            2022,
            &jobs,
            &empty,
            &outages,
        );
        assert!(quarantine.is_clean(), "{:?}", quarantine.ledger.counts());
        assert_eq!(report.coalesce_summary.errors, 1);
        assert_eq!(
            report.coalesce_summary.errors,
            expect.coalesce_summary.errors
        );
        assert_eq!(report.impact.gpu_failed_jobs(), 1);
        assert_eq!(
            report.impact.gpu_failed_jobs(),
            expect.impact.gpu_failed_jobs()
        );
        assert_eq!(
            report.availability.outage_count(),
            expect.availability.outage_count()
        );
    }

    #[test]
    fn run_lenient_degrades_instead_of_failing() {
        let (archive, jobs, outages) = sample_inputs();
        let mut log = render_log(&archive);
        // Corrupt the stream: garbage bytes and a bad jobs row appended.
        log.extend_from_slice(b"\xFF\xFE not a line\n");
        let jobs = format!("{jobs}this,row,is,bad\n");
        let (report, quarantine) =
            pipeline().run_lenient(log.as_slice(), 2022, &jobs, "", &outages);
        // The good data still flows through...
        assert_eq!(report.coalesce_summary.errors, 1);
        assert_eq!(report.availability.outage_count(), 1);
        // ...and the defects are accounted for, not swallowed.
        use hpclog::quarantine::QuarantineCategory as Q;
        assert_eq!(quarantine.ledger.counts().get(Q::Encoding), 1);
        assert_eq!(quarantine.ledger.counts().get(Q::BadRecord), 1);
        assert!(!quarantine.is_clean());
    }

    #[test]
    fn run_lenient_caveats_flag_distrust() {
        // A log that is mostly garbage triggers the high-reject caveat.
        let log = b"\xFFgarbage\n\xFFgarbage\n\xFFgarbage\nMar 14 03:22:07 gpub042 kernel: ok\n";
        let (_, quarantine) = pipeline().run_lenient(&log[..], 2024, "", "", "");
        assert!(quarantine.caveats.iter().any(|c| matches!(
            c,
            Caveat::HighRejectRate {
                rejected: 3,
                seen: 4
            }
        )));
        assert!(quarantine.caveats.contains(&Caveat::NothingExtracted));
        // Caveats render for humans.
        for c in &quarantine.caveats {
            assert!(!c.to_string().is_empty());
        }
    }

    #[test]
    fn success_rates_flow_through() {
        let jobs = [
            gpu_job(1, "gpub001", 0, 100, 200, true),
            gpu_job(2, "gpub001", 1, 100, 200, false),
        ];
        let cpu = [AccountedJob {
            gpus: 0,
            gpu_slots: Vec::new(),
            ..jobs[0].clone()
        }];
        let report = pipeline().run_events(Vec::new(), None, &jobs, &cpu, &[]);
        assert_eq!(report.gpu_success, Some(0.5));
        assert_eq!(report.cpu_success, Some(1.0));
        assert_eq!(report.mix.len(), 8);
        assert_eq!(report.mix[0].count, 2);
    }
}
