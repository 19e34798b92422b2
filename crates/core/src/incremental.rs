//! The incremental streaming pipeline: batch results, live.
//!
//! [`Pipeline::run_lenient`] is a batch oracle — whole log in, whole
//! report out. A production deployment instead *tails* the cluster: log
//! bytes arrive in arbitrary-sized chunks, job records trickle in as the
//! scheduler closes them, and the process must survive restarts without
//! re-reading months of history. [`StreamingPipeline`] is that engine.
//! Feed it the same bytes in any batching, checkpoint it at any point,
//! restore and keep feeding: every materialized [`StudyReport`] and
//! [`QuarantineReport`] is **byte-identical** to what the batch pipeline
//! produces on the prefix fed so far. The differential suite
//! (`tests/incremental_equivalence.rs`) and the property layer
//! (`crates/core/tests/incremental_properties.rs`) enforce exactly that.
//!
//! # How equivalence is engineered, not hoped for
//!
//! The batch path is: lenient scan → canonical `(time, host)` sort →
//! coalesce fold → assemble. Each stage has a streaming twin that is the
//! *same code*:
//!
//! * **Scan** — [`hpclog::stream::LenientScan`] feeds every line through
//!   the batch lenient scan's own line classifier and carries the partial
//!   line, line counter and out-of-order anchor across chunk (and
//!   checkpoint) boundaries.
//! * **Order** — the scan rejects clock regressions, so accepted events
//!   leave it in non-decreasing time order. The only reordering the batch
//!   sort can then perform is *within* one timestamp, stably by host. The
//!   engine therefore buffers just the events of the newest timestamp (the
//!   *tie buffer*) and flushes them host-sorted when time advances —
//!   reproducing the canonical order with O(events-per-second) memory
//!   instead of O(stream).
//! * **Coalesce** — events are folded into a long-lived
//!   [`Coalescer`], the very type the batch [`coalesce`](crate::coalesce::coalesce)
//!   function folds through.
//! * **Assemble** — materialization calls the same `Pipeline::assemble`
//!   tail (stats, outlier rule, impact, availability) the batch path
//!   calls, over the same job index: each job export's
//!   `JobIndex` is extended as its CSV rows decode, where the batch
//!   path builds it once.
//!
//! # What a view costs
//!
//! A view ([`StreamingPipeline::materialize_full`]) never clones the
//! engine. It copies only the open tails and completes them on the
//! copies, as the batch path completes them at end of input: the scan's
//! partial line (against a copy of the bounded quarantine ledger), the
//! one-second tie buffer (folded into a copy of the coalescer,
//! `O(errors)`) and at most one partial row per CSV feed. What is kept
//! as rows arrive is the job index: per-GPU holders sorted by start,
//! the Table III bucket folds and the completed counts. What is
//! recomputed per view is what depends on the errors: statistics and the
//! outlier rule, the Table II join (`O(errors × log jobs)`), Table III
//! from the folds (one pass over the sorted minutes) and availability.
//! A view records no per-stream metric; a report's own counters
//! (`core_reports_assembled_total` and the like) count once per view.
//!
//! Memory is bounded by the *analysis state*, not the stream: the
//! coalesced error list, the job and outage records and their index,
//! the bounded quarantine ledger, and the one-second tie buffer. Raw
//! log lines are never retained.
//!
//! # Checkpoints
//!
//! [`StreamingPipeline::checkpoint`] serializes every bit of cross-batch
//! state (see `DESIGN.md` §7 for the inventory and why each field is
//! load-bearing) into a versioned [`Checkpoint`];
//! [`StreamingPipeline::restore`] rebuilds an engine that continues the
//! stream exactly — including future reservoir-sampling decisions in the
//! quarantine ledger, whose RNG state rides along. Corrupt or truncated
//! snapshots load as typed [`CheckpointError`]s, never panics.
//!
//! # Feed-order contract
//!
//! Byte-for-byte ledger equality additionally requires feeding the shared
//! quarantine ledger in the batch path's record order: all log bytes (then
//! [`finish_log`](StreamingPipeline::finish_log)), then GPU jobs, CPU
//! jobs, outages. Within each input, chunking is arbitrary. Feeding in a
//! different order still yields the same *report* and the same ledger
//! counts; only reservoir exemplar selection can differ, because exemplar
//! survival depends on record order by construction.

use crate::checkpoint::{Checkpoint, CheckpointError, Decoder, Encoder};
use crate::coalesce::{CoalescedError, Coalescer, Pushed};
use crate::csvio::{self, CsvError, JOB_HEADER, OUTAGE_HEADER};
use crate::impact::JobIndex;
use crate::job::{AccountedJob, OutageRecord};
use crate::pipeline::{Pipeline, QuarantineReport, Records, StudyReport};
use hpclog::extract::ExtractStats;
use hpclog::quarantine::{
    Exemplar, LedgerSnapshot, QuarantineCategory, QuarantineCounts, QuarantineLedger,
};
use hpclog::stream::{LenientScan, ScanSnapshot};
use hpclog::{PciAddr, XidEvent};
use simtime::{Duration, Period, StudyPeriods, Timestamp};
use xid::{ErrorKind, XidCode};

/// Incremental lenient CSV ingestion, replicating
/// [`csvio::parse_jobs_lenient`] / [`csvio::parse_outages_lenient`] on a
/// chunked text stream: same header handling, same blank-row skipping,
/// same physical line numbers in the ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CsvFeed {
    /// True until the first complete line (the header slot) is seen.
    awaiting_header: bool,
    /// Physical lines completed so far.
    line_no: u64,
    /// Text after the last newline, carried to the next chunk.
    carry: String,
}

impl CsvFeed {
    fn new() -> Self {
        CsvFeed {
            awaiting_header: true,
            line_no: 0,
            carry: String::new(),
        }
    }

    fn feed<T>(
        &mut self,
        text: &str,
        header: &str,
        ledger: &mut QuarantineLedger,
        out: &mut Vec<T>,
        parse: fn(&str, usize) -> Result<T, CsvError>,
    ) {
        let mut rest = text;
        while let Some(pos) = rest.find('\n') {
            let (head, tail) = rest.split_at(pos);
            if self.carry.is_empty() {
                // `str::lines` strips one \r before the \n; so do we.
                let line = head.strip_suffix('\r').unwrap_or(head);
                self.line(line, header, ledger, out, parse);
            } else {
                self.carry.push_str(head);
                let full = std::mem::take(&mut self.carry);
                let line = full.strip_suffix('\r').unwrap_or(full.as_str());
                self.line(line, header, ledger, out, parse);
            }
            rest = &tail[1..];
        }
        self.carry.push_str(rest);
    }

    /// Processes the trailing unterminated line, if any. Like
    /// `str::lines`, a final line without `\n` keeps any trailing `\r`.
    fn finish<T>(
        &mut self,
        header: &str,
        ledger: &mut QuarantineLedger,
        out: &mut Vec<T>,
        parse: fn(&str, usize) -> Result<T, CsvError>,
    ) {
        if self.carry.is_empty() {
            return;
        }
        let full = std::mem::take(&mut self.carry);
        self.line(&full, header, ledger, out, parse);
    }

    fn line<T>(
        &mut self,
        raw: &str,
        header: &str,
        ledger: &mut QuarantineLedger,
        out: &mut Vec<T>,
        parse: fn(&str, usize) -> Result<T, CsvError>,
    ) {
        self.line_no += 1;
        let header_slot = std::mem::replace(&mut self.awaiting_header, false);
        out.extend(classify(
            header_slot,
            self.line_no,
            raw,
            header,
            ledger,
            parse,
        ));
    }

    /// The record [`finish`](Self::finish) would take from the partial
    /// row, with any reject recorded in `ledger`; the feed is unchanged.
    fn preview<T>(
        &self,
        header: &str,
        ledger: &mut QuarantineLedger,
        parse: fn(&str, usize) -> Result<T, CsvError>,
    ) -> Option<T> {
        if self.carry.is_empty() {
            return None;
        }
        let (header_slot, line_no) = (self.awaiting_header, self.line_no + 1);
        classify(header_slot, line_no, &self.carry, header, ledger, parse)
    }
}

/// One physical CSV line at `line_no`: the header slot is checked
/// against `header`, a blank row is skipped, and any other row is parsed
/// or recorded in `ledger` as a bad record.
fn classify<T>(
    header_slot: bool,
    line_no: u64,
    raw: &str,
    header: &str,
    ledger: &mut QuarantineLedger,
    parse: fn(&str, usize) -> Result<T, CsvError>,
) -> Option<T> {
    if header_slot {
        if raw.trim() != header {
            // A wrong header is itself a bad record, recorded at line 1;
            // the rows below it may still be sound.
            ledger.record(QuarantineCategory::BadRecord, 1, raw.as_bytes());
        }
        return None;
    }
    if raw.trim().is_empty() {
        return None;
    }
    match parse(raw, line_no as usize) {
        Ok(record) => Some(record),
        Err(_) => {
            ledger.record(QuarantineCategory::BadRecord, line_no, raw.as_bytes());
            None
        }
    }
}

/// One job export: its CSV feed, the rows decoded so far in input order
/// (as checkpoints store them), and their `JobIndex`.
#[derive(Debug)]
struct JobFeed {
    csv: CsvFeed,
    rows: Vec<AccountedJob>,
    index: JobIndex,
}

impl JobFeed {
    fn new() -> Self {
        JobFeed::restored(CsvFeed::new(), Vec::new())
    }

    fn restored(csv: CsvFeed, rows: Vec<AccountedJob>) -> Self {
        let index = JobIndex::build(&rows);
        JobFeed { csv, rows, index }
    }

    fn push(&mut self, text: &str, ledger: &mut QuarantineLedger) {
        let from = self.rows.len();
        self.csv.feed(
            text,
            JOB_HEADER,
            ledger,
            &mut self.rows,
            csvio::parse_job_row,
        );
        self.index.extend(&self.rows[from..]);
    }

    fn finish(&mut self, ledger: &mut QuarantineLedger) {
        let from = self.rows.len();
        self.csv
            .finish(JOB_HEADER, ledger, &mut self.rows, csvio::parse_job_row);
        self.index.extend(&self.rows[from..]);
    }

    fn preview(&self, ledger: &mut QuarantineLedger) -> Option<AccountedJob> {
        self.csv.preview(JOB_HEADER, ledger, csvio::parse_job_row)
    }
}

/// The streaming pipeline engine. See the [module docs](self) for the
/// equivalence argument and the feed-order contract.
///
/// # Example
///
/// ```
/// use resilience::incremental::StreamingPipeline;
/// use resilience::Pipeline;
///
/// let line = "Mar 14 03:22:07 gpub042 kernel: NVRM: Xid (PCI:0000:27:00): 79, GPU has fallen off the bus.\n";
/// let mut engine = StreamingPipeline::new(Pipeline::delta(), 2024);
/// for chunk in line.as_bytes().chunks(3) {
///     engine.push_log(chunk);
/// }
/// engine.finish_log();
/// let report = engine.materialize();
/// assert_eq!(report.extract_stats.unwrap().extracted, 1);
/// ```
#[derive(Debug)]
pub struct StreamingPipeline {
    config: Pipeline,
    scan: LenientScan,
    ledger: QuarantineLedger,
    /// Events of the newest timestamp, awaiting the host-stable flush
    /// that reproduces the batch path's canonical sort.
    pending: Vec<XidEvent>,
    pending_time: Option<Timestamp>,
    coalescer: Coalescer,
    gpu: JobFeed,
    cpu: JobFeed,
    outage_feed: CsvFeed,
    outages: Vec<OutageRecord>,
    metrics: StreamObs,
}

/// Cached global-registry handles for the streaming hot path, so the
/// per-event cost is one relaxed atomic op instead of a registry
/// lookup. Never serialized: checkpoints restore fresh handles to the
/// same process-wide cells. Write-only, like all instrumentation.
#[derive(Debug)]
struct StreamObs {
    tie_high_water: obs::Gauge,
    events: obs::Counter,
    merges: obs::Counter,
}

impl StreamObs {
    fn new() -> Self {
        StreamObs {
            tie_high_water: obs::gauge("core_tie_buffer_high_water", &[]),
            events: obs::counter("core_events_coalesced_total", &[]),
            merges: obs::counter("core_coalesce_merges_total", &[]),
        }
    }
}

impl StreamingPipeline {
    /// A fresh engine with the given analysis configuration; `log_year`
    /// is the starting year for year-less syslog stamps, which the scan
    /// advances across New Year, as in [`Pipeline::run_lenient`].
    pub fn new(config: Pipeline, log_year: i32) -> Self {
        StreamingPipeline {
            coalescer: Coalescer::new(config.coalesce_window),
            config,
            scan: LenientScan::studied_only(log_year),
            ledger: QuarantineLedger::new(),
            pending: Vec::new(),
            pending_time: None,
            gpu: JobFeed::new(),
            cpu: JobFeed::new(),
            outage_feed: CsvFeed::new(),
            outages: Vec::new(),
            metrics: StreamObs::new(),
        }
    }

    /// The analysis configuration.
    pub fn config(&self) -> &Pipeline {
        &self.config
    }

    /// Feeds the next chunk of raw log bytes, of any size.
    pub fn push_log(&mut self, bytes: &[u8]) {
        let mut events = Vec::new();
        self.scan.feed(bytes, &mut self.ledger, &mut events);
        for ev in events {
            self.ingest(ev);
        }
    }

    /// Marks the log source exhausted, processing a trailing
    /// newline-less line exactly as the batch scan does at end of file.
    /// Idempotent; call before feeding CSV inputs to keep the shared
    /// ledger in batch record order.
    pub fn finish_log(&mut self) {
        let mut events = Vec::new();
        self.scan.finish(&mut self.ledger, &mut events);
        for ev in events {
            self.ingest(ev);
        }
    }

    /// Feeds a chunk of the GPU-jobs CSV export.
    pub fn push_gpu_jobs_csv(&mut self, text: &str) {
        self.gpu.push(text, &mut self.ledger);
    }

    /// Feeds a chunk of the CPU-jobs CSV export.
    pub fn push_cpu_jobs_csv(&mut self, text: &str) {
        self.cpu.push(text, &mut self.ledger);
    }

    /// Feeds a chunk of the outages CSV export.
    pub fn push_outages_csv(&mut self, text: &str) {
        self.outage_feed.feed(
            text,
            OUTAGE_HEADER,
            &mut self.ledger,
            &mut self.outages,
            csvio::parse_outage_row,
        );
    }

    fn ingest(&mut self, ev: XidEvent) {
        match self.pending_time {
            Some(t) if ev.time == t => {}
            Some(_) => {
                // The scan never emits regressions, so time advanced:
                // the previous second is complete and can flush.
                self.flush_pending();
                self.pending_time = Some(ev.time);
            }
            None => self.pending_time = Some(ev.time),
        }
        self.pending.push(ev);
        self.metrics
            .tie_high_water
            .set_max(self.pending.len() as u64);
    }

    /// Flushes the tie buffer into the coalescer, updating the coalesce
    /// metrics.
    fn flush_pending(&mut self) {
        let batch = std::mem::take(&mut self.pending);
        let batch_len = batch.len() as u64;
        let merged = fold_ties(&mut self.coalescer, batch);
        if batch_len > 0 {
            self.metrics.events.add(batch_len);
            self.metrics.merges.add(merged);
        }
    }

    /// Stage-I counters so far (the unterminated carry line, if any, is
    /// not yet counted).
    pub fn scan_stats(&self) -> ExtractStats {
        self.scan.stats()
    }

    /// The shared quarantine ledger.
    pub fn ledger(&self) -> &QuarantineLedger {
        &self.ledger
    }

    /// Coalesced errors flushed so far (pre-outlier-rule; the tie buffer
    /// of the newest timestamp is not yet included).
    pub fn errors(&self) -> &[CoalescedError] {
        self.coalescer.errors()
    }

    /// Log bytes fed so far; a resuming reader seeks here.
    pub fn log_bytes_fed(&self) -> u64 {
        self.scan.bytes_fed()
    }

    /// Total input lines consumed across every stream: completed log
    /// lines plus completed rows of each CSV feed. This is the "events"
    /// axis of the `servd` ingest publish cadence (publish every N events
    /// or T seconds) — a cheap monotone counter that advances for every
    /// kind of input, not just XID-bearing log lines.
    pub fn ingested_lines(&self) -> u64 {
        self.scan.stats().lines_seen
            + self.gpu.csv.line_no
            + self.cpu.csv.line_no
            + self.outage_feed.line_no
    }

    /// Serialized size of the current state in bytes — the "resident
    /// state" metric E13 tracks. O(state) to compute.
    pub fn state_size_bytes(&self) -> usize {
        self.checkpoint().as_bytes().len()
    }

    /// Materializes the study report for everything fed so far, without
    /// disturbing the stream. The result is byte-identical to
    /// `Pipeline::run_lenient` over the prefix fed so far; see
    /// [`materialize_full`](Self::materialize_full) for what it costs.
    pub fn materialize(&self) -> StudyReport {
        self.materialize_full().0
    }

    /// [`materialize`](Self::materialize), also yielding the quarantine
    /// report.
    ///
    /// The view copies only the stream's open tails and completes them
    /// on the copies, as the batch path completes them at end of input;
    /// it records no per-stream metric. See the [module docs](self) for
    /// what it copies, keeps and recomputes.
    pub fn materialize_full(&self) -> (StudyReport, QuarantineReport) {
        let mut ledger = self.ledger.clone();
        let mut tail_events = Vec::new();
        let stats = self.scan.preview_finish(&mut ledger, &mut tail_events);
        let errors = self.view_errors(tail_events);
        let gpu_tail = self.gpu.preview(&mut ledger);
        let cpu_tail = self.cpu.preview(&mut ledger);
        let outage_tail =
            self.outage_feed
                .preview(OUTAGE_HEADER, &mut ledger, csvio::parse_outage_row);
        let records = Records {
            gpu_jobs: &self.gpu.index,
            gpu_tail: gpu_tail.as_slice(),
            cpu_jobs: &self.cpu.index,
            cpu_tail: cpu_tail.as_slice(),
            outages: &self.outages,
            outage_tail: outage_tail.as_slice(),
        };
        let report = self.config.assemble(errors, Some(stats), records);
        let quarantine = QuarantineReport::from_scan(ledger, stats);
        (report, quarantine)
    }

    /// The coalesced errors a view reports: the tie buffer, then
    /// `tail_events` (those of the scan's partial line), folded into a
    /// copy of the coalescer as the stream would fold them.
    fn view_errors(&self, tail_events: Vec<XidEvent>) -> Vec<CoalescedError> {
        if self.pending.is_empty() && tail_events.is_empty() {
            return self.coalescer.errors().to_vec();
        }
        let mut coalescer = self.coalescer.clone();
        let mut batch = self.pending.clone();
        for ev in tail_events {
            // The scan never emits regressions: a later time closes the
            // buffered second, as in `ingest`.
            if batch.last().is_some_and(|last| last.time != ev.time) {
                fold_ties(&mut coalescer, std::mem::take(&mut batch));
            }
            batch.push(ev);
        }
        fold_ties(&mut coalescer, batch);
        coalescer.into_errors()
    }

    /// Ends the stream, yielding the final reports: the open tails are
    /// completed on the engine itself, and counted, then read as
    /// [`materialize_full`](Self::materialize_full) reads them.
    pub fn finalize(mut self) -> (StudyReport, QuarantineReport) {
        self.finish_log();
        self.gpu.finish(&mut self.ledger);
        self.cpu.finish(&mut self.ledger);
        self.outage_feed.finish(
            OUTAGE_HEADER,
            &mut self.ledger,
            &mut self.outages,
            csvio::parse_outage_row,
        );
        self.flush_pending();
        self.materialize_full()
    }

    // ---- checkpointing ----------------------------------------------

    /// Serializes the engine's complete cross-batch state. Restoring the
    /// result continues the stream byte-identically, including future
    /// reservoir-sampling decisions. Can be taken at any point — mid-line,
    /// mid-burst, mid-CSV-row.
    pub fn checkpoint(&self) -> Checkpoint {
        let started = std::time::Instant::now();
        let mut enc = Encoder::new();

        // Config.
        enc.u64(self.config.periods.pre_op.start.unix());
        enc.u64(self.config.periods.pre_op.end.unix());
        enc.u64(self.config.periods.op.start.unix());
        enc.u64(self.config.periods.op.end.unix());
        enc.u64(self.config.node_count as u64);
        enc.u64(self.config.coalesce_window.as_secs());
        enc.u64(self.config.attribution_window.as_secs());
        enc.f64(self.config.outlier_threshold);

        // Scan state.
        let scan = self.scan.snapshot();
        enc.i64(scan.year as i64);
        enc.opt_u64(scan.month.map(u64::from));
        enc.bool(scan.studied_only);
        enc.u64(scan.stats.lines_seen);
        enc.u64(scan.stats.xid_lines);
        enc.u64(scan.stats.malformed);
        enc.u64(scan.stats.extracted);
        enc.u64(scan.stats.excluded);
        for n in scan.stats.quarantined.to_array() {
            enc.u64(n);
        }
        enc.bytes(&scan.carry);
        enc.u64(scan.line_no);
        enc.opt_u64(scan.prev_accepted.map(Timestamp::unix));
        enc.u64(scan.bytes_fed);

        // Ledger state (counters, exemplars, reservoir RNG).
        let ledger = self.ledger.snapshot();
        for n in ledger.counts {
            enc.u64(n);
        }
        enc.u64(ledger.io_errors);
        enc.u64(ledger.max_exemplars as u64);
        enc.u64(ledger.max_snippet_bytes as u64);
        enc.u64(ledger.max_line_bytes as u64);
        for s in ledger.rng_state {
            enc.u64(s);
        }
        enc.u64(ledger.exemplars.len() as u64);
        for ex in &ledger.exemplars {
            enc.u8(category_index(ex.category));
            enc.u64(ex.line_no);
            enc.str(&ex.snippet);
        }

        // Tie buffer (pending_time is derivable: all entries share it).
        enc.u64(self.pending.len() as u64);
        for ev in &self.pending {
            encode_event(&mut enc, ev);
        }

        // Coalesced errors (the anchor table rebuilds from these).
        enc.u64(self.coalescer.len() as u64);
        for err in self.coalescer.errors() {
            enc.u64(err.time.unix());
            enc.str(&err.host);
            encode_pci(&mut enc, err.pci);
            enc.u16(err.kind.primary_code().value());
            enc.u64(err.merged_lines);
        }

        // CSV feeds and accumulated records.
        for feed in [&self.gpu.csv, &self.cpu.csv, &self.outage_feed] {
            enc.bool(feed.awaiting_header);
            enc.u64(feed.line_no);
            enc.str(&feed.carry);
        }
        for jobs in [&self.gpu.rows, &self.cpu.rows] {
            enc.u64(jobs.len() as u64);
            for job in jobs {
                encode_job(&mut enc, job);
            }
        }
        enc.u64(self.outages.len() as u64);
        for o in &self.outages {
            enc.str(&o.host);
            enc.u64(o.start.unix());
            enc.u64(o.duration.as_secs());
        }

        let checkpoint = enc.finish();
        if obs::is_enabled() {
            obs::counter("core_checkpoint_encodes_total", &[]).inc();
            obs::histogram(
                "core_checkpoint_encode_us",
                &[],
                obs::registry::DURATION_US_BUCKETS,
            )
            .observe_duration(started.elapsed());
            obs::histogram(
                "core_checkpoint_bytes",
                &[],
                obs::registry::SIZE_BYTES_BUCKETS,
            )
            .observe(checkpoint.as_bytes().len() as u64);
        }
        checkpoint
    }

    /// Rebuilds an engine from a [`Checkpoint`].
    ///
    /// # Errors
    ///
    /// Any structural defect — truncation, bit flips, impossible values —
    /// returns a typed [`CheckpointError`]; no input panics.
    pub fn restore(checkpoint: &Checkpoint) -> Result<Self, CheckpointError> {
        let started = std::time::Instant::now();
        let mut dec = Decoder::new(checkpoint.as_bytes());
        dec.header()?;

        // Config.
        let pre_op = decode_period(&mut dec)?;
        let op = decode_period(&mut dec)?;
        let node_count = usize::try_from(dec.u64()?)
            .map_err(|_| CheckpointError::Invalid { what: "node count" })?;
        let coalesce_window = Duration::from_secs(dec.u64()?);
        let attribution_window = Duration::from_secs(dec.u64()?);
        let outlier_threshold = dec.f64()?;
        let config = Pipeline {
            periods: StudyPeriods { pre_op, op },
            node_count,
            coalesce_window,
            attribution_window,
            outlier_threshold,
        };

        // Scan state.
        let year = i32::try_from(dec.i64()?)
            .map_err(|_| CheckpointError::Invalid { what: "scan year" })?;
        let month = match dec.opt_u64("scan month")? {
            Some(m @ 1..=12) => Some(m as u32),
            Some(_) => return Err(CheckpointError::Invalid { what: "scan month" }),
            None => None,
        };
        let studied_only = dec.bool("scan filter flag")?;
        let mut stats = ExtractStats {
            lines_seen: dec.u64()?,
            xid_lines: dec.u64()?,
            malformed: dec.u64()?,
            extracted: dec.u64()?,
            excluded: dec.u64()?,
            ..ExtractStats::default()
        };
        let mut qcounts = [0u64; QuarantineCategory::ALL.len()];
        for slot in &mut qcounts {
            *slot = dec.u64()?;
        }
        stats.quarantined = QuarantineCounts::from_array(qcounts);
        let carry = dec.bytes("scan carry")?;
        let line_no = dec.u64()?;
        let prev_accepted = dec.opt_u64("order anchor")?.map(Timestamp::from_unix);
        let bytes_fed = dec.u64()?;
        let scan = LenientScan::from_snapshot(ScanSnapshot {
            year,
            month,
            studied_only,
            stats,
            carry,
            line_no,
            prev_accepted,
            bytes_fed,
        });

        // Ledger state.
        let mut counts = [0u64; QuarantineCategory::ALL.len()];
        for slot in &mut counts {
            *slot = dec.u64()?;
        }
        let io_errors = dec.u64()?;
        let max_exemplars = usize::try_from(dec.u64()?).map_err(|_| CheckpointError::Invalid {
            what: "exemplar cap",
        })?;
        let max_snippet_bytes =
            usize::try_from(dec.u64()?).map_err(|_| CheckpointError::Invalid {
                what: "snippet cap",
            })?;
        let max_line_bytes = usize::try_from(dec.u64()?)
            .map_err(|_| CheckpointError::Invalid { what: "line cap" })?;
        let mut rng_state = [0u64; 4];
        for slot in &mut rng_state {
            *slot = dec.u64()?;
        }
        let n_exemplars = dec.len("exemplar count")?;
        let mut exemplars = Vec::with_capacity(n_exemplars);
        for _ in 0..n_exemplars {
            let category = QuarantineCategory::from_index(dec.u8()? as usize).ok_or(
                CheckpointError::Invalid {
                    what: "exemplar category",
                },
            )?;
            let line_no = dec.u64()?;
            let snippet = dec.str("exemplar snippet")?;
            exemplars.push(Exemplar {
                category,
                line_no,
                snippet,
            });
        }
        let ledger = QuarantineLedger::from_snapshot(LedgerSnapshot {
            counts,
            exemplars,
            max_exemplars,
            max_snippet_bytes,
            max_line_bytes,
            io_errors,
            rng_state,
        })
        .ok_or(CheckpointError::Invalid {
            what: "ledger snapshot",
        })?;

        // Tie buffer.
        let n_pending = dec.len("tie buffer count")?;
        let mut pending = Vec::with_capacity(n_pending);
        for _ in 0..n_pending {
            pending.push(decode_event(&mut dec)?);
        }
        let pending_time = pending.last().map(|ev| ev.time);
        if pending.iter().any(|ev| Some(ev.time) != pending_time) {
            return Err(CheckpointError::Invalid { what: "tie buffer" });
        }

        // Coalesced errors.
        let n_errors = dec.len("error count")?;
        let mut errors = Vec::with_capacity(n_errors);
        for _ in 0..n_errors {
            let time = Timestamp::from_unix(dec.u64()?);
            let host = dec.str("error host")?;
            let pci = decode_pci(&mut dec)?;
            let kind = ErrorKind::from_code(XidCode::new(dec.u16()?));
            let merged_lines = dec.u64()?;
            if merged_lines == 0 {
                return Err(CheckpointError::Invalid {
                    what: "merged lines",
                });
            }
            errors.push(CoalescedError {
                time,
                host,
                pci,
                kind,
                merged_lines,
            });
        }
        let coalescer = Coalescer::from_errors(coalesce_window, errors);

        // CSV feeds and accumulated records.
        let mut feeds = Vec::with_capacity(3);
        for _ in 0..3 {
            feeds.push(CsvFeed {
                awaiting_header: dec.bool("csv header flag")?,
                line_no: dec.u64()?,
                carry: dec.str("csv carry")?,
            });
        }
        let outage_feed = feeds.pop().unwrap_or_else(CsvFeed::new);
        let cpu_feed = feeds.pop().unwrap_or_else(CsvFeed::new);
        let gpu_feed = feeds.pop().unwrap_or_else(CsvFeed::new);
        let gpu_jobs = decode_jobs(&mut dec)?;
        let cpu_jobs = decode_jobs(&mut dec)?;
        let n_outages = dec.len("outage count")?;
        let mut outages = Vec::with_capacity(n_outages);
        for _ in 0..n_outages {
            outages.push(OutageRecord {
                host: dec.str("outage host")?,
                start: Timestamp::from_unix(dec.u64()?),
                duration: Duration::from_secs(dec.u64()?),
            });
        }

        dec.finish()?;
        if obs::is_enabled() {
            obs::counter("core_checkpoint_decodes_total", &[]).inc();
            obs::histogram(
                "core_checkpoint_decode_us",
                &[],
                obs::registry::DURATION_US_BUCKETS,
            )
            .observe_duration(started.elapsed());
        }
        Ok(StreamingPipeline {
            config,
            scan,
            ledger,
            pending,
            pending_time,
            coalescer,
            gpu: JobFeed::restored(gpu_feed, gpu_jobs),
            cpu: JobFeed::restored(cpu_feed, cpu_jobs),
            outage_feed,
            outages,
            metrics: StreamObs::new(),
        })
    }
}

/// Folds one timestamp's events into `coalescer` in canonical order: a
/// stable host sort of the events of one timestamp reproduces exactly
/// what `canonical_sort` does to that time-slice of the batch stream.
/// Returns how many of the events merged into an open error.
fn fold_ties(coalescer: &mut Coalescer, mut batch: Vec<XidEvent>) -> u64 {
    batch.sort_by(|a, b| a.host.cmp(&b.host));
    let mut merged = 0;
    for ev in batch {
        merged += u64::from(matches!(coalescer.push(ev), Pushed::Merged(_)));
    }
    merged
}

fn category_index(category: QuarantineCategory) -> u8 {
    QuarantineCategory::ALL
        .iter()
        .position(|&c| c == category)
        .unwrap_or(0) as u8
}

fn encode_pci(enc: &mut Encoder, pci: PciAddr) {
    enc.u16(pci.domain);
    enc.u8(pci.bus);
    enc.u8(pci.device);
}

fn decode_pci(dec: &mut Decoder<'_>) -> Result<PciAddr, CheckpointError> {
    Ok(PciAddr::new(dec.u16()?, dec.u8()?, dec.u8()?))
}

fn encode_event(enc: &mut Encoder, ev: &XidEvent) {
    enc.u64(ev.time.unix());
    enc.str(&ev.host);
    encode_pci(enc, ev.pci);
    enc.u16(ev.code.value());
    enc.str(&ev.detail);
}

fn decode_event(dec: &mut Decoder<'_>) -> Result<XidEvent, CheckpointError> {
    let time = Timestamp::from_unix(dec.u64()?);
    let host = dec.str("event host")?;
    let pci = decode_pci(dec)?;
    let code = XidCode::new(dec.u16()?);
    let detail = dec.str("event detail")?;
    Ok(XidEvent::new(time, host, pci, code, detail))
}

fn decode_period(dec: &mut Decoder<'_>) -> Result<Period, CheckpointError> {
    let start = Timestamp::from_unix(dec.u64()?);
    let end = Timestamp::from_unix(dec.u64()?);
    if end <= start {
        return Err(CheckpointError::Invalid { what: "period" });
    }
    Ok(Period { start, end })
}

fn encode_job(enc: &mut Encoder, job: &AccountedJob) {
    enc.u64(job.id);
    enc.str(&job.name);
    enc.u64(job.submit.unix());
    enc.u64(job.start.unix());
    enc.u64(job.end.unix());
    enc.u32(job.gpus);
    enc.u64(job.gpu_slots.len() as u64);
    for (host, idx) in &job.gpu_slots {
        enc.str(host);
        enc.u8(*idx);
    }
    enc.bool(job.completed);
}

fn decode_jobs(dec: &mut Decoder<'_>) -> Result<Vec<AccountedJob>, CheckpointError> {
    let n = dec.len("job count")?;
    let mut jobs = Vec::with_capacity(n);
    for _ in 0..n {
        let id = dec.u64()?;
        let name = dec.str("job name")?;
        let submit = Timestamp::from_unix(dec.u64()?);
        let start = Timestamp::from_unix(dec.u64()?);
        let end = Timestamp::from_unix(dec.u64()?);
        let gpus = dec.u32()?;
        let n_slots = dec.len("slot count")?;
        let mut gpu_slots = Vec::with_capacity(n_slots);
        for _ in 0..n_slots {
            let host = dec.str("slot host")?;
            let idx = dec.u8()?;
            gpu_slots.push((host, idx));
        }
        let completed = dec.bool("job state")?;
        jobs.push(AccountedJob {
            id,
            name,
            submit,
            start,
            end,
            gpus,
            gpu_slots,
            completed,
        });
    }
    Ok(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpclog::LogLine;

    fn op_time(secs: u64) -> Timestamp {
        StudyPeriods::delta().op.start + Duration::from_secs(secs)
    }

    fn xid_line(secs: u64, host: &str, gpu: u8, code: u16) -> String {
        let mut line = XidEvent::new(
            op_time(secs),
            host,
            PciAddr::for_gpu_index(gpu),
            XidCode::new(code),
            "detail",
        )
        .to_log_line()
        .to_string();
        line.push('\n');
        line
    }

    fn noise_line(secs: u64, host: &str) -> String {
        let mut line = LogLine::new(op_time(secs), host, "kernel", "usb 1-1 connected").to_string();
        line.push('\n');
        line
    }

    /// Log with same-second host ties, duplicate bursts, exact-window
    /// spacing, noise, and corruption.
    fn sample_log() -> Vec<u8> {
        let mut log = Vec::new();
        for (secs, host, gpu, code) in [
            (1000, "gpub003", 0, 79),
            (1000, "gpub001", 0, 79), // same-second tie, later host first
            (1005, "gpub001", 0, 79), // merges
            (1020, "gpub003", 0, 79), // exactly Δt = 20 s after its anchor
            (1041, "gpub003", 0, 79), // 21 s after new anchor: new error
            (2000, "gpub002", 1, 119),
        ] {
            log.extend_from_slice(xid_line(secs, host, gpu, code).as_bytes());
        }
        log.extend_from_slice(noise_line(2100, "gpub001").as_bytes());
        log.extend_from_slice(b"\xFF\xFE not a line\nMar 14 03:2\n");
        log
    }

    fn batch_reports(log: &[u8]) -> (StudyReport, QuarantineReport) {
        Pipeline::delta().run_lenient(log, 2024, "", "", "")
    }

    fn render(r: &StudyReport) -> String {
        crate::report::full(r)
    }

    #[test]
    fn single_push_matches_batch() {
        let log = sample_log();
        let (batch, batch_q) = batch_reports(&log);
        let mut engine = StreamingPipeline::new(Pipeline::delta(), 2024);
        engine.push_log(&log);
        let (report, quarantine) = engine.finalize();
        assert_eq!(report.errors, batch.errors);
        assert_eq!(render(&report), render(&batch));
        assert_eq!(quarantine.ledger.counts(), batch_q.ledger.counts());
        assert_eq!(quarantine.ledger.exemplars(), batch_q.ledger.exemplars());
        assert_eq!(quarantine.caveats, batch_q.caveats);
    }

    #[test]
    fn byte_at_a_time_matches_batch() {
        let log = sample_log();
        let (batch, batch_q) = batch_reports(&log);
        let mut engine = StreamingPipeline::new(Pipeline::delta(), 2024);
        for b in &log {
            engine.push_log(std::slice::from_ref(b));
        }
        let (report, quarantine) = engine.finalize();
        assert_eq!(render(&report), render(&batch));
        assert_eq!(quarantine.ledger.exemplars(), batch_q.ledger.exemplars());
    }

    #[test]
    fn materialize_is_read_only() {
        let log = sample_log();
        let mut engine = StreamingPipeline::new(Pipeline::delta(), 2024);
        let half = log.len() / 2;
        engine.push_log(&log[..half]);
        let mid = engine.materialize();
        // Materializing must not consume the carry or perturb the stream.
        engine.push_log(&log[half..]);
        let (full, _) = engine.finalize();
        let (batch, _) = batch_reports(&log);
        assert_eq!(render(&full), render(&batch));
        // And the mid-stream view matches the batch run over the prefix.
        let (batch_mid, _) = batch_reports(&log[..half]);
        assert_eq!(render(&mid), render(&batch_mid));
    }

    #[test]
    fn checkpoint_round_trips_at_every_byte() {
        let log = sample_log();
        let (batch, batch_q) = batch_reports(&log);
        for cut in (0..=log.len()).step_by(7) {
            let mut engine = StreamingPipeline::new(Pipeline::delta(), 2024);
            engine.push_log(&log[..cut]);
            let ck = engine.checkpoint();
            let loaded = Checkpoint::from_bytes(ck.as_bytes().to_vec()).unwrap();
            let mut resumed = StreamingPipeline::restore(&loaded).unwrap();
            assert_eq!(resumed.log_bytes_fed(), cut as u64, "cut={cut}");
            resumed.push_log(&log[cut..]);
            let (report, quarantine) = resumed.finalize();
            assert_eq!(render(&report), render(&batch), "cut={cut}");
            assert_eq!(
                quarantine.ledger.exemplars(),
                batch_q.ledger.exemplars(),
                "cut={cut}"
            );
        }
    }

    #[test]
    fn csv_feeds_match_batch_at_any_chunking() {
        let jobs_csv = format!(
            "{JOB_HEADER}\n1,train,{},{},{},1,gpub001:0,COMPLETED\nbad,row\n\n\
             2,eval,{},{},{},1,gpub001:0,FAILED\n",
            op_time(0),
            op_time(10),
            op_time(500),
            op_time(0),
            op_time(990),
            op_time(1100),
        );
        let outages_csv = format!("{OUTAGE_HEADER}\ngpub001,{},1800\nnope\n", op_time(1300));
        let log = sample_log();
        let (batch, batch_q) =
            Pipeline::delta().run_lenient(log.as_slice(), 2024, &jobs_csv, "", &outages_csv);
        for chunk in [1, 3, 9, jobs_csv.len()] {
            let mut engine = StreamingPipeline::new(Pipeline::delta(), 2024);
            engine.push_log(&log);
            engine.finish_log();
            for piece in jobs_csv.as_bytes().chunks(chunk) {
                engine.push_gpu_jobs_csv(std::str::from_utf8(piece).unwrap());
            }
            for piece in outages_csv.as_bytes().chunks(chunk) {
                engine.push_outages_csv(std::str::from_utf8(piece).unwrap());
            }
            let (report, quarantine) = engine.finalize();
            assert_eq!(render(&report), render(&batch), "chunk={chunk}");
            assert_eq!(
                quarantine.ledger.exemplars(),
                batch_q.ledger.exemplars(),
                "chunk={chunk}"
            );
            assert_eq!(
                report.impact.gpu_failed_jobs(),
                batch.impact.gpu_failed_jobs()
            );
        }
    }

    #[test]
    fn truncated_checkpoints_never_panic() {
        let log = sample_log();
        let mut engine = StreamingPipeline::new(Pipeline::delta(), 2024);
        engine.push_log(&log);
        let bytes = engine.checkpoint().into_bytes();
        for cut in 0..bytes.len() {
            // A decode error means the header already rejected it: fine.
            if let Ok(ck) = Checkpoint::from_bytes(bytes[..cut].to_vec()) {
                assert!(
                    StreamingPipeline::restore(&ck).is_err(),
                    "prefix of {cut} bytes restored"
                );
            }
        }
    }

    #[test]
    fn corrupted_checkpoint_fields_are_typed_errors() {
        let engine = StreamingPipeline::new(Pipeline::delta(), 2024);
        let bytes = engine.checkpoint().into_bytes();
        // Flip every byte in turn; restore must never panic. (Some flips
        // still decode — e.g. a counter value — which is fine; structural
        // fields must reject.)
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0xA5;
            if let Ok(ck) = Checkpoint::from_bytes(corrupt) {
                let _ = StreamingPipeline::restore(&ck);
            }
        }
    }

    #[test]
    fn state_size_is_bounded_by_analysis_state_not_stream_length() {
        let mut engine = StreamingPipeline::new(Pipeline::delta(), 2024);
        // A storm of duplicates: thousands of raw lines, a handful of
        // coalesced errors. State must not grow with the line count.
        engine.push_log(xid_line(0, "gpub001", 0, 79).as_bytes());
        engine.push_log(xid_line(1, "gpub001", 0, 79).as_bytes());
        let size_early = engine.state_size_bytes();
        for i in 0..2000u64 {
            engine.push_log(xid_line(2 + i / 100, "gpub001", 0, 79).as_bytes());
        }
        // Advance past the storm so the one-second tie buffer (the only
        // per-event state) flushes into the coalescer.
        engine.push_log(xid_line(100, "gpub001", 0, 79).as_bytes());
        let size_late = engine.state_size_bytes();
        assert!(
            size_late < size_early + 4096,
            "state grew with raw lines: {size_early} -> {size_late}"
        );
    }
}
