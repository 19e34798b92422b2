//! Resumable Stage-I scanning for live log tails.
//!
//! [`XidExtractor::scan_reader_lenient`] consumes a whole reader in one
//! call; a production ingester instead receives the same bytes in
//! arbitrary-sized chunks — a `tail -f` pipe, a socket, a page of a
//! memory-mapped day file — and must survive process restarts between
//! chunks. [`LenientScan`] is that shape: feed it byte slices in any
//! batching and it produces exactly the events, counters, and quarantine
//! records the one-shot scan would have produced on the concatenated
//! stream. Both hand every completed line to the one lenient line
//! classifier on [`XidExtractor`]; what lives here is only the cross-line
//! state — the partial-line carry, the physical line counter, the
//! out-of-order anchor and the year reference — which can be captured as
//! a plain-data [`ScanSnapshot`] for checkpointing.
//!
//! A batch loader that knows each day file's date passes it in with
//! [`LenientScan::set_reference`] before feeding the file, so a gap of
//! more than a month across New Year between two files still resolves to
//! the right year.
//!
//! Equivalence with the batch scan is the contract, not an aspiration:
//! `core`'s differential suite replays full campaigns through this type at
//! batch sizes from one byte upward and byte-compares every surface.

use crate::extract::{record_scan_metrics, ExtractStats, ScanCounters, XidExtractor};
use crate::nvrm::XidEvent;
use crate::quarantine::QuarantineLedger;
use simtime::Timestamp;

/// Incremental, restartable equivalent of
/// [`XidExtractor::scan_reader_lenient`].
///
/// # Example
///
/// ```
/// use hpclog::quarantine::QuarantineLedger;
/// use hpclog::stream::LenientScan;
///
/// let line = "Mar 14 03:22:07 gpub042 kernel: NVRM: Xid (PCI:0000:27:00): 79, GPU has fallen off the bus.\n";
/// let mut scan = LenientScan::studied_only(2024);
/// let mut ledger = QuarantineLedger::new();
/// let mut events = Vec::new();
/// // Feed the line one byte at a time: same result as one call.
/// for b in line.as_bytes() {
///     scan.feed(std::slice::from_ref(b), &mut ledger, &mut events);
/// }
/// scan.finish(&mut ledger, &mut events);
/// assert_eq!(events.len(), 1);
/// assert_eq!(scan.stats().extracted, 1);
/// ```
#[derive(Debug, Clone)]
pub struct LenientScan {
    extractor: XidExtractor,
    /// Bytes of the current, not-yet-terminated line.
    carry: Vec<u8>,
    /// Physical lines completed so far (1-based numbering of the next line
    /// is `line_no + 1`).
    line_no: u64,
    /// The monotonicity anchor: timestamp of the last accepted line.
    prev_accepted: Option<Timestamp>,
    /// Total bytes fed, including the carry (lets a resuming caller seek).
    bytes_fed: u64,
    /// Registry handles, looked up once per scanner: a feed may be a
    /// single byte, so it must not pay for registry lookups.
    metrics: StreamCounters,
}

/// The stream's own counters beside the scan counters.
#[derive(Debug, Clone)]
struct StreamCounters {
    chunks: obs::Counter,
    bytes: obs::Counter,
    scan: ScanCounters,
}

impl StreamCounters {
    fn new() -> Self {
        StreamCounters {
            chunks: obs::counter("hpclog_stream_chunks_total", &[]),
            bytes: obs::counter("hpclog_stream_bytes_total", &[]),
            scan: ScanCounters::default(),
        }
    }
}

/// Plain-data image of a [`LenientScan`] mid-stream, for checkpointing.
///
/// Fields are public so downstream checkpoint codecs can serialise them
/// without this crate committing to a wire format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanSnapshot {
    /// The year the scan has reached: the year of the reference the next
    /// year-less stamp resolves against.
    pub year: i32,
    /// The reference's month, once one is known.
    pub month: Option<u32>,
    /// Whether the study-inclusion filter is applied.
    pub studied_only: bool,
    /// Extraction counters accumulated so far.
    pub stats: ExtractStats,
    /// Bytes of the current partial line.
    pub carry: Vec<u8>,
    /// Physical lines completed so far.
    pub line_no: u64,
    /// The out-of-order anchor (last accepted timestamp).
    pub prev_accepted: Option<Timestamp>,
    /// Total bytes fed so far.
    pub bytes_fed: u64,
}

impl LenientScan {
    /// A scanner applying the study-inclusion rule, like the pipeline's
    /// batch path; `year` is the starting year for year-less stamps.
    pub fn studied_only(year: i32) -> Self {
        LenientScan {
            extractor: XidExtractor::studied_only(year),
            carry: Vec::new(),
            line_no: 0,
            prev_accepted: None,
            bytes_fed: 0,
            metrics: StreamCounters::new(),
        }
    }

    /// Counters accumulated so far (the carry is not yet counted).
    pub fn stats(&self) -> ExtractStats {
        self.extractor.stats()
    }

    /// Total bytes fed so far. A resuming caller can seek its source here
    /// and continue feeding.
    pub fn bytes_fed(&self) -> u64 {
        self.bytes_fed
    }

    /// Makes a day file's named date the year reference: until the next
    /// line is accepted, a year-less stamp resolves against `year` and
    /// `month` instead of the last accepted line. Call it at the start of
    /// each file whose name carries a date.
    pub fn set_reference(&mut self, year: i32, month: u32) {
        self.extractor.year = year;
        self.extractor.month = Some(month);
    }

    /// Feeds the next chunk of the byte stream, in any size down to a
    /// single byte. Completed lines go through the same classifier as
    /// [`XidExtractor::scan_reader_lenient`]; accepted
    /// events are appended to `events` and rejects recorded in `ledger`.
    /// Bytes after the last newline are carried until the next call (or
    /// [`finish`](Self::finish)).
    pub fn feed(
        &mut self,
        bytes: &[u8],
        ledger: &mut QuarantineLedger,
        events: &mut Vec<XidEvent>,
    ) {
        self.feed_observed(bytes, ledger, events, |_| {});
    }

    /// [`feed`](Self::feed), also handing `accepted` the stamp of every
    /// line the classifier accepts. Accepted stamps never decrease, so a
    /// loader can count civil days and take the data span from them.
    pub fn feed_observed(
        &mut self,
        bytes: &[u8],
        ledger: &mut QuarantineLedger,
        events: &mut Vec<XidEvent>,
        mut accepted: impl FnMut(Timestamp),
    ) {
        let before = self.extractor.stats();
        self.bytes_fed += bytes.len() as u64;
        let mut rest = bytes;
        while let Some(pos) = rest.iter().position(|&b| b == b'\n') {
            self.line_no += 1;
            let line = if self.carry.is_empty() {
                // Fast path: the whole line sits in this chunk.
                &rest[..pos]
            } else {
                self.carry.extend_from_slice(&rest[..pos]);
                &self.carry[..]
            };
            if let Some(time) = self.extractor.scan_line(
                line,
                self.line_no,
                &mut self.prev_accepted,
                ledger,
                events,
            ) {
                accepted(time);
            }
            self.carry.clear();
            rest = &rest[pos + 1..];
        }
        self.carry.extend_from_slice(rest);
        if obs::is_enabled() {
            self.metrics.chunks.inc();
            self.metrics.bytes.add(bytes.len() as u64);
            let after = self.extractor.stats();
            if after != before {
                record_scan_metrics(&self.metrics.scan, &before, &after);
            }
        }
    }

    /// Flushes the trailing partial line, mirroring how the batch scan
    /// processes a final line with no terminator at end of file. Safe to
    /// call when the carry is empty (no-op), and feeding may continue
    /// afterwards — the stream then behaves like two concatenated files.
    pub fn finish(&mut self, ledger: &mut QuarantineLedger, events: &mut Vec<XidEvent>) {
        if self.carry.is_empty() {
            return;
        }
        let before = self.extractor.stats();
        self.line_no += 1;
        self.extractor.scan_line(
            &self.carry,
            self.line_no,
            &mut self.prev_accepted,
            ledger,
            events,
        );
        self.carry.clear();
        record_scan_metrics(&self.metrics.scan, &before, &self.extractor.stats());
    }

    /// What [`finish`](Self::finish) would do now, on scratch copies: the
    /// trailing partial line is classified into `ledger` and `events`, and
    /// the counters `finish` would leave are returned. The scan itself is
    /// unchanged and no metric is recorded, so a view of a live stream
    /// counts nothing that the stream counts again when the line completes.
    pub fn preview_finish(
        &self,
        ledger: &mut QuarantineLedger,
        events: &mut Vec<XidEvent>,
    ) -> ExtractStats {
        let mut extractor = self.extractor.clone();
        if !self.carry.is_empty() {
            let mut prev_accepted = self.prev_accepted;
            extractor.scan_line(
                &self.carry,
                self.line_no + 1,
                &mut prev_accepted,
                ledger,
                events,
            );
        }
        extractor.stats()
    }

    /// Captures the scanner's complete cross-line state as plain data.
    pub fn snapshot(&self) -> ScanSnapshot {
        ScanSnapshot {
            year: self.extractor.year,
            month: self.extractor.month,
            studied_only: self.extractor.studied_only,
            stats: self.extractor.stats,
            carry: self.carry.clone(),
            line_no: self.line_no,
            prev_accepted: self.prev_accepted,
            bytes_fed: self.bytes_fed,
        }
    }

    /// Rebuilds a scanner from a [`snapshot`](Self::snapshot); it continues
    /// the stream exactly where the captured one left off.
    pub fn from_snapshot(snapshot: ScanSnapshot) -> Self {
        LenientScan {
            extractor: XidExtractor {
                year: snapshot.year,
                month: snapshot.month,
                studied_only: snapshot.studied_only,
                stats: snapshot.stats,
            },
            carry: snapshot.carry,
            line_no: snapshot.line_no,
            prev_accepted: snapshot.prev_accepted,
            bytes_fed: snapshot.bytes_fed,
            metrics: StreamCounters::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quarantine::QuarantineCategory;

    const XID_LINE: &str =
        "Mar 14 03:22:07 gpub042 kernel: NVRM: Xid (PCI:0000:27:00): 79, pid=1234, GPU has fallen off the bus.";
    const NOISE: &str = "Mar 14 03:22:08 gpub042 kernel: usb 3-2: new high-speed USB device";
    const SOFTWARE_XID: &str =
        "Mar 14 03:22:09 gpub042 kernel: NVRM: Xid (PCI:0000:27:00): 13, Graphics Exception";
    const REGRESSED: &str = "Mar 13 01:00:00 gpub042 kernel: late arrival";

    /// A stream exercising every classification outcome, with Windows line
    /// endings, blank lines, and a terminator-less final line.
    fn messy_stream() -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(XID_LINE.as_bytes());
        out.extend_from_slice(b"\r\n\n");
        out.extend_from_slice(NOISE.as_bytes());
        out.push(b'\n');
        out.extend_from_slice(SOFTWARE_XID.as_bytes());
        out.push(b'\n');
        out.extend_from_slice("Mar 14 03:2".as_bytes());
        out.push(b'\n');
        out.extend_from_slice(b"Mar 14 03:22:10 gpub042 kernel: bad \xFF utf8\n");
        out.extend_from_slice(REGRESSED.as_bytes());
        out.push(b'\n');
        // Final line without a newline: the batch scan still processes it.
        out.extend_from_slice(XID_LINE.as_bytes());
        out
    }

    fn batch_scan(input: &[u8]) -> (Vec<XidEvent>, ExtractStats, QuarantineLedger) {
        let mut ex = XidExtractor::studied_only(2024);
        let mut ledger = QuarantineLedger::new();
        let events = ex.scan_reader_lenient(input, &mut ledger);
        (events, ex.stats(), ledger)
    }

    fn streamed_scan(
        input: &[u8],
        chunk: usize,
    ) -> (Vec<XidEvent>, ExtractStats, QuarantineLedger) {
        let mut scan = LenientScan::studied_only(2024);
        let mut ledger = QuarantineLedger::new();
        let mut events = Vec::new();
        for piece in input.chunks(chunk.max(1)) {
            scan.feed(piece, &mut ledger, &mut events);
        }
        scan.finish(&mut ledger, &mut events);
        assert_eq!(scan.bytes_fed(), input.len() as u64);
        (events, scan.stats(), ledger)
    }

    #[test]
    fn any_chunking_matches_the_batch_scan() {
        let input = messy_stream();
        let expect = batch_scan(&input);
        for chunk in [1, 2, 3, 7, 16, 64, input.len()] {
            let got = streamed_scan(&input, chunk);
            assert_eq!(got.0, expect.0, "chunk={chunk}: events");
            assert_eq!(got.1, expect.1, "chunk={chunk}: stats");
            assert_eq!(got.2.counts(), expect.2.counts(), "chunk={chunk}: counts");
            assert_eq!(
                got.2.exemplars(),
                expect.2.exemplars(),
                "chunk={chunk}: exemplars"
            );
        }
    }

    #[test]
    fn finish_is_idempotent_and_optional_on_terminated_streams() {
        let mut scan = LenientScan::studied_only(2024);
        let mut ledger = QuarantineLedger::new();
        let mut events = Vec::new();
        scan.feed(format!("{XID_LINE}\n").as_bytes(), &mut ledger, &mut events);
        scan.finish(&mut ledger, &mut events);
        scan.finish(&mut ledger, &mut events);
        assert_eq!(events.len(), 1);
        assert_eq!(scan.stats().lines_seen, 1);
    }

    #[test]
    fn snapshot_round_trip_mid_line_continues_exactly() {
        let input = messy_stream();
        let expect = batch_scan(&input);
        // Cut at every byte offset, including mid-line and mid-UTF-8.
        for cut in 0..=input.len() {
            let mut scan = LenientScan::studied_only(2024);
            let mut ledger = QuarantineLedger::new();
            let mut events = Vec::new();
            scan.feed(&input[..cut], &mut ledger, &mut events);
            let mut resumed = LenientScan::from_snapshot(scan.snapshot());
            assert_eq!(resumed.bytes_fed(), cut as u64);
            resumed.feed(&input[cut..], &mut ledger, &mut events);
            resumed.finish(&mut ledger, &mut events);
            assert_eq!(events, expect.0, "cut={cut}: events");
            assert_eq!(resumed.stats(), expect.1, "cut={cut}: stats");
            assert_eq!(ledger.counts(), expect.2.counts(), "cut={cut}: counts");
        }
    }

    #[test]
    fn preview_finish_equals_the_batch_scan_of_the_prefix() {
        let input = messy_stream();
        for cut in 0..=input.len() {
            let mut scan = LenientScan::studied_only(2024);
            let mut ledger = QuarantineLedger::new();
            let mut events = Vec::new();
            scan.feed(&input[..cut], &mut ledger, &mut events);
            let stats = scan.preview_finish(&mut ledger, &mut events);
            let expect = batch_scan(&input[..cut]);
            assert_eq!(events, expect.0, "cut={cut}: events");
            assert_eq!(stats, expect.1, "cut={cut}: stats");
            assert_eq!(ledger.counts(), expect.2.counts(), "cut={cut}: counts");
        }
    }

    fn xid_at(stamp: &str) -> String {
        format!(
            "{stamp} gpub042 kernel: NVRM: Xid (PCI:0000:27:00): 79, GPU has fallen off the bus.\n"
        )
    }

    #[test]
    fn a_snapshot_after_the_wrap_restores_into_the_new_year() {
        let mut scan = LenientScan::studied_only(2022);
        let mut ledger = QuarantineLedger::new();
        let mut events = Vec::new();
        let head = xid_at("Dec 31 23:59:50") + &xid_at("Jan  1 00:00:10");
        scan.feed(head.as_bytes(), &mut ledger, &mut events);
        let snapshot = scan.snapshot();
        assert_eq!((snapshot.year, snapshot.month), (2023, Some(1)));
        let mut resumed = LenientScan::from_snapshot(snapshot);
        // December right after the restored January reference is the old
        // year, so behind the anchor; without the month it would be a
        // forward jump to the end of 2023.
        let tail = xid_at("Dec 31 23:59:59") + &xid_at("Jan  1 00:05:00");
        resumed.feed(tail.as_bytes(), &mut ledger, &mut events);
        let years: Vec<i32> = events.iter().map(|e| e.time.ymd().0).collect();
        assert_eq!(years, [2022, 2023, 2023]);
        assert_eq!(ledger.counts().get(QuarantineCategory::OutOfOrder), 1);
        assert_eq!(ledger.total(), 1);
    }

    /// Feeds one XID line per `(reference, stamp)`, first making the
    /// named date the reference where one is given.
    fn scan_day_files(steps: &[(Option<(i32, u32)>, &str)]) -> (Vec<XidEvent>, QuarantineLedger) {
        let mut scan = LenientScan::studied_only(2022);
        let mut ledger = QuarantineLedger::new();
        let mut events = Vec::new();
        for &(reference, stamp) in steps {
            if let Some((year, month)) = reference {
                scan.set_reference(year, month);
            }
            scan.feed(xid_at(stamp).as_bytes(), &mut ledger, &mut events);
        }
        (events, ledger)
    }

    #[test]
    fn a_named_date_is_the_reference_until_a_line_is_accepted() {
        // Three months on, across New Year: without the file's date the
        // Feb stamp would resolve into 2022 and regress.
        let (events, ledger) = scan_day_files(&[
            (None, "Nov 15 10:00:00"),
            (Some((2023, 2)), "Feb 20 10:00:00"),
            (None, "Feb 20 10:00:05"),
        ]);
        assert!(ledger.is_empty(), "{:?}", ledger.counts());
        let stamps: Vec<_> = events.iter().map(|e| e.time.ymd()).collect();
        assert_eq!(stamps, [(2022, 11, 15), (2023, 2, 20), (2023, 2, 20)]);

        // A Jan 1 day file that opens with the last second of the old year.
        let (events, ledger) = scan_day_files(&[
            (None, "Dec 31 23:00:00"),
            (Some((2023, 1)), "Dec 31 23:59:59"),
            (None, "Jan  1 00:00:01"),
        ]);
        assert!(ledger.is_empty(), "{:?}", ledger.counts());
        let stamps: Vec<_> = events.iter().map(|e| e.time.ymd()).collect();
        assert_eq!(stamps, [(2022, 12, 31), (2022, 12, 31), (2023, 1, 1)]);
    }

    #[test]
    fn out_of_order_anchor_survives_the_snapshot() {
        let mut scan = LenientScan::studied_only(2024);
        let mut ledger = QuarantineLedger::new();
        let mut events = Vec::new();
        scan.feed(format!("{NOISE}\n").as_bytes(), &mut ledger, &mut events);
        let mut resumed = LenientScan::from_snapshot(scan.snapshot());
        // A regressed line right after restore must still be caught.
        resumed.feed(
            format!("{REGRESSED}\n").as_bytes(),
            &mut ledger,
            &mut events,
        );
        assert_eq!(ledger.counts().get(QuarantineCategory::OutOfOrder), 1);
    }
}
