//! Stage-I extraction: raw log lines in, structured [`XidEvent`]s out.
//!
//! Mirrors the paper's Fig. 1 Stage I: per-day consolidated system logs are
//! filtered by pattern matching and the selected XID error-recovery events
//! are extracted. The extractor is deliberately forgiving — production logs
//! interleave XID lines with arbitrary noise and the occasional truncated
//! record — and it keeps counters so data-quality problems are visible
//! instead of silent.

use crate::line::{LineFields, LogLine, LogLineErrorKind};
use crate::nvrm::XidEvent;
use crate::quarantine::{QuarantineCategory, QuarantineCounts, QuarantineLedger};
use simtime::Timestamp;

/// Counters describing what an extractor has seen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExtractStats {
    /// Total lines offered.
    pub lines_seen: u64,
    /// Lines recognised as NVRM XID messages.
    pub xid_lines: u64,
    /// XID lines that failed to parse (truncated/corrupt).
    pub malformed: u64,
    /// Events produced (equals `xid_lines - malformed - excluded`).
    pub extracted: u64,
    /// XID events dropped by the study-inclusion filter (XID 13/43/etc.).
    pub excluded: u64,
    /// Per-category reject counts from lenient scans (zero on the
    /// line-at-a-time [`XidExtractor::extract`] paths, which fold every
    /// reject into `malformed`).
    pub quarantined: QuarantineCounts,
}

/// Extracts structured XID events from log lines.
///
/// # Example
///
/// ```
/// use hpclog::extract::XidExtractor;
///
/// let mut ex = XidExtractor::new(2023);
/// let ev = ex
///     .extract_raw("Jun  1 10:00:00 gpub005 kernel: NVRM: Xid (PCI:0000:2a:00): 31, MMU fault")
///     .expect("xid line");
/// assert_eq!(ev.code.value(), 31);
/// assert_eq!(ex.stats().extracted, 1);
/// ```
#[derive(Debug, Clone)]
pub struct XidExtractor {
    /// The year a year-less stamp resolves against; lenient scans advance
    /// it as they accept lines.
    pub(crate) year: i32,
    /// The month of the same reference, once a line (or a day file's
    /// named date) has supplied one.
    pub(crate) month: Option<u32>,
    pub(crate) studied_only: bool,
    pub(crate) stats: ExtractStats,
}

impl XidExtractor {
    /// Creates an extractor resolving year-less syslog stamps against
    /// `year`, keeping every XID code (no study filter).
    pub fn new(year: i32) -> Self {
        XidExtractor {
            year,
            month: None,
            studied_only: false,
            stats: ExtractStats::default(),
        }
    }

    /// Creates an extractor that additionally applies the study-inclusion
    /// rule, dropping application-triggered codes (XID 13, 43) and unknown
    /// codes, as §II-B of the paper does.
    pub fn studied_only(year: i32) -> Self {
        XidExtractor {
            year,
            month: None,
            studied_only: true,
            stats: ExtractStats::default(),
        }
    }

    /// The year used to resolve syslog timestamps: fixed for the
    /// line-at-a-time paths, the year a lenient scan has reached for
    /// [`scan_reader_lenient`](Self::scan_reader_lenient).
    pub fn year(&self) -> i32 {
        self.year
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> ExtractStats {
        self.stats
    }

    /// Extracts from an already-parsed line.
    pub fn extract(&mut self, line: &LogLine) -> Option<XidEvent> {
        self.extract_parts(line.time, &line.host, &line.body)
    }

    /// Parses `raw` as a syslog line and extracts; returns `None` for
    /// unparseable or non-XID lines.
    pub fn extract_raw(&mut self, raw: &str) -> Option<XidEvent> {
        // Cheap pre-filter before paying for full line parsing: every XID
        // line contains this literal.
        if !raw.contains("NVRM: Xid") {
            self.stats.lines_seen += 1;
            return None;
        }
        match LineFields::parse(raw, self.year) {
            Ok(line) => self.extract_parts(line.time, line.host, line.body),
            Err(_) => {
                self.stats.lines_seen += 1;
                self.stats.xid_lines += 1;
                self.stats.malformed += 1;
                None
            }
        }
    }

    /// Extracts from pre-split line parts: what [`extract`](Self::extract)
    /// and [`extract_raw`](Self::extract_raw) share.
    pub fn extract_parts(&mut self, time: Timestamp, host: &str, body: &str) -> Option<XidEvent> {
        self.stats.lines_seen += 1;
        let parsed = XidEvent::parse_body(time, host, body)?;
        self.stats.xid_lines += 1;
        match parsed {
            Ok(ev) => {
                if self.studied_only && !ev.kind().is_studied() {
                    self.stats.excluded += 1;
                    None
                } else {
                    self.stats.extracted += 1;
                    Some(ev)
                }
            }
            Err(_) => {
                self.stats.malformed += 1;
                None
            }
        }
    }

    /// Streams a reader line by line, extracting events without loading
    /// the file into memory — the shape real multi-gigabyte day files
    /// require — and never fails: every defective line is classified and
    /// recorded in `ledger`, and an I/O error ends the scan early
    /// (recorded via [`QuarantineLedger::record_io_error`]) rather than
    /// discarding the events already extracted. Accepts any
    /// [`std::io::Read`]; pass `&mut reader` to keep ownership.
    ///
    /// Rejection categories, checked in order per line:
    ///
    /// 1. longer than the ledger's byte cap → `OversizedLine`
    /// 2. not valid UTF-8 → `Encoding`
    /// 3. syslog parse failed, missing fields → `Truncated`
    /// 4. syslog parse failed, five fields but a bad stamp → `MalformedTimestamp`
    /// 5. an `NVRM: Xid` body that does not parse → `BadXid`
    /// 6. timestamp behind the last accepted line → `OutOfOrder`
    ///
    /// Syslog stamps carry no year. A stamp takes the year of its
    /// *reference*, except that January after a December reference is
    /// the next year and December after a January reference the previous
    /// one. The reference is the last accepted line; before any line is
    /// accepted it is the extractor's starting year, with no month. So a
    /// scan crosses New Year when the clock does, while a January stamp
    /// after a June line is still a regression (6).
    ///
    /// The monotonicity check (6) applies to *every* line, noise included:
    /// consolidated day archives are globally time-ordered, so a regression
    /// is corruption regardless of the line's content. The accepted-clock
    /// anchor advances only on accepted lines (study-filter-excluded XID
    /// events still count as accepted — the line itself was sound).
    ///
    /// Empty lines are skipped silently; they carry no data to lose.
    pub fn scan_reader_lenient<R: std::io::Read>(
        &mut self,
        reader: R,
        ledger: &mut QuarantineLedger,
    ) -> Vec<XidEvent> {
        use std::io::BufRead;
        let before = self.stats;
        let mut span = obs::span("stage_scan");
        let mut events = Vec::new();
        let mut buffered = std::io::BufReader::new(reader);
        let mut raw = Vec::new();
        let mut line_no: u64 = 0;
        let mut prev_accepted: Option<Timestamp> = None;
        loop {
            raw.clear();
            match buffered.read_until(b'\n', &mut raw) {
                Ok(0) => break,
                Ok(_) => {}
                Err(_) => {
                    // The stream is gone; keep what we have.
                    ledger.record_io_error();
                    break;
                }
            }
            line_no += 1;
            self.scan_line(&raw, line_no, &mut prev_accepted, ledger, &mut events);
        }
        span.add_items(self.stats.lines_seen - before.lines_seen);
        record_scan_metrics(&ScanCounters::default(), &before, &self.stats);
        events
    }

    /// Classifies one physical line with the lenient rules documented on
    /// [`scan_reader_lenient`](Self::scan_reader_lenient) — the only copy
    /// of them: the batch scan and the resumable [`crate::stream`] scanner
    /// both feed every line through here.
    ///
    /// `raw` may still carry its `\n` terminator and any `\r`s before it;
    /// they are trimmed here. `line_no` is the line's 1-based physical
    /// number (empty lines consume one too) and `prev_accepted` the
    /// out-of-order anchor, which the caller owns because it spans lines.
    /// The year reference lives on `self` and moves with the anchor: both
    /// advance only on accepted lines. Accepted events go to `events`,
    /// rejects to `ledger`. Returns the stamp of an accepted line, `None`
    /// for a reject or an empty line.
    pub(crate) fn scan_line(
        &mut self,
        raw: &[u8],
        line_no: u64,
        prev_accepted: &mut Option<Timestamp>,
        ledger: &mut QuarantineLedger,
        events: &mut Vec<XidEvent>,
    ) -> Option<Timestamp> {
        let end = raw
            .iter()
            .rposition(|&b| b != b'\n' && b != b'\r')
            .map_or(0, |last| last + 1);
        let raw = &raw[..end];
        if raw.is_empty() {
            return None;
        }
        self.stats.lines_seen += 1;
        if raw.len() > ledger.max_line_bytes() {
            self.quarantine(ledger, QuarantineCategory::OversizedLine, line_no, raw);
            return None;
        }
        let Ok(text) = std::str::from_utf8(raw) else {
            self.quarantine(ledger, QuarantineCategory::Encoding, line_no, raw);
            return None;
        };
        let year = self.stamp_year(text);
        let line = match LineFields::parse(text, year) {
            Ok(line) => line,
            Err(err) => {
                let category = match err.kind() {
                    LogLineErrorKind::MissingField => QuarantineCategory::Truncated,
                    LogLineErrorKind::BadTimestamp => QuarantineCategory::MalformedTimestamp,
                };
                self.quarantine(ledger, category, line_no, raw);
                return None;
            }
        };
        let xid = match XidEvent::parse_body(line.time, line.host, line.body) {
            Some(Ok(ev)) => {
                self.stats.xid_lines += 1;
                Some(ev)
            }
            Some(Err(_)) => {
                self.stats.xid_lines += 1;
                self.stats.malformed += 1;
                self.quarantine(ledger, QuarantineCategory::BadXid, line_no, raw);
                return None;
            }
            None => None,
        };
        if prev_accepted.is_some_and(|prev| line.time < prev) {
            self.quarantine(ledger, QuarantineCategory::OutOfOrder, line_no, raw);
            return None;
        }
        *prev_accepted = Some(line.time);
        self.year = year;
        self.month = Some(line.time.ymd().1);
        if let Some(ev) = xid {
            if self.studied_only && !ev.kind().is_studied() {
                self.stats.excluded += 1;
            } else {
                self.stats.extracted += 1;
                events.push(ev);
            }
        }
        Some(line.time)
    }

    /// The year a stamp resolves to under the rule on
    /// [`scan_reader_lenient`](Self::scan_reader_lenient). Only a January
    /// or December reference can move it, so other lines skip the peek at
    /// their month field.
    fn stamp_year(&self, text: &str) -> i32 {
        let (wrap_month, step) = match self.month {
            Some(12) => ("Jan", 1),
            Some(1) => ("Dec", -1),
            _ => return self.year,
        };
        // The month is the first field, as `LogLine::parse_with_year`
        // splits it.
        if text.split(' ').find(|f| !f.is_empty()) == Some(wrap_month) {
            self.year + step
        } else {
            self.year
        }
    }

    fn quarantine(
        &mut self,
        ledger: &mut QuarantineLedger,
        category: QuarantineCategory,
        line_no: u64,
        raw: &[u8],
    ) {
        self.stats.quarantined.add(category);
        ledger.record(category, line_no, raw);
    }
}

/// The scan counters' global-registry handles, looked up once, so a scan
/// fed chunk by chunk records through them instead of the registry.
#[derive(Debug, Clone)]
pub struct ScanCounters {
    lines: obs::Counter,
    xid_lines: obs::Counter,
    malformed: obs::Counter,
    extracted: obs::Counter,
    excluded: obs::Counter,
    /// One per [`QuarantineCategory::ALL`] entry, in that order.
    quarantined: [obs::Counter; QuarantineCategory::ALL.len()],
}

impl Default for ScanCounters {
    fn default() -> Self {
        ScanCounters {
            lines: obs::counter("hpclog_lines_scanned_total", &[]),
            xid_lines: obs::counter("hpclog_xid_lines_total", &[]),
            malformed: obs::counter("hpclog_lines_malformed_total", &[]),
            extracted: obs::counter("hpclog_events_extracted_total", &[]),
            excluded: obs::counter("hpclog_events_excluded_total", &[]),
            quarantined: QuarantineCategory::ALL.map(|category| {
                obs::counter(
                    "hpclog_lines_quarantined_total",
                    &[("category", category.label())],
                )
            }),
        }
    }
}

/// Publishes the delta between two extractor-stats snapshots through
/// `counters`.
///
/// Strictly write-only (nothing here feeds back into extraction), and
/// purely additive: every scan path — archive, batch lenient,
/// streaming — emits its deltas through this one function, so the totals
/// agree across execution modes whenever the scanned bytes do.
pub fn record_scan_metrics(counters: &ScanCounters, before: &ExtractStats, after: &ExtractStats) {
    if !obs::is_enabled() {
        return;
    }
    let d = |a: u64, b: u64| a.saturating_sub(b);
    counters.lines.add(d(after.lines_seen, before.lines_seen));
    counters.xid_lines.add(d(after.xid_lines, before.xid_lines));
    counters.malformed.add(d(after.malformed, before.malformed));
    counters.extracted.add(d(after.extracted, before.extracted));
    counters.excluded.add(d(after.excluded, before.excluded));
    for (counter, category) in counters.quarantined.iter().zip(QuarantineCategory::ALL) {
        let delta = d(
            after.quarantined.get(category),
            before.quarantined.get(category),
        );
        if delta > 0 {
            counter.add(delta);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nvrm::PciAddr;
    use xid::XidCode;

    const XID_LINE: &str =
        "Mar 14 03:22:07 gpub042 kernel: NVRM: Xid (PCI:0000:27:00): 79, pid=1234, GPU has fallen off the bus.";
    const NOISE: &str = "Mar 14 03:22:08 gpub042 kernel: usb 3-2: new high-speed USB device";
    const SOFTWARE_XID: &str =
        "Mar 14 03:22:09 gpub042 kernel: NVRM: Xid (PCI:0000:27:00): 13, Graphics Exception";
    const TRUNCATED: &str = "Mar 14 03:22:10 gpub042 kernel: NVRM: Xid (PCI:0000:27";

    #[test]
    fn extracts_xid_line() {
        let mut ex = XidExtractor::new(2024);
        let ev = ex.extract_raw(XID_LINE).unwrap();
        assert_eq!(ev.code, XidCode::FALLEN_OFF_BUS);
        assert_eq!(ev.host, "gpub042");
        assert_eq!(ev.pci, PciAddr::for_gpu_index(0));
        assert_eq!(ev.time.ymd(), (2024, 3, 14));
    }

    #[test]
    fn noise_is_ignored_cheaply() {
        let mut ex = XidExtractor::new(2024);
        assert!(ex.extract_raw(NOISE).is_none());
        let s = ex.stats();
        assert_eq!(s.lines_seen, 1);
        assert_eq!(s.xid_lines, 0);
    }

    #[test]
    fn study_filter_drops_software_codes() {
        let mut keep_all = XidExtractor::new(2024);
        assert!(keep_all.extract_raw(SOFTWARE_XID).is_some());
        let mut studied = XidExtractor::studied_only(2024);
        assert!(studied.extract_raw(SOFTWARE_XID).is_none());
        assert_eq!(studied.stats().excluded, 1);
        assert_eq!(studied.stats().extracted, 0);
    }

    #[test]
    fn truncated_lines_count_as_malformed() {
        let mut ex = XidExtractor::new(2024);
        assert!(ex.extract_raw(TRUNCATED).is_none());
        assert_eq!(ex.stats().malformed, 1);
    }

    #[test]
    fn scan_mixed_stream() {
        let mut ex = XidExtractor::new(2024);
        let events: Vec<_> = [XID_LINE, NOISE, SOFTWARE_XID, TRUNCATED, XID_LINE]
            .iter()
            .filter_map(|l| ex.extract_raw(l))
            .collect();
        assert_eq!(events.len(), 3); // two hardware + one software XID
        let s = ex.stats();
        assert_eq!(s.lines_seen, 5);
        assert_eq!(s.xid_lines, 4);
        assert_eq!(s.extracted, 3);
        assert_eq!(s.malformed, 1);
    }

    #[test]
    fn lenient_scan_reads_any_reader() {
        let text = format!("{XID_LINE}\n{XID_LINE}\n{NOISE}\n");
        let mut ex = XidExtractor::new(2024);
        let mut ledger = QuarantineLedger::new();
        let events = ex.scan_reader_lenient(text.as_bytes(), &mut ledger);
        assert_eq!(events.len(), 2);
        assert_eq!(ex.stats().lines_seen, 3);
        // A mut reference works too (C-RW-VALUE).
        let mut cursor = std::io::Cursor::new(XID_LINE.as_bytes());
        let events = ex.scan_reader_lenient(&mut cursor, &mut ledger);
        assert_eq!(events.len(), 1);
    }

    #[test]
    fn stats_start_at_zero() {
        let ex = XidExtractor::new(2024);
        assert_eq!(ex.stats(), ExtractStats::default());
    }

    #[test]
    fn lenient_matches_line_extraction_on_clean_input() {
        let later_xid =
            "Mar 14 03:25:00 gpub042 kernel: NVRM: Xid (PCI:0000:27:00): 79, pid=77, GPU has fallen off the bus.";
        let text = format!("{XID_LINE}\n{NOISE}\n{SOFTWARE_XID}\n{later_xid}\n");
        let mut per_line = XidExtractor::new(2024);
        let expect: Vec<_> = text
            .lines()
            .filter_map(|l| per_line.extract_raw(l))
            .collect();
        let mut lenient = XidExtractor::new(2024);
        let mut ledger = QuarantineLedger::new();
        let events = lenient.scan_reader_lenient(text.as_bytes(), &mut ledger);
        assert_eq!(events, expect);
        assert!(ledger.is_empty());
        assert_eq!(lenient.stats().quarantined.total(), 0);
        assert_eq!(lenient.stats().extracted, per_line.stats().extracted);
    }

    #[test]
    fn lenient_classifies_each_category() {
        let oversized = format!("Mar 14 03:22:05 gpub042 kernel: {}", "x".repeat(9000));
        let mut bad_utf8 = NOISE.as_bytes().to_vec();
        bad_utf8[20] = 0xFF;
        let regressed = "Mar 13 01:00:00 gpub042 kernel: late arrival";
        let bad_stamp = "Mar 99 03:22:07 gpub042 kernel: body";
        let garbled = "Mar 14 03:22:11 gpub042 kernel: NVRM: Xid (PCI:0000:27:00): ??, huh";
        // A mid-prefix cut: too few fields to even name a host. (The
        // `TRUNCATED` const above keeps all five syslog fields and loses
        // only XID body structure, so it classifies as `BadXid` instead.)
        let cut_short = "Mar 14 03:2";
        let mut input = Vec::new();
        for chunk in [
            XID_LINE.as_bytes(),
            oversized.as_bytes(),
            &bad_utf8,
            cut_short.as_bytes(),
            bad_stamp.as_bytes(),
            garbled.as_bytes(),
            regressed.as_bytes(),
            NOISE.as_bytes(),
        ] {
            input.extend_from_slice(chunk);
            input.push(b'\n');
        }
        let mut ex = XidExtractor::new(2024);
        let mut ledger = QuarantineLedger::new();
        let events = ex.scan_reader_lenient(input.as_slice(), &mut ledger);
        assert_eq!(events.len(), 1); // only XID_LINE survives
        use QuarantineCategory as Q;
        let counts = ledger.counts();
        assert_eq!(counts.get(Q::OversizedLine), 1);
        assert_eq!(counts.get(Q::Encoding), 1);
        assert_eq!(counts.get(Q::Truncated), 1);
        assert_eq!(counts.get(Q::MalformedTimestamp), 1);
        assert_eq!(counts.get(Q::BadXid), 1);
        assert_eq!(counts.get(Q::OutOfOrder), 1);
        assert_eq!(counts.get(Q::BadRecord), 0);
        assert_eq!(ex.stats().quarantined, counts);
        // NOISE at the end is accepted: the anchor did not move on rejects.
        assert_eq!(ex.stats().lines_seen, 8);
    }

    /// An XID line at a year-less `stamp`.
    fn xid_at(stamp: &str) -> String {
        format!("{stamp} gpub042 kernel: NVRM: Xid (PCI:0000:27:00): 79, pid=1, GPU has fallen off the bus.")
    }

    /// Lenient scan of `lines` from starting year `year`: the events'
    /// stamps, the ledger, and the year reached.
    fn scan_from(year: i32, lines: &[String]) -> (Vec<Timestamp>, QuarantineLedger, i32) {
        let mut ex = XidExtractor::new(year);
        let mut ledger = QuarantineLedger::new();
        let events = ex.scan_reader_lenient(lines.join("\n").as_bytes(), &mut ledger);
        (events.iter().map(|e| e.time).collect(), ledger, ex.year())
    }

    fn at(y: i32, mo: u32, d: u32, h: u32, mi: u32, s: u32) -> Timestamp {
        Timestamp::from_ymd_hms(y, mo, d, h, mi, s).unwrap()
    }

    #[test]
    fn january_after_december_is_the_next_year() {
        let lines = [xid_at("Dec 31 23:59:50"), xid_at("Jan  1 00:00:10")];
        let (times, ledger, year) = scan_from(2022, &lines);
        assert!(ledger.is_empty(), "{:?}", ledger.counts());
        assert_eq!(
            times,
            [at(2022, 12, 31, 23, 59, 50), at(2023, 1, 1, 0, 0, 10)]
        );
        assert_eq!(year, 2023);
    }

    #[test]
    fn a_late_december_line_after_the_wrap_is_out_of_order() {
        let lines = [
            xid_at("Dec 31 23:59:50"),
            xid_at("Jan  1 00:00:10"),
            xid_at("Dec 31 23:59:58"),
            xid_at("Jan  1 00:00:20"),
        ];
        let (times, ledger, year) = scan_from(2022, &lines);
        assert_eq!(ledger.counts().get(QuarantineCategory::OutOfOrder), 1);
        assert_eq!(ledger.total(), 1);
        // The reject did not move the year back: the next January line
        // still lands in 2023.
        assert_eq!(times[2], at(2023, 1, 1, 0, 0, 20));
        assert_eq!(year, 2023);
    }

    #[test]
    fn january_after_june_stays_a_regression() {
        // What a chaos rollover writes: Jan 1 of the anchor's own year.
        let lines = [
            xid_at("Jun  1 10:00:00"),
            xid_at("Jan  1 00:00:07"),
            xid_at("Jun  1 10:00:05"),
        ];
        let (times, ledger, year) = scan_from(2024, &lines);
        assert_eq!(ledger.counts().get(QuarantineCategory::OutOfOrder), 1);
        assert_eq!(times, [at(2024, 6, 1, 10, 0, 0), at(2024, 6, 1, 10, 0, 5)]);
        assert_eq!(year, 2024);
    }

    #[test]
    fn an_earlier_day_of_the_same_month_stays_a_regression() {
        let lines = [xid_at("Mar 14 03:22:07"), xid_at("Mar 13 01:00:00")];
        let (times, ledger, year) = scan_from(2024, &lines);
        assert_eq!(ledger.counts().get(QuarantineCategory::OutOfOrder), 1);
        assert_eq!(times, [at(2024, 3, 14, 3, 22, 7)]);
        assert_eq!(year, 2024);
    }

    #[test]
    fn a_leap_day_parses_after_a_wrap_into_a_leap_year() {
        let lines = [
            xid_at("Dec 31 23:00:00"),
            xid_at("Jan 15 08:00:00"),
            xid_at("Feb 29 12:00:00"),
        ];
        let (times, ledger, year) = scan_from(2023, &lines);
        assert!(ledger.is_empty(), "{:?}", ledger.counts());
        assert_eq!(times[2], at(2024, 2, 29, 12, 0, 0));
        assert_eq!(year, 2024);
    }

    #[test]
    fn december_first_resolves_in_the_starting_year() {
        // Before any line is accepted the reference has no month, so a
        // December stamp is not pulled back a year.
        let (times, ledger, _) = scan_from(2022, &[xid_at("Dec 31 23:59:59")]);
        assert!(ledger.is_empty());
        assert_eq!(times, [at(2022, 12, 31, 23, 59, 59)]);
    }

    #[test]
    fn lenient_survives_io_failure_mid_stream() {
        struct Flaky {
            fed: bool,
        }
        impl std::io::Read for Flaky {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.fed {
                    return Err(std::io::Error::other("disk on fire"));
                }
                self.fed = true;
                let line = format!("{XID_LINE}\n");
                buf[..line.len()].copy_from_slice(line.as_bytes());
                Ok(line.len())
            }
        }
        let mut ex = XidExtractor::new(2024);
        let mut ledger = QuarantineLedger::new();
        let events = ex.scan_reader_lenient(Flaky { fed: false }, &mut ledger);
        assert_eq!(events.len(), 1); // the line before the failure survives
        assert_eq!(ledger.io_errors(), 1);
    }

    #[test]
    fn lenient_quarantine_total_matches_chaos_stats() {
        use crate::chaos::{ChaosConfig, ChaosInjector};
        use crate::LogLine;

        // A clean, time-ordered stream of mixed XID and noise lines.
        let mut input = Vec::new();
        let mut chaos =
            ChaosInjector::new(ChaosConfig::uniform_with_duplicates(0.35, 0.1, 0xDECAF));
        for i in 0..400u32 {
            let t =
                Timestamp::from_ymd_hms(2024, 3, 14, 6 + i / 3600, (i / 60) % 60, i % 60).unwrap();
            let body = if i % 3 == 0 {
                "NVRM: Xid (PCI:0000:27:00): 79, pid=9, GPU has fallen off the bus."
            } else {
                "usb 3-2: new high-speed USB device"
            };
            let line = LogLine::new(t, "gpub042", "kernel", body).to_string();
            chaos.corrupt_line(t, &line, &mut input);
        }
        let stats = chaos.stats();
        assert!(stats.quarantinable() > 0, "chaos produced no corruption");
        let mut ex = XidExtractor::new(2024);
        let mut ledger = QuarantineLedger::new();
        let events = ex.scan_reader_lenient(input.as_slice(), &mut ledger);
        assert_eq!(
            ledger.total(),
            stats.quarantinable(),
            "ledger {:?} vs chaos {stats:?}",
            ledger.counts()
        );
        assert_eq!(ledger.io_errors(), 0);
        assert!(!events.is_empty());
        // Duplicates pass through un-quarantined (coalescing's problem).
        assert_eq!(ex.stats().lines_seen, stats.lines_out);
    }
}
