//! Seeded log-corruption injection ("chaos") for resilience testing.
//!
//! The analysis pipeline claims to survive real archives — truncated
//! lines, invalid UTF-8, interleaved writers, clock regressions, year
//! rollovers, garbled XID fields and storm-scale duplicate floods. This
//! module *manufactures* those defects on demand so the claim can be
//! tested: a [`ChaosInjector`] walks rendered log lines in order and
//! applies at most one mutation per line, drawn from seeded streams, so a
//! given `(config, input)` pair always produces byte-identical corruption.
//!
//! Each mutation is constructed to be **deterministically detectable** by
//! the lenient reader ([`crate::extract::XidExtractor::scan_reader_lenient`]):
//!
//! | mutation          | detected as            |
//! |-------------------|------------------------|
//! | truncation        | `Truncated`            |
//! | invalid UTF-8     | `Encoding`             |
//! | XID-field garble  | `BadXid`               |
//! | clock regression  | `OutOfOrder`           |
//! | year rollover     | `OutOfOrder`; skipped in December |
//! | interleaved split | two quarantined lines  |
//! | oversize padding  | `OversizedLine`        |
//! | duplication       | *not quarantined* — coalescing absorbs it |
//!
//! so [`ChaosStats::quarantinable`] equals the ledger total exactly: the
//! integration tests assert the pipeline loses **nothing silently**. The
//! rollover guard exists because the reader takes a January stamp after a
//! December reference for the next year, so a rollover drawn on a
//! December line counts in [`ChaosStats::skipped`] instead (and none is
//! ever drawn while the anchor is in December).

use crate::archive::Archive;
use simrng::Rng;
use simtime::{Duration, Timestamp};

/// Per-line mutation probabilities (independent; at most one fires).
///
/// The sum of the seven quarantinable rates plus `duplicate` must not
/// exceed 1.0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Cut the line inside the timestamp/host prefix.
    pub truncate: f64,
    /// Replace one byte with `0xFF` (invalid UTF-8).
    pub encoding: f64,
    /// Mangle the XID code field (applies only to XID lines; otherwise the
    /// line passes through clean).
    pub garble: f64,
    /// Rewrite the stamp behind the previously accepted line (clock skew).
    pub regression: f64,
    /// Rewrite the stamp to Jan 1 of the same year (rollover boundary);
    /// skipped for a December line.
    pub rollover: f64,
    /// Split the line in two mid-prefix (interleaved writers).
    pub interleave: f64,
    /// Pad the line past the reader's byte cap.
    pub oversize: f64,
    /// Emit extra duplicate copies (storm-scale amplification).
    pub duplicate: f64,
    /// Maximum extra copies per duplicated line (at least 1).
    pub duplicate_copies_max: u32,
    /// Maximum backwards clock skew, seconds.
    pub max_skew_secs: u64,
    /// Total byte length oversized lines are padded to; must exceed the
    /// reader's `max_line_bytes` cap to be detectable.
    pub oversize_len: usize,
    /// Seed for the mutation streams.
    pub seed: u64,
}

impl ChaosConfig {
    /// No corruption at all (identity transform).
    pub fn clean(seed: u64) -> Self {
        ChaosConfig {
            truncate: 0.0,
            encoding: 0.0,
            garble: 0.0,
            regression: 0.0,
            rollover: 0.0,
            interleave: 0.0,
            oversize: 0.0,
            duplicate: 0.0,
            duplicate_copies_max: 4,
            max_skew_secs: 3600,
            oversize_len: 9000,
            seed,
        }
    }

    /// Spreads a total per-line corruption probability evenly across the
    /// seven quarantinable mutation kinds (no duplication).
    pub fn uniform(rate: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "corruption rate must be in [0, 1]"
        );
        let each = rate / 7.0;
        ChaosConfig {
            truncate: each,
            encoding: each,
            garble: each,
            regression: each,
            rollover: each,
            interleave: each,
            oversize: each,
            ..ChaosConfig::clean(seed)
        }
    }

    /// `uniform(rate)` plus storm-scale duplicate amplification.
    pub fn uniform_with_duplicates(rate: f64, duplicate: f64, seed: u64) -> Self {
        ChaosConfig {
            duplicate,
            ..ChaosConfig::uniform(rate, seed)
        }
    }

    /// The summed probability of quarantinable mutations per line.
    pub fn corruption_rate(&self) -> f64 {
        self.truncate
            + self.encoding
            + self.garble
            + self.regression
            + self.rollover
            + self.interleave
            + self.oversize
    }
}

/// What an injector actually did (applied mutations, not configured rates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosStats {
    /// Lines offered to the injector.
    pub lines_in: u64,
    /// Lines emitted (splits and duplicates add; nothing removes).
    pub lines_out: u64,
    /// Lines cut short.
    pub truncated: u64,
    /// Lines given an invalid UTF-8 byte.
    pub encoding: u64,
    /// XID lines with a mangled code field.
    pub garbled: u64,
    /// Lines rewritten behind the accepted clock.
    pub regressions: u64,
    /// Lines rewritten to a year-rollover boundary.
    pub rollovers: u64,
    /// Lines split in two.
    pub interleaved: u64,
    /// Lines padded past the byte cap.
    pub oversized: u64,
    /// Extra duplicate copies emitted (beyond the originals).
    pub duplicates_added: u64,
    /// Mutations drawn but inapplicable (e.g. garble on a non-XID line,
    /// regression with no accepted line yet); the line passed through
    /// clean.
    pub skipped: u64,
}

impl ChaosStats {
    /// Exactly how many emitted lines a correct lenient reader must
    /// quarantine: one per single-line mutation, two per interleave split.
    /// Duplicates are *not* counted — they are legitimate (if noisy) input
    /// that coalescing absorbs.
    pub fn quarantinable(&self) -> u64 {
        self.truncated
            + self.encoding
            + self.garbled
            + self.regressions
            + self.rollovers
            + 2 * self.interleaved
            + self.oversized
    }

    /// Total lines that received any mutation (duplication included).
    pub fn mutated(&self) -> u64 {
        self.truncated
            + self.encoding
            + self.garbled
            + self.regressions
            + self.rollovers
            + self.interleaved
            + self.oversized
    }
}

/// The syslog stamp (`Mon DD HH:MM:SS`) is a fixed 15-byte prefix.
const STAMP_LEN: usize = 15;
/// The stamp plus its trailing separator space.
const PREFIX_LEN: usize = STAMP_LEN + 1;

/// Applies seeded corruption to rendered log lines.
///
/// # Example
///
/// ```
/// use hpclog::chaos::{ChaosConfig, ChaosInjector};
///
/// let lines = "Mar 14 03:22:07 gpub042 kernel: NVRM: Xid (PCI:0000:27:00): 79, gone\n";
/// let mut chaos = ChaosInjector::new(ChaosConfig::uniform(1.0, 7));
/// let t = hpclog::Timestamp::from_ymd_hms(2024, 3, 14, 3, 22, 7).unwrap();
/// let mut out = Vec::new();
/// chaos.corrupt_line(t, lines.trim_end(), &mut out);
/// assert_eq!(chaos.stats().lines_in, 1);
/// ```
#[derive(Debug, Clone)]
pub struct ChaosInjector {
    config: ChaosConfig,
    rng: Rng,
    stats: ChaosStats,
    /// Mirror of the lenient reader's last-accepted timestamp: updated only
    /// for lines emitted clean (or duplicated), never for mutated lines —
    /// the reader rejects those, so its own anchor does not move either.
    prev_accepted: Option<Timestamp>,
}

/// The mutation chosen for one line.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mutation {
    None,
    Truncate,
    Encoding,
    Garble,
    Regression,
    Rollover,
    Interleave,
    Oversize,
    Duplicate,
}

impl ChaosInjector {
    /// Creates an injector; all randomness derives from `config.seed`.
    pub fn new(config: ChaosConfig) -> Self {
        ChaosInjector {
            rng: Rng::seed_from(config.seed).fork(0xC0A5),
            config,
            stats: ChaosStats::default(),
            prev_accepted: None,
        }
    }

    /// What the injector has done so far.
    pub fn stats(&self) -> ChaosStats {
        self.stats
    }

    /// Renders an archive (in its global time order) through the injector,
    /// returning the corrupted byte stream.
    pub fn corrupt_archive(&mut self, archive: &Archive) -> Vec<u8> {
        let before = self.stats;
        let mut span = obs::span("stage_chaos");
        let mut out = Vec::new();
        for line in archive.iter() {
            let rendered = line.to_string();
            self.corrupt_line(line.time, &rendered, &mut out);
        }
        span.add_items(self.stats.lines_in - before.lines_in);
        if obs::is_enabled() {
            obs::counter("hpclog_chaos_lines_corrupted_total", &[])
                .add(self.stats.mutated() - before.mutated());
            obs::counter("hpclog_chaos_duplicates_total", &[])
                .add(self.stats.duplicates_added - before.duplicates_added);
        }
        out
    }

    /// Feeds one rendered line (no trailing newline) through the injector,
    /// appending one or more newline-terminated output lines to `out`.
    ///
    /// `time` must be the line's own timestamp (the injector tracks the
    /// accepted-clock anchor to keep regressions detectable).
    pub fn corrupt_line(&mut self, time: Timestamp, rendered: &str, out: &mut Vec<u8>) {
        self.stats.lines_in += 1;
        // Defensive: lines shorter than the stamp prefix cannot carry any
        // of the structured mutations; pass them through.
        if rendered.len() <= PREFIX_LEN {
            self.emit_clean(time, rendered.as_bytes(), out);
            return;
        }
        match self.draw_mutation() {
            Mutation::None => self.emit_clean(time, rendered.as_bytes(), out),
            Mutation::Truncate => {
                // Cut inside the 5-field prefix: the parser reports a
                // missing field, which quarantines as `Truncated`.
                let cut = self.rng.range(3, PREFIX_LEN as u64 + 1) as usize;
                out.extend_from_slice(&rendered.as_bytes()[..cut]);
                out.push(b'\n');
                self.stats.truncated += 1;
                self.stats.lines_out += 1;
            }
            Mutation::Encoding => {
                let mut bytes = rendered.as_bytes().to_vec();
                let pos = self.rng.range_u64(bytes.len() as u64) as usize;
                bytes[pos] = 0xFF;
                out.extend_from_slice(&bytes);
                out.push(b'\n');
                self.stats.encoding += 1;
                self.stats.lines_out += 1;
            }
            Mutation::Garble => match garble_xid_code(rendered) {
                Some(garbled) => {
                    out.extend_from_slice(garbled.as_bytes());
                    out.push(b'\n');
                    self.stats.garbled += 1;
                    self.stats.lines_out += 1;
                }
                None => {
                    // Not an XID line; nothing to garble detectably.
                    self.stats.skipped += 1;
                    self.emit_clean(time, rendered.as_bytes(), out);
                }
            },
            Mutation::Regression => {
                let skew = Duration::from_secs(self.rng.range(1, self.config.max_skew_secs + 1));
                match self.prev_accepted {
                    // The warp must stay inside prev's calendar year: syslog
                    // stamps are year-less, so a skew that crosses New Year
                    // backwards would *render* as Dec 31 and re-parse as a
                    // huge forward jump — an undetectable corruption that
                    // poisons the reader's clock instead of tripping it.
                    Some(prev)
                        if prev.unix() > skew.as_secs()
                            && prev.saturating_sub(skew).ymd().0 == prev.ymd().0 =>
                    {
                        let warped = prev.saturating_sub(skew);
                        out.extend_from_slice(restamp(rendered, warped).as_bytes());
                        out.push(b'\n');
                        self.stats.regressions += 1;
                        self.stats.lines_out += 1;
                    }
                    _ => {
                        // No accepted line to regress behind yet.
                        self.stats.skipped += 1;
                        self.emit_clean(time, rendered.as_bytes(), out);
                    }
                }
            }
            Mutation::Rollover => {
                let second = self.rng.range_u64(60) as u32;
                let jan1 = Timestamp::from_ymd_hms(time.ymd().0, 1, 1, 0, 0, second)
                    .unwrap_or(Timestamp::EPOCH); // Jan 1 00:00:SS is always valid
                match self.prev_accepted {
                    // Against a December reference the reader resolves a
                    // `Jan  1` stamp into the next year: a forward jump it
                    // accepts, not a regression it can detect. The
                    // reference is the anchor, or, at the head of a day
                    // file, the file's date, which is the line's own; a
                    // December anchor is never after a later line's own
                    // Jan 1, so the line's month covers both.
                    Some(prev) if prev > jan1 && time.ymd().1 != 12 => {
                        out.extend_from_slice(restamp(rendered, jan1).as_bytes());
                        out.push(b'\n');
                        self.stats.rollovers += 1;
                        self.stats.lines_out += 1;
                    }
                    _ => {
                        // The stream is still at the very start of the
                        // year, or in December; a rollover would not
                        // regress.
                        self.stats.skipped += 1;
                        self.emit_clean(time, rendered.as_bytes(), out);
                    }
                }
            }
            Mutation::Interleave => {
                // Split at the host boundary: the first fragment is a bare
                // stamp (missing fields ⇒ `Truncated`), the second starts
                // mid-record and cannot carry a valid month name.
                let bytes = rendered.as_bytes();
                out.extend_from_slice(&bytes[..PREFIX_LEN]);
                out.push(b'\n');
                out.extend_from_slice(&bytes[PREFIX_LEN..]);
                out.push(b'\n');
                self.stats.interleaved += 1;
                self.stats.lines_out += 2;
            }
            Mutation::Oversize => {
                out.extend_from_slice(rendered.as_bytes());
                out.resize(
                    out.len() + self.config.oversize_len.saturating_sub(rendered.len()),
                    b'x',
                );
                out.push(b'\n');
                self.stats.oversized += 1;
                self.stats.lines_out += 1;
            }
            Mutation::Duplicate => {
                let copies = self
                    .rng
                    .range(1, self.config.duplicate_copies_max.max(1) as u64 + 1);
                for _ in 0..=copies {
                    out.extend_from_slice(rendered.as_bytes());
                    out.push(b'\n');
                }
                self.stats.duplicates_added += copies;
                self.stats.lines_out += 1 + copies;
                self.prev_accepted = Some(time);
            }
        }
    }

    fn emit_clean(&mut self, time: Timestamp, bytes: &[u8], out: &mut Vec<u8>) {
        out.extend_from_slice(bytes);
        out.push(b'\n');
        self.stats.lines_out += 1;
        self.prev_accepted = Some(time);
    }

    fn draw_mutation(&mut self) -> Mutation {
        let r = self.rng.f64();
        let c = &self.config;
        let ladder = [
            (c.truncate, Mutation::Truncate),
            (c.encoding, Mutation::Encoding),
            (c.garble, Mutation::Garble),
            (c.regression, Mutation::Regression),
            (c.rollover, Mutation::Rollover),
            (c.interleave, Mutation::Interleave),
            (c.oversize, Mutation::Oversize),
            (c.duplicate, Mutation::Duplicate),
        ];
        let mut cum = 0.0;
        for (rate, mutation) in ladder {
            cum += rate;
            if r < cum {
                return mutation;
            }
        }
        Mutation::None
    }
}

/// Replaces the fixed-width syslog stamp prefix with `time`'s rendering.
fn restamp(rendered: &str, time: Timestamp) -> String {
    format!("{}{}", time.syslog(), &rendered[STAMP_LEN..])
}

/// Mangles the XID code field of an NVRM line so the body parser reports a
/// malformed XID (`BadXid`), or `None` when the line is not an XID record.
fn garble_xid_code(rendered: &str) -> Option<String> {
    let xid_at = rendered.find("NVRM: Xid (PCI:")?;
    // The code sits after the first "): " following the PCI address.
    let close = rendered[xid_at..].find("): ")? + xid_at + 3;
    let code_end = rendered[close..]
        .find([',', ' '])
        .map(|i| close + i)
        .unwrap_or(rendered.len());
    Some(format!("{}??{}", &rendered[..close], &rendered[code_end..]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::line::LogLine;

    fn t(h: u32, m: u32, s: u32) -> Timestamp {
        Timestamp::from_ymd_hms(2024, 3, 14, h, m, s).unwrap()
    }

    fn xid_line(time: Timestamp) -> String {
        LogLine::new(
            time,
            "gpub042",
            "kernel",
            "NVRM: Xid (PCI:0000:27:00): 79, gone",
        )
        .to_string()
    }

    fn noise_line(time: Timestamp) -> String {
        LogLine::new(time, "gpub042", "kernel", "usb 3-2: new device").to_string()
    }

    #[test]
    fn clean_config_is_identity() {
        let mut chaos = ChaosInjector::new(ChaosConfig::clean(1));
        let mut out = Vec::new();
        let lines = [xid_line(t(1, 0, 0)), noise_line(t(1, 0, 1))];
        for (i, l) in lines.iter().enumerate() {
            chaos.corrupt_line(t(1, 0, i as u32), l, &mut out);
        }
        let expect = format!("{}\n{}\n", lines[0], lines[1]);
        assert_eq!(out, expect.as_bytes());
        assert_eq!(chaos.stats().quarantinable(), 0);
        assert_eq!(chaos.stats().lines_out, 2);
    }

    #[test]
    fn same_seed_same_bytes() {
        let run = |seed| {
            let mut chaos =
                ChaosInjector::new(ChaosConfig::uniform_with_duplicates(0.6, 0.2, seed));
            let mut out = Vec::new();
            for i in 0..200u32 {
                let time = t(2, i / 60, i % 60);
                chaos.corrupt_line(time, &xid_line(time), &mut out);
            }
            (out, chaos.stats())
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9).0, run(10).0);
    }

    #[test]
    fn truncation_cuts_inside_prefix() {
        let mut config = ChaosConfig::clean(3);
        config.truncate = 1.0;
        let mut chaos = ChaosInjector::new(config);
        let mut out = Vec::new();
        chaos.corrupt_line(t(1, 2, 3), &xid_line(t(1, 2, 3)), &mut out);
        assert!(out.len() <= PREFIX_LEN + 1);
        assert_eq!(chaos.stats().truncated, 1);
        let text = std::str::from_utf8(&out).unwrap().trim_end();
        assert!(LogLine::parse_with_year(text, 2024).is_err());
    }

    #[test]
    fn garble_mangles_only_xid_lines() {
        let mut config = ChaosConfig::clean(4);
        config.garble = 1.0;
        let mut chaos = ChaosInjector::new(config);
        let mut out = Vec::new();
        chaos.corrupt_line(t(1, 0, 0), &xid_line(t(1, 0, 0)), &mut out);
        let text = std::str::from_utf8(&out).unwrap().trim_end();
        assert!(text.contains("??"));
        let parsed = LogLine::parse_with_year(text, 2024).unwrap();
        let body = crate::nvrm::XidEvent::parse_body(parsed.time, &parsed.host, &parsed.body);
        assert!(matches!(body, Some(Err(_))));
        // A noise line passes through untouched and counts as skipped.
        out.clear();
        chaos.corrupt_line(t(1, 0, 1), &noise_line(t(1, 0, 1)), &mut out);
        assert_eq!(chaos.stats().garbled, 1);
        assert_eq!(chaos.stats().skipped, 1);
    }

    #[test]
    fn regression_rewinds_behind_accepted_clock() {
        let mut config = ChaosConfig::clean(5);
        config.regression = 0.5; // first draw decides per line
        let mut chaos = ChaosInjector::new(config);
        let mut out = Vec::new();
        // Feed lines until one regresses.
        for i in 0..200u32 {
            let time = t(3, i / 60, i % 60);
            chaos.corrupt_line(time, &noise_line(time), &mut out);
        }
        assert!(chaos.stats().regressions > 0);
        // Every regressed line parses, but its stamp is behind a
        // previously emitted clean line.
        let text = String::from_utf8(out).unwrap();
        let mut max_seen: Option<Timestamp> = None;
        let mut regressions = 0;
        for line in text.lines() {
            let parsed = LogLine::parse_with_year(line, 2024).unwrap();
            if max_seen.is_some_and(|m| parsed.time < m) {
                regressions += 1;
            }
            max_seen = Some(max_seen.map_or(parsed.time, |m| m.max(parsed.time)));
        }
        assert_eq!(regressions, chaos.stats().regressions);
    }

    #[test]
    fn regression_never_crosses_new_year_backwards() {
        // A warp from early Jan 1 into Dec 31 would render year-less as
        // "Dec 31", which a fixed-year reader parses as a *forward* jump —
        // poisoning its accepted clock instead of tripping the
        // out-of-order check. Such draws must be skipped, not emitted.
        let mut config = ChaosConfig::clean(7);
        config.regression = 0.9;
        config.max_skew_secs = 3600;
        let mut chaos = ChaosInjector::new(config);
        let mut out = Vec::new();
        for i in 0..120u32 {
            // The first two hours of the year: most skews would cross.
            let time = Timestamp::from_ymd_hms(2024, 1, 1, i / 60, i % 60, 0).unwrap();
            chaos.corrupt_line(time, &noise_line(time), &mut out);
        }
        let text = String::from_utf8(out).unwrap();
        for line in text.lines() {
            let parsed = LogLine::parse_with_year(line, 2024).unwrap();
            assert_eq!(parsed.time.ymd().0, 2024, "cross-year stamp in {line:?}");
            assert_eq!(parsed.time.ymd().1, 1, "regressed out of January: {line:?}");
        }
    }

    #[test]
    fn rollover_is_never_drawn_after_a_december_line() {
        use crate::extract::XidExtractor;
        use crate::quarantine::{QuarantineCategory, QuarantineLedger};

        let mut config = ChaosConfig::clean(11);
        config.rollover = 0.5;
        let mut chaos = ChaosInjector::new(config);
        let mut out = Vec::new();
        // The last hour of 2022 and the first of 2023.
        let start = Timestamp::from_ymd_hms(2022, 12, 31, 23, 0, 0).unwrap();
        for i in 0..240u64 {
            let time = start + Duration::from_secs(i * 30);
            chaos.corrupt_line(time, &noise_line(time), &mut out);
        }
        let stats = chaos.stats();
        assert!(stats.rollovers > 0 && stats.skipped > 0, "{stats:?}");
        let mut ex = XidExtractor::new(2022);
        let mut ledger = QuarantineLedger::new();
        ex.scan_reader_lenient(out.as_slice(), &mut ledger);
        assert_eq!(ledger.total(), stats.quarantinable());
        assert_eq!(
            ledger.counts().get(QuarantineCategory::OutOfOrder),
            stats.rollovers
        );
        assert_eq!(ex.year(), 2023);
    }

    #[test]
    fn rollover_is_never_drawn_on_a_december_line() {
        use crate::quarantine::QuarantineLedger;
        use crate::stream::LenientScan;

        // Every line draws a rollover; none is emitted, so the anchor
        // stays on the first line (Nov 30). A day-file loader reads the
        // Dec 1 file against its own date, where a `Jan  1` stamp would
        // be next year's.
        let mut config = ChaosConfig::clean(12);
        config.rollover = 1.0;
        let mut chaos = ChaosInjector::new(config);
        let start = Timestamp::from_ymd_hms(2022, 11, 30, 23, 0, 0).unwrap();
        let mut days: [Vec<u8>; 2] = Default::default();
        for i in 0..240u64 {
            let time = start + Duration::from_secs(i * 30);
            let day = usize::from(time.ymd().2 == 1);
            chaos.corrupt_line(time, &noise_line(time), &mut days[day]);
        }
        let mut scan = LenientScan::studied_only(2022);
        let mut ledger = QuarantineLedger::new();
        let mut events = Vec::new();
        for (month, bytes) in [(11, &days[0]), (12, &days[1])] {
            scan.set_reference(2022, month);
            scan.feed(bytes, &mut ledger, &mut events);
        }
        let stats = chaos.stats();
        assert!(stats.rollovers > 0 && stats.skipped > 0, "{stats:?}");
        assert_eq!(ledger.total(), stats.quarantinable());
    }

    #[test]
    fn interleave_splits_into_two_lines() {
        let mut config = ChaosConfig::clean(6);
        config.interleave = 1.0;
        let mut chaos = ChaosInjector::new(config);
        let mut out = Vec::new();
        chaos.corrupt_line(t(1, 0, 0), &xid_line(t(1, 0, 0)), &mut out);
        let text = std::str::from_utf8(&out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for l in &lines {
            assert!(LogLine::parse_with_year(l, 2024).is_err(), "{l:?}");
        }
        assert_eq!(chaos.stats().quarantinable(), 2);
    }

    #[test]
    fn oversize_pads_past_cap() {
        let mut config = ChaosConfig::clean(7);
        config.oversize = 1.0;
        config.oversize_len = 500;
        let mut chaos = ChaosInjector::new(config);
        let mut out = Vec::new();
        chaos.corrupt_line(t(1, 0, 0), &noise_line(t(1, 0, 0)), &mut out);
        assert_eq!(out.len(), 501); // padded line + newline
        assert_eq!(chaos.stats().oversized, 1);
    }

    #[test]
    fn duplicates_amplify_without_quarantine() {
        let mut config = ChaosConfig::clean(8);
        config.duplicate = 1.0;
        config.duplicate_copies_max = 3;
        let mut chaos = ChaosInjector::new(config);
        let mut out = Vec::new();
        chaos.corrupt_line(t(1, 0, 0), &noise_line(t(1, 0, 0)), &mut out);
        let text = std::str::from_utf8(&out).unwrap();
        assert!(text.lines().count() >= 2);
        assert_eq!(chaos.stats().quarantinable(), 0);
        assert!(chaos.stats().duplicates_added >= 1);
    }

    #[test]
    fn encoding_mutation_breaks_utf8() {
        let mut config = ChaosConfig::clean(9);
        config.encoding = 1.0;
        let mut chaos = ChaosInjector::new(config);
        let mut out = Vec::new();
        chaos.corrupt_line(t(1, 0, 0), &noise_line(t(1, 0, 0)), &mut out);
        let line = &out[..out.len() - 1];
        assert!(std::str::from_utf8(line).is_err());
    }

    #[test]
    fn uniform_rates_sum_to_requested() {
        let config = ChaosConfig::uniform(0.07, 1);
        assert!((config.corruption_rate() - 0.07).abs() < 1e-12);
        assert_eq!(config.duplicate, 0.0);
    }

    #[test]
    fn stats_quarantinable_counts_interleave_twice() {
        let stats = ChaosStats {
            interleaved: 3,
            truncated: 2,
            ..Default::default()
        };
        assert_eq!(stats.quarantinable(), 8);
        assert_eq!(stats.mutated(), 5);
    }
}
