//! Structured quarantine for rejected log input.
//!
//! Production log archives are never clean: lines arrive truncated by
//! collector restarts, garbled by interleaved writers, time-warped by NTP
//! steps, or padded to absurd lengths by runaway printers. A pipeline that
//! panics (or silently drops) on such input cannot be trusted to reproduce
//! the paper's tables from real archives. This module gives every rejected
//! line a home: a [`QuarantineLedger`] counts rejects per
//! [`QuarantineCategory`] and keeps a small, *bounded* reservoir of
//! exemplar snippets so an operator can inspect what was thrown away —
//! without the ledger's memory ever growing with the corruption rate.
//!
//! The ledger is deliberately deterministic: the exemplar reservoir is
//! sampled with a seeded [`simrng::Rng`], so the same corrupt archive
//! always yields the same ledger, byte for byte — the property every other
//! stream in this workspace guarantees.

use simrng::Rng;
use std::fmt;

/// Why a line was quarantined instead of parsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QuarantineCategory {
    /// All syslog fields present, but the `Mon DD HH:MM:SS` stamp does not
    /// parse (garbled month, impossible day, corrupted clock field).
    MalformedTimestamp,
    /// Recognisably an `NVRM: Xid` message whose PCI address or code field
    /// is mangled.
    BadXid,
    /// Fewer than the five mandatory syslog fields — the line was cut
    /// short in transit.
    Truncated,
    /// The raw bytes are not valid UTF-8.
    Encoding,
    /// The line's timestamp regresses behind an already-accepted line
    /// (clock skew, year rollover, or reordered collection).
    OutOfOrder,
    /// The raw line exceeds the configured byte cap.
    OversizedLine,
    /// A structured record (CSV row, etc.) that failed schema validation.
    BadRecord,
}

impl QuarantineCategory {
    /// Every category, in display order.
    pub const ALL: [QuarantineCategory; 7] = [
        QuarantineCategory::MalformedTimestamp,
        QuarantineCategory::BadXid,
        QuarantineCategory::Truncated,
        QuarantineCategory::Encoding,
        QuarantineCategory::OutOfOrder,
        QuarantineCategory::OversizedLine,
        QuarantineCategory::BadRecord,
    ];

    /// A stable human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            QuarantineCategory::MalformedTimestamp => "malformed-timestamp",
            QuarantineCategory::BadXid => "bad-xid",
            QuarantineCategory::Truncated => "truncated",
            QuarantineCategory::Encoding => "encoding",
            QuarantineCategory::OutOfOrder => "out-of-order",
            QuarantineCategory::OversizedLine => "oversized-line",
            QuarantineCategory::BadRecord => "bad-record",
        }
    }

    fn index(self) -> usize {
        QuarantineCategory::ALL
            .iter()
            .position(|&c| c == self)
            .expect("ALL enumerates every category") // by construction above
    }

    /// The category at position `index` of [`ALL`](Self::ALL), or `None`
    /// when out of range. Inverse of the `ALL` ordering; used when decoding
    /// checkpointed exemplars.
    pub fn from_index(index: usize) -> Option<Self> {
        QuarantineCategory::ALL.get(index).copied()
    }
}

impl fmt::Display for QuarantineCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-category reject counters (cheap to copy, embeddable in stats).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QuarantineCounts {
    counts: [u64; QuarantineCategory::ALL.len()],
}

impl QuarantineCounts {
    /// The count for one category.
    pub fn get(&self, category: QuarantineCategory) -> u64 {
        self.counts[category.index()]
    }

    /// Increments one category.
    pub fn add(&mut self, category: QuarantineCategory) {
        self.counts[category.index()] += 1;
    }

    /// Total rejects across all categories.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The raw per-category counters, indexed in [`QuarantineCategory::ALL`]
    /// order (for checkpointing).
    pub fn to_array(&self) -> [u64; QuarantineCategory::ALL.len()] {
        self.counts
    }

    /// Rebuilds counters from values captured with
    /// [`QuarantineCounts::to_array`].
    pub fn from_array(counts: [u64; QuarantineCategory::ALL.len()]) -> Self {
        QuarantineCounts { counts }
    }

    /// Iterates `(category, count)` pairs with non-zero counts.
    pub fn iter(&self) -> impl Iterator<Item = (QuarantineCategory, u64)> + '_ {
        QuarantineCategory::ALL
            .iter()
            .map(|&c| (c, self.get(c)))
            .filter(|&(_, n)| n > 0)
    }
}

/// One retained sample of a rejected line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exemplar {
    /// Why it was rejected.
    pub category: QuarantineCategory,
    /// 1-based line number within the scanned stream.
    pub line_no: u64,
    /// A truncated, lossily-decoded snippet of the raw bytes.
    pub snippet: String,
}

/// Bounded, deterministic record of everything a lenient reader rejected.
///
/// Memory is O(`max_exemplars` × `max_snippet_bytes`) regardless of how
/// many lines are quarantined: counts are plain integers and exemplars are
/// reservoir-sampled (algorithm R) with a seeded RNG, so every rejected
/// line has an equal chance of being retained and the result is
/// reproducible.
///
/// # Example
///
/// ```
/// use hpclog::quarantine::{QuarantineCategory, QuarantineLedger};
///
/// let mut ledger = QuarantineLedger::new();
/// ledger.record(QuarantineCategory::Truncated, 7, b"Mar 14 03:2");
/// assert_eq!(ledger.total(), 1);
/// assert_eq!(ledger.counts().get(QuarantineCategory::Truncated), 1);
/// assert_eq!(ledger.exemplars().len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct QuarantineLedger {
    counts: QuarantineCounts,
    exemplars: Vec<Exemplar>,
    max_exemplars: usize,
    max_snippet_bytes: usize,
    max_line_bytes: usize,
    io_errors: u64,
    rng: Rng,
}

/// Default cap on retained exemplars.
pub const DEFAULT_MAX_EXEMPLARS: usize = 16;
/// Default cap on each exemplar snippet, in bytes.
pub const DEFAULT_MAX_SNIPPET_BYTES: usize = 160;
/// Default byte cap above which a line is quarantined as oversized.
pub const DEFAULT_MAX_LINE_BYTES: usize = 8192;
/// Default reservoir seed (fixed so ledgers are reproducible by default).
pub const DEFAULT_RESERVOIR_SEED: u64 = 0x0005_EED0_FBAD_11E5;

impl QuarantineLedger {
    /// A ledger with the default limits and seed.
    pub fn new() -> Self {
        Self::with_limits(
            DEFAULT_MAX_EXEMPLARS,
            DEFAULT_MAX_SNIPPET_BYTES,
            DEFAULT_MAX_LINE_BYTES,
            DEFAULT_RESERVOIR_SEED,
        )
    }

    /// A ledger with explicit bounds.
    ///
    /// `max_line_bytes` is advisory to readers (see
    /// [`QuarantineLedger::max_line_bytes`]); the ledger itself only uses
    /// it as the published oversize threshold.
    pub fn with_limits(
        max_exemplars: usize,
        max_snippet_bytes: usize,
        max_line_bytes: usize,
        seed: u64,
    ) -> Self {
        QuarantineLedger {
            counts: QuarantineCounts::default(),
            exemplars: Vec::new(),
            max_exemplars,
            max_snippet_bytes,
            max_line_bytes,
            io_errors: 0,
            rng: Rng::seed_from(seed),
        }
    }

    /// Records one rejected line.
    pub fn record(&mut self, category: QuarantineCategory, line_no: u64, raw: &[u8]) {
        self.counts.add(category);
        if self.max_exemplars == 0 {
            return;
        }
        let n = self.counts.total();
        if self.exemplars.len() < self.max_exemplars {
            let snippet = self.snip(raw);
            self.exemplars.push(Exemplar {
                category,
                line_no,
                snippet,
            });
        } else {
            // Reservoir algorithm R: the n-th reject replaces a random slot
            // with probability max_exemplars / n.
            let j = self.rng.range_u64(n) as usize;
            if j < self.max_exemplars {
                let snippet = self.snip(raw);
                self.exemplars[j] = Exemplar {
                    category,
                    line_no,
                    snippet,
                };
            }
        }
    }

    /// Records an I/O failure on the underlying stream (not a line reject).
    pub fn record_io_error(&mut self) {
        self.io_errors += 1;
    }

    /// Per-category counts.
    pub fn counts(&self) -> QuarantineCounts {
        self.counts
    }

    /// Total quarantined lines (excludes I/O errors).
    pub fn total(&self) -> u64 {
        self.counts.total()
    }

    /// Stream-level I/O failures observed.
    pub fn io_errors(&self) -> u64 {
        self.io_errors
    }

    /// True when nothing was rejected and no I/O errors occurred.
    pub fn is_empty(&self) -> bool {
        self.counts.total() == 0 && self.io_errors == 0
    }

    /// The retained exemplar rejects (at most `max_exemplars`).
    pub fn exemplars(&self) -> &[Exemplar] {
        &self.exemplars
    }

    /// The byte cap readers should enforce per line.
    pub fn max_line_bytes(&self) -> usize {
        self.max_line_bytes
    }

    /// Captures the ledger's complete state — counters, exemplars, limits
    /// and the reservoir RNG — as plain data for checkpointing.
    pub fn snapshot(&self) -> LedgerSnapshot {
        LedgerSnapshot {
            counts: self.counts.to_array(),
            exemplars: self.exemplars.clone(),
            max_exemplars: self.max_exemplars,
            max_snippet_bytes: self.max_snippet_bytes,
            max_line_bytes: self.max_line_bytes,
            io_errors: self.io_errors,
            rng_state: self.rng.state(),
        }
    }

    /// Rebuilds a ledger from a [`snapshot`](Self::snapshot).
    ///
    /// The restored ledger continues reservoir sampling exactly where the
    /// captured one left off, so a checkpointed run retains the same
    /// exemplars as an uncut one. Returns `None` when the snapshot is
    /// internally inconsistent: an unreachable all-zero RNG state, or more
    /// exemplars than the stated cap.
    pub fn from_snapshot(snapshot: LedgerSnapshot) -> Option<Self> {
        let rng = Rng::from_state(snapshot.rng_state)?;
        if snapshot.exemplars.len() > snapshot.max_exemplars {
            return None;
        }
        Some(QuarantineLedger {
            counts: QuarantineCounts::from_array(snapshot.counts),
            exemplars: snapshot.exemplars,
            max_exemplars: snapshot.max_exemplars,
            max_snippet_bytes: snapshot.max_snippet_bytes,
            max_line_bytes: snapshot.max_line_bytes,
            io_errors: snapshot.io_errors,
            rng,
        })
    }

    fn snip(&self, raw: &[u8]) -> String {
        let text = String::from_utf8_lossy(raw);
        let mut out = String::with_capacity(text.len().min(self.max_snippet_bytes));
        for ch in text.chars() {
            if out.len() + ch.len_utf8() > self.max_snippet_bytes {
                break;
            }
            out.push(ch);
        }
        out
    }
}

impl Default for QuarantineLedger {
    fn default() -> Self {
        Self::new()
    }
}

/// Plain-data image of a [`QuarantineLedger`], produced by
/// [`QuarantineLedger::snapshot`] and consumed by
/// [`QuarantineLedger::from_snapshot`].
///
/// Every field is public so checkpoint codecs in downstream crates can
/// serialise it without this crate committing to a wire format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerSnapshot {
    /// Per-category reject counters in [`QuarantineCategory::ALL`] order.
    pub counts: [u64; QuarantineCategory::ALL.len()],
    /// The retained exemplars, in reservoir order.
    pub exemplars: Vec<Exemplar>,
    /// Cap on retained exemplars.
    pub max_exemplars: usize,
    /// Cap on each exemplar snippet, in bytes.
    pub max_snippet_bytes: usize,
    /// Published per-line byte cap.
    pub max_line_bytes: usize,
    /// Stream-level I/O failures observed.
    pub io_errors: u64,
    /// The reservoir RNG's internal state mid-stream.
    pub rng_state: [u64; 4],
}

impl fmt::Display for QuarantineLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "quarantine: clean (0 rejects)");
        }
        write!(f, "quarantine: {} rejects", self.total())?;
        if self.io_errors > 0 {
            write!(f, ", {} I/O errors", self.io_errors)?;
        }
        for (cat, n) in self.counts.iter() {
            write!(f, "\n  {cat:<20} {n}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_per_category() {
        let mut ledger = QuarantineLedger::new();
        ledger.record(QuarantineCategory::Truncated, 1, b"a");
        ledger.record(QuarantineCategory::Truncated, 2, b"b");
        ledger.record(QuarantineCategory::Encoding, 3, b"\xff");
        assert_eq!(ledger.counts().get(QuarantineCategory::Truncated), 2);
        assert_eq!(ledger.counts().get(QuarantineCategory::Encoding), 1);
        assert_eq!(ledger.counts().get(QuarantineCategory::BadXid), 0);
        assert_eq!(ledger.total(), 3);
        assert!(!ledger.is_empty());
    }

    #[test]
    fn exemplars_are_bounded() {
        let mut ledger = QuarantineLedger::with_limits(4, 32, 8192, 1);
        for i in 0..1000u64 {
            ledger.record(
                QuarantineCategory::Truncated,
                i,
                format!("line {i}").as_bytes(),
            );
        }
        assert_eq!(ledger.total(), 1000);
        assert_eq!(ledger.exemplars().len(), 4);
    }

    #[test]
    fn reservoir_is_deterministic() {
        let run = || {
            let mut ledger = QuarantineLedger::with_limits(3, 32, 8192, 42);
            for i in 0..200u64 {
                ledger.record(QuarantineCategory::BadXid, i, format!("x{i}").as_bytes());
            }
            ledger.exemplars().to_vec()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn snippets_are_truncated_and_lossy() {
        let mut ledger = QuarantineLedger::with_limits(4, 8, 8192, 1);
        let long = vec![b'z'; 100];
        ledger.record(QuarantineCategory::OversizedLine, 1, &long);
        assert_eq!(ledger.exemplars()[0].snippet.len(), 8);
        ledger.record(QuarantineCategory::Encoding, 2, b"ok\xffok");
        assert!(ledger.exemplars()[1].snippet.contains('\u{FFFD}'));
    }

    #[test]
    fn zero_exemplar_cap_keeps_counts_only() {
        let mut ledger = QuarantineLedger::with_limits(0, 8, 8192, 1);
        ledger.record(QuarantineCategory::Truncated, 1, b"a");
        assert_eq!(ledger.total(), 1);
        assert!(ledger.exemplars().is_empty());
    }

    #[test]
    fn io_errors_tracked_separately() {
        let mut ledger = QuarantineLedger::new();
        assert!(ledger.is_empty());
        ledger.record_io_error();
        assert_eq!(ledger.io_errors(), 1);
        assert_eq!(ledger.total(), 0);
        assert!(!ledger.is_empty());
    }

    #[test]
    fn display_summarises() {
        let mut ledger = QuarantineLedger::new();
        assert!(ledger.to_string().contains("clean"));
        ledger.record(QuarantineCategory::OutOfOrder, 5, b"late line");
        let s = ledger.to_string();
        assert!(s.contains("1 rejects"));
        assert!(s.contains("out-of-order"));
    }

    #[test]
    fn snapshot_round_trip_preserves_reservoir_stream() {
        // Feed half the rejects, snapshot, then race the restored ledger
        // against the original over the second half: counts, exemplars and
        // future reservoir decisions must all coincide.
        let mut ledger = QuarantineLedger::with_limits(3, 32, 8192, 42);
        for i in 0..100u64 {
            ledger.record(QuarantineCategory::BadXid, i, format!("x{i}").as_bytes());
        }
        let mut restored = QuarantineLedger::from_snapshot(ledger.snapshot()).unwrap();
        for i in 100..300u64 {
            ledger.record(QuarantineCategory::Truncated, i, format!("y{i}").as_bytes());
            restored.record(QuarantineCategory::Truncated, i, format!("y{i}").as_bytes());
        }
        assert_eq!(restored.counts(), ledger.counts());
        assert_eq!(restored.exemplars(), ledger.exemplars());
        assert_eq!(restored.io_errors(), ledger.io_errors());
        assert_eq!(restored.max_line_bytes(), ledger.max_line_bytes());
    }

    #[test]
    fn from_snapshot_rejects_inconsistent_state() {
        let ledger = QuarantineLedger::new();
        let mut zeroed = ledger.snapshot();
        zeroed.rng_state = [0; 4];
        assert!(QuarantineLedger::from_snapshot(zeroed).is_none());

        let mut overfull = ledger.snapshot();
        overfull.max_exemplars = 0;
        overfull.exemplars.push(Exemplar {
            category: QuarantineCategory::Truncated,
            line_no: 1,
            snippet: "x".into(),
        });
        assert!(QuarantineLedger::from_snapshot(overfull).is_none());
    }

    #[test]
    fn category_index_round_trips() {
        for (i, cat) in QuarantineCategory::ALL.into_iter().enumerate() {
            assert_eq!(QuarantineCategory::from_index(i), Some(cat));
        }
        assert_eq!(
            QuarantineCategory::from_index(QuarantineCategory::ALL.len()),
            None
        );
    }

    #[test]
    fn category_labels_are_stable() {
        for cat in QuarantineCategory::ALL {
            assert!(!cat.label().is_empty());
            assert_eq!(cat.to_string(), cat.label());
        }
    }
}
