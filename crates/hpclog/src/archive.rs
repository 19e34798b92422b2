//! Per-day log consolidation, mirroring Delta's collection pipeline.
//!
//! Delta consolidates system logs from all nodes into one file per day.
//! [`Archive`] is the in-memory equivalent: lines are appended in any
//! order, grouped by civil day, and replayed in global time order. The
//! fault injector writes into an archive; the analysis pipeline replays it
//! through an [`XidExtractor`](crate::extract::XidExtractor) — so the whole
//! study round-trips through the same consolidated representation the real
//! system used.

use crate::line::LogLine;
use std::collections::BTreeMap;

/// An in-memory, per-day consolidated log archive.
///
/// # Example
///
/// ```
/// use hpclog::{archive::Archive, LogLine, Timestamp};
///
/// let mut archive = Archive::new();
/// let t = Timestamp::from_ymd_hms(2024, 3, 14, 3, 22, 7)?;
/// archive.push(LogLine::new(t, "gpub042", "kernel", "hello"));
/// assert_eq!(archive.day_count(), 1);
/// assert_eq!(archive.line_count(), 1);
/// # Ok::<(), hpclog::ParseTimestampError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Archive {
    days: BTreeMap<u64, Vec<LogLine>>,
    line_count: usize,
}

impl Archive {
    /// Creates an empty archive.
    pub fn new() -> Self {
        Archive::default()
    }

    /// Appends a line to its day bucket.
    pub fn push(&mut self, line: LogLine) {
        self.days
            .entry(line.time.day_number())
            .or_default()
            .push(line);
        self.line_count += 1;
    }

    /// Number of distinct days with at least one line.
    pub fn day_count(&self) -> usize {
        self.days.len()
    }

    /// Total number of lines.
    pub fn line_count(&self) -> usize {
        self.line_count
    }

    /// Iterates over all lines in global time order.
    ///
    /// Within a day, lines are sorted by timestamp with insertion order
    /// breaking ties (syslog files preserve arrival order for same-second
    /// records).
    pub fn iter(&self) -> impl Iterator<Item = &LogLine> {
        self.days.values().flat_map(|lines| {
            let mut idx: Vec<usize> = (0..lines.len()).collect();
            idx.sort_by_key(|&i| (lines[i].time, i));
            idx.into_iter().map(move |i| &lines[i])
        })
    }

    /// Iterates over `(day number, lines)` buckets in chronological order.
    pub fn days(&self) -> impl Iterator<Item = (u64, &[LogLine])> {
        self.days.iter().map(|(&d, v)| (d, v.as_slice()))
    }

    /// Renders one day bucket to consolidated text, or `None` if the day is
    /// absent.
    pub fn render_day(&self, day_number: u64) -> Option<String> {
        let lines = self.days.get(&day_number)?;
        let mut idx: Vec<usize> = (0..lines.len()).collect();
        idx.sort_by_key(|&i| (lines[i].time, i));
        let mut out = String::new();
        for i in idx {
            out.push_str(&lines[i].to_string());
            out.push('\n');
        }
        Some(out)
    }

    /// Parses one consolidated day file produced by [`Archive::render_day`]
    /// (or a real per-day log) into the archive, resolving timestamps
    /// against `year`. Unparseable lines are skipped and counted.
    ///
    /// Returns `(lines added, lines skipped)`.
    pub fn ingest_day(&mut self, text: &str, year: i32) -> (usize, usize) {
        let mut added = 0;
        let mut skipped = 0;
        for raw in text.lines() {
            if raw.trim().is_empty() {
                continue;
            }
            match LogLine::parse_with_year(raw, year) {
                Ok(line) => {
                    self.push(line);
                    added += 1;
                }
                Err(_) => skipped += 1,
            }
        }
        (added, skipped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtime::Timestamp;

    fn line_at(day: u32, hour: u32, host: &str) -> LogLine {
        let t = Timestamp::from_ymd_hms(2024, 3, day, hour, 0, 0).unwrap();
        LogLine::new(t, host, "kernel", format!("msg d{day} h{hour}"))
    }

    #[test]
    fn push_groups_by_day() {
        let mut a = Archive::new();
        a.push(line_at(14, 3, "n1"));
        a.push(line_at(14, 5, "n2"));
        a.push(line_at(15, 1, "n1"));
        assert_eq!(a.day_count(), 2);
        assert_eq!(a.line_count(), 3);
    }

    #[test]
    fn iter_is_globally_time_ordered() {
        let mut a = Archive::new();
        a.push(line_at(15, 1, "n1"));
        a.push(line_at(14, 5, "n2"));
        a.push(line_at(14, 3, "n3"));
        let times: Vec<_> = a.iter().map(|l| l.time).collect();
        let mut sorted = times.clone();
        sorted.sort();
        assert_eq!(times, sorted);
    }

    #[test]
    fn same_second_preserves_insertion_order() {
        let mut a = Archive::new();
        let t = Timestamp::from_ymd_hms(2024, 3, 14, 3, 0, 0).unwrap();
        a.push(LogLine::new(t, "n", "kernel", "first"));
        a.push(LogLine::new(t, "n", "kernel", "second"));
        let bodies: Vec<_> = a.iter().map(|l| l.body.as_str()).collect();
        assert_eq!(bodies, vec!["first", "second"]);
    }

    #[test]
    fn render_ingest_roundtrip() {
        let mut a = Archive::new();
        a.push(line_at(14, 3, "gpub001"));
        a.push(line_at(14, 7, "gpub002"));
        let day = a.days().next().unwrap().0;
        let text = a.render_day(day).unwrap();
        let mut b = Archive::new();
        let (added, skipped) = b.ingest_day(&text, 2024);
        assert_eq!((added, skipped), (2, 0));
        let orig: Vec<_> = a.iter().cloned().collect();
        let back: Vec<_> = b.iter().cloned().collect();
        assert_eq!(orig, back);
    }

    #[test]
    fn ingest_skips_garbage() {
        let mut a = Archive::new();
        let (added, skipped) =
            a.ingest_day("not a log line\n\nMar 14 03:00:00 n kernel: ok\n", 2024);
        assert_eq!((added, skipped), (1, 1));
    }

    #[test]
    fn render_missing_day_is_none() {
        assert_eq!(Archive::new().render_day(0), None);
    }
}
