//! RFC3164-style syslog line model.

use simtime::{ParseTimestampError, Timestamp};
use std::error::Error;
use std::fmt;
use std::str::FromStr;

/// One syslog record: timestamp, origin host, tag, and message body.
///
/// Rendered in the classic format Delta's consolidated logs use:
///
/// ```text
/// Mar 14 03:22:07 gpub042 kernel: NVRM: Xid (PCI:0000:27:00): 79, ...
/// ```
///
/// Parsing accepts any tag, with or without a trailing colon. Because the
/// wire format has no year, [`LogLine::parse_with_year`] takes it from
/// context; the [`FromStr`] impl assumes the current study convention of
/// resolving against year 2024 is *not* silently applied — it requires an
/// explicit year via `parse_with_year` except in the common case where the
/// caller immediately re-stamps the timestamp (tests, examples), for which
/// `FromStr` uses 2024.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LogLine {
    /// When the record was emitted.
    pub time: Timestamp,
    /// Originating hostname (e.g. `gpub042`).
    pub host: String,
    /// Syslog tag, colon stripped (e.g. `kernel`).
    pub tag: String,
    /// The free-text message body.
    pub body: String,
}

impl LogLine {
    /// Creates a log line.
    pub fn new(
        time: Timestamp,
        host: impl Into<String>,
        tag: impl Into<String>,
        body: impl Into<String>,
    ) -> Self {
        LogLine {
            time,
            host: host.into(),
            tag: tag.into(),
            body: body.into(),
        }
    }

    /// Parses a rendered line, resolving the year-less syslog timestamp
    /// against `year`.
    ///
    /// # Errors
    ///
    /// Returns [`ParseLogLineError`] if the line has fewer than five
    /// whitespace-separated fields or the timestamp is malformed.
    pub fn parse_with_year(line: &str, year: i32) -> Result<Self, ParseLogLineError> {
        let fields = LineFields::parse(line, year)?;
        Ok(LogLine {
            time: fields.time,
            host: fields.host.to_owned(),
            tag: fields.tag.to_owned(),
            body: fields.body.to_owned(),
        })
    }
}

/// A syslog line's fields, borrowed from the line: what
/// [`LogLine::parse_with_year`] copies out, and what the lenient scan
/// reads without allocating.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LineFields<'a> {
    pub(crate) time: Timestamp,
    pub(crate) host: &'a str,
    pub(crate) tag: &'a str,
    pub(crate) body: &'a str,
}

impl<'a> LineFields<'a> {
    /// Splits `Mon DD HH:MM:SS host tag: body...` and resolves the stamp
    /// against `year`, with the errors documented on
    /// [`LogLine::parse_with_year`].
    pub(crate) fn parse(line: &'a str, year: i32) -> Result<Self, ParseLogLineError> {
        // A single-digit day is space-padded, so empty pieces are skipped.
        let mut fields = line.splitn(6, ' ').filter(|f| !f.is_empty());
        let mut next = |what| {
            fields
                .next()
                .ok_or_else(|| ParseLogLineError::missing(what))
        };
        let mon = next("empty line")?;
        next("missing day")?;
        let hms = next("missing time")?;
        let host = next("missing host")?;
        let fifth = next("missing tag/body")?;
        // Tag and body are the fifth piece, or, when `splitn` left a sixth,
        // everything from the fifth to the end of the line.
        let start = |field: &str| field.as_ptr() as usize - line.as_ptr() as usize;
        let rest = match fields.next() {
            Some(_) => &line[start(fifth)..],
            None => fifth,
        };
        let (tag, body) = rest
            .split_once(':')
            .map(|(t, b)| (t.trim(), b.trim_start()))
            .unwrap_or((rest.trim(), ""));
        // `parse_syslog` splits on whitespace, so the stamp's three fields
        // can be read with the spaces between them as they stand.
        let stamp = &line[start(mon)..start(hms) + hms.len()];
        let time = Timestamp::parse_syslog(stamp, year).map_err(ParseLogLineError::from)?;
        Ok(LineFields {
            time,
            host,
            tag,
            body,
        })
    }
}

impl fmt::Display for LogLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {}: {}",
            self.time.syslog(),
            self.host,
            self.tag,
            self.body
        )
    }
}

impl FromStr for LogLine {
    type Err = ParseLogLineError;

    /// Parses with a fixed context year of 2024; prefer
    /// [`LogLine::parse_with_year`] in pipeline code where the archive day
    /// supplies the true year.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        LogLine::parse_with_year(s, 2024)
    }
}

/// The structural reason a syslog line failed to parse.
///
/// Lenient readers use this to sort rejects into quarantine categories:
/// a line that is missing whole fields was almost certainly truncated in
/// transit, while a line with all five fields but an unparseable stamp
/// has a corrupted timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LogLineErrorKind {
    /// Fewer than the five mandatory whitespace-separated fields.
    MissingField,
    /// All fields present but the `Mon DD HH:MM:SS` stamp is invalid.
    BadTimestamp,
}

/// Error returned when a syslog line cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseLogLineError {
    kind: LogLineErrorKind,
    what: String,
}

impl ParseLogLineError {
    fn missing(what: impl Into<String>) -> Self {
        ParseLogLineError {
            kind: LogLineErrorKind::MissingField,
            what: what.into(),
        }
    }

    /// The structural reason the parse failed.
    pub fn kind(&self) -> LogLineErrorKind {
        self.kind
    }
}

impl fmt::Display for ParseLogLineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid syslog line: {}", self.what)
    }
}

impl Error for ParseLogLineError {}

impl From<ParseTimestampError> for ParseLogLineError {
    fn from(err: ParseTimestampError) -> Self {
        ParseLogLineError {
            kind: LogLineErrorKind::BadTimestamp,
            what: err.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtime::Duration;

    fn sample_time() -> Timestamp {
        Timestamp::from_ymd_hms(2024, 3, 14, 3, 22, 7).unwrap()
    }

    #[test]
    fn render_parse_roundtrip() {
        let line = LogLine::new(sample_time(), "gpub042", "kernel", "NVRM: Xid: test body");
        let rendered = line.to_string();
        let parsed = LogLine::parse_with_year(&rendered, 2024).unwrap();
        assert_eq!(parsed, line);
    }

    #[test]
    fn roundtrip_single_digit_day() {
        // Single-digit days are space-padded: "May  5" has two spaces.
        let t = Timestamp::from_ymd_hms(2022, 5, 5, 0, 0, 1).unwrap();
        let line = LogLine::new(t, "gpub001", "kernel", "hello world");
        let parsed = LogLine::parse_with_year(&line.to_string(), 2022).unwrap();
        assert_eq!(parsed, line);
    }

    #[test]
    fn tag_without_colon_parses() {
        let raw = "Mar 14 03:22:07 gpub042 healthd all checks passed";
        let parsed = LogLine::parse_with_year(raw, 2024).unwrap();
        // Without a colon the first token after host becomes the whole tag
        // field content; body may absorb the rest.
        assert_eq!(parsed.host, "gpub042");
    }

    #[test]
    fn body_preserves_internal_colons() {
        let raw = "Mar 14 03:22:07 gpub042 kernel: NVRM: Xid (PCI:0000:27:00): 79, detail";
        let parsed = LogLine::parse_with_year(raw, 2024).unwrap();
        assert_eq!(parsed.tag, "kernel");
        assert_eq!(parsed.body, "NVRM: Xid (PCI:0000:27:00): 79, detail");
    }

    #[test]
    fn extra_spaces_split_like_splitn() {
        let parse = |raw: &str| {
            let l = LogLine::parse_with_year(raw, 2024).unwrap();
            (l.host, l.tag, l.body)
        };
        let owned = |h: &str, t: &str, b: &str| (h.to_owned(), t.to_owned(), b.to_owned());
        // A padded day is skipped; the body keeps its own spacing.
        assert_eq!(
            parse("Mar  4 03:22:07 gpub042 kernel:  a  b "),
            owned("gpub042", "kernel", "a  b ")
        );
        // One space ending the line right after the fifth field is
        // dropped, as `splitn` leaves it an empty sixth piece.
        assert_eq!(
            parse("Mar 14 03:22:07 gpub042 kernel:x "),
            owned("gpub042", "kernel", "x")
        );
        assert_eq!(
            parse("Mar 14 03:22:07 gpub042 kernel:x  "),
            owned("gpub042", "kernel", "x  ")
        );
    }

    #[test]
    fn rejects_truncated_lines() {
        for bad in [
            "",
            "Mar",
            "Mar 14",
            "Mar 14 03:22:07",
            "Mar 14 03:22:07 host",
        ] {
            assert!(LogLine::parse_with_year(bad, 2024).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn rejects_bad_timestamp() {
        let raw = "Xyz 14 03:22:07 gpub042 kernel: body";
        assert!(LogLine::parse_with_year(raw, 2024).is_err());
    }

    #[test]
    fn fromstr_uses_2024() {
        let line: LogLine = "Feb 29 12:00:00 gpub001 kernel: leap day".parse().unwrap();
        assert_eq!(line.time.ymd(), (2024, 2, 29));
    }

    #[test]
    fn error_display_mentions_cause() {
        let err = LogLine::parse_with_year("", 2024).unwrap_err();
        assert!(err.to_string().contains("empty line"));
    }

    #[test]
    fn error_kinds_discriminate_truncation_from_bad_stamp() {
        for cut in [
            "",
            "Mar",
            "Mar 14",
            "Mar 14 03:22:07",
            "Mar 14 03:22:07 host",
        ] {
            let err = LogLine::parse_with_year(cut, 2024).unwrap_err();
            assert_eq!(err.kind(), LogLineErrorKind::MissingField, "{cut:?}");
        }
        for bad in [
            "Xyz 14 03:22:07 gpub042 kernel: body",
            "Mar 99 03:22:07 gpub042 kernel: body",
            "Mar 14 03:99:07 gpub042 kernel: body",
        ] {
            let err = LogLine::parse_with_year(bad, 2024).unwrap_err();
            assert_eq!(err.kind(), LogLineErrorKind::BadTimestamp, "{bad:?}");
        }
    }

    #[test]
    fn ordering_by_time_possible_via_field() {
        let a = LogLine::new(sample_time(), "h", "t", "b");
        let b = LogLine::new(sample_time() + Duration::from_secs(1), "h", "t", "b");
        assert!(a.time < b.time);
    }
}
