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
#[derive(Debug, Clone, Copy, PartialEq)]
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
    ///
    /// A line in the canonical layout takes a fixed-offset fast path;
    /// every other line, and every stamp the fast path cannot resolve,
    /// goes through the general parser, which reads the same fields from
    /// a canonical line and owns every error.
    pub(crate) fn parse(line: &'a str, year: i32) -> Result<Self, ParseLogLineError> {
        match Self::parse_canonical(line, year) {
            Some(fields) => Ok(fields),
            None => Self::parse_general(line, year),
        }
    }

    /// The fast path of [`parse`](Self::parse): `Some` only for the month
    /// at bytes 0..3, the day at 4..6 (two digits or space-padded),
    /// `HH:MM:SS` at 7..15, the host from 16 to the next space and a rest
    /// that is not empty and does not start with a space, with a date
    /// [`Timestamp::from_ymd_hms`] accepts.
    fn parse_canonical(line: &'a str, year: i32) -> Option<Self> {
        let b = line.as_bytes();
        if b.len() < 19
            || b[3] != b' '
            || b[6] != b' '
            || b[9] != b':'
            || b[12] != b':'
            || b[15] != b' '
            || b[16] == b' '
        {
            return None;
        }
        let digit = |at: usize| b[at].is_ascii_digit().then(|| u32::from(b[at] - b'0'));
        let two = |at: usize| Some(digit(at)? * 10 + digit(at + 1)?);
        let padded = b[4] == b' ';
        let day = if padded { digit(5)? } else { two(4)? };
        // Byte 3 is a space, so `..3` ends on a char boundary.
        let month = Timestamp::syslog_month(&line[..3])?;
        let time = Timestamp::from_ymd_hms(year, month, day, two(7)?, two(10)?, two(13)?).ok()?;
        let host_len = b[16..].iter().position(|&c| c == b' ')?;
        let host = &line[16..16 + host_len];
        let mut rest = &line[17 + host_len..];
        if rest.is_empty() || rest.starts_with(' ') {
            return None;
        }
        // With a two-digit day the rest is `splitn`'s fifth and sixth
        // pieces; when its only space ends it, the sixth is empty and the
        // general parser drops it with that space.
        if !padded && rest.find(' ') == Some(rest.len() - 1) {
            rest = &rest[..rest.len() - 1];
        }
        let (tag, body) = split_tag(rest);
        Some(LineFields {
            time,
            host,
            tag,
            body,
        })
    }

    /// The general path of [`parse`](Self::parse): any spacing, and every
    /// error.
    fn parse_general(line: &'a str, year: i32) -> Result<Self, ParseLogLineError> {
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
        let (tag, body) = split_tag(rest);
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

/// Splits `tag: body` at the first colon; without one the whole rest is
/// the tag.
fn split_tag(rest: &str) -> (&str, &str) {
    rest.split_once(':')
        .map(|(t, b)| (t.trim(), b.trim_start()))
        .unwrap_or((rest.trim(), ""))
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

    /// A line in the canonical layout: a real or near-miss month, a day
    /// two-digit, zero- or space-padded, any two-digit clock (out of range
    /// too), and a host and rest with the spaces and colons that move
    /// `splitn`'s pieces.
    fn canonical_line(g: &mut propcheck::Gen) -> String {
        let month = g.choose(&["Jan", "Feb", "Mar", "Jun", "Sep", "Dec", "Foo", "mar"]);
        let day = g.u32_in(0, 33);
        let day = match g.u32_in(0, 3) {
            0 => format!("{day:2}"),
            1 => format!("{day:02}"),
            _ => format!("{:2}", day % 10),
        };
        let clock = |g: &mut propcheck::Gen, hi| g.u32_in(0, hi);
        let (h, m, s) = (clock(g, 26), clock(g, 62), clock(g, 62));
        let host = g.string_of(b"gpub0123:-", 1, 9);
        let rest = g.string_of(b"kernl: NVRMXid,0123 \t", 1, 40);
        format!("{month} {day} {h:02}:{m:02}:{s:02} {host} {rest}")
    }

    /// One byte replaced, inserted or removed, or the line cut short;
    /// only mutations that leave valid UTF-8 are kept.
    fn mutate(g: &mut propcheck::Gen, line: &str) -> String {
        let mut bytes = line.as_bytes().to_vec();
        let at = g.usize_in(0, bytes.len());
        let byte = g.choose(b" :0129aZ\t\xC3");
        match g.u32_in(0, 4) {
            0 => bytes[at] = byte,
            1 => bytes.insert(at, byte),
            2 => {
                bytes.remove(at);
            }
            _ => bytes.truncate(at),
        }
        String::from_utf8(bytes).unwrap_or_else(|_| line.to_owned())
    }

    #[test]
    fn the_fast_path_answers_as_the_general_parser_does() {
        let mut answered = 0;
        propcheck::run("canonical syslog fast path", 2000, |g| {
            let year = g.choose(&[2022, 2023, 2024]);
            let line = canonical_line(g);
            let mutated = mutate(g, &line);
            for line in [&line, &mutated] {
                let general = LineFields::parse_general(line, year);
                if let Some(fast) = LineFields::parse_canonical(line, year) {
                    answered += 1;
                    assert_eq!(Ok(fast), general, "{line:?}");
                }
                assert_eq!(LineFields::parse(line, year), general, "{line:?}");
            }
            // A canonical line whose date is real and whose rest does not
            // start with a space always takes the fast path.
            let (_, rest) = line[16..].split_once(' ').expect("a host, then the rest");
            if LineFields::parse_general(&line, year).is_ok() && !rest.starts_with(' ') {
                assert!(
                    LineFields::parse_canonical(&line, year).is_some(),
                    "{line:?}"
                );
            }
        });
        assert!(answered > 500, "fast path answered {answered} lines");
    }

    #[test]
    fn ordering_by_time_possible_via_field() {
        let a = LogLine::new(sample_time(), "h", "t", "b");
        let b = LogLine::new(sample_time() + Duration::from_secs(1), "h", "t", "b");
        assert!(a.time < b.time);
    }
}
