//! Minimal civil-time handling: [`Timestamp`] and [`Duration`].
//!
//! The DSN'25 Delta study spans 1,170 days (2022-01-01 .. 2025-03-15);
//! everything it computes — MTBE in hours, 20-second attribution windows,
//! per-day log consolidation — needs a total order on instants, civil-date
//! conversion for rendering, and nothing else. Implementing those ~200
//! lines here (using Howard Hinnant's `days_from_civil` algorithm) keeps
//! the whole pipeline dependency-free and bit-reproducible across
//! platforms, which the seeded-experiment workflow requires.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod civiltime;
pub mod periods;

pub use civiltime::{Bucket, Tz};
pub use periods::{Period, Phase, StudyPeriods};

use std::error::Error;
use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};
use std::str::FromStr;

/// Month abbreviations used in syslog timestamps, January first.
const MONTHS: [&str; 12] = [
    "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
];

/// A span of time with second resolution.
///
/// Arithmetic saturates at zero rather than going negative; reliability
/// statistics never need signed spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration {
    secs: u64,
}

impl Duration {
    /// Zero-length span.
    pub const ZERO: Duration = Duration { secs: 0 };

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        Duration { secs }
    }

    /// Creates a duration from whole minutes.
    pub const fn from_mins(mins: u64) -> Self {
        Duration { secs: mins * 60 }
    }

    /// Creates a duration from whole hours.
    pub const fn from_hours(hours: u64) -> Self {
        Duration { secs: hours * 3600 }
    }

    /// Creates a duration from whole days.
    pub const fn from_days(days: u64) -> Self {
        Duration {
            secs: days * 86_400,
        }
    }

    /// The span in whole seconds.
    pub const fn as_secs(self) -> u64 {
        self.secs
    }

    /// The span in fractional minutes.
    pub fn as_mins_f64(self) -> f64 {
        self.secs as f64 / 60.0
    }

    /// The span in fractional hours.
    pub fn as_hours_f64(self) -> f64 {
        self.secs as f64 / 3600.0
    }

    /// The span in fractional days.
    pub fn as_days_f64(self) -> f64 {
        self.secs as f64 / 86_400.0
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (d, rem) = (self.secs / 86_400, self.secs % 86_400);
        let (h, rem) = (rem / 3600, rem % 3600);
        let (m, s) = (rem / 60, rem % 60);
        if d > 0 {
            write!(f, "{d}d{h:02}h{m:02}m{s:02}s")
        } else if h > 0 {
            write!(f, "{h}h{m:02}m{s:02}s")
        } else if m > 0 {
            write!(f, "{m}m{s:02}s")
        } else {
            write!(f, "{s}s")
        }
    }
}

impl Add for Duration {
    type Output = Duration;

    fn add(self, rhs: Duration) -> Duration {
        Duration {
            secs: self.secs + rhs.secs,
        }
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.secs += rhs.secs;
    }
}

impl Sub for Duration {
    type Output = Duration;

    /// Saturating subtraction: never underflows below zero.
    fn sub(self, rhs: Duration) -> Duration {
        Duration {
            secs: self.secs.saturating_sub(rhs.secs),
        }
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        self.secs = self.secs.saturating_sub(rhs.secs);
    }
}

/// An absolute instant, stored as whole seconds since the Unix epoch (UTC).
///
/// Supports Gregorian civil conversion in both directions, syslog
/// (`Mar 14 03:22:07`) and ISO-8601 (`2024-03-14T03:22:07Z`) rendering, and
/// parsing of both formats. Syslog timestamps famously omit the year, so
/// [`Timestamp::parse_syslog`] takes the year from context, exactly like
/// the real consolidation pipeline has to.
///
/// # Example
///
/// ```
/// use simtime::Timestamp;
///
/// let t = Timestamp::from_ymd_hms(2024, 3, 14, 3, 22, 7)?;
/// assert_eq!(t.to_string(), "2024-03-14T03:22:07Z");
/// assert_eq!(t.syslog(), "Mar 14 03:22:07");
/// # Ok::<(), simtime::ParseTimestampError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp {
    secs: u64,
}

impl Timestamp {
    /// The Unix epoch, 1970-01-01T00:00:00Z.
    pub const EPOCH: Timestamp = Timestamp { secs: 0 };

    /// Creates a timestamp from seconds since the Unix epoch.
    pub const fn from_unix(secs: u64) -> Self {
        Timestamp { secs }
    }

    /// Seconds since the Unix epoch.
    pub const fn unix(self) -> u64 {
        self.secs
    }

    /// Creates a timestamp from a civil date and time (UTC).
    ///
    /// # Errors
    ///
    /// Returns [`ParseTimestampError`] if any field is out of range
    /// (including day-of-month validity for the given month/year) or the
    /// date precedes the Unix epoch.
    pub fn from_ymd_hms(
        year: i32,
        month: u32,
        day: u32,
        hour: u32,
        min: u32,
        sec: u32,
    ) -> Result<Self, ParseTimestampError> {
        if !(1..=12).contains(&month) {
            return Err(ParseTimestampError::new(format!(
                "month {month} out of range"
            )));
        }
        if day < 1 || day > days_in_month(year, month) {
            return Err(ParseTimestampError::new(format!(
                "day {day} out of range for {year}-{month:02}"
            )));
        }
        if hour > 23 || min > 59 || sec > 59 {
            return Err(ParseTimestampError::new(format!(
                "time {hour:02}:{min:02}:{sec:02} out of range"
            )));
        }
        let days = days_from_civil(year, month, day);
        if days < 0 {
            return Err(ParseTimestampError::new(format!(
                "{year}-{month:02}-{day:02} precedes the Unix epoch"
            )));
        }
        Ok(Timestamp {
            secs: days as u64 * 86_400 + hour as u64 * 3600 + min as u64 * 60 + sec as u64,
        })
    }

    /// The civil date `(year, month, day)` of this instant (UTC).
    pub fn ymd(self) -> (i32, u32, u32) {
        civil_from_days((self.secs / 86_400) as i64)
    }

    /// The time of day `(hour, minute, second)` of this instant (UTC).
    pub fn hms(self) -> (u32, u32, u32) {
        let rem = self.secs % 86_400;
        (
            (rem / 3600) as u32,
            ((rem % 3600) / 60) as u32,
            (rem % 60) as u32,
        )
    }

    /// The day index since the Unix epoch (for per-day consolidation).
    pub const fn day_number(self) -> u64 {
        self.secs / 86_400
    }

    /// Renders in syslog format: `Mar 14 03:22:07` (day space-padded).
    pub fn syslog(self) -> String {
        let (_, month, day) = self.ymd();
        let (h, m, s) = self.hms();
        format!(
            "{} {day:2} {h:02}:{m:02}:{s:02}",
            MONTHS[(month - 1) as usize]
        )
    }

    /// The 1-based month a syslog stamp's abbreviation names (`Jan` → 1).
    pub fn syslog_month(name: &str) -> Option<u32> {
        MONTHS.iter().position(|&m| m == name).map(|i| i as u32 + 1)
    }

    /// Parses a syslog timestamp, taking the year from context.
    ///
    /// # Errors
    ///
    /// Returns [`ParseTimestampError`] on malformed input or out-of-range
    /// fields.
    pub fn parse_syslog(s: &str, year: i32) -> Result<Self, ParseTimestampError> {
        let mut parts = s.split_whitespace();
        let mon_str = parts
            .next()
            .ok_or_else(|| ParseTimestampError::new("missing month"))?;
        let month = Timestamp::syslog_month(mon_str)
            .ok_or_else(|| ParseTimestampError::new(format!("unknown month {mon_str:?}")))?;
        let day: u32 = parts
            .next()
            .ok_or_else(|| ParseTimestampError::new("missing day"))?
            .parse()
            .map_err(|_| ParseTimestampError::new("bad day"))?;
        let hms = parts
            .next()
            .ok_or_else(|| ParseTimestampError::new("missing time"))?;
        let (h, m, sec) = parse_hms(hms)?;
        Timestamp::from_ymd_hms(year, month, day, h, m, sec)
    }

    /// Adds a span, saturating at the maximum representable instant.
    pub fn saturating_add(self, d: Duration) -> Timestamp {
        Timestamp {
            secs: self.secs.saturating_add(d.secs),
        }
    }

    /// Subtracts a span, saturating at the epoch.
    pub fn saturating_sub(self, d: Duration) -> Timestamp {
        Timestamp {
            secs: self.secs.saturating_sub(d.secs),
        }
    }

    /// The absolute gap between two instants.
    pub fn abs_diff(self, other: Timestamp) -> Duration {
        Duration {
            secs: self.secs.abs_diff(other.secs),
        }
    }
}

impl fmt::Display for Timestamp {
    /// ISO-8601: `2024-03-14T03:22:07Z`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, mo, d) = self.ymd();
        let (h, mi, s) = self.hms();
        write!(f, "{y:04}-{mo:02}-{d:02}T{h:02}:{mi:02}:{s:02}Z")
    }
}

impl FromStr for Timestamp {
    type Err = ParseTimestampError;

    /// Parses ISO-8601 `YYYY-MM-DDTHH:MM:SSZ` (the trailing `Z` optional).
    ///
    /// The exact canonical shape (what [`Display`](fmt::Display) writes)
    /// takes a positional fast path; every other input — padded,
    /// unpadded, signed or multi-`Z` — goes through the general parser.
    /// Both end in [`Timestamp::from_ymd_hms`], so they accept the same
    /// set and report the same errors.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        parse_iso_canonical(s.as_bytes()).unwrap_or_else(|| parse_iso_general(s))
    }
}

/// The fast path of [`Timestamp::from_str`]: `Some` only for exactly
/// `YYYY-MM-DDTHH:MM:SS` with an optional single `Z`, every digit ASCII.
/// The general parser reads the same six numbers from such input.
fn parse_iso_canonical(b: &[u8]) -> Option<Result<Timestamp, ParseTimestampError>> {
    let b = match b.len() {
        19 => b,
        20 if b[19] == b'Z' => &b[..19],
        _ => return None,
    };
    if b[4] != b'-' || b[7] != b'-' || b[10] != b'T' || b[13] != b':' || b[16] != b':' {
        return None;
    }
    let num = |at: usize, len: usize| {
        b[at..at + len].iter().try_fold(0u32, |v, &c| {
            c.is_ascii_digit().then(|| v * 10 + u32::from(c - b'0'))
        })
    };
    Some(Timestamp::from_ymd_hms(
        num(0, 4)? as i32,
        num(5, 2)?,
        num(8, 2)?,
        num(11, 2)?,
        num(14, 2)?,
        num(17, 2)?,
    ))
}

/// The general path of [`Timestamp::from_str`].
fn parse_iso_general(s: &str) -> Result<Timestamp, ParseTimestampError> {
    let s = s.trim().trim_end_matches('Z');
    let (date, time) = s
        .split_once('T')
        .ok_or_else(|| ParseTimestampError::new("expected YYYY-MM-DDTHH:MM:SS"))?;
    let mut dp = date.split('-');
    let year: i32 = dp
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| ParseTimestampError::new("bad year"))?;
    let month: u32 = dp
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| ParseTimestampError::new("bad month"))?;
    let day: u32 = dp
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| ParseTimestampError::new("bad day"))?;
    let (h, m, sec) = parse_hms(time)?;
    Timestamp::from_ymd_hms(year, month, day, h, m, sec)
}

impl Add<Duration> for Timestamp {
    type Output = Timestamp;

    fn add(self, d: Duration) -> Timestamp {
        Timestamp {
            secs: self.secs + d.secs,
        }
    }
}

impl Sub<Duration> for Timestamp {
    type Output = Timestamp;

    /// Saturates at the epoch.
    fn sub(self, d: Duration) -> Timestamp {
        Timestamp {
            secs: self.secs.saturating_sub(d.secs),
        }
    }
}

impl Sub for Timestamp {
    type Output = Duration;

    /// The span from `rhs` to `self`, saturating at zero if `rhs` is later.
    fn sub(self, rhs: Timestamp) -> Duration {
        Duration {
            secs: self.secs.saturating_sub(rhs.secs),
        }
    }
}

/// Error returned when constructing or parsing a [`Timestamp`] fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTimestampError {
    what: String,
}

impl ParseTimestampError {
    fn new(what: impl Into<String>) -> Self {
        ParseTimestampError { what: what.into() }
    }
}

impl fmt::Display for ParseTimestampError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid timestamp: {}", self.what)
    }
}

impl Error for ParseTimestampError {}

/// Parses `HH:MM:SS`.
fn parse_hms(s: &str) -> Result<(u32, u32, u32), ParseTimestampError> {
    let mut tp = s.split(':');
    let h: u32 = tp
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| ParseTimestampError::new("bad hour"))?;
    let m: u32 = tp
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| ParseTimestampError::new("bad minute"))?;
    let sec: u32 = tp
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| ParseTimestampError::new("bad second"))?;
    Ok((h, m, sec))
}

/// Whether `year` is a Gregorian leap year.
pub(crate) fn is_leap(year: i32) -> bool {
    year % 4 == 0 && (year % 100 != 0 || year % 400 == 0)
}

/// Days in the given month.
fn days_in_month(year: i32, month: u32) -> u32 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 if is_leap(year) => 29,
        2 => 28,
        _ => 0,
    }
}

/// Days since 1970-01-01 for a civil date (Howard Hinnant's algorithm).
pub(crate) fn days_from_civil(y: i32, m: u32, d: u32) -> i64 {
    let y = i64::from(y) - i64::from(m <= 2);
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = i64::from((m + 9) % 12); // [0, 11], March = 0
    let doy = (153 * mp + 2) / 5 + i64::from(d) - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
}

/// Civil date for days since 1970-01-01 (inverse of [`days_from_civil`]).
pub(crate) fn civil_from_days(z: i64) -> (i32, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    ((y + i64::from(m <= 2)) as i32, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_1970() {
        assert_eq!(Timestamp::EPOCH.ymd(), (1970, 1, 1));
        assert_eq!(Timestamp::EPOCH.hms(), (0, 0, 0));
    }

    #[test]
    fn known_unix_values() {
        // 2022-01-01T00:00:00Z == 1640995200 (study period start).
        let t = Timestamp::from_ymd_hms(2022, 1, 1, 0, 0, 0).unwrap();
        assert_eq!(t.unix(), 1_640_995_200);
        // 2025-03-15T00:00:00Z == 1741996800 (study period end).
        let t = Timestamp::from_ymd_hms(2025, 3, 15, 0, 0, 0).unwrap();
        assert_eq!(t.unix(), 1_741_996_800);
    }

    #[test]
    fn civil_roundtrip_across_study_period() {
        // Every day of the 1170-day window roundtrips exactly.
        let start = Timestamp::from_ymd_hms(2022, 1, 1, 12, 0, 0).unwrap();
        for day in 0..1170 {
            let t = start + Duration::from_days(day);
            let (y, m, d) = t.ymd();
            let (h, mi, s) = t.hms();
            let back = Timestamp::from_ymd_hms(y, m, d, h, mi, s).unwrap();
            assert_eq!(back, t, "day {day}");
        }
    }

    #[test]
    fn leap_day_2024_is_valid() {
        let t = Timestamp::from_ymd_hms(2024, 2, 29, 23, 59, 59).unwrap();
        assert_eq!(t.ymd(), (2024, 2, 29));
        assert!(Timestamp::from_ymd_hms(2023, 2, 29, 0, 0, 0).is_err());
        assert!(Timestamp::from_ymd_hms(2100, 2, 29, 0, 0, 0).is_err());
    }

    #[test]
    fn field_validation() {
        assert!(Timestamp::from_ymd_hms(2022, 0, 1, 0, 0, 0).is_err());
        assert!(Timestamp::from_ymd_hms(2022, 13, 1, 0, 0, 0).is_err());
        assert!(Timestamp::from_ymd_hms(2022, 4, 31, 0, 0, 0).is_err());
        assert!(Timestamp::from_ymd_hms(2022, 1, 1, 24, 0, 0).is_err());
        assert!(Timestamp::from_ymd_hms(2022, 1, 1, 0, 60, 0).is_err());
        assert!(Timestamp::from_ymd_hms(2022, 1, 1, 0, 0, 60).is_err());
        assert!(Timestamp::from_ymd_hms(1969, 12, 31, 23, 59, 59).is_err());
    }

    #[test]
    fn iso_roundtrip() {
        let t = Timestamp::from_ymd_hms(2024, 3, 14, 3, 22, 7).unwrap();
        let s = t.to_string();
        assert_eq!(s, "2024-03-14T03:22:07Z");
        assert_eq!(s.parse::<Timestamp>().unwrap(), t);
        assert_eq!("2024-03-14T03:22:07".parse::<Timestamp>().unwrap(), t);
        // Padded, unpadded, signed and multi-`Z` inputs miss the fast
        // path and keep the general parser's answers.
        for general in [
            " 2024-03-14T03:22:07Z ",
            "2024-3-14T3:22:7",
            "2024-03-14T03:22:07ZZ",
            "+2024-03-14T03:22:07Z",
            "02024-03-14T03:22:07Z",
        ] {
            assert_eq!(parse_iso_canonical(general.as_bytes()), None, "{general}");
            assert_eq!(general.parse::<Timestamp>(), Ok(t), "{general}");
        }
    }

    #[test]
    fn iso_parse_rejects_garbage() {
        for bad in ["", "2024-03-14", "not a date", "2024-03-14T25:00:00Z"] {
            assert!(bad.parse::<Timestamp>().is_err(), "{bad}");
        }
    }

    /// The canonical-shape fast path agrees with the general parser on
    /// every candidate, `Ok` value and error text alike.
    fn assert_parsers_agree(s: &str) {
        let general = parse_iso_general(s);
        if let Some(fast) = parse_iso_canonical(s.as_bytes()) {
            assert_eq!(fast, general, "{s:?}");
        }
        let parsed = s.parse::<Timestamp>();
        assert_eq!(parsed, general, "{s:?}");
        assert_eq!(
            parsed.map_err(|e| e.to_string()),
            general.map_err(|e| e.to_string()),
            "{s:?}"
        );
    }

    /// A `YYYY-MM-DDTHH:MM:SS[Z]` string with random digits, biased to
    /// the range edges `from_ymd_hms` checks.
    fn canonical_candidate(g: &mut propcheck::Gen) -> String {
        let year = match g.u32_in(0, 4) {
            0 => g.u32_in(1900, 1970),
            1 => g.choose(&[1970, 1972, 2000, 2023, 2024, 2100]),
            _ => g.u32_in(0, 10_000),
        };
        let month = if g.bool() {
            g.choose(&[0, 1, 2, 4, 6, 9, 11, 12, 13])
        } else {
            g.u32_in(0, 100)
        };
        let day = if g.bool() {
            g.choose(&[0, 1, 28, 29, 30, 31, 32])
        } else {
            g.u32_in(0, 100)
        };
        let hour = if g.bool() {
            g.choose(&[0, 23, 24])
        } else {
            g.u32_in(0, 100)
        };
        let (min, sec) = (g.u32_in(0, 100), g.u32_in(0, 100));
        let z = if g.bool() { "Z" } else { "" };
        format!("{year:04}-{month:02}-{day:02}T{hour:02}:{min:02}:{sec:02}{z}")
    }

    #[test]
    fn fast_path_matches_general_parser() {
        // Characters a mutation may write: digits, every separator, case and
        // whitespace variants, a sign, and non-ASCII digits and letters.
        const SUBSTITUTES: [char; 16] = [
            '0', '5', '9', '-', 'T', 't', ':', 'Z', 'z', ' ', '\t', '+', 'x', '٣', '９', 'é',
        ];
        // Every range edge `from_ymd_hms` checks, at least once.
        for edge in [
            "2022-00-01T00:00:00Z",
            "2022-13-01T00:00:00Z",
            "2022-04-31T00:00:00Z",
            "2022-09-31T00:00:00Z",
            "2023-02-29T00:00:00Z",
            "2024-02-29T00:00:00Z",
            "2100-02-29T00:00:00Z",
            "2000-02-29T00:00:00Z",
            "2022-01-01T24:00:00Z",
            "2022-01-01T23:60:00Z",
            "2022-01-01T23:59:60Z",
            "1969-12-31T23:59:59Z",
            "0000-01-01T00:00:00",
            "1970-01-01T00:00:00Z",
        ] {
            assert!(parse_iso_canonical(edge.as_bytes()).is_some(), "{edge}");
            assert_parsers_agree(edge);
        }
        propcheck::run("fast_path_matches_general_parser", 4096, |g| {
            let canonical = canonical_candidate(g);
            assert!(parse_iso_canonical(canonical.as_bytes()).is_some());
            assert_parsers_agree(&canonical);

            let mut chars: Vec<char> = canonical.chars().collect();
            let at = g.usize_in(0, chars.len());
            chars[at] = g.choose(&SUBSTITUTES);
            let mutated: String = chars.iter().collect();
            assert_parsers_agree(&mutated);
            let mut deleted = chars.clone();
            deleted.remove(at);
            assert_parsers_agree(&deleted.iter().collect::<String>());

            let bare = canonical.trim_end_matches('Z');
            for variant in [
                format!(" {canonical}"),
                format!("{canonical} "),
                format!("\t{canonical}\n"),
                bare.to_owned(),
                format!("{bare}Z"),
                format!("{bare}ZZ"),
                format!("{bare}ZZZ"),
            ] {
                assert_parsers_agree(&variant);
            }
        });
    }

    #[test]
    fn syslog_format_pads_day() {
        let t = Timestamp::from_ymd_hms(2022, 5, 5, 1, 2, 3).unwrap();
        assert_eq!(t.syslog(), "May  5 01:02:03");
        let t = Timestamp::from_ymd_hms(2022, 5, 15, 1, 2, 3).unwrap();
        assert_eq!(t.syslog(), "May 15 01:02:03");
    }

    #[test]
    fn syslog_roundtrip_with_year_context() {
        let t = Timestamp::from_ymd_hms(2023, 11, 9, 23, 1, 0).unwrap();
        let parsed = Timestamp::parse_syslog(&t.syslog(), 2023).unwrap();
        assert_eq!(parsed, t);
    }

    #[test]
    fn syslog_parse_rejects_bad_month() {
        assert!(Timestamp::parse_syslog("Foo 14 03:22:07", 2024).is_err());
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(Duration::from_days(1), Duration::from_hours(24));
        assert_eq!(Duration::from_hours(1), Duration::from_mins(60));
        assert_eq!(Duration::from_mins(1), Duration::from_secs(60));
    }

    #[test]
    fn duration_float_views() {
        let d = Duration::from_secs(5400);
        assert!((d.as_hours_f64() - 1.5).abs() < 1e-12);
        assert!((d.as_mins_f64() - 90.0).abs() < 1e-12);
        assert!((Duration::from_days(2).as_days_f64() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn duration_display_forms() {
        assert_eq!(Duration::from_secs(42).to_string(), "42s");
        assert_eq!(Duration::from_secs(62).to_string(), "1m02s");
        assert_eq!(Duration::from_secs(3723).to_string(), "1h02m03s");
        assert_eq!(Duration::from_days(17).to_string(), "17d00h00m00s");
    }

    #[test]
    fn subtraction_saturates() {
        let a = Timestamp::from_unix(100);
        let b = Timestamp::from_unix(200);
        assert_eq!(b - a, Duration::from_secs(100));
        assert_eq!(a - b, Duration::ZERO);
        assert_eq!(a - Duration::from_secs(500), Timestamp::EPOCH);
        assert_eq!(
            Duration::from_secs(3) - Duration::from_secs(5),
            Duration::ZERO
        );
    }

    #[test]
    fn abs_diff_is_symmetric() {
        let a = Timestamp::from_unix(100);
        let b = Timestamp::from_unix(250);
        assert_eq!(a.abs_diff(b), Duration::from_secs(150));
        assert_eq!(b.abs_diff(a), Duration::from_secs(150));
    }

    #[test]
    fn day_number_boundaries() {
        let t = Timestamp::from_ymd_hms(2022, 1, 2, 0, 0, 0).unwrap();
        assert_eq!(
            t.day_number(),
            (t - Duration::from_secs(1)).day_number() + 1
        );
    }

    #[test]
    fn ordering_and_arithmetic() {
        let t = Timestamp::from_unix(1000);
        assert!(t + Duration::from_secs(1) > t);
        let mut d = Duration::from_secs(10);
        d += Duration::from_secs(5);
        assert_eq!(d.as_secs(), 15);
        d -= Duration::from_secs(20);
        assert_eq!(d, Duration::ZERO);
    }
}
