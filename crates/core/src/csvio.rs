//! CSV interchange for job and outage records.
//!
//! The analysis pipeline's real-world inputs arrive as exports — `sacct
//! --parsable`-style job dumps and recovery-tooling outage logs. This
//! module defines a small, documented CSV schema for each and parses it
//! strictly (bad rows are reported with line numbers, not skipped
//! silently — silent data loss is how reliability studies go wrong).
//! For end-to-end runs over untrusted exports, the `_lenient` variants
//! keep every good row and divert bad ones into a
//! [`QuarantineLedger`] instead of aborting.
//!
//! A job row has one decoder, which makes every check, parses the GPU
//! slot field once into slots of the caller's type, and borrows the
//! name from the text. [`JobIndex::from_csv`](crate::impact::JobIndex::from_csv),
//! [`JobIndex::read_csv`](crate::impact::JobIndex::read_csv) and the
//! streaming engine take each decoded row, its slot hosts borrowed too,
//! straight into the index, so no owned row exists; [`parse_jobs`], the
//! lenient parser and a streaming view's partial row build each
//! [`AccountedJob`] through the same decoder.
//!
//! A strict export has one line walker, fed the whole text or, by
//! [`read_outages`] and `JobIndex::read_csv`, the complete lines of each
//! block read from a stream, so an export on disk is never held whole.
//!
//! ## Job schema
//!
//! ```text
//! id,name,submit,start,end,gpus,gpu_slots,state
//! 4242,train_resnet,2023-01-05T10:00:00Z,2023-01-05T10:03:00Z,2023-01-05T12:00:00Z,2,gpub042:0;gpub042:1,COMPLETED
//! ```
//!
//! `gpu_slots` is `host:index` pairs joined with `;` (empty for CPU jobs);
//! `state` is a Slurm state label — `COMPLETED` counts as success,
//! anything else as failure.
//!
//! ## Outage schema
//!
//! ```text
//! host,start,duration_secs
//! gpub042,2023-01-05T13:00:00Z,3180
//! ```

use crate::job::{AccountedJob, OutageRecord};
use hpclog::quarantine::{QuarantineCategory, QuarantineLedger};
use simtime::{Duration, Timestamp};
use std::error::Error;
use std::fmt;
use std::io::{self, Read};

/// Error returned when a CSV export cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvError {
    line: usize,
    what: String,
}

impl CsvError {
    pub(crate) fn new(line: usize, what: impl Into<String>) -> Self {
        CsvError {
            line,
            what: what.into(),
        }
    }

    /// The 1-based line number the error was found on.
    pub fn line(&self) -> usize {
        self.line
    }
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CSV line {}: {}", self.line, self.what)
    }
}

impl Error for CsvError {}

/// Why an export read from a stream was refused.
#[derive(Debug)]
pub enum ReadCsvError {
    /// The read failed, or the bytes are not UTF-8. This wins over a
    /// [`CsvError`] anywhere in the same export, as it would if the
    /// export were read whole before any row was decoded.
    Read(io::Error),
    /// The export was read, and a line of it is malformed.
    Csv(CsvError),
}

/// The job CSV header.
pub const JOB_HEADER: &str = "id,name,submit,start,end,gpus,gpu_slots,state";

/// The outage CSV header.
pub const OUTAGE_HEADER: &str = "host,start,duration_secs";

/// Parses a job export. The first line must be [`JOB_HEADER`].
///
/// # Errors
///
/// Returns [`CsvError`] naming the offending line on any malformed row.
pub fn parse_jobs(text: &str) -> Result<Vec<AccountedJob>, CsvError> {
    let mut jobs = Vec::new();
    strict_rows(text, JOB_HEADER, |raw, line_no| {
        jobs.push(parse_job_row(raw, line_no)?);
        Ok(())
    })?;
    Ok(jobs)
}

/// Decodes a job export row by row without owning any of it: each
/// checked row goes to `each` in input order, its name and slot hosts
/// borrowed from the line. Returns the row handler for [`strict_rows`] or
/// [`read_rows`]; the export fails with the error [`parse_jobs`] returns
/// on the same text, at the first malformed line, after the rows before
/// it have gone to `each`.
pub(crate) fn job_rows(
    mut each: impl FnMut(&JobRow<'_>),
) -> impl FnMut(&str, usize) -> Result<(), CsvError> {
    // One slot buffer serves every row, emptied between rows.
    let mut slots = Vec::new();
    move |raw, line_no| {
        let row = JobRow::decode(
            raw,
            line_no,
            reuse(std::mem::take(&mut slots)),
            |host, gpu| (host, gpu),
        )?;
        each(&row);
        slots = reuse(row.slots);
        Ok(())
    }
}

/// `slots`, emptied, as a buffer for slots borrowed from another line.
/// Collecting a `Vec`'s own iterator into a `Vec` of a same-sized type
/// keeps its allocation.
fn reuse<'b>(mut slots: Vec<(&str, u8)>) -> Vec<(&'b str, u8)> {
    slots.clear();
    slots.into_iter().map(|_| unreachable!("emptied")).collect()
}

/// Checks the header line of `text` against `header`, then hands every
/// non-blank row after it, with its 1-based line number, to `row`,
/// stopping at the first error.
pub(crate) fn strict_rows(
    text: &str,
    header: &str,
    row: impl FnMut(&str, usize) -> Result<(), CsvError>,
) -> Result<(), CsvError> {
    let mut walk = StrictRows::new(header, row);
    walk.lines(text);
    walk.finish()
}

/// The block an export is read through by [`read_rows`]: one buffer for
/// the whole export, grown only to hold a line longer than itself.
const BLOCK: usize = 64 * 1024;

/// [`strict_rows`] over an export read from `reader` through one reused
/// [`BLOCK`]-sized buffer, so the export is never held whole. Each block's
/// complete lines are checked as UTF-8 and walked; a line cut by the
/// block's end waits for the rest of its bytes (`\n` never occurs inside
/// a multi-byte sequence).
///
/// After a CSV error the rest of the export is still read and checked, no
/// row decoded, so a read or UTF-8 error anywhere in it is the error, as
/// it is when the export is read whole first.
///
/// # Errors
///
/// [`ReadCsvError::Read`] on a failed read or bytes that are not UTF-8
/// (`InvalidData`, with the text `std::fs::read_to_string` gives), else
/// [`ReadCsvError::Csv`] with [`strict_rows`]' error on the same text.
pub(crate) fn read_rows(
    mut reader: impl Read,
    header: &str,
    row: impl FnMut(&str, usize) -> Result<(), CsvError>,
) -> Result<(), ReadCsvError> {
    let mut walk = StrictRows::new(header, row);
    let mut buf = vec![0; BLOCK];
    // `buf[..held]` is the start of a line whose end is not read yet.
    let mut held = 0;
    loop {
        if held == buf.len() {
            buf.resize(2 * buf.len(), 0);
        }
        let read = match reader.read(&mut buf[held..]) {
            Ok(0) => break,
            Ok(read) => read,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ReadCsvError::Read(e)),
        };
        let filled = held + read;
        match buf[held..filled].iter().rposition(|&b| b == b'\n') {
            Some(last) => {
                let cut = held + last + 1;
                walk.lines(utf8(&buf[..cut])?);
                buf.copy_within(cut..filled, 0);
                held = filled - cut;
            }
            None => held = filled,
        }
    }
    walk.lines(utf8(&buf[..held])?);
    walk.finish().map_err(ReadCsvError::Csv)
}

/// `bytes` as text, or the read error `std::fs::read_to_string` gives
/// for bytes that are not UTF-8.
fn utf8(bytes: &[u8]) -> Result<&str, ReadCsvError> {
    std::str::from_utf8(bytes).map_err(|_| {
        ReadCsvError::Read(io::Error::new(
            io::ErrorKind::InvalidData,
            "stream did not contain valid UTF-8",
        ))
    })
}

/// The one strict walk over an export's lines, fed in pieces that each
/// end at a line boundary or at the end of the export. Lines split as
/// `str::lines` splits them (the pieces end after an LF, so walking each
/// piece walks the whole text's lines): line 1 must be the header, blank
/// lines are skipped but numbered, and the first error stops the rows.
struct StrictRows<'h, F> {
    header: &'h str,
    /// Lines walked so far.
    lines: usize,
    row: F,
    /// The first error; no row is decoded after it.
    failed: Option<CsvError>,
}

impl<'h, F: FnMut(&str, usize) -> Result<(), CsvError>> StrictRows<'h, F> {
    fn new(header: &'h str, row: F) -> Self {
        StrictRows {
            header,
            lines: 0,
            row,
            failed: None,
        }
    }

    /// Walks the lines of the next piece.
    fn lines(&mut self, piece: &str) {
        if self.failed.is_some() {
            return;
        }
        for raw in piece.lines() {
            self.lines += 1;
            let checked = if self.lines == 1 {
                if raw.trim() == self.header {
                    Ok(())
                } else {
                    Err(CsvError::new(
                        1,
                        format!("expected header {:?}, got {raw:?}", self.header),
                    ))
                }
            } else if raw.trim().is_empty() {
                Ok(())
            } else {
                (self.row)(raw, self.lines)
            };
            if let Err(e) = checked {
                self.failed = Some(e);
                return;
            }
        }
    }

    /// The first error, or `empty input` when there was no line at all.
    fn finish(self) -> Result<(), CsvError> {
        match self.failed {
            Some(e) => Err(e),
            None if self.lines == 0 => Err(CsvError::new(1, "empty input")),
            None => Ok(()),
        }
    }
}

/// Splits a row on `,` into exactly `N` fields, or reports the number of
/// fields the row actually has.
fn split_fields<const N: usize>(raw: &str, line_no: usize) -> Result<[&str; N], CsvError> {
    let mut fields = [""; N];
    let mut count = 0;
    for field in raw.split(',') {
        if let Some(slot) = fields.get_mut(count) {
            *slot = field;
        }
        count += 1;
    }
    if count != N {
        return Err(CsvError::new(
            line_no,
            format!("expected {N} fields, got {count}"),
        ));
    }
    Ok(fields)
}

pub(crate) fn parse_job_row(raw: &str, line_no: usize) -> Result<AccountedJob, CsvError> {
    let row = JobRow::decode(raw, line_no, Vec::new(), |host, gpu| (host.to_owned(), gpu))?;
    Ok(AccountedJob {
        id: row.id,
        name: row.name.to_owned(),
        submit: row.submit,
        start: row.start,
        end: row.end,
        gpus: row.gpus,
        gpu_slots: row.slots,
        completed: row.completed,
    })
}

/// One row of a job export that passed every check the schema sets
/// (eight fields, numeric id and GPU count, parseable times with
/// `submit <= start <= end`, `host:index` slot pairs), borrowing its
/// name from the export's text. Each slot is a `T`: [`job_rows`]
/// yields rows whose slots borrow their hosts; an [`AccountedJob`] owns
/// them.
#[derive(Debug)]
pub(crate) struct JobRow<'a, T = (&'a str, u8)> {
    pub(crate) id: u64,
    pub(crate) name: &'a str,
    pub(crate) submit: Timestamp,
    pub(crate) start: Timestamp,
    pub(crate) end: Timestamp,
    pub(crate) gpus: u32,
    pub(crate) completed: bool,
    /// One `slot(host, index)` per `host:index` pair, in field order.
    pub(crate) slots: Vec<T>,
}

impl<'a, T> JobRow<'a, T> {
    /// Decodes the data row at `line_no`, or names its first failed
    /// check. `slots` is cleared and takes one `slot(host, index)` per
    /// GPU slot, the field parsed once; when it has no room for them it
    /// is replaced by a `Vec` of exactly their count, so a fresh one is
    /// allocated at its exact size.
    pub(crate) fn decode(
        raw: &'a str,
        line_no: usize,
        mut slots: Vec<T>,
        slot: impl Fn(&'a str, u8) -> T,
    ) -> Result<Self, CsvError> {
        let fields: [&str; 8] = split_fields(raw, line_no)?;
        let id: u64 = fields[0]
            .parse()
            .map_err(|_| CsvError::new(line_no, format!("bad id {:?}", fields[0])))?;
        let time = |s: &str, what: &str| {
            s.parse::<Timestamp>()
                .map_err(|e| CsvError::new(line_no, format!("bad {what}: {e}")))
        };
        let submit = time(fields[2], "submit")?;
        let start = time(fields[3], "start")?;
        let end = time(fields[4], "end")?;
        if end < start || start < submit {
            return Err(CsvError::new(
                line_no,
                "times must satisfy submit <= start <= end",
            ));
        }
        let gpus: u32 = fields[5]
            .parse()
            .map_err(|_| CsvError::new(line_no, format!("bad gpus {:?}", fields[5])))?;
        slots.clear();
        if !fields[6].trim().is_empty() {
            let count = fields[6].bytes().filter(|&b| b == b';').count() + 1;
            if slots.capacity() < count {
                slots = Vec::with_capacity(count);
            }
            for pair in fields[6].split(';') {
                let (host, idx) = pair
                    .split_once(':')
                    .ok_or_else(|| CsvError::new(line_no, format!("bad gpu slot {pair:?}")))?;
                let idx: u8 = idx
                    .parse()
                    .map_err(|_| CsvError::new(line_no, format!("bad gpu index in {pair:?}")))?;
                slots.push(slot(host, idx));
            }
        }
        Ok(JobRow {
            id,
            name: fields[1],
            submit,
            start,
            end,
            gpus,
            completed: fields[7].trim() == "COMPLETED",
            slots,
        })
    }
}

/// Renders jobs in the [`JOB_HEADER`] schema (the inverse of
/// [`parse_jobs`]).
pub fn render_jobs(jobs: &[AccountedJob]) -> String {
    let mut out = String::from(JOB_HEADER);
    out.push('\n');
    for j in jobs {
        let slots: Vec<String> = j
            .gpu_slots
            .iter()
            .map(|(h, i)| format!("{h}:{i}"))
            .collect();
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{}\n",
            j.id,
            j.name,
            j.submit,
            j.start,
            j.end,
            j.gpus,
            slots.join(";"),
            if j.completed { "COMPLETED" } else { "FAILED" }
        ));
    }
    out
}

/// Parses an outage export. The first line must be [`OUTAGE_HEADER`].
///
/// # Errors
///
/// Returns [`CsvError`] naming the offending line on any malformed row.
pub fn parse_outages(text: &str) -> Result<Vec<OutageRecord>, CsvError> {
    let mut outages = Vec::new();
    strict_rows(text, OUTAGE_HEADER, outage_rows(&mut outages))?;
    Ok(outages)
}

/// [`parse_outages`] over an export read from `reader` through one
/// reused fixed-size block, as
/// [`JobIndex::read_csv`](crate::impact::JobIndex::read_csv) reads a job
/// export.
///
/// # Errors
///
/// [`ReadCsvError::Read`] when a read fails or the bytes are not UTF-8,
/// anywhere in the export; else [`ReadCsvError::Csv`] with the error
/// [`parse_outages`] returns on the same text.
pub fn read_outages(reader: impl Read) -> Result<Vec<OutageRecord>, ReadCsvError> {
    let mut outages = Vec::new();
    read_rows(reader, OUTAGE_HEADER, outage_rows(&mut outages))?;
    Ok(outages)
}

/// Parses each outage row onto `outages`.
pub(crate) fn outage_rows(
    outages: &mut Vec<OutageRecord>,
) -> impl FnMut(&str, usize) -> Result<(), CsvError> + '_ {
    move |raw, line_no| {
        outages.push(parse_outage_row(raw, line_no)?);
        Ok(())
    }
}

pub(crate) fn parse_outage_row(raw: &str, line_no: usize) -> Result<OutageRecord, CsvError> {
    let fields: [&str; 3] = split_fields(raw, line_no)?;
    let start = fields[1]
        .parse::<Timestamp>()
        .map_err(|e| CsvError::new(line_no, format!("bad start: {e}")))?;
    let secs: u64 = fields[2]
        .trim()
        .parse()
        .map_err(|_| CsvError::new(line_no, format!("bad duration {:?}", fields[2])))?;
    Ok(OutageRecord {
        host: fields[0].to_owned(),
        start,
        duration: Duration::from_secs(secs),
    })
}

/// Parses a job export like [`parse_jobs`], but never fails: rows that do
/// not parse (and a wrong or missing header) are recorded in `ledger`
/// under [`QuarantineCategory::BadRecord`] and skipped, and every row that
/// does parse is kept.
pub fn parse_jobs_lenient(text: &str, ledger: &mut QuarantineLedger) -> Vec<AccountedJob> {
    parse_rows_lenient(text, JOB_HEADER, ledger, parse_job_row)
}

/// Parses an outage export like [`parse_outages`], but never fails; see
/// [`parse_jobs_lenient`] for the reject semantics.
pub fn parse_outages_lenient(text: &str, ledger: &mut QuarantineLedger) -> Vec<OutageRecord> {
    parse_rows_lenient(text, OUTAGE_HEADER, ledger, parse_outage_row)
}

fn parse_rows_lenient<T>(
    text: &str,
    header: &str,
    ledger: &mut QuarantineLedger,
    parse_row: fn(&str, usize) -> Result<T, CsvError>,
) -> Vec<T> {
    let mut lines = text.lines().enumerate().peekable();
    match lines.peek() {
        Some((_, first)) if first.trim() == header => {
            lines.next();
        }
        Some((_, first)) => {
            // A wrong header is itself a bad record, but the rows below it
            // may still be sound — keep going.
            ledger.record(QuarantineCategory::BadRecord, 1, first.as_bytes());
            lines.next();
        }
        None => return Vec::new(),
    }
    let mut records = Vec::new();
    for (i, raw) in lines {
        let line_no = i + 1;
        if raw.trim().is_empty() {
            continue;
        }
        match parse_row(raw, line_no) {
            Ok(record) => records.push(record),
            Err(_) => ledger.record(
                QuarantineCategory::BadRecord,
                line_no as u64,
                raw.as_bytes(),
            ),
        }
    }
    records
}

/// Renders outages in the [`OUTAGE_HEADER`] schema.
pub fn render_outages(outages: &[OutageRecord]) -> String {
    let mut out = String::from(OUTAGE_HEADER);
    out.push('\n');
    for o in outages {
        out.push_str(&format!(
            "{},{},{}\n",
            o.host,
            o.start,
            o.duration.as_secs()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_job() -> AccountedJob {
        AccountedJob {
            id: 42,
            name: "train_resnet".to_owned(),
            submit: Timestamp::from_ymd_hms(2023, 1, 5, 10, 0, 0).unwrap(),
            start: Timestamp::from_ymd_hms(2023, 1, 5, 10, 3, 0).unwrap(),
            end: Timestamp::from_ymd_hms(2023, 1, 5, 12, 0, 0).unwrap(),
            gpus: 2,
            gpu_slots: vec![("gpub042".to_owned(), 0), ("gpub042".to_owned(), 1)],
            completed: true,
        }
    }

    #[test]
    fn job_roundtrip() {
        let jobs = vec![
            sample_job(),
            AccountedJob {
                id: 43,
                gpus: 0,
                gpu_slots: Vec::new(),
                completed: false,
                ..sample_job()
            },
        ];
        let csv = render_jobs(&jobs);
        let back = parse_jobs(&csv).unwrap();
        assert_eq!(back, jobs);
    }

    #[test]
    fn outage_roundtrip() {
        let outages = vec![OutageRecord {
            host: "gpub042".to_owned(),
            start: Timestamp::from_ymd_hms(2023, 1, 5, 13, 0, 0).unwrap(),
            duration: Duration::from_secs(3180),
        }];
        let csv = render_outages(&outages);
        assert_eq!(parse_outages(&csv).unwrap(), outages);
    }

    #[test]
    fn job_errors_carry_line_numbers() {
        let bad_header = parse_jobs("wrong\n").unwrap_err();
        assert_eq!(bad_header.line(), 1);

        let csv = format!(
            "{JOB_HEADER}\n1,a,notatime,2023-01-05T10:03:00Z,2023-01-05T12:00:00Z,1,,COMPLETED\n"
        );
        let err = parse_jobs(&csv).unwrap_err();
        assert_eq!(err.line(), 2);
        assert!(err.to_string().contains("submit"), "{err}");
    }

    #[test]
    fn job_field_count_checked() {
        let good = "42,train_resnet,2023-01-05T10:00:00Z,2023-01-05T10:03:00Z,2023-01-05T12:00:00Z,2,gpub042:0;gpub042:1,COMPLETED";
        for (row, want) in [
            ("1,a,b".to_owned(), "expected 8 fields, got 3"),
            (format!("{good},extra"), "expected 8 fields, got 9"),
            (format!("{good},"), "expected 8 fields, got 9"),
            (",,,,,,,,,,,,".to_owned(), "expected 8 fields, got 13"),
        ] {
            let err = parse_jobs(&format!("{JOB_HEADER}\n{row}\n")).unwrap_err();
            assert_eq!(err.to_string(), format!("CSV line 2: {want}"), "{row:?}");
            let err = parse_job_row(&row, 7).unwrap_err();
            assert_eq!(err.to_string(), format!("CSV line 7: {want}"), "{row:?}");
        }
        let good = "gpub042,2023-01-05T13:00:00Z,3180";
        for (row, want) in [
            (
                "gpub042,2023-01-05T13:00:00Z".to_owned(),
                "expected 3 fields, got 2",
            ),
            (format!("{good},x"), "expected 3 fields, got 4"),
            (format!("{good},"), "expected 3 fields, got 4"),
            ("gpub042".to_owned(), "expected 3 fields, got 1"),
        ] {
            let err = parse_outages(&format!("{OUTAGE_HEADER}\n{row}\n")).unwrap_err();
            assert_eq!(err.to_string(), format!("CSV line 2: {want}"), "{row:?}");
        }
    }

    #[test]
    fn job_time_ordering_checked() {
        let csv = format!(
            "{JOB_HEADER}\n1,a,2023-01-05T10:00:00Z,2023-01-05T09:00:00Z,2023-01-05T12:00:00Z,1,,FAILED\n"
        );
        let err = parse_jobs(&csv).unwrap_err();
        assert!(err.to_string().contains("submit <= start"), "{err}");
    }

    #[test]
    fn bad_slots_rejected() {
        let csv = format!(
            "{JOB_HEADER}\n1,a,2023-01-05T10:00:00Z,2023-01-05T10:00:00Z,2023-01-05T12:00:00Z,1,gpub042,FAILED\n"
        );
        assert!(parse_jobs(&csv).is_err());
        let csv = format!(
            "{JOB_HEADER}\n1,a,2023-01-05T10:00:00Z,2023-01-05T10:00:00Z,2023-01-05T12:00:00Z,1,gpub042:x,FAILED\n"
        );
        assert!(parse_jobs(&csv).is_err());
    }

    #[test]
    fn blank_lines_skipped() {
        let csv = format!("{JOB_HEADER}\n\n\n");
        assert!(parse_jobs(&csv).unwrap().is_empty());
        let csv = format!("{OUTAGE_HEADER}\n\n");
        assert!(parse_outages(&csv).unwrap().is_empty());
    }

    #[test]
    fn empty_input_is_an_error() {
        assert!(parse_jobs("").is_err());
        assert!(parse_outages("").is_err());
    }

    #[test]
    fn outage_errors_carry_line_numbers() {
        let csv = format!("{OUTAGE_HEADER}\ngpub001,2023-01-05T13:00:00Z,abc\n");
        let err = parse_outages(&csv).unwrap_err();
        assert_eq!(err.line(), 2);
    }

    #[test]
    fn lenient_keeps_good_rows_and_quarantines_bad() {
        let good = "42,train_resnet,2023-01-05T10:00:00Z,2023-01-05T10:03:00Z,2023-01-05T12:00:00Z,2,gpub042:0;gpub042:1,COMPLETED";
        let csv = format!("{JOB_HEADER}\n{good}\nnot,a,row\n{good}\n");
        let mut ledger = QuarantineLedger::new();
        let jobs = parse_jobs_lenient(&csv, &mut ledger);
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs, vec![sample_job(), sample_job()]);
        assert_eq!(ledger.counts().get(QuarantineCategory::BadRecord), 1);
        // The exemplar points at the offending physical line.
        assert_eq!(ledger.exemplars()[0].line_no, 3);
    }

    #[test]
    fn lenient_flags_wrong_header_but_still_reads_rows() {
        let csv = "bogus header\ngpub001,2023-01-05T13:00:00Z,600\n";
        let mut ledger = QuarantineLedger::new();
        let outages = parse_outages_lenient(csv, &mut ledger);
        assert_eq!(outages.len(), 1);
        assert_eq!(ledger.counts().get(QuarantineCategory::BadRecord), 1);
    }

    #[test]
    fn lenient_empty_input_is_empty_not_an_error() {
        let mut ledger = QuarantineLedger::new();
        assert!(parse_jobs_lenient("", &mut ledger).is_empty());
        assert!(parse_outages_lenient("", &mut ledger).is_empty());
        assert!(ledger.is_empty());
    }

    #[test]
    fn lenient_matches_strict_on_clean_input() {
        let jobs = vec![sample_job()];
        let csv = render_jobs(&jobs);
        let mut ledger = QuarantineLedger::new();
        assert_eq!(
            parse_jobs_lenient(&csv, &mut ledger),
            parse_jobs(&csv).unwrap()
        );
        assert!(ledger.is_empty());
    }

    #[test]
    fn non_completed_states_are_failures() {
        for state in ["FAILED", "CANCELLED", "TIMEOUT", "NODE_FAIL"] {
            let csv = format!(
                "{JOB_HEADER}\n1,a,2023-01-05T10:00:00Z,2023-01-05T10:00:00Z,2023-01-05T12:00:00Z,1,,{state}\n"
            );
            assert!(!parse_jobs(&csv).unwrap()[0].completed, "{state}");
        }
    }
}
