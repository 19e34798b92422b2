//! Shared command-line infrastructure for `delta_cli` and `delta_serve`.
//!
//! The binaries historically carried private copies of flag parsing, log
//! collection and file I/O, each reporting failures as bare `String`s.
//! This module is the single home for that plumbing, built around a typed
//! error taxonomy ([`CliError`]) so every failure path — a missing file, a
//! malformed CSV, an unwritable `--metrics-out` target — reports cleanly
//! instead of panicking or stringifying early.
//!
//! It also owns the one batch loader, [`load_study`]: `delta-cli analyze`
//! and batch `delta-serve` read their day files and CSV exports through
//! it, so both run the same Stage I (the lenient scan, with its year
//! rule), [`Pipeline::coalesce_events`] and [`Pipeline::assemble_indexed`].
//! The main thread first lists the day files and picks the starting year,
//! so a missing log path fails before any export is opened. Then two
//! threads share the work: the main thread scans the logs and coalesces
//! their events, a helper starts on `--jobs`, and whichever thread is
//! free claims the next export. Each export is streamed from disk in
//! fixed-size blocks and decoded row by row, a job row straight into its
//! [`JobIndex`], so the batch path holds neither an export's text nor its
//! rows, and builds no index after the join.
//!
//! It also owns the observability surface of the binaries:
//! [`MetricsSink`] interprets the `--metrics-out` / `--metrics-format`
//! flags, enables the global [`obs`] registry for the run, and renders the
//! final [`obs::ObsReport`] as Prometheus text or JSON.

use hpclog::extract::ExtractStats;
use hpclog::quarantine::QuarantineLedger;
use hpclog::stream::LenientScan;
use hpclog::{LogLine, Timestamp, XidEvent};
use resilience::csvio::ReadCsvError;
use resilience::error::{CsvInput, PipelineError};
use resilience::impact::JobIndex;
use resilience::{CoalescedError, OutageRecord, Pipeline, QuarantineReport, StudyReport};
use std::fmt;
use std::fs::File;
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Everything that can go wrong between `main()` and the pipeline.
///
/// The taxonomy separates *how the user invoked us* ([`Usage`]) from *what
/// the filesystem did* ([`Io`]) from *what the data contained*
/// ([`Invalid`], [`Pipeline`]), so callers can decide
/// whether to print usage help and exit codes stay honest.
///
/// [`Usage`]: CliError::Usage
/// [`Io`]: CliError::Io
/// [`Invalid`]: CliError::Invalid
/// [`Pipeline`]: CliError::Pipeline
#[derive(Debug)]
pub enum CliError {
    /// The command line itself was malformed (unknown flag shape, missing
    /// value, missing required argument). `main` prints usage after these.
    Usage(String),
    /// A filesystem operation failed, with the verb and path that failed.
    Io {
        /// What we were doing, e.g. `"reading"` or `"writing metrics to"`.
        action: &'static str,
        /// The path the operation targeted.
        path: PathBuf,
        /// The underlying I/O error.
        source: io::Error,
    },
    /// An input file was read fine but its contents were invalid.
    Invalid(String),
    /// The analysis pipeline rejected its inputs (CSV schema errors carry
    /// the offending export and line number).
    Pipeline(PipelineError),
    /// The serving subsystem failed to start (bind errors and friends).
    Serve(servd::ServeError),
    /// The live-ingest subsystem failed to recover or persist its state.
    Ingest(servd::IngestError),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Io {
                action,
                path,
                source,
            } => write!(f, "{action} {}: {source}", path.display()),
            CliError::Invalid(msg) => write!(f, "{msg}"),
            CliError::Pipeline(e) => write!(f, "{e}"),
            CliError::Serve(e) => write!(f, "serve: {e}"),
            CliError::Ingest(e) => write!(f, "ingest: {e}"),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Io { source, .. } => Some(source),
            CliError::Pipeline(e) => Some(e),
            CliError::Serve(e) => Some(e),
            CliError::Ingest(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PipelineError> for CliError {
    fn from(e: PipelineError) -> Self {
        CliError::Pipeline(e)
    }
}

impl From<servd::ServeError> for CliError {
    fn from(e: servd::ServeError) -> Self {
        CliError::Serve(e)
    }
}

impl From<servd::IngestError> for CliError {
    fn from(e: servd::IngestError) -> Self {
        CliError::Ingest(e)
    }
}

/// Minimal flag parser output: positionals plus `--flag value` / `--flag`.
#[derive(Debug)]
pub struct Flags {
    /// Non-flag arguments, in order.
    pub positionals: Vec<String>,
    options: Vec<(String, Option<String>)>,
}

/// Parses `args` into [`Flags`]. Flags listed in `value_flags` consume the
/// following argument as their value; all other `--flags` are boolean.
pub fn parse_flags(args: &[String], value_flags: &[&str]) -> Result<Flags, CliError> {
    let mut positionals = Vec::new();
    let mut options = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if let Some(name) = arg.strip_prefix("--") {
            if value_flags.contains(&name) {
                let value = it
                    .next()
                    .ok_or_else(|| CliError::Usage(format!("--{name} needs a value")))?
                    .clone();
                options.push((name.to_owned(), Some(value)));
            } else {
                options.push((name.to_owned(), None));
            }
        } else {
            positionals.push(arg.clone());
        }
    }
    Ok(Flags {
        positionals,
        options,
    })
}

impl Flags {
    /// The last value given for `--name`, if any (later values win).
    pub fn value(&self, name: &str) -> Option<&str> {
        self.options
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// Whether `--name` appeared at all.
    pub fn has(&self, name: &str) -> bool {
        self.options.iter().any(|(n, _)| n == name)
    }
}

/// Parses `--name`'s value as a number, falling back to `default` when
/// the flag is absent and reporting a clean usage error when it does
/// not parse — the shared shape of every numeric server flag.
pub fn parse_num_flag<T: std::str::FromStr>(
    flags: &Flags,
    name: &str,
    default: T,
) -> Result<T, CliError> {
    match flags.value(name) {
        Some(raw) => raw
            .parse()
            .map_err(|_| CliError::Usage(format!("bad --{name} {raw:?}"))),
        None => Ok(default),
    }
}

/// Reads a whole file as UTF-8 text.
pub fn read_to_string(path: impl AsRef<Path>) -> Result<String, CliError> {
    let path = path.as_ref();
    std::fs::read_to_string(path).map_err(|source| CliError::Io {
        action: "reading",
        path: path.to_path_buf(),
        source,
    })
}

/// Reads a whole file as raw bytes.
pub fn read_bytes(path: impl AsRef<Path>) -> Result<Vec<u8>, CliError> {
    let path = path.as_ref();
    std::fs::read(path).map_err(|source| CliError::Io {
        action: "reading",
        path: path.to_path_buf(),
        source,
    })
}

/// Writes `contents` to `path`, reporting `action` on failure.
pub fn write_file(
    path: impl AsRef<Path>,
    contents: impl AsRef<[u8]>,
    action: &'static str,
) -> Result<(), CliError> {
    let path = path.as_ref();
    std::fs::write(path, contents).map_err(|source| CliError::Io {
        action,
        path: path.to_path_buf(),
        source,
    })
}

/// Decodes a CSV job export straight into a [`JobIndex`], tagging schema
/// errors with which export they came from.
pub fn index_jobs_csv(text: &str, input: CsvInput) -> Result<JobIndex, CliError> {
    JobIndex::from_csv(text).map_err(|e| CliError::Pipeline(PipelineError::csv(input, e)))
}

/// Parses a `--rollup BUCKET[@TZ]` spec (e.g. `day`, `week@UTC`,
/// `hour@America/Chicago`) into the bucket granularity and builtin
/// timezone for a civil-time rollup. The timezone defaults to UTC.
pub fn parse_rollup_spec(raw: &str) -> Result<(simtime::Bucket, simtime::Tz), CliError> {
    let (bucket_raw, tz_raw) = raw.split_once('@').unwrap_or((raw, "UTC"));
    let bucket = bucket_raw
        .parse()
        .map_err(|e: simtime::civiltime::ParseCivilError| CliError::Usage(e.to_string()))?;
    let tz = simtime::Tz::by_name(tz_raw).map_err(|e| CliError::Usage(e.to_string()))?;
    Ok((bucket, tz))
}

/// Collects log files from file and directory arguments, sorted by path.
pub fn collect_log_files(paths: &[String]) -> Result<Vec<PathBuf>, CliError> {
    let mut files = Vec::new();
    for p in paths {
        let path = Path::new(p);
        if path.is_dir() {
            let dir_err = |source| CliError::Io {
                action: "reading dir",
                path: path.to_path_buf(),
                source,
            };
            for entry in std::fs::read_dir(path).map_err(dir_err)? {
                let entry = entry.map_err(dir_err)?;
                if entry.path().is_file() {
                    files.push(entry.path());
                }
            }
        } else if path.is_file() {
            files.push(path.to_path_buf());
        } else {
            return Err(CliError::Usage(format!("{p}: no such file or directory")));
        }
    }
    files.sort();
    Ok(files)
}

/// The `(year, month)` of a `...YYYYMMDD...` filename component, the way
/// `delta-cli simulate` (and Delta's collection) names per-day syslogs.
pub fn date_from_filename(path: &Path) -> Option<(i32, u32)> {
    let name = path.file_stem()?.to_str()?;
    name.split(|c: char| !c.is_ascii_digit())
        .filter(|chunk| chunk.len() == 8)
        .find_map(|chunk| {
            let year: i32 = chunk[..4].parse().ok()?;
            let month: u32 = chunk[4..6].parse().ok()?;
            ((1970..=2100).contains(&year) && (1..=12).contains(&month)).then_some((year, month))
        })
}

/// Extracts a plausible year from a `...YYYYMMDD...` filename component.
pub fn year_from_filename(path: &Path) -> Option<i32> {
    date_from_filename(path).map(|(year, _)| year)
}

/// Picks the year under which a sample of the log's first lines parses
/// with the fewest losses (leap days make wrong years lose lines).
pub fn probe_year(log: &[u8]) -> i32 {
    let sample: Vec<std::borrow::Cow<'_, str>> = log
        .split(|&b| b == b'\n')
        .take(500)
        .map(String::from_utf8_lossy)
        .filter(|line| !line.trim().is_empty())
        .collect();
    let losses = |year| {
        sample
            .iter()
            .filter(|line| LogLine::parse_with_year(line, year).is_err())
            .count()
    };
    (2022..=2026)
        .min_by_key(|&year| losses(year))
        .unwrap_or(2024)
}

/// The year a scan of `files` starts in when none is given: the first
/// file's named date, else [`probe_year`] over that file (2024 when there
/// are no files). The scan advances it across New Year.
pub fn starting_year(files: &[PathBuf]) -> Result<i32, CliError> {
    let Some(first) = files.first() else {
        return Ok(2024);
    };
    match year_from_filename(first) {
        Some(year) => Ok(year),
        None => Ok(probe_year(&read_bytes(first)?)),
    }
}

/// Builds the paper's pipeline with the `--window SECS` coalescing window
/// applied, when given.
pub fn pipeline_from_flags(flags: &Flags) -> Result<Pipeline, CliError> {
    let mut pipeline = Pipeline::delta();
    if let Some(w) = flags.value("window") {
        let secs: u64 = w
            .parse()
            .map_err(|_| CliError::Usage(format!("bad --window {w:?}")))?;
        pipeline.coalesce_window = simtime::Duration::from_secs(secs);
    }
    Ok(pipeline)
}

/// What Stage I kept of a batch study's day files, besides their events.
#[derive(Debug)]
pub struct LogScan {
    /// The scan's counters.
    pub stats: ExtractStats,
    /// The quarantined lines and the caveats they raise.
    pub quarantine: QuarantineReport,
    /// Civil days with at least one accepted line.
    pub days: usize,
    /// The first and last accepted stamps, if any line was accepted.
    pub span: Option<(Timestamp, Timestamp)>,
}

impl LogScan {
    /// Lines accepted: every non-empty line seen, less the quarantined.
    pub fn lines(&self) -> u64 {
        self.stats.lines_seen - self.stats.quarantined.total()
    }
}

/// A batch study's inputs: the scanned logs and their coalesced events,
/// the job exports as the indexes the report reads, and the outages.
#[derive(Debug)]
pub struct StudyInputs {
    /// The pipeline the events were coalesced under (`--window`
    /// applied). A caller may still set its periods before
    /// [`run`](Self::run).
    pub pipeline: Pipeline,
    /// Stage I's counters and quarantine.
    pub logs: LogScan,
    /// The accepted XID events that pass the study filter, coalesced
    /// under `pipeline`'s window ([`Pipeline::coalesce_events`]).
    pub errors: Vec<CoalescedError>,
    /// `--jobs`, indexed (empty without the flag).
    pub gpu_jobs: JobIndex,
    /// `--cpu-jobs`, indexed (empty without the flag).
    pub cpu_jobs: JobIndex,
    /// `--outages`, decoded (empty without the flag).
    pub outages: Vec<OutageRecord>,
}

impl StudyInputs {
    /// Runs stages iii–v over the inputs ([`Pipeline::assemble_indexed`])
    /// and returns the report with the scan's quarantine report.
    pub fn run(self) -> (StudyReport, QuarantineReport) {
        let report = self.pipeline.assemble_indexed(
            self.errors,
            Some(self.logs.stats),
            &self.gpu_jobs,
            &self.cpu_jobs,
            &self.outages,
        );
        (report, self.logs.quarantine)
    }
}

/// Loads a batch study on two threads. The main thread lists the log
/// files named by `flags.positionals` and picks their [`starting_year`]
/// before any export is opened, so a missing log path fails at once. It
/// then puts the files through the lenient scan ([`LenientScan`]), calls
/// `scanned`, and sorts and coalesces the events; a helper thread decodes
/// `--jobs` meanwhile. Whichever thread is free then claims the next
/// export in flag order (`--jobs`, `--cpu-jobs`, `--outages`), each
/// streamed from disk and decoded strictly, a job row straight into its
/// export's [`JobIndex`].
///
/// Nothing in the logs is fatal: defective lines are quarantined, and
/// each caveat they raise is printed to stderr before `scanned` runs.
/// Errors keep the serial order: a log error first, then `--jobs`,
/// `--cpu-jobs`, `--outages`, then a bad `--window`, which is parsed
/// before the scan because the coalesce needs it.
pub fn load_study(flags: &Flags, scanned: impl FnOnce(&LogScan)) -> Result<StudyInputs, CliError> {
    let pipeline = pipeline_from_flags(flags);
    let files = collect_log_files(&flags.positionals)?;
    let year = starting_year(&files)?;
    let exports = Exports::new(flags);
    let scan = std::thread::scope(|scope| {
        let helper = scope.spawn(|| exports.decode_from(0));
        let scan = scan_logs(&files, year).map(|(logs, events)| {
            for caveat in &logs.quarantine.caveats {
                eprintln!("caveat: {caveat:?}");
            }
            scanned(&logs);
            // With a bad window the load fails below, after the inputs.
            let errors = match &pipeline {
                Ok(pipeline) => pipeline.coalesce_events(events),
                Err(_) => Vec::new(),
            };
            (logs, errors)
        });
        exports.decode_from(exports.claim());
        let _idle = obs::span("stage_join");
        helper
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        scan
    });
    let (logs, errors) = scan?;
    let claimed = "every export is claimed before the join";
    let gpu_jobs = exports.gpu_jobs.into_inner().expect(claimed)?;
    let cpu_jobs = exports.cpu_jobs.into_inner().expect(claimed)?;
    let outages = exports.outages.into_inner().expect(claimed)?;
    Ok(StudyInputs {
        pipeline: pipeline?,
        logs,
        errors,
        gpu_jobs,
        cpu_jobs,
        outages,
    })
}

/// Feeds the log `files`, in path order, through one [`LenientScan`]
/// from `year`. A file whose name carries a date makes that date the
/// year reference ([`LenientScan::set_reference`]), and a file that does
/// not end in a newline is given one, so every file ends on a line
/// boundary. Returns the scan with its accepted XID events that pass the
/// study filter, in log order.
fn scan_logs(files: &[PathBuf], year: i32) -> Result<(LogScan, Vec<XidEvent>), CliError> {
    let mut span = obs::span("stage_ingest");
    let mut scan = LenientScan::studied_only(year);
    let mut ledger = QuarantineLedger::new();
    let mut events = Vec::new();
    let mut days = 0;
    let mut range: Option<(Timestamp, Timestamp)> = None;
    // Accepted stamps never decrease, so a new day is a change of day.
    let mut accepted = |time: Timestamp| match &mut range {
        Some((_, last)) => {
            if time.day_number() != last.day_number() {
                days += 1;
            }
            *last = time;
        }
        None => {
            days = 1;
            range = Some((time, time));
        }
    };
    for file in files {
        let bytes = {
            let mut read = obs::span("stage_read");
            let bytes = read_bytes(file)?;
            read.add_items(bytes.len() as u64);
            bytes
        };
        if let Some((year, month)) = date_from_filename(file) {
            scan.set_reference(year, month);
        }
        scan.feed_observed(&bytes, &mut ledger, &mut events, &mut accepted);
        if !bytes.is_empty() && !bytes.ends_with(b"\n") {
            scan.feed_observed(b"\n", &mut ledger, &mut events, &mut accepted);
        }
    }
    let stats = scan.stats();
    span.add_items(stats.lines_seen);
    let logs = LogScan {
        stats,
        quarantine: QuarantineReport::from_scan(ledger, stats),
        days,
        span: range,
    };
    Ok((logs, events))
}

/// The CSV exports of a batch study and what each decoded to. The two
/// loader threads claim them one at a time, in flag order.
struct Exports<'f> {
    flags: &'f Flags,
    /// The next export to claim, an index into [`Exports::FLAGS`]. Claims
    /// publish nothing: the results are read after the join, which
    /// orders them.
    next: AtomicUsize,
    gpu_jobs: OnceLock<Result<JobIndex, CliError>>,
    cpu_jobs: OnceLock<Result<JobIndex, CliError>>,
    outages: OnceLock<Result<Vec<OutageRecord>, CliError>>,
}

impl<'f> Exports<'f> {
    /// The export flags in claim and error order.
    const FLAGS: [(&'static str, CsvInput); 3] = [
        ("jobs", CsvInput::GpuJobs),
        ("cpu-jobs", CsvInput::CpuJobs),
        ("outages", CsvInput::Outages),
    ];

    /// Export 0 (`--jobs`) is the helper thread's from the start.
    fn new(flags: &'f Flags) -> Self {
        Exports {
            flags,
            next: AtomicUsize::new(1),
            gpu_jobs: OnceLock::new(),
            cpu_jobs: OnceLock::new(),
            outages: OnceLock::new(),
        }
    }

    /// The next unclaimed export, or past the end when none is left.
    fn claim(&self) -> usize {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Decodes export `first`, then claims and decodes the next until
    /// none is left.
    fn decode_from(&self, first: usize) {
        let mut at = first;
        while let Some(&(flag, input)) = Self::FLAGS.get(at) {
            let path = self.flags.value(flag);
            let jobs = || read_export(path, input, JobIndex::read_csv, JobIndex::jobs);
            let filled = match input {
                CsvInput::GpuJobs => self.gpu_jobs.set(jobs()).is_ok(),
                CsvInput::CpuJobs => self.cpu_jobs.set(jobs()).is_ok(),
                CsvInput::Outages => {
                    let outages = read_export(path, input, resilience::csvio::read_outages, |o| {
                        o.len() as u64
                    });
                    self.outages.set(outages).is_ok()
                }
            };
            assert!(filled, "export {flag} claimed twice");
            at = self.claim();
        }
    }
}

/// Streams the export at `path` (empty without one) into `decode`, under
/// one `stage_csv` span counting its `rows`, each read a `stage_csv_read`
/// span counting its bytes. A read error reads as [`read_to_string`]'s
/// does; a CSV error is tagged with `input`.
fn read_export<T: Default>(
    path: Option<&str>,
    input: CsvInput,
    decode: impl FnOnce(SpannedReads) -> Result<T, ReadCsvError>,
    rows: impl FnOnce(&T) -> u64,
) -> Result<T, CliError> {
    let Some(path) = path else {
        return Ok(T::default());
    };
    let mut span = obs::span("stage_csv");
    let read_error = |source| CliError::Io {
        action: "reading",
        path: PathBuf::from(path),
        source,
    };
    let file = File::open(path).map_err(read_error)?;
    let decoded = decode(SpannedReads(file)).map_err(|e| match e {
        ReadCsvError::Read(source) => read_error(source),
        ReadCsvError::Csv(e) => CliError::Pipeline(PipelineError::csv(input, e)),
    })?;
    span.add_items(rows(&decoded));
    Ok(decoded)
}

/// A file whose every read is a `stage_csv_read` span.
struct SpannedReads(File);

impl Read for SpannedReads {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut span = obs::span("stage_csv_read");
        let read = self.0.read(buf)?;
        span.add_items(read as u64);
        Ok(read)
    }
}

/// Output encodings for `--metrics-out`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricsFormat {
    /// Prometheus text exposition format.
    Prometheus,
    /// A single JSON document (see [`obs::ObsReport::to_json`]).
    Json,
}

/// A resolved `--metrics-out` request: where to write and in what format.
///
/// Constructing one (via [`MetricsSink::from_flags`]) flips the global
/// [`obs`] switch on, so every stage the run subsequently executes records
/// into the registry; [`write`](MetricsSink::write) gathers and renders
/// the report at the end.
#[derive(Debug)]
pub struct MetricsSink {
    /// Destination path.
    pub path: PathBuf,
    /// Chosen encoding.
    pub format: MetricsFormat,
}

impl MetricsSink {
    /// Interprets `--metrics-out PATH` and `--metrics-format FMT`.
    ///
    /// Returns `Ok(None)` when no `--metrics-out` was given (and leaves
    /// the registry disabled — the zero-overhead default). The format
    /// defaults by extension: `.json` means JSON, anything else means
    /// Prometheus text.
    pub fn from_flags(flags: &Flags) -> Result<Option<MetricsSink>, CliError> {
        let Some(path) = flags.value("metrics-out") else {
            if flags.value("metrics-format").is_some() {
                return Err(CliError::Usage(
                    "--metrics-format needs --metrics-out".to_owned(),
                ));
            }
            return Ok(None);
        };
        let path = PathBuf::from(path);
        let format = match flags.value("metrics-format") {
            Some("prom" | "prometheus" | "text") => MetricsFormat::Prometheus,
            Some("json") => MetricsFormat::Json,
            Some(other) => {
                return Err(CliError::Usage(format!(
                    "bad --metrics-format {other:?} (expected prom|json)"
                )))
            }
            None => match path.extension().and_then(|e| e.to_str()) {
                Some("json") => MetricsFormat::Json,
                _ => MetricsFormat::Prometheus,
            },
        };
        obs::set_enabled(true);
        Ok(Some(MetricsSink { path, format }))
    }

    /// Gathers the global registry, span totals included, and writes the report.
    pub fn write(&self) -> Result<(), CliError> {
        let report = obs::global().report();
        let text = match self.format {
            MetricsFormat::Prometheus => report.to_prometheus(),
            MetricsFormat::Json => report.to_json(),
        };
        write_file(&self.path, text, "writing metrics to")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_parse_positionals_and_options() {
        let flags = parse_flags(
            &args(&["logs/a.log", "--jobs", "j.csv", "--deep", "logs/b.log"]),
            &["jobs"],
        )
        .unwrap();
        assert_eq!(flags.positionals, vec!["logs/a.log", "logs/b.log"]);
        assert_eq!(flags.value("jobs"), Some("j.csv"));
        assert!(flags.has("deep"));
        assert_eq!(flags.value("missing"), None);
    }

    #[test]
    fn value_flag_without_value_is_usage_error() {
        let err = parse_flags(&args(&["--jobs"]), &["jobs"]).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err:?}");
        assert!(err.to_string().contains("--jobs"));
    }

    #[test]
    fn later_values_win() {
        let flags = parse_flags(&args(&["--seed", "1", "--seed", "2"]), &["seed"]).unwrap();
        assert_eq!(flags.value("seed"), Some("2"));
    }

    #[test]
    fn numeric_flags_default_parse_and_reject() {
        let flags = parse_flags(&args(&["--depth", "7"]), &["depth", "width"]).unwrap();
        assert_eq!(parse_num_flag(&flags, "depth", 1usize).unwrap(), 7);
        assert_eq!(parse_num_flag(&flags, "width", 42u64).unwrap(), 42);
        let flags = parse_flags(&args(&["--depth", "nope"]), &["depth"]).unwrap();
        let err = parse_num_flag(&flags, "depth", 1usize).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err:?}");
        assert!(err.to_string().contains("--depth"), "{err}");
    }

    #[test]
    fn rollup_spec_parses_bucket_and_tz() {
        let (bucket, tz) = parse_rollup_spec("day").unwrap();
        assert_eq!(bucket, simtime::Bucket::Day);
        assert_eq!(tz.name(), "UTC");
        let (bucket, tz) = parse_rollup_spec("hour@America/Chicago").unwrap();
        assert_eq!(bucket, simtime::Bucket::Hour);
        assert_eq!(tz.name(), "America/Chicago");
        assert!(parse_rollup_spec("decade").is_err());
        assert!(parse_rollup_spec("day@Mars/Olympus").is_err());
    }

    #[test]
    fn year_from_filename_variants() {
        assert_eq!(
            year_from_filename(Path::new("syslog-20220105.log")),
            Some(2022)
        );
        assert_eq!(
            year_from_filename(Path::new("logs/node-20251231-full.log")),
            Some(2025)
        );
        assert_eq!(year_from_filename(Path::new("messages.log")), None);
        assert_eq!(year_from_filename(Path::new("build-12345678.log")), None); // year 1234 out of range
    }

    #[test]
    fn date_from_filename_needs_a_real_month() {
        assert_eq!(
            date_from_filename(Path::new("syslog-20221231.log")),
            Some((2022, 12))
        );
        assert_eq!(date_from_filename(Path::new("run-20221399.log")), None);
        assert_eq!(date_from_filename(Path::new("messages.log")), None);
    }

    #[test]
    fn probe_year_prefers_parseable_year() {
        // Feb 29 only parses in 2024 among the candidates.
        let text = "Feb 29 12:00:00 gpub001 kernel: leap day\n";
        assert_eq!(probe_year(text.as_bytes()), 2024);
    }

    /// Writes `(name, contents)` day files into a fresh directory and
    /// loads them with no exports, under a zero coalescing window, so
    /// each event line stays its own error and [`event_days`] sees them
    /// all.
    fn load_day_files(tag: &str, files: &[(&str, String)]) -> StudyInputs {
        let dir = std::env::temp_dir().join(format!("cli-load-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for (name, text) in files {
            std::fs::write(dir.join(name), text).unwrap();
        }
        let flags = parse_flags(
            &args(&[&dir.display().to_string(), "--window", "0"]),
            &["window"],
        )
        .unwrap();
        let inputs = load_study(&flags, |_| {}).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        inputs
    }

    fn xid_line(stamp: &str) -> String {
        format!("{stamp} gpub001 kernel: NVRM: Xid (PCI:0000:07:00): 119, GSP timeout\n")
    }

    /// The days of the loaded errors, in canonical order.
    fn event_days(inputs: &StudyInputs) -> Vec<(i32, u32, u32)> {
        inputs.errors.iter().map(|e| e.time.ymd()).collect()
    }

    #[test]
    fn day_files_months_apart_across_new_year_keep_their_lines() {
        let inputs = load_day_files(
            "gap",
            &[
                ("syslog-20221115.log", xid_line("Nov 15 10:00:00")),
                ("syslog-20230220.log", xid_line("Feb 20 10:00:00")),
            ],
        );
        assert!(inputs.logs.quarantine.is_clean());
        assert_eq!(event_days(&inputs), [(2022, 11, 15), (2023, 2, 20)]);
        assert_eq!((inputs.logs.lines(), inputs.logs.days), (2, 2));
    }

    #[test]
    fn a_day_file_without_a_final_newline_ends_its_last_line() {
        let first = xid_line("Nov 15 10:00:00");
        let inputs = load_day_files(
            "no-newline",
            &[
                ("syslog-20221115.log", first.trim_end().to_owned()),
                ("syslog-20221116.log", xid_line("Nov 16 10:00:00")),
            ],
        );
        assert!(inputs.logs.quarantine.is_clean());
        assert_eq!(event_days(&inputs), [(2022, 11, 15), (2022, 11, 16)]);
    }

    #[test]
    fn a_new_year_day_file_may_open_in_the_old_year() {
        let inputs = load_day_files(
            "head",
            &[(
                "syslog-20230101.log",
                xid_line("Dec 31 23:59:59") + &xid_line("Jan  1 00:00:01"),
            )],
        );
        assert!(inputs.logs.quarantine.is_clean());
        assert_eq!(event_days(&inputs), [(2022, 12, 31), (2023, 1, 1)]);
        let first = Timestamp::from_ymd_hms(2022, 12, 31, 23, 59, 59).unwrap();
        let last = Timestamp::from_ymd_hms(2023, 1, 1, 0, 0, 1).unwrap();
        assert_eq!(inputs.logs.span, Some((first, last)));
        assert_eq!(inputs.logs.days, 2);
    }

    #[test]
    fn metrics_format_defaults_by_extension() {
        let flags = parse_flags(&args(&["--metrics-out", "m.json"]), &["metrics-out"]).unwrap();
        let sink = MetricsSink::from_flags(&flags).unwrap().unwrap();
        assert_eq!(sink.format, MetricsFormat::Json);

        let flags = parse_flags(&args(&["--metrics-out", "m.prom"]), &["metrics-out"]).unwrap();
        let sink = MetricsSink::from_flags(&flags).unwrap().unwrap();
        assert_eq!(sink.format, MetricsFormat::Prometheus);
    }

    #[test]
    fn metrics_format_flag_overrides_extension() {
        let flags = parse_flags(
            &args(&["--metrics-out", "m.txt", "--metrics-format", "json"]),
            &["metrics-out", "metrics-format"],
        )
        .unwrap();
        let sink = MetricsSink::from_flags(&flags).unwrap().unwrap();
        assert_eq!(sink.format, MetricsFormat::Json);
    }

    #[test]
    fn bad_metrics_format_is_usage_error() {
        let flags = parse_flags(
            &args(&["--metrics-out", "m", "--metrics-format", "xml"]),
            &["metrics-out", "metrics-format"],
        )
        .unwrap();
        assert!(matches!(
            MetricsSink::from_flags(&flags),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn metrics_format_without_out_is_usage_error() {
        let flags = parse_flags(
            &args(&["--metrics-format", "json"]),
            &["metrics-out", "metrics-format"],
        )
        .unwrap();
        assert!(matches!(
            MetricsSink::from_flags(&flags),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn no_metrics_flags_means_no_sink() {
        let flags = parse_flags(&args(&[]), &["metrics-out"]).unwrap();
        assert!(MetricsSink::from_flags(&flags).unwrap().is_none());
    }

    #[test]
    fn sink_write_reports_bad_path_cleanly() {
        let sink = MetricsSink {
            path: PathBuf::from("/nonexistent-dir-for-test/m.prom"),
            format: MetricsFormat::Prometheus,
        };
        let err = sink.write().unwrap_err();
        assert!(matches!(err, CliError::Io { .. }), "{err:?}");
        let msg = err.to_string();
        assert!(msg.contains("writing metrics to"), "{msg}");
        assert!(msg.contains("/nonexistent-dir-for-test/m.prom"), "{msg}");
    }

    #[test]
    fn io_error_display_names_action_and_path() {
        let err = read_to_string("/no/such/file/here.txt").unwrap_err();
        assert!(err.to_string().starts_with("reading /no/such/file"));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn csv_errors_carry_the_input_name() {
        let err = index_jobs_csv("not,a,header\n", CsvInput::GpuJobs).unwrap_err();
        assert!(err.to_string().contains("gpu-jobs"), "{err}");
    }
}
