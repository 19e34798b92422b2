//! `delta-cli` — the command-line face of the reproduction.
//!
//! ```text
//! delta-cli analyze  <LOG>... [--jobs FILE] [--cpu-jobs FILE] [--outages FILE]
//!                    [--window SECS] [--deep] [--rollup BUCKET[@TZ]]
//!                    [--metrics-out FILE]
//! delta-cli simulate [--scale F] [--seed N] --out DIR [--metrics-out FILE]
//! delta-cli taxonomy
//! ```
//!
//! * `analyze` runs the paper's pipeline over real (or simulator-written)
//!   per-day log files, optionally joined against CSV job/outage exports
//!   (schemas in `resilience::csvio`), and prints every table plus — with
//!   `--deep` — the survival/concentration/burstiness extensions.
//! * `simulate` runs a seeded campaign and writes the raw artifacts
//!   (per-day logs, job CSV, outage CSV) to a directory, producing a
//!   self-contained synthetic dataset for the `analyze` path or external
//!   tools.
//! * `taxonomy` prints the XID reference table.
//!
//! Both workloads accept `--metrics-out FILE` (with optional
//! `--metrics-format prom|json`, defaulting by extension): the run then
//! records stage metrics and spans into the `obs` registry and writes the
//! exposition on exit. Shared plumbing and the error taxonomy live in
//! [`delta_gpu_resilience::cli`].

use delta_gpu_resilience::cli::{self, parse_flags, CliError, MetricsSink};
use delta_gpu_resilience::corpus;
use delta_gpu_resilience::prelude::*;
use resilience::impact::JobIndex;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("taxonomy") => cmd_taxonomy(),
        Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(CliError::Usage(format!("unknown command {other:?}"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("error: {err}");
            if matches!(err, CliError::Usage(_)) {
                eprint!("{USAGE}");
            }
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
delta-cli — A100 GPU resilience analysis (DSN'25 reproduction)

USAGE:
  delta-cli analyze <LOG>... [--jobs FILE] [--cpu-jobs FILE] [--outages FILE]
                    [--window SECS] [--deep] [--rollup BUCKET[@TZ]]
                    [--metrics-out FILE]
  delta-cli simulate [--scale F] [--seed N] --out DIR [--metrics-out FILE]
  delta-cli taxonomy

ANALYZE
  <LOG>...        per-day syslog files (or directories of them)
  --jobs FILE     GPU job export (CSV: id,name,submit,start,end,gpus,gpu_slots,state)
  --cpu-jobs FILE CPU job export (same schema, gpus=0)
  --outages FILE  outage export (CSV: host,start,duration_secs)
  --window SECS   coalescing window Δt (default 20)
  --periods MODE  'delta' (the paper's calendar, default) or 'auto'
                  (infer the window from the data span, keeping Delta's
                  23%/77% pre-op/op split — use for scaled datasets)
  --deep          also run survival / concentration / burstiness analyses
  --rollup SPEC   also print a calendar-aware error rollup; SPEC is
                  BUCKET[@TZ] with BUCKET one of hour|day|week|month and
                  TZ one of UTC|America/Chicago|Europe/Berlin (DST-aware,
                  default UTC) — e.g. 'day', 'week@America/Chicago'

SIMULATE
  --scale F       calendar scale in (0,1], default 0.05
  --seed N        campaign seed, default 0xDE17A
  --out DIR       output directory (created if missing)

METRICS (both analyze and simulate)
  --metrics-out FILE    record stage metrics + spans, write exposition here
  --metrics-format FMT  'prom' (Prometheus text) or 'json'
                        (default: by FILE extension, .json means json)
";

fn cmd_analyze(args: &[String]) -> Result<(), CliError> {
    let flags = parse_flags(
        args,
        &[
            "jobs",
            "cpu-jobs",
            "outages",
            "window",
            "periods",
            "rollup",
            "metrics-out",
            "metrics-format",
        ],
    )?;
    if flags.positionals.is_empty() {
        return Err(CliError::Usage(
            "analyze needs at least one log file".to_owned(),
        ));
    }
    let metrics = MetricsSink::from_flags(&flags)?;

    let mut inputs = cli::load_study(&flags, |logs| {
        println!(
            "ingested {} lines over {} days ({} unparseable lines skipped)",
            logs.lines(),
            logs.days,
            logs.stats.quarantined.total()
        );
    })?;

    match flags.value("periods").unwrap_or("delta") {
        "delta" => {}
        "auto" => {
            let periods = infer_periods(inputs.logs.span, &inputs.gpu_jobs).ok_or_else(|| {
                CliError::Invalid("cannot infer periods from empty data".to_owned())
            })?;
            println!(
                "inferred calendar: pre-op {} .. op {} .. {}",
                periods.pre_op.start, periods.op.start, periods.op.end
            );
            inputs.pipeline.periods = periods;
        }
        other => {
            return Err(CliError::Usage(format!(
                "bad --periods {other:?} (expected delta|auto)"
            )))
        }
    }
    let (has_jobs, has_outages) = (inputs.gpu_jobs.jobs() > 0, !inputs.outages.is_empty());
    let (report_out, _) = inputs.run();

    let render = obs::span("stage_render");
    println!("\n=== Table I ===\n{}", report::table1(&report_out));
    if has_jobs {
        println!("=== Table II ===\n{}", report::table2(&report_out));
        println!("=== Table III ===\n{}", report::table3(&report_out));
    }
    if has_outages {
        println!("=== Figure 2 ===\n{}", report::figure2(&report_out));
    }
    println!("=== Findings ===\n{}", Findings::evaluate(&report_out));

    if let Some(spec) = flags.value("rollup") {
        let (bucket, tz) = cli::parse_rollup_spec(spec)?;
        let cube = resilience::rollup::RollupCube::build(
            &tz,
            bucket,
            report_out.errors.iter().map(|e| (e.time, e.kind)),
        );
        println!(
            "\n=== Error rollup ({} buckets, {}) ===",
            bucket.as_str(),
            tz.name()
        );
        println!("bucket,start,end,count");
        for cell in cube.cells() {
            println!(
                "{},{},{},{}",
                tz.bucket_label(bucket, cell.start),
                cell.start,
                cell.end,
                cell.total
            );
        }
    }

    if flags.has("deep") {
        println!("\n=== Deep analyses ===\n{}", report::deep(&report_out));
    }
    drop(render);
    if let Some(sink) = &metrics {
        sink.write()?;
        println!("metrics written to {}", sink.path.display());
    }
    Ok(())
}

/// Infers a study calendar from the observed data span (the first and
/// last accepted log lines, widened by the jobs' earliest submit and
/// latest end), keeping Delta's 273:896-day pre-op/op proportions.
fn infer_periods(span: Option<(Timestamp, Timestamp)>, jobs: &JobIndex) -> Option<StudyPeriods> {
    let (mut first, mut last) = span?;
    if let Some((submit, end)) = jobs.time_span() {
        first = first.min(submit);
        last = last.max(end);
    }
    if last <= first {
        return None;
    }
    let span = (last - first).as_secs() + 1;
    let boundary = first + Duration::from_secs(span * 273 / 1169);
    Some(StudyPeriods {
        pre_op: Period::new(first, boundary),
        op: Period::new(boundary, last + Duration::from_secs(1)),
    })
}

fn cmd_simulate(args: &[String]) -> Result<(), CliError> {
    let flags = parse_flags(
        args,
        &["scale", "seed", "out", "metrics-out", "metrics-format"],
    )?;
    let metrics = MetricsSink::from_flags(&flags)?;
    let scale: f64 = flags
        .value("scale")
        .unwrap_or("0.05")
        .parse()
        .map_err(|_| CliError::Usage("bad --scale".to_owned()))?;
    if !(0.0..=1.0).contains(&scale) || scale == 0.0 {
        return Err(CliError::Usage("--scale must be in (0, 1]".to_owned()));
    }
    let seed: u64 = flags
        .value("seed")
        .unwrap_or("911706")
        .parse()
        .map_err(|_| CliError::Usage("bad --seed".to_owned()))?;
    let out_dir = PathBuf::from(
        flags
            .value("out")
            .ok_or_else(|| CliError::Usage("simulate needs --out DIR".to_owned()))?,
    );
    let logs_dir = out_dir.join("logs");
    std::fs::create_dir_all(&logs_dir).map_err(|source| CliError::Io {
        action: "creating",
        path: logs_dir.clone(),
        source,
    })?;

    let corpus = corpus::build(scale, seed, 0.0, true);
    let (campaign, outcome) = (&corpus.campaign, &corpus.outcome);

    // Per-day log files. `days()` yields exactly the keys `render_day`
    // accepts, so a miss is a bug in the campaign's log archive — report
    // it, don't panic.
    let mut days = 0;
    {
        let mut span = obs::span("stage_write_artifacts");
        for (day, _) in campaign.archive.days() {
            let text = campaign.archive.render_day(day).ok_or_else(|| {
                CliError::Invalid(format!("archive listed day {day} but cannot render it"))
            })?;
            let date = Timestamp::from_unix(day * 86_400);
            let (y, m, d) = date.ymd();
            let path = logs_dir.join(format!("syslog-{y:04}{m:02}{d:02}.log"));
            cli::write_file(&path, text, "writing")?;
            days += 1;
        }
        // Job + outage CSVs.
        cli::write_file(out_dir.join("gpu_jobs.csv"), corpus.gpu_csv(), "writing")?;
        cli::write_file(out_dir.join("cpu_jobs.csv"), corpus.cpu_csv(), "writing")?;
        cli::write_file(out_dir.join("outages.csv"), corpus.out_csv(), "writing")?;
        span.add_items(days + 3);
    }

    println!(
        "wrote {days} log days, {} GPU jobs, {} CPU jobs, {} outages to {}",
        outcome.jobs.len(),
        outcome.cpu_jobs.len(),
        campaign.ledger.outage_count(),
        out_dir.display()
    );
    println!(
        "analyze it back with:\n  delta-cli analyze {}/logs --jobs {}/gpu_jobs.csv --cpu-jobs {}/cpu_jobs.csv --outages {}/outages.csv",
        out_dir.display(),
        out_dir.display(),
        out_dir.display(),
        out_dir.display()
    );
    if let Some(sink) = &metrics {
        sink.write()?;
        println!("metrics written to {}", sink.path.display());
    }
    Ok(())
}

fn cmd_taxonomy() -> Result<(), CliError> {
    println!(
        "{:<10} {:<26} {:<13} {:<17} Description",
        "XID", "Event", "Category", "Recovery"
    );
    for kind in ErrorKind::STUDIED {
        let codes: Vec<String> = kind.codes().iter().map(u16::to_string).collect();
        println!(
            "{:<10} {:<26} {:<13} {:<17} {}",
            codes.join("/"),
            kind.abbreviation(),
            kind.category().label(),
            kind.recovery().label(),
            kind.description()
        );
    }
    for kind in [ErrorKind::GpuSoftware, ErrorKind::ResetChannel] {
        let codes: Vec<String> = kind.codes().iter().map(u16::to_string).collect();
        println!(
            "{:<10} {:<26} {:<13} {:<17} {} (excluded from the study)",
            codes.join("/"),
            kind.abbreviation(),
            kind.category().label(),
            kind.recovery().label(),
            kind.description()
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infer_periods_keeps_delta_ratio() {
        let start = Timestamp::from_ymd_hms(2022, 1, 1, 0, 0, 0).unwrap();
        let end = start + Duration::from_days(1169);
        let periods = infer_periods(Some((start, end)), &JobIndex::default()).unwrap();
        assert_eq!(periods.pre_op.start, start);
        let pre_days = periods.pre_op.days();
        assert!((pre_days - 273.0).abs() < 1.5, "{pre_days}");
        assert!(periods.op.end > end);

        // A job submitted before the first log line and ending after the
        // last widens the span through the index's time fold.
        let csv = format!(
            "{}\n1,a,2021-12-31T00:00:00Z,2022-01-01T00:00:00Z,{},1,gpub001:0,FAILED\n",
            resilience::csvio::JOB_HEADER,
            end + Duration::from_days(1)
        );
        let jobs = cli::index_jobs_csv(&csv, resilience::error::CsvInput::GpuJobs).unwrap();
        let periods = infer_periods(Some((start, end)), &jobs).unwrap();
        assert_eq!(periods.pre_op.start, start - Duration::from_days(1));
        assert_eq!(periods.op.end, end + Duration::from_secs(86_401));
    }

    #[test]
    fn infer_periods_empty_is_none() {
        assert!(infer_periods(None, &JobIndex::default()).is_none());
    }

    #[test]
    fn unknown_flags_still_parse_as_boolean() {
        let args: Vec<String> = vec!["--deep".to_owned()];
        let flags = parse_flags(&args, &["jobs"]).unwrap();
        assert!(flags.has("deep"));
    }
}
