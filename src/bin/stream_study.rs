//! `stream-study` — the streaming face of the analysis pipeline.
//!
//! ```text
//! stream-study <LOG>... [--jobs FILE] [--cpu-jobs FILE] [--outages FILE]
//!              [--year N] [--window SECS] [--chunk BYTES]
//!              [--checkpoint FILE] [--resume FILE] [--progress]
//!              [--metrics-out FILE] [--metrics-format FMT]
//! ```
//!
//! Feeds the same inputs `delta-cli analyze` reads through
//! [`resilience::incremental::StreamingPipeline`] in bounded-size chunks,
//! checkpointing along the way. Interrupt the run, pass the snapshot back
//! with `--resume`, and the report comes out byte-identical to the
//! uninterrupted (and to the batch) run — that equivalence is what the
//! differential test layer proves.
//!
//! * `--chunk BYTES`    feed granularity for log bytes (default 1 MiB)
//! * `--checkpoint F`   write a snapshot to `F` after every log file
//! * `--resume F`       restore from `F`; already-ingested log bytes are
//!   skipped by offset (the snapshot remembers how many were fed)
//! * `--progress`       force the once-a-second live counters line on
//!   stderr (on by default when stderr is a terminal)
//! * `--metrics-out F`  record stage metrics + spans into the `obs`
//!   registry and write the exposition to `F` on exit
//!
//! Shared plumbing and the error taxonomy live in
//! [`delta_gpu_resilience::cli`].

use delta_gpu_resilience::cli::{self, parse_flags, CliError, MetricsSink, Progress};
use delta_gpu_resilience::prelude::*;
use resilience::checkpoint::Checkpoint;
use resilience::incremental::StreamingPipeline;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "\
stream-study — incremental A100 resilience analysis with checkpoint/restore

USAGE:
  stream-study <LOG>... [--jobs FILE] [--cpu-jobs FILE] [--outages FILE]
               [--year N] [--window SECS] [--chunk BYTES]
               [--checkpoint FILE] [--resume FILE] [--progress]
               [--metrics-out FILE] [--metrics-format FMT]

  <LOG>...          per-day syslog files (or directories of them)
  --jobs FILE       GPU job export (CSV: id,name,submit,start,end,gpus,gpu_slots,state)
  --cpu-jobs FILE   CPU job export (same schema, gpus=0)
  --outages FILE    outage export (CSV: host,start,duration_secs)
  --year N          starting year for year-less syslog stamps; the scan
                    advances it across New Year (default: the first
                    filename's YYYYMMDD, else the year its lines parse
                    best under)
  --window SECS     coalescing window Δt (default 20; ignored with --resume)
  --chunk BYTES     log feed granularity (default 1048576)
  --checkpoint FILE write a snapshot after each log file
  --resume FILE     restore from a snapshot and continue
  --progress        force the live-counters stderr line (default: only
                    when stderr is a terminal)
  --metrics-out FILE    record stage metrics + spans, write exposition here
  --metrics-format FMT  'prom' (Prometheus text) or 'json'
                        (default: by FILE extension, .json means json)
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if matches!(args.first().map(String::as_str), Some("--help" | "-h")) {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match run(&args) {
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

fn run(args: &[String]) -> Result<(), CliError> {
    let flags = parse_flags(
        args,
        &[
            "jobs",
            "cpu-jobs",
            "outages",
            "year",
            "window",
            "chunk",
            "checkpoint",
            "resume",
            "metrics-out",
            "metrics-format",
        ],
    )?;
    if flags.positionals.is_empty() {
        return Err(CliError::Usage(
            "stream-study needs at least one log file".to_owned(),
        ));
    }
    let metrics = MetricsSink::from_flags(&flags)?;
    let files = cli::collect_log_files(&flags.positionals)?;
    let chunk: usize = flags
        .value("chunk")
        .unwrap_or("1048576")
        .parse()
        .map_err(|_| CliError::Usage("bad --chunk".to_owned()))?;
    if chunk == 0 {
        return Err(CliError::Usage("--chunk must be positive".to_owned()));
    }

    let mut engine = match flags.value("resume") {
        Some(path) => {
            let bytes = cli::read_bytes(path)?;
            let checkpoint = Checkpoint::from_bytes(bytes)?;
            let state_bytes = checkpoint.as_bytes().len();
            let engine = StreamingPipeline::restore(&checkpoint)?;
            println!(
                "resumed from {path}: {} log bytes already ingested, state {} bytes",
                engine.log_bytes_fed(),
                state_bytes
            );
            engine
        }
        None => {
            let year = match flags.value("year") {
                Some(y) => y
                    .parse()
                    .map_err(|_| CliError::Usage(format!("bad --year {y:?}")))?,
                None => cli::starting_year(&files)?,
            };
            StreamingPipeline::new(cli::pipeline_from_flags(&flags)?, year)
        }
    };

    // Feed the logs chunk by chunk, skipping what a resumed snapshot has
    // already seen. Offsets index the concatenation of the sorted files,
    // which is exactly the byte stream the original run fed.
    let started = Instant::now();
    let mut progress = Progress::new(flags.has("progress"));
    let mut offset: u64 = 0;
    let mut fed: u64 = 0;
    for file in &files {
        let text = cli::read_bytes(file)?;
        let len = text.len() as u64;
        let done = engine.log_bytes_fed();
        if offset + len <= done {
            offset += len;
            continue; // this file is fully inside the snapshot
        }
        let skip = done.saturating_sub(offset) as usize;
        for piece in text[skip..].chunks(chunk) {
            engine.push_log(piece);
            fed += piece.len() as u64;
            progress.tick(|| {
                let stats = engine.scan_stats();
                format!(
                    "[{:7.1}s] {} lines | {} fed bytes | {} extracted | {} quarantined | {} live errors",
                    started.elapsed().as_secs_f64(),
                    stats.lines_seen,
                    fed,
                    stats.extracted,
                    stats.quarantined.total(),
                    engine.errors().len(),
                )
            });
        }
        offset += len;
        if let Some(path) = flags.value("checkpoint") {
            let snapshot = engine.checkpoint();
            cli::write_file_atomic(path, snapshot.as_bytes(), "writing checkpoint to")?;
            println!(
                "checkpoint after {}: {} log bytes in, state {} bytes",
                file.display(),
                engine.log_bytes_fed(),
                snapshot.as_bytes().len()
            );
        }
    }
    engine.finish_log();
    let elapsed = started.elapsed().as_secs_f64();
    let stats = engine.scan_stats();
    if progress.printed() {
        progress.finish(|| {
            format!(
                "[{elapsed:7.1}s] scan complete: {} lines, {} events extracted",
                stats.lines_seen, stats.extracted
            )
        });
    }
    println!(
        "scanned {} lines ({} new bytes) in {:.2}s — {} events extracted, live errors {}",
        stats.lines_seen,
        fed,
        elapsed,
        stats.extracted,
        engine.errors().len()
    );

    // Accounting inputs, in the batch path's canonical feed order.
    if let Some(path) = flags.value("jobs") {
        engine.push_gpu_jobs_csv(&cli::read_to_string(path)?);
    }
    if let Some(path) = flags.value("cpu-jobs") {
        engine.push_cpu_jobs_csv(&cli::read_to_string(path)?);
    }
    if let Some(path) = flags.value("outages") {
        engine.push_outages_csv(&cli::read_to_string(path)?);
    }

    let (report_out, quarantine) = engine.finalize();
    println!("\n=== Table I ===\n{}", report::table1(&report_out));
    println!("=== Table II ===\n{}", report::table2(&report_out));
    println!("=== Table III ===\n{}", report::table3(&report_out));
    println!("=== Figure 2 ===\n{}", report::figure2(&report_out));
    println!("=== Findings ===\n{}", Findings::evaluate(&report_out));
    if !quarantine.is_clean() {
        println!("\n=== Quarantine ===\n{}", quarantine.ledger);
        for caveat in &quarantine.caveats {
            println!("caveat: {caveat}");
        }
    }
    if let Some(sink) = &metrics {
        sink.write()?;
        println!("metrics written to {}", sink.path.display());
    }
    Ok(())
}
