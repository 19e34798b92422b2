//! `analyze`: `delta_cli analyze` over the day files and the three CSVs,
//! run back to back for the measuring time.
//!
//! This is the paper-reproduction path (bytes → Tables I–III, Fig. 2,
//! findings). `hpclog` and `core` do nearly all the work; `servd` and the
//! simulators do none.

use super::{med, prom_sum, q, self_time, Ctx, Outcome};
use crate::corpus::CorpusFiles;
use crate::oracle::Oracle;
use crate::procs::{vm_hwm_mib, Proc};
use crate::spans::Recorder;
use delta_gpu_resilience::cli;
use delta_gpu_resilience::prelude::*;
use hpclog::archive::Archive;
use hpclog::extract::XidExtractor;
use hpclog::XidEvent;
use resilience::availability::Availability;
use resilience::coalesce::{coalesce, CoalesceSummary};
use resilience::impact::{job_mix, success_rate, JobImpact};
use resilience::stats::{exclude_dominant_gpu, ErrorStats};
use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};
use std::time::Instant;
use xid::ErrorKind;

/// At least this many timed runs, however long they take.
const MIN_RUNS: usize = 5;

/// One `delta_cli analyze` invocation.
struct Run {
    /// Spawn → stdout closed, seconds.
    wall_s: f64,
    /// Spawn → first stdout line (inputs read and parsed), seconds.
    setup_s: f64,
    stdout: String,
    success: bool,
    peak_rss_mib: f64,
}

fn analyze_once(ctx: &Ctx, files: &CorpusFiles, extra: &[String]) -> Result<Run, String> {
    let mut cmd = Command::new(&ctx.bins.cli);
    cmd.arg("analyze")
        .args(files.args())
        .args(extra)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    let started = Instant::now();
    let proc = Proc::spawn(cmd)?;
    let (pid, name) = (proc.pid, proc.name.clone());
    // VmHWM only grows; sample it until the process is gone.
    let sampler = std::thread::spawn(move || {
        let mut peak = 0.0f64;
        let deadline = Instant::now() + std::time::Duration::from_secs(120);
        while Instant::now() < deadline {
            match vm_hwm_mib(pid, &name) {
                Some(mib) => peak = peak.max(mib),
                None if peak > 0.0 => break,
                None => {}
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        peak
    });
    let mut stdout = BufReader::new(proc.take_stdout().ok_or("delta_cli stdout not piped")?);
    let mut text = String::new();
    stdout
        .read_line(&mut text)
        .map_err(|e| format!("reading delta_cli stdout: {e}"))?;
    let setup_s = started.elapsed().as_secs_f64();
    stdout
        .read_to_string(&mut text)
        .map_err(|e| format!("reading delta_cli stdout: {e}"))?;
    let wall_s = started.elapsed().as_secs_f64();
    let success = proc.wait_success()?;
    drop(proc);
    let peak_rss_mib = sampler.join().map_err(|_| "RSS sampler panicked")?;
    Ok(Run {
        wall_s,
        setup_s,
        stdout: text,
        success,
        peak_rss_mib,
    })
}

/// The measured run: one checked warm-up, then back-to-back analyses
/// until the measuring time is used (at least [`MIN_RUNS`]).
pub fn run(ctx: &Ctx, files: &CorpusFiles, oracle: &Oracle) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut walls = Vec::new();
    let mut setups = Vec::new();
    let mut peak = 0.0f64;
    let check = |out: &mut Outcome, r: &Run| {
        out.attempted += 1;
        if !r.success {
            out.problem("delta_cli analyze exited unsuccessfully".to_owned());
        } else if r.stdout != oracle.analyze_stdout {
            out.problem("delta_cli analyze stdout differs from the oracle report".to_owned());
        }
    };
    let warm = analyze_once(ctx, files, &[])?;
    check(&mut out, &warm);
    let started = Instant::now();
    while walls.len() < MIN_RUNS || started.elapsed() < ctx.seconds {
        let r = analyze_once(ctx, files, &[])?;
        check(&mut out, &r);
        walls.push(r.wall_s * 1e3);
        setups.push(r.setup_s);
        peak = peak.max(r.peak_rss_mib);
    }
    let elapsed = started.elapsed().as_secs_f64();

    out.setup_s = med(&setups);
    out.p50_ms = q(&walls, 0.5);
    out.tail_ms = q(&walls, 0.9);
    out.ops_per_s = walls.len() as f64 / elapsed;
    out.peak_rss_mib = peak;
    out.name("analyze_s", out.p50_ms / 1e3, "s");
    out.name("analyze_p90_s", out.tail_ms / 1e3, "s");
    out.name("analyze_runs", walls.len() as f64, "count");
    out.name("peak_rss_mib", peak, "MiB");
    out.name_fail_ratio();

    if ctx.trace {
        trace(ctx, files, oracle, &mut out)?;
    }
    Ok(out)
}

/// The traced run: the exported counters of one `delta_cli analyze
/// --metrics-out`, then the CLI's steps re-executed in process with a
/// span around each layer's public calls, in the order the binary makes
/// them.
fn trace(ctx: &Ctx, files: &CorpusFiles, oracle: &Oracle, out: &mut Outcome) -> Result<(), String> {
    let prom = ctx.dir.join("analyze-metrics.prom");
    let r = analyze_once(
        ctx,
        files,
        &["--metrics-out".to_owned(), prom.display().to_string()],
    )?;
    if !r.success {
        out.problem("delta_cli analyze --metrics-out failed".to_owned());
    }
    let exported =
        std::fs::read_to_string(&prom).map_err(|e| format!("{}: {e}", prom.display()))?;
    let layers = &mut out.layers;
    layers.insert(
        "hpclog.lines",
        prom_sum(&exported, "hpclog_lines_scanned_total"),
    );
    layers.insert(
        "hpclog.xid_lines",
        prom_sum(&exported, "hpclog_xid_lines_total"),
    );
    layers.insert(
        "hpclog.quarantined",
        prom_sum(&exported, "hpclog_lines_quarantined_total"),
    );
    let events_in = prom_sum(&exported, "core_events_coalesced_total");
    layers.insert(
        "core.coalesce_ratio",
        prom_sum(&exported, "core_errors_total") / events_in.max(1.0),
    );

    let rec = Recorder::new();
    let wall = Instant::now();
    let rendered = rec.span("cli.analyze", 0, || replay(&rec, files));
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    let rendered = rendered?;
    if rendered != oracle.analyze_stdout {
        out.problem("traced analyze replay renders differently from the oracle".to_owned());
    }
    let layers = &mut out.layers;
    for (name, span) in [
        ("cli.read_ms", "cli.read"),
        ("hpclog.archive_parse_ms", "hpclog.archive_parse"),
        ("hpclog.extract_ms", "hpclog.extract"),
        ("core.csv_parse_ms", "core.csv_parse"),
        ("core.coalesce_ms", "core.coalesce"),
        ("core.stats_ms", "core.stats"),
        ("core.impact_ms", "core.impact"),
        ("core.availability_ms", "core.availability"),
        ("core.render_ms", "core.render"),
    ] {
        layers.insert(name, self_time(&rec, span, 1e6, false));
    }
    layers.insert("trace.wall_ms", wall_ms);
    super::write_spans(ctx.root, "analyze", ctx.seed, &rec)
}

/// `delta_cli analyze`'s steps, each layer's calls under its own span;
/// returns the stdout the binary would print.
fn replay(rec: &Recorder, files: &CorpusFiles) -> Result<String, String> {
    let io = |e: cli::CliError| e.to_string();
    let paths = cli::collect_log_files(&[files.logs.display().to_string()]).map_err(io)?;
    let (days, csvs) = rec.span("cli.read", 1, || -> Result<_, String> {
        let mut days = Vec::new();
        for path in &paths {
            let year = cli::year_from_filename(path).ok_or("day file without a date")?;
            days.push((cli::read_to_string(path).map_err(io)?, year));
        }
        let csvs =
            [&files.gpu, &files.cpu, &files.outages].map(|p| cli::read_to_string(p).map_err(io));
        Ok((days, csvs))
    })?;
    let [gpu_csv, cpu_csv, outages_csv] = csvs;
    let (gpu_csv, cpu_csv, outages_csv) = (gpu_csv?, cpu_csv?, outages_csv?);

    let mut archive = Archive::new();
    let skipped: usize = rec.span("hpclog.archive_parse", 2, || {
        days.iter()
            .map(|(text, year)| archive.ingest_day(text, *year).1)
            .sum()
    });
    let (gpu_jobs, cpu_jobs, outages) = rec.span("core.csv_parse", 3, || {
        (
            resilience::csvio::parse_jobs(&gpu_csv),
            resilience::csvio::parse_jobs(&cpu_csv),
            resilience::csvio::parse_outages(&outages_csv),
        )
    });
    let csv_err = |e: resilience::csvio::CsvError| e.to_string();
    let (gpu_jobs, cpu_jobs, outages) = (
        gpu_jobs.map_err(csv_err)?,
        cpu_jobs.map_err(csv_err)?,
        outages.map_err(csv_err)?,
    );

    let pipeline = Pipeline::delta();
    let mut extractor = XidExtractor::studied_only(2024);
    let mut events: Vec<XidEvent> = rec.span("hpclog.extract", 4, || {
        archive
            .iter()
            .filter_map(|line| extractor.extract(line))
            .collect()
    });
    let errors = rec.span("core.coalesce", 5, || {
        hpclog::shard::canonical_sort(&mut events);
        coalesce(events, pipeline.coalesce_window)
    });
    let periods = pipeline.periods;
    let (coalesce_summary, stats_raw, errors_clean, outlier, stats) =
        rec.span("core.stats", 6, || {
            let summary = CoalesceSummary::of(&errors);
            let raw = ErrorStats::compute(&errors, periods, pipeline.node_count);
            let (clean, outlier) = exclude_dominant_gpu(
                &errors,
                ErrorKind::UncontainedMemoryError,
                Phase::PreOp,
                periods,
                pipeline.outlier_threshold,
            );
            let stats = ErrorStats::compute(&clean, periods, pipeline.node_count);
            (summary, raw, clean, outlier, stats)
        });
    let (impact, mix, gpu_success, cpu_success) = rec.span("core.impact", 7, || {
        (
            JobImpact::compute(&gpu_jobs, &errors_clean, pipeline.attribution_window),
            job_mix(&gpu_jobs),
            success_rate(&gpu_jobs),
            success_rate(&cpu_jobs),
        )
    });
    let (availability, op_outages, mttf_hours) = rec.span("core.availability", 8, || {
        let op = periods.op;
        let op_outages: Vec<OutageRecord> = outages
            .iter()
            .filter(|o| op.contains(o.start))
            .cloned()
            .collect();
        let availability = Availability::compute(&op_outages, pipeline.node_count, op.hours());
        (
            availability,
            op_outages,
            stats.overall_mtbe_per_node(Phase::Op),
        )
    });
    let report = StudyReport {
        config: pipeline,
        extract_stats: Some(extractor.stats()),
        coalesce_summary,
        errors: errors_clean,
        stats_raw,
        stats,
        outlier,
        impact,
        mix,
        gpu_success,
        cpu_success,
        availability,
        op_outages,
        mttf_hours,
    };
    Ok(rec.span("core.render", 9, || {
        format!(
            "ingested {} lines over {} days ({skipped} unparseable lines skipped)\n\
             \n=== Table I ===\n{}\n=== Table II ===\n{}\n=== Table III ===\n{}\n\
             === Figure 2 ===\n{}\n=== Findings ===\n{}\n",
            archive.line_count(),
            archive.day_count(),
            report::table1(&report),
            report::table2(&report),
            report::table3(&report),
            report::figure2(&report),
            Findings::evaluate(&report),
        )
    }))
}
