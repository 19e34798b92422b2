//! `delta-serve` — serve a computed study over HTTP.
//!
//! ```text
//! delta-serve <LOG>... [--jobs FILE] [--cpu-jobs FILE] [--outages FILE]
//!             [--addr HOST:PORT] [--threads N] [--max-conns N] [--window SECS]
//! delta-serve --ingest-dir DIR [--year N] [--ingest-queue N]
//!             [--publish-events N] [--publish-secs S] [--addr HOST:PORT] ...
//! ```
//!
//! **Batch mode** loads the same inputs as `delta-cli analyze` (per-day
//! syslog files plus optional job/outage CSV exports) through the same
//! loader ([`delta_gpu_resilience::cli::load_study`]), builds the `servd`
//! columnar store, and serves it until SIGINT/SIGTERM.
//!
//! **Live-ingest mode** (`--ingest-dir`) starts with an empty study — or
//! the recovered state of a previous run of the same directory — and
//! accepts the corpus over HTTP instead:
//!
//! ```text
//! POST /ingest/logs?seq=N      raw syslog bytes, chunked any way you like
//! POST /ingest/jobs?seq=N      GPU job CSV rows
//! POST /ingest/cpu-jobs?seq=N  CPU job CSV rows
//! POST /ingest/outages?seq=N   outage CSV rows
//! POST /ingest/flush           publish + checkpoint now (barrier)
//! GET  /ingest/status          accepted/applied counts for resync
//! ```
//!
//! Every acknowledged (`200`) chunk is on disk in a write-ahead segment
//! before the response is sent, so a SIGKILL mid-ingest loses nothing: on
//! restart the checkpoint is restored and the WAL tail replayed. When the
//! bounded admission queue is full the server sheds load with `429` +
//! `Retry-After` instead of stalling readers.
//!
//! ```text
//! GET /tables/1 /tables/2 /tables/3 /fig2   the paper surfaces
//! GET /errors?host=&xid=&from=&to=          filtered coalesced errors (CSV)
//! GET /mtbe[?xid=]                          per-kind MTBE rows (CSV)
//! GET /rollup?metric=&bucket=&tz=&...       calendar-aware rollup cubes (CSV)
//! GET /jobs/impact                          Table II + failed-job total (CSV)
//! GET /availability                         §V-C summary (JSON)
//! GET /snapshot /healthz /metrics           serving metadata + Prometheus
//! GET /readyz                               snapshot age + ingest backlog (JSON)
//! GET /debug/traces?id=&slowest=&since=     slow-trace flight recorder (JSON)
//! GET /metrics/history?name=&from=&to=&step= self-scraped series history (JSON)
//! GET/POST /whatif?mttr_scale=&xid_rate=&...  counterfactual campaigns (JSON)
//! GET /whatif/jobs/ID                        poll a long campaign (202 -> 200)
//! ```
//!
//! Metrics are always on for a server (the registry powers `/metrics`).
//! Request tracing is on by default (`--trace-capacity 0` turns it
//! off): every response names its trace in an `X-Trace-Id` header, and
//! the slowest/error traces stay inspectable via `/debug/traces`.
//! Shared plumbing and the error taxonomy live in
//! [`delta_gpu_resilience::cli`].

use delta_gpu_resilience::cli::{self, parse_flags, CliError, Flags};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration as StdDuration;

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

const USAGE: &str = "\
delta-serve — HTTP query server over a GPU resilience study

USAGE:
  delta-serve <LOG>... [--jobs FILE] [--cpu-jobs FILE] [--outages FILE]
              [--addr HOST:PORT] [--threads N] [--max-conns N] [--window SECS]
  delta-serve --ingest-dir DIR [--year N] [--ingest-queue N]
              [--publish-events N] [--publish-secs S]
              [--addr HOST:PORT] [--threads N] [--max-conns N] [--window SECS]

BATCH INPUTS (as in delta-cli analyze; exclusive with --ingest-dir)
  <LOG>...        per-day syslog files (or directories of them)
  --jobs FILE     GPU job export CSV
  --cpu-jobs FILE CPU job export CSV
  --outages FILE  outage export CSV

LIVE INGEST (accept the corpus over POST /ingest/*)
  --ingest-dir DIR    durable state directory (WAL + checkpoint); restarting
                      on the same DIR recovers every acknowledged chunk
  --year N            starting year for year-less syslog stamps on a fresh
                      DIR; the scan advances it across New Year (default
                      2024; a recovered checkpoint's year wins)
  --ingest-queue N    admission queue depth; beyond it POSTs get 429 (default 256)
  --publish-events N  publish a fresh snapshot every N ingested lines (default 5000)
  --publish-secs S    ... or after S seconds, whichever comes first (default 2)

SERVER
  --window SECS   coalescing window Δt (default 20)
  --addr A        listen address (default 127.0.0.1:7171; use :0 for ephemeral)
  --threads N     event-loop threads (default 4)
  --max-conns N   connection headroom beyond the loops; over it: 503 (default 64)

OBSERVABILITY
  --trace-capacity N  slowest traces kept per rolling flight-recorder
                      window; 0 disables request tracing (default 256)
  --scrape-secs S     /metrics/history self-scrape cadence in seconds;
                      0 disables the history store (default 10)
  --access-log        one Common Log Format line per request to stderr

WHAT-IF SERVICE (counterfactual simulation campaigns)
  --whatif-workers N  campaign worker threads; 0 disables /whatif (default 2)
  --whatif-queue N    campaigns queued ahead of the workers; beyond it new
                      specs get 429 + Retry-After (default 8)
  --whatif-rep-cap N  upper bound a request's reps= may ask for (default 32)

ENDPOINTS
  /tables/1 /tables/2 /tables/3 /fig2 /errors /mtbe /jobs/impact
  /availability /snapshot /healthz /readyz /metrics
  /rollup?metric=errors|mtbe|impact|availability
         [&bucket=hour|day|week|month] [&tz=UTC|America/Chicago|Europe/Berlin]
         [&from=] [&to=] [&host=] [&xid=]   civil-time rollups
  /debug/traces[?id=HEX|slowest=N|since=UNIX_MS]   slow/error request traces
  /metrics/history?name=METRIC[&from=][&to=][&step=]   scraped series history
  /whatif?[mttr_scale=X][&xid_rate=XID:MULT]...[&sched=fifo|backfill]
         [&seed=N][&reps=N]   counterfactual campaign (GET or POST form body)
  /whatif/jobs/ID             poll a long-running campaign (202 -> 200)
  POST /ingest/{logs,jobs,cpu-jobs,outages}[?seq=N]  (with --ingest-dir)
  POST /ingest/flush    GET /ingest/status
";

fn run(args: &[String]) -> Result<(), CliError> {
    let flags = parse_flags(
        args,
        &[
            "jobs",
            "cpu-jobs",
            "outages",
            "addr",
            "threads",
            "max-conns",
            "window",
            "ingest-dir",
            "year",
            "ingest-queue",
            "publish-events",
            "publish-secs",
            "trace-capacity",
            "scrape-secs",
            "whatif-workers",
            "whatif-queue",
            "whatif-rep-cap",
        ],
    )?;

    // The registry backs /metrics and the request/cache counters; a
    // server run is always instrumented.
    obs::set_enabled(true);

    if flags.value("ingest-dir").is_some() {
        return run_live(&flags);
    }
    if flags.positionals.is_empty() {
        return Err(CliError::Usage(
            "serve needs at least one log file (or --ingest-dir for live mode)".to_owned(),
        ));
    }

    // Load the study exactly as `delta-cli analyze` does: the same Stage I
    // over the day files, the same strict CSV decode.
    let (report, quarantine) = cli::load_study(&flags, |_| {})?.run();
    println!(
        "study ready: {} coalesced errors, {} GPU jobs joined, {} outages",
        report.errors.len(),
        report.impact.gpu_failed_jobs(),
        report.availability.outage_count()
    );

    let store = Arc::new(servd::StoreHandle::new(servd::StudyStore::build(
        report,
        Some(&quarantine),
    )));

    let config = server_config_from_flags(&flags)?;
    servd::signal::install();
    let server = servd::start(config, store)?;
    println!(
        "serving on http://{}  (SIGINT/SIGTERM to stop)",
        server.addr()
    );

    while !servd::signal::shutdown_requested() {
        std::thread::sleep(StdDuration::from_millis(100));
    }
    eprintln!("shutting down");
    server.shutdown();
    Ok(())
}

/// Live-ingest mode: recover (or initialize) the durable ingest state,
/// serve the recovered snapshot immediately, and accept new chunks over
/// `POST /ingest/*` until SIGINT/SIGTERM.
fn run_live(flags: &Flags) -> Result<(), CliError> {
    if !flags.positionals.is_empty() {
        return Err(CliError::Usage(
            "--ingest-dir is exclusive with log file arguments (POST them to /ingest/logs)"
                .to_owned(),
        ));
    }
    for batch_only in ["jobs", "cpu-jobs", "outages"] {
        if flags.value(batch_only).is_some() {
            return Err(CliError::Usage(format!(
                "--ingest-dir is exclusive with --{batch_only} (POST rows to the ingest endpoints)"
            )));
        }
    }

    let dir = flags.value("ingest-dir").unwrap_or_default();
    let mut ingest_config = servd::IngestConfig::new(dir);
    if let Some(n) = flags.value("ingest-queue") {
        ingest_config.queue_capacity = n
            .parse()
            .map_err(|_| CliError::Usage(format!("bad --ingest-queue {n:?}")))?;
        if ingest_config.queue_capacity == 0 {
            return Err(CliError::Usage(
                "--ingest-queue must be positive".to_owned(),
            ));
        }
    }
    if let Some(n) = flags.value("publish-events") {
        ingest_config.publish_every_events = n
            .parse()
            .map_err(|_| CliError::Usage(format!("bad --publish-events {n:?}")))?;
    }
    if let Some(s) = flags.value("publish-secs") {
        let secs: u64 = s
            .parse()
            .map_err(|_| CliError::Usage(format!("bad --publish-secs {s:?}")))?;
        ingest_config.publish_every = StdDuration::from_secs(secs);
    }
    let year: i32 = cli::parse_num_flag(flags, "year", 2024)?;

    // `--window` applies only to a fresh directory: a recovered
    // checkpoint carries its own configuration.
    let pipeline = cli::pipeline_from_flags(flags)?;
    let recovered = servd::ingest::recover(ingest_config, pipeline, year)?;
    let accepted = recovered.accepted;
    println!(
        "ingest state recovered: logs={} jobs={} cpu-jobs={} outages={} chunks accepted, {} replayed from WAL",
        accepted[0], accepted[1], accepted[2], accepted[3], recovered.replayed
    );

    // Serve what survived the restart immediately; the worker republishes
    // on its cadence as new chunks land.
    let (report, quarantine) = recovered.engine.materialize_full();
    println!(
        "study ready: {} coalesced errors, {} GPU jobs joined, {} outages",
        report.errors.len(),
        report.impact.gpu_failed_jobs(),
        report.availability.outage_count()
    );
    let store = Arc::new(servd::StoreHandle::new(servd::StudyStore::build(
        report,
        Some(&quarantine),
    )));

    let worker = servd::ingest::spawn_worker(
        recovered.engine,
        Arc::clone(&recovered.handle),
        Arc::clone(&store),
    );

    let config = server_config_from_flags(flags)?;
    servd::signal::install();
    let server = servd::start_with_ingest(config, store, Some(Arc::clone(&recovered.handle)))?;
    println!(
        "serving on http://{}  (live ingest on /ingest/*; SIGINT/SIGTERM to stop)",
        server.addr()
    );

    while !servd::signal::shutdown_requested() {
        std::thread::sleep(StdDuration::from_millis(100));
    }
    eprintln!("shutting down");
    // Stop accepting HTTP first, then drain the queue so everything
    // acknowledged is applied, published, and checkpointed before exit.
    server.shutdown();
    worker.stop();
    Ok(())
}

/// Shared server flag parsing (`--addr`, `--threads`, `--max-conns`,
/// and the observability trio). Tracing and self-scraping default *on*
/// for the binary (256 traces, 10 s cadence) — the library default is
/// off, but a served study should be inspectable out of the box.
fn server_config_from_flags(flags: &Flags) -> Result<servd::ServerConfig, CliError> {
    let mut config = servd::ServerConfig {
        addr: flags.value("addr").unwrap_or("127.0.0.1:7171").to_owned(),
        ..servd::ServerConfig::default()
    };
    config.workers = cli::parse_num_flag(flags, "threads", config.workers)?;
    config.max_queue = cli::parse_num_flag(flags, "max-conns", config.max_queue)?;
    config.trace_capacity = cli::parse_num_flag(flags, "trace-capacity", 256)?;
    config.scrape_secs = cli::parse_num_flag(flags, "scrape-secs", 10)?;
    config.access_log = flags.has("access-log");
    config.whatif.workers = cli::parse_num_flag(flags, "whatif-workers", config.whatif.workers)?;
    config.whatif.queue_capacity =
        cli::parse_num_flag(flags, "whatif-queue", config.whatif.queue_capacity)?;
    config.whatif.rep_cap = cli::parse_num_flag(flags, "whatif-rep-cap", config.whatif.rep_cap)?;
    if config.whatif.workers > 0
        && (config.whatif.queue_capacity == 0 || config.whatif.rep_cap == 0)
    {
        return Err(CliError::Usage(
            "--whatif-queue and --whatif-rep-cap must be positive (use --whatif-workers 0 to disable the service)"
                .to_owned(),
        ));
    }
    Ok(config)
}
