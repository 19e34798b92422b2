//! The repository's benchmark. Run it from the root of a checkout:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload analyze|query|ingest|whatif --seed N --seconds S --trace 0|1
//! ```
//!
//! It builds the release `delta_cli` and `delta_serve` from the checked-out
//! sources, generates the seeded corpus, drives one workload through the
//! binaries for `S` seconds, checks every output against the offline
//! oracle, and prints one JSON object as the last line of stdout. With
//! `--trace 1` it then re-executes the workload in process with spans
//! around each layer's calls and reports the per-layer metrics instead.

mod binaries;
mod client;
mod corpus;
mod oracle;
mod procs;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workloads::{Ctx, Outcome};

/// Wall-clock cap on one workload (measuring time included).
const WORKLOAD_CAP: Duration = Duration::from_secs(150);

const WORKLOADS: [&str; 4] = ["analyze", "query", "ingest", "whatif"];

/// Per-layer metrics: name, unit, and the end-to-end metric and workload
/// it should move. Layers a workload does not run read 0 on it.
const PER_LAYER: &[(&str, &str, &str)] = &[
    ("cli.read_ms", "ms", "p50_ms on analyze"),
    (
        "hpclog.archive_parse_ms",
        "ms",
        "p50_ms and setup_s on analyze",
    ),
    ("hpclog.extract_ms", "ms", "p50_ms on analyze"),
    ("core.csv_parse_ms", "ms", "p50_ms on analyze"),
    ("core.coalesce_ms", "ms", "p50_ms on analyze"),
    ("core.stats_ms", "ms", "p50_ms on analyze"),
    ("core.impact_ms", "ms", "p50_ms on analyze"),
    ("core.availability_ms", "ms", "p50_ms on analyze"),
    ("core.render_ms", "ms", "p50_ms on analyze"),
    ("hpclog.lines", "count", "p50_ms on analyze (work done)"),
    ("hpclog.xid_lines", "count", "p50_ms on analyze (work done)"),
    ("hpclog.quarantined", "count", "nothing (clean corpus)"),
    (
        "core.coalesce_ratio",
        "ratio",
        "p50_ms on analyze (errors out / events in)",
    ),
    ("hpclog.scan_lenient_ms", "ms", "setup_s on query"),
    (
        "servd.store_build_ms",
        "ms",
        "setup_s on query; ops_per_s on ingest",
    ),
    (
        "core.rollup_build_ms",
        "ms",
        "setup_s on query; ops_per_s on ingest",
    ),
    ("servd.parse_us", "us", "p50_ms and ops_per_s on query"),
    ("servd.handle_hit_us", "us", "p50_ms and ops_per_s on query"),
    (
        "servd.render_miss_us",
        "us",
        "tail_ms and ops_per_s on query",
    ),
    ("servd.server_us", "us", "p50_ms and ops_per_s on query"),
    ("servd.cache_hit_ratio", "ratio", "p50_ms on query"),
    ("servd.scatter_scans", "count", "tail_ms on query"),
    ("core.stream_push_ms", "ms", "ops_per_s on ingest"),
    ("core.materialize_ms", "ms", "ops_per_s on ingest"),
    ("core.checkpoint_ms", "ms", "ops_per_s on ingest"),
    ("core.checkpoint_bytes", "bytes", "ops_per_s on ingest"),
    ("core.checkpoint_write_ms", "ms", "ops_per_s on ingest"),
    ("servd.publish_ms", "ms", "ops_per_s on ingest"),
    ("servd.publish_max_ms", "ms", "tail_ms on ingest"),
    ("servd.publishes", "count", "ops_per_s on ingest"),
    ("servd.offer_us", "us", "p50_ms on ingest"),
    ("faultsim.campaign_ms", "ms", "p50_ms and tail_ms on whatif"),
    ("slurmsim.schedule_ms", "ms", "p50_ms and tail_ms on whatif"),
    ("faultsim.events", "count", "p50_ms on whatif (work done)"),
    ("slurmsim.jobs", "count", "p50_ms on whatif (work done)"),
    (
        "slurmsim.error_kills",
        "count",
        "p50_ms on whatif (work done)",
    ),
    ("servd.whatif_computed", "count", "ops_per_s on whatif"),
    ("servd.rejected", "count", "nothing: a guard that reads 0"),
    (
        "servd.whatif_cache_hits",
        "count",
        "nothing: a guard that reads 0",
    ),
    (
        "obs.spans_dropped",
        "count",
        "nothing: a guard that reads 0",
    ),
    (
        "trace.wall_ms",
        "ms",
        "nothing: the traced run's own wall time",
    ),
];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (expected 0 or 1)")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(7),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// Digest of the sources the binaries are built from, so a result names
/// the code it measured even outside a git checkout.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    walk(&root.join("src"), &mut files);
    files.sort();
    let contents: Vec<Vec<u8>> = files
        .iter()
        .map(|f| std::fs::read(f).unwrap_or_default())
        .collect();
    let names: Vec<String> = files
        .iter()
        .map(|f| f.strip_prefix(root).unwrap_or(f).display().to_string())
        .collect();
    let parts = names
        .iter()
        .map(String::as_bytes)
        .zip(contents.iter().map(Vec::as_slice));
    format!("{:016x}", corpus::digest(parts.flat_map(|(a, b)| [a, b])))
}

/// The checkout's git revision, or `none` when the root is not itself a
/// git work tree (an enclosing repository would name the wrong code).
fn git_rev(root: &Path) -> String {
    if !root.join(".git").exists() {
        return "none".to_owned();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(root)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "none".to_owned())
}

fn run(args: &Args, root: &Path, bins: &binaries::Binaries, dir: &Path) -> Result<Outcome, String> {
    let ctx = Ctx {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        bins,
        dir,
        root,
        clients: std::thread::available_parallelism().map_or(1, |n| n.get()),
        trace: args.trace,
    };
    println!(
        "# env: nproc={} seed={} workload={} seconds={} trace={} git_rev={} source_digest={}",
        ctx.clients,
        args.seed,
        args.workload,
        args.seconds,
        u8::from(args.trace),
        git_rev(root),
        source_digest(root)
    );
    if args.workload == "whatif" {
        return workloads::whatif::run(&ctx);
    }
    let prep = Instant::now();
    let corpus = corpus::generate(corpus::SCALE, args.seed);
    println!("# {} (scale {})", corpus.describe(), corpus::SCALE);
    let oracle = oracle::Oracle::build(&corpus);
    let files = corpus
        .write(&dir.join("corpus"))
        .map_err(|e| format!("writing the corpus: {e}"))?;
    println!(
        "# input preparation (not timed): {:.2} s",
        prep.elapsed().as_secs_f64()
    );
    match args.workload.as_str() {
        "analyze" => workloads::analyze::run(&ctx, &files, &oracle),
        "query" => workloads::query::run(&ctx, &corpus, &files, &oracle),
        _ => workloads::ingest::run(&ctx, &corpus, &oracle),
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn result_line(out: &Outcome, trace: bool) -> String {
    let mut metrics: BTreeMap<&str, (f64, &str)> = BTreeMap::new();
    if trace {
        for (name, unit, _) in PER_LAYER {
            metrics.insert(name, (out.layers.get(name).copied().unwrap_or(0.0), unit));
        }
    } else {
        metrics.insert("setup_s", (out.setup_s, "s"));
        metrics.insert("p50_ms", (out.p50_ms, "ms"));
        metrics.insert("tail_ms", (out.tail_ms, "ms"));
        metrics.insert("ops_per_s", (out.ops_per_s, "1/s"));
        metrics.insert("peak_rss_mib", (out.peak_rss_mib, "MiB"));
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, (v, u))| {
            format!(
                "\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.problems.is_empty(),
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let root = match std::env::current_dir() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: no working directory: {e}");
            return ExitCode::from(2);
        }
    };
    for needed in [
        "Cargo.toml",
        "src/bin/delta_cli.rs",
        "src/bin/delta_serve.rs",
        "crates",
    ] {
        if !root.join(needed).exists() {
            eprintln!(
                "error: {} has no {needed}; run the benchmark from the root of a full checkout",
                root.display()
            );
            return ExitCode::from(2);
        }
    }
    let bins = match binaries::build(&root) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let dir = match procs::RunDir::create(&root) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    // Wall-clock cap: past it, kill every child, remove the run
    // directory and exit without a result.
    let done = Arc::new(AtomicBool::new(false));
    let watchdog = {
        let done = Arc::clone(&done);
        let path = dir.path.clone();
        let workload = args.workload.clone();
        std::thread::spawn(move || {
            let deadline = Instant::now() + WORKLOAD_CAP;
            while Instant::now() < deadline {
                if done.load(Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            eprintln!(
                "error: workload {workload} exceeded its {} s wall-clock cap",
                WORKLOAD_CAP.as_secs()
            );
            procs::kill_all();
            let _ = std::fs::remove_dir_all(&path);
            std::process::exit(3);
        })
    };

    let wall = Instant::now();
    let result = std::panic::catch_unwind(|| run(&args, &root, &bins, &dir.path));
    procs::kill_all();
    done.store(true, Ordering::SeqCst);
    let _ = watchdog.join();
    drop(dir);

    let out = match result {
        Ok(Ok(out)) => out,
        Ok(Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        Err(_) => {
            eprintln!("error: the benchmark panicked (children killed, run directory removed)");
            return ExitCode::FAILURE;
        }
    };
    for n in &out.named {
        println!("{} {} = {} {}", args.workload, n.name, n.value, n.unit);
    }
    if args.trace {
        for (name, unit, moves) in PER_LAYER {
            if let Some(v) = out.layers.get(name) {
                println!(
                    "{} {name} = {v} {unit}  (should move {moves})",
                    args.workload
                );
            }
        }
    }
    for p in &out.problems {
        eprintln!("check failed: {p}");
    }
    println!(
        "# {} run wall time: {:.2} s",
        if args.trace { "traced" } else { "untraced" },
        wall.elapsed().as_secs_f64()
    );
    println!("{}", result_line(&out, args.trace));
    if out.failed == 0 && out.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
