//! E18 rollup cube sweep: store build cost and calendar-aware rollup
//! query throughput as the store shard count scales.
//!
//! One campaign is simulated and frozen once; then, for each shard
//! count in {1, 2, 4, 8}, a fresh sharded store is built (no cubes: a
//! `/rollup` miss folds the one cube or cell set it names) and the full
//! canonical query surface — every metric × bucket × timezone — is
//! rendered through `rollup_csv`. Every rendered byte must match the
//! 1-shard baseline exactly, or the sweep fails. A second pass measures
//! in-process render throughput per metric, each call folding its own
//! cube or cell set, and a final pass serves `/rollup` over HTTP to a
//! keep-alive fleet, which after the first round exercises the
//! snapshot-scoped response cache.
//!
//! ```text
//! cargo run --release -p bench --bin rollup_sweep [--smoke] [SCALE] [SEED]
//! ```
//!
//! Every HTTP response must be a complete `200` body — one error fails
//! the run. CI asserts the conservative machine-scaled floor (the same
//! `150 × min(cores, 8)` gate `tests/load_gates.rs` holds the serving
//! fleet to) on the served pass, so the
//! sweep stays an honest regression tripwire on small containers.

use bench::{banner, human_ns, run_fleet, run_study, RunOptions};
use servd::{RollupMetric, RollupQuery, ServerConfig, StudyStore};
use simtime::{Bucket, Tz};
use std::time::Instant;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

const METRICS: [(&str, RollupMetric); 4] = [
    ("errors", RollupMetric::Errors),
    ("mtbe", RollupMetric::Mtbe),
    ("impact", RollupMetric::Impact),
    ("availability", RollupMetric::Availability),
];

/// The served request mix: every metric at several grains and
/// timezones, plus the filtered variants: `host=` (folded from that
/// host's posting list), `xid=`, and a `[from,to)` window.
const ENDPOINTS: &[&str] = &[
    "/rollup?metric=errors",
    "/rollup?metric=errors&bucket=hour",
    "/rollup?metric=errors&bucket=week&tz=America/Chicago",
    "/rollup?metric=errors&bucket=month&tz=Europe/Berlin",
    "/rollup?metric=errors&host=gpub001",
    "/rollup?metric=errors&xid=74&bucket=week",
    "/rollup?metric=errors&bucket=day&from=1664582400&to=1672531200",
    "/rollup?metric=mtbe&bucket=month",
    "/rollup?metric=mtbe&bucket=week&tz=America/Chicago",
    "/rollup?metric=impact&bucket=week",
    "/rollup?metric=impact&bucket=month&tz=Europe/Berlin",
    "/rollup?metric=availability&bucket=week",
    "/rollup?metric=availability&bucket=month&tz=America/Chicago",
];

fn main() {
    let (smoke, options) = RunOptions::from_smoke_args();
    banner("rollup cube sweep (E18)", options);

    let study = run_study(options, false);
    println!(
        "study: {} coalesced errors, {} GPU jobs, {} outages",
        study.report.errors.len(),
        study.report.impact.gpu_failed_jobs(),
        study.report.availability.outage_count()
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let floor = (150 * cores.min(8)) as f64;
    let queries = canonical_queries();

    // -- pass 1: build cost + byte-identity across shard counts --
    println!(
        "\n-- store build + canonical sweep ({} queries per store) --",
        queries.len()
    );
    println!("shards  build_s    cells    bytes  vs 1-shard");
    let mut baseline: Option<Vec<String>> = None;
    for shards in SHARD_COUNTS {
        let start = Instant::now();
        let store = StudyStore::build_sharded(study.report.clone(), None, shards);
        let build_s = start.elapsed().as_secs_f64();
        let rendered: Vec<String> = queries
            .iter()
            .map(|q| {
                store
                    .rollup_csv(q)
                    .unwrap_or_else(|e| panic!("shards={shards}: canonical query failed: {e}"))
            })
            .collect();
        let cells: usize = rendered
            .iter()
            .map(|csv| csv.lines().count().saturating_sub(1))
            .sum();
        let bytes: usize = rendered.iter().map(String::len).sum();
        let verdict = match &baseline {
            None => {
                baseline = Some(rendered);
                "baseline"
            }
            Some(base) => {
                assert_eq!(
                    base, &rendered,
                    "shards={shards}: rollup output diverged from the 1-shard baseline"
                );
                "identical"
            }
        };
        println!("{shards:>6}  {build_s:>7.3}  {cells:>7}  {bytes:>7}  {verdict}");
    }

    // -- pass 2: in-process render throughput (no response cache) --
    let width = cores.clamp(1, 8);
    let store = StudyStore::build_sharded(study.report.clone(), None, width);
    let rounds = if smoke { 5 } else { 50 };
    println!("\n-- in-process render throughput at {width} shards, {rounds} rounds --");
    println!("metric        queries/s     cells/s");
    for (name, metric) in METRICS {
        let subset: Vec<&RollupQuery> = queries.iter().filter(|q| q.metric == metric).collect();
        for q in &subset {
            std::hint::black_box(store.rollup_csv(q)).ok();
        }
        let mut cells = 0usize;
        let start = Instant::now();
        for _ in 0..rounds {
            for q in &subset {
                let csv = store
                    .rollup_csv(q)
                    .unwrap_or_else(|e| panic!("{name}: render failed: {e}"));
                cells += csv.lines().count().saturating_sub(1);
            }
        }
        let secs = start.elapsed().as_secs_f64().max(1e-12);
        println!(
            "{name:<12}  {:>9.0}  {:>10.0}",
            (rounds * subset.len()) as f64 / secs,
            cells as f64 / secs
        );
    }

    // -- pass 3: served fleet (the cache-warm path users actually hit) --
    let (conns, per_conn) = if smoke { (40, 25) } else { (80, 200) };
    println!(
        "\n-- served /rollup fleet at {width} shards, {conns} connections x {per_conn} requests --"
    );
    println!(" req/s      p50        p90        p99        max      errors");
    let m = run_fleet(
        &study.report,
        width,
        ServerConfig::default(),
        ENDPOINTS,
        conns,
        per_conn,
    );
    println!(
        "{:>6.0}  {:>9}  {:>9}  {:>9}  {:>9}  {:>6}",
        m.rate,
        human_ns(m.p50),
        human_ns(m.p90),
        human_ns(m.p99),
        human_ns(m.max),
        m.errors
    );
    assert_eq!(m.errors, 0, "{} failed /rollup requests", m.errors);
    assert!(
        m.rate >= floor,
        "E18 floor violated — {:.0} req/s below machine floor {floor:.0}",
        m.rate
    );
    println!("\nfloor {floor:.0} req/s on {cores} cores — ok");
    println!(
        "\nReading: the store build (pass 1) folds no cube; each /rollup\n\
         miss folds the one it names, and the bytes must stay identical\n\
         however the store is sharded — the sweep re-renders the full\n\
         metric x bucket x timezone surface per shard count and diffs it\n\
         against the 1-shard baseline. Pass 2 is the uncached render cost\n\
         per metric, fold included; pass 3 is what clients see,\n\
         where the snapshot-scoped response cache collapses repeat\n\
         queries to a memcpy after the first round."
    );
}

/// Every metric × bucket × built-in timezone: the full unfiltered
/// `/rollup` surface, 48 queries.
fn canonical_queries() -> Vec<RollupQuery> {
    let mut queries = Vec::new();
    for (_, metric) in METRICS {
        for bucket in Bucket::ALL {
            for tz in Tz::BUILTIN {
                queries.push(RollupQuery {
                    bucket,
                    tz: tz.to_owned(),
                    ..RollupQuery::for_metric(metric)
                });
            }
        }
    }
    queries
}
