//! E19 tracing overhead: what request-scoped tracing, the flight
//! recorder, and the self-scrape thread cost a keep-alive serving
//! fleet ([`bench::run_fleet`] over the [`bench::ENDPOINTS`] mix).
//!
//! Two parts. First a functional pass against a fully instrumented
//! server (4 shards, 512-trace recorder, 1 s scrape cadence) proves the
//! observability surface end to end: every response carries an
//! `X-Trace-Id` that resolves via `/debug/traces?id=`, an uncached
//! `/errors` trace shows one `shard_scan` span per store shard (the
//! store scans them inline, one after another), a `/rollup` trace
//! resolves too (it shows *no* `shard_scan` span — a rollup folds its
//! cube from the report), `/readyz` answers, `/metrics/history`
//! serves scraped points, and `/metrics` still validates under
//! [`obs::check`]. Then a 160-connection fleet runs back-to-back
//! against a traced and an untraced server (5 rounds, arm order
//! alternating ABBA so warm-up and thermal drift cancel; 1 round under
//! `--smoke`) and the median per-round paired ratio is gated: tracing
//! may cost at most 5% of throughput and 5% of p99 at full scale on a
//! machine with ≥4 cores. Like the throughput floor, the ratio gates
//! scale with the machine: on a 1–2 core container the 160 client
//! threads share the core(s) with the event loop, so the client's own
//! per-request costs (parsing the extra `X-Trace-Id` line) and
//! scheduler tail noise land in the ratio too — there the gates are
//! 12% throughput / 15% p99. Smoke runs on tiny fleets are noisier
//! still and gate at 23%/30% — a tripwire, not a measurement.
//!
//! ```text
//! cargo run --release -p bench --bin trace_overhead [--smoke] [SCALE] [SEED]
//! ```
//!
//! The machine-scaled floor (`150 × min(cores, 8)` req/s, as in
//! `tests/load_gates.rs`) must also hold *with tracing on* —
//! observability that tanks the server below the floor is a regression
//! even if the ratio looks fine.

use bench::{banner, human_ns, run_fleet, run_study, RunOptions, ENDPOINTS};
use servd::testutil::{connect, get_on};
use servd::{ServerConfig, StoreHandle, StudyStore};
use std::sync::Arc;
use std::time::{Duration, Instant};

const FUNCTIONAL_SHARDS: usize = 4;

fn main() {
    let (smoke, options) = RunOptions::from_smoke_args();
    banner("servd tracing overhead (E19)", options);

    let study = run_study(options, false);
    println!(
        "store: {} coalesced errors, {} GPU jobs, {} outages",
        study.report.errors.len(),
        study.report.impact.gpu_failed_jobs(),
        study.report.availability.outage_count()
    );

    functional_pass(&study.report);

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let floor = (150 * cores.min(8)) as f64;
    let shards = cores.clamp(1, 8);
    let (conns, per_conn, rounds) = if smoke { (80, 25, 1) } else { (160, 250, 5) };
    // Smoke fleets finish in milliseconds; scheduler jitter dominates,
    // so the smoke gate is only a tripwire. Full-scale gates scale with
    // the machine (see the module docs): on 1–2 cores the client fleet
    // shares the core budget, so its side of the instrumentation cost
    // (~1 µs/request of X-Trace-Id parsing, as EXPERIMENTS.md E19
    // measured it) gates against the shared ~20 µs round trip rather
    // than a server-only budget.
    let (max_p99_ratio, min_rate_ratio) = if smoke {
        (1.30, 0.77)
    } else if cores >= 4 {
        (1.05, 0.95)
    } else {
        (1.15, 0.88)
    };

    println!(
        "\n-- paired fleets: {conns} connections x {per_conn} requests, \
         {shards} shards, {rounds} round(s) --"
    );
    println!("round  mode      req/s      p50        p90        p99        max      errors");
    let mut traced_rates = Vec::new();
    let mut traced_p99s = Vec::new();
    let mut plain_rates = Vec::new();
    let mut plain_p99s = Vec::new();
    for round in 0..rounds {
        // Pair A/B within every round, alternating the order (ABBA):
        // on small machines the second fleet of a round reliably runs
        // a few percent warmer, and a fixed order would book all of
        // that drift against one arm.
        let order = if round % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for &traced in &order {
            let config = ServerConfig {
                trace_capacity: if traced { 512 } else { 0 },
                scrape_secs: if traced { 1 } else { 0 },
                ..ServerConfig::default()
            };
            let m = run_fleet(&study.report, shards, config, ENDPOINTS, conns, per_conn);
            println!(
                "{round:>5}  {:<8}  {:>9.0}  {:>9}  {:>9}  {:>9}  {:>9}  {:>6}",
                if traced { "traced" } else { "plain" },
                m.rate,
                human_ns(m.p50),
                human_ns(m.p90),
                human_ns(m.p99),
                human_ns(m.max),
                m.errors
            );
            let mode = if traced { "traced" } else { "plain" };
            assert_eq!(
                m.errors, 0,
                "{mode} round {round}: {} failed requests",
                m.errors
            );
            if traced {
                traced_rates.push(m.rate);
                traced_p99s.push(m.p99);
            } else {
                plain_rates.push(m.rate);
                plain_p99s.push(m.p99);
            }
        }
    }

    // Gate on the median of the per-round *paired* ratios: the arms of
    // one round share whatever state the machine was in, so the pair
    // cancels drift that the ratio-of-medians (which mixes rounds)
    // would book as tracing overhead.
    let mut rate_ratios: Vec<f64> = traced_rates
        .iter()
        .zip(&plain_rates)
        .map(|(t, p)| t / p.max(1e-12))
        .collect();
    let mut p99_ratios: Vec<f64> = traced_p99s
        .iter()
        .zip(&plain_p99s)
        .map(|(t, p)| *t as f64 / (*p as f64).max(1e-12))
        .collect();
    let rate_ratio = median_f64(&mut rate_ratios);
    let p99_ratio = median_f64(&mut p99_ratios);
    let traced_rate = median_f64(&mut traced_rates);
    let plain_rate = median_f64(&mut plain_rates);
    let traced_p99 = median_u64(&mut traced_p99s);
    let plain_p99 = median_u64(&mut plain_p99s);
    println!(
        "\nmedians: plain {plain_rate:.0} req/s p99 {}, traced {traced_rate:.0} req/s p99 {}",
        human_ns(plain_p99),
        human_ns(traced_p99)
    );
    println!(
        "paired ratios (median per-round traced/plain): throughput {rate_ratio:.3} \
         (gate >= {min_rate_ratio}), p99 {p99_ratio:.3} (gate <= {max_p99_ratio})"
    );

    assert!(
        rate_ratio >= min_rate_ratio,
        "E19 throughput gate violated: traced/plain {rate_ratio:.3} < {min_rate_ratio}"
    );
    assert!(
        p99_ratio <= max_p99_ratio,
        "E19 p99 gate violated: traced/plain {p99_ratio:.3} > {max_p99_ratio}"
    );
    assert!(
        traced_rate >= floor,
        "E19 floor violated: traced {traced_rate:.0} req/s below machine floor {floor:.0}"
    );
    println!("floor {floor:.0} req/s on {cores} cores — ok (traced)");
    println!(
        "\nReading: the trace path costs ~2 us/request all-in — roughly\n\
         1 us for the X-Trace-Id wire bytes and the client's parse of\n\
         them, ~0.9 us sealing into slowest-N retention, ~0.7 us span\n\
         recording (the split EXPERIMENTS.md E19 records). On a\n\
         multi-core box the client fleet runs beside the event loop and\n\
         that cost sits inside the 5% gate; on this {cores}-core machine\n\
         client and server share the core budget, so the gate scales\n\
         like the floor does. The functional pass above is the real\n\
         payload: every number the fleet produces stays explainable —\n\
         pick any X-Trace-Id off a slow response and /debug/traces shows\n\
         where the time went, stage by stage, shard by shard."
    );
}

/// Proves the full observability surface against one instrumented
/// server before any timing runs.
fn functional_pass(report: &resilience::StudyReport) {
    println!("\n-- functional pass: {FUNCTIONAL_SHARDS} shards, tracing + 1s scrape --");
    let store = Arc::new(StoreHandle::new(StudyStore::build_sharded(
        report.clone(),
        None,
        FUNCTIONAL_SHARDS,
    )));
    let server = servd::start(
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            trace_capacity: 512,
            scrape_secs: 1,
            ..ServerConfig::default()
        },
        Arc::clone(&store),
    )
    .unwrap_or_else(|e| panic!("failed to start server: {e}"));
    let addr = server.addr().to_string();
    let mut conn = connect(&addr);

    // Uncached /errors scans every shard; its trace must show one
    // shard_scan span per shard once the recorder seals it.
    let errors = get_on(&mut conn, "/errors");
    assert_eq!(errors.status, 200, "/errors status");
    let errors_id = errors
        .header("X-Trace-Id")
        .unwrap_or_else(|| panic!("/errors response missing X-Trace-Id"))
        .to_owned();
    let doc = resolve_trace(&mut conn, &errors_id);
    for stage in ["parse", "route", "cache_lookup", "render", "merge", "write"] {
        assert!(
            doc.contains(&format!("\"name\": \"{stage}\"")),
            "/errors trace missing {stage} span: {doc}"
        );
    }
    let scans = doc.matches("\"name\": \"shard_scan\"").count();
    assert_eq!(
        scans, FUNCTIONAL_SHARDS,
        "/errors trace: {scans} shard_scan spans, want one per shard: {doc}"
    );
    println!("   /errors trace {errors_id}: {scans} shard_scan spans + merge — ok");

    // A rollup folds its cube from the report — the trace resolves but
    // carries no shard_scan span (documented in EXPERIMENTS.md E19).
    let rollup = get_on(&mut conn, "/rollup?metric=errors&bucket=day");
    assert_eq!(rollup.status, 200, "/rollup status: {}", rollup.text());
    let rollup_id = rollup
        .header("X-Trace-Id")
        .unwrap_or_else(|| panic!("/rollup response missing X-Trace-Id"))
        .to_owned();
    let doc = resolve_trace(&mut conn, &rollup_id);
    assert_eq!(
        doc.matches("\"name\": \"shard_scan\"").count(),
        0,
        "/rollup folds its cube from the report; trace should show no shard_scan: {doc}"
    );
    println!("   /rollup trace {rollup_id}: resolved, zero shard_scan spans — ok");

    let readyz = get_on(&mut conn, "/readyz");
    assert_eq!(readyz.status, 200, "/readyz: {}", readyz.text());
    assert!(
        readyz.text().contains("\"snapshot\""),
        "/readyz body: {}",
        readyz.text()
    );

    // The startup scrape runs before we could connect, so the history
    // store answers immediately; poll briefly anyway in case the
    // scraper thread is still warming up.
    let deadline = Instant::now() + Duration::from_secs(10);
    let history = loop {
        let h = get_on(&mut conn, "/metrics/history?name=obs_spans_dropped_total");
        if h.status == 200 && h.text().contains("\"points\": [[") {
            break h;
        }
        assert!(
            Instant::now() < deadline,
            "/metrics/history never served points: {} {}",
            h.status,
            h.text()
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    println!(
        "   /readyz + /metrics/history serving ({} bytes of history) — ok",
        history.body.len()
    );

    let metrics = get_on(&mut conn, "/metrics");
    assert_eq!(metrics.status, 200, "/metrics status");
    let summary = obs::check::validate_prometheus(&metrics.text())
        .unwrap_or_else(|e| panic!("/metrics failed obs::check with tracing on: {e}"));
    assert!(
        summary.has_prefix("servd_"),
        "/metrics exposition lost the servd_ families"
    );
    println!("   /metrics validates under obs::check — ok");
    server.shutdown();
}

/// Polls `/debug/traces?id=` until the recorder has sealed and admitted
/// the trace (sealing happens on the event-loop cycle after the
/// response drains, so immediately-after reads can race it).
fn resolve_trace(conn: &mut std::net::TcpStream, id: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let resp = get_on(conn, &format!("/debug/traces?id={id}"));
        if resp.status == 200 {
            let body = resp.text();
            assert!(
                body.contains(&format!("\"id\": \"{id}\"")),
                "trace {id} resolved to a different record: {body}"
            );
            return body;
        }
        assert!(
            Instant::now() < deadline,
            "trace {id} never appeared in /debug/traces (last status {})",
            resp.status
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn median_f64(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    values[values.len() / 2]
}

fn median_u64(values: &mut [u64]) -> u64 {
    values.sort_unstable();
    values[values.len() / 2]
}
