//! The observability-is-invisible proof: turning on request tracing,
//! the flight recorder, and the `/metrics/history` self-scrape must
//! not change a single served byte.
//!
//! Three claims, each checked differentially:
//!
//! 1. **Byte identity.** Across chaos rates {0%, 5%}, every query
//!    endpoint returns the same status, body, `X-Snapshot`, and
//!    `X-Cache` header from a traced server as from an untraced one —
//!    cold and cache-hit alike. The only wire difference tracing may
//!    make is the presence of `X-Trace-Id`.
//! 2. **Trace fidelity.** An uncached `/errors` and an uncached
//!    `/rollup` each resolve through `/debug/traces?id=` to a record
//!    with exactly the request stages — `parse`, `queue_wait`, `route`,
//!    `cache_lookup`, `render` and `write`, each once. `/metrics` from
//!    the traced server passes `obs::check`, and `/readyz` flips
//!    200 → 503 when the ingest worker dies.
//! 3. **History fidelity.** [`obs::Tsdb`] answers exactly what a
//!    brute-force replay of the scrape-time snapshots answers, through
//!    an independent reimplementation of the bucket downsampling.

use delta_gpu_resilience::corpus;
use delta_gpu_resilience::prelude::*;
use obs::registry::{MetricSnapshot, MetricValue};
use obs::{HistoryQuery, Tsdb};
use servd::testutil::{connect, get_on, TestResponse};
use servd::{IngestConfig, ServerConfig, StoreHandle, StudyStore};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};

const SCALE: f64 = 0.02;
const SEED: u64 = 0x0B5E;
const LOG_YEAR: i32 = 2022;

/// The endpoint surface compared between the traced and untraced arms:
/// the full E15 mix plus the rollup cubes.
const SURFACE: &[&str] = &[
    "/tables/1",
    "/tables/2",
    "/tables/3",
    "/fig2",
    "/errors",
    "/errors?host=gpub001",
    "/errors?xid=74",
    "/mtbe",
    "/mtbe?xid=119",
    "/jobs/impact",
    "/availability",
    "/rollup?metric=errors&bucket=day",
    "/rollup?metric=mtbe&bucket=week&tz=America/Chicago",
    "/rollup?metric=availability&bucket=month",
    "/snapshot",
    "/healthz",
];

/// One simulated study, optionally chaos-corrupted, through the lenient
/// pipeline.
fn study(chaos_rate: f64) -> (StudyReport, resilience::QuarantineReport) {
    let c = corpus::build(SCALE, SEED, chaos_rate, true);
    c.pipeline
        .run_lenient(c.log(), LOG_YEAR, c.gpu_csv(), c.cpu_csv(), c.out_csv())
}

fn serve(
    report: &StudyReport,
    quarantine: &resilience::QuarantineReport,
    traced: bool,
) -> servd::RunningServer {
    let store = Arc::new(StoreHandle::new(StudyStore::build(
        report.clone(),
        Some(quarantine),
    )));
    servd::start(
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            trace_capacity: if traced { 256 } else { 0 },
            scrape_secs: if traced { 1 } else { 0 },
            ..ServerConfig::default()
        },
        store,
    )
    .expect("server starts on an ephemeral port")
}

/// The parts of a response that must not depend on tracing.
fn comparable(resp: &TestResponse) -> (u16, Option<String>, Option<String>, Vec<u8>) {
    (
        resp.status,
        resp.header("X-Snapshot").map(str::to_owned),
        resp.header("X-Cache").map(str::to_owned),
        resp.body.clone(),
    )
}

/// Polls `/debug/traces?id=` until the event loop seals and admits the
/// trace (that happens one cycle after the response drains).
fn resolve_trace(conn: &mut TcpStream, id: &str) -> String {
    let deadline = Instant::now() + StdDuration::from_secs(5);
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
        std::thread::sleep(StdDuration::from_millis(20));
    }
}

// ------------------------------------------------------------ claim 1

/// Chaos {0%,5%}: the traced and untraced arms serve identical bytes,
/// cold and from cache, and `X-Trace-Id` appears on exactly one arm.
#[test]
fn tracing_never_changes_served_bytes() {
    for chaos_rate in [0.0, 0.05] {
        let (report, quarantine) = study(chaos_rate);
        assert!(
            report.errors.len() > 100,
            "chaos={chaos_rate}: dataset too small"
        );
        let plain = serve(&report, &quarantine, false);
        let traced = serve(&report, &quarantine, true);
        let mut plain_conn = connect(plain.addr());
        let mut traced_conn = connect(traced.addr());
        // Two passes: the first render-misses, the second must hit the
        // response cache on both arms — byte identity has to survive the
        // cache round-trip because cached entries are stored *before*
        // the trace header is applied.
        for pass in ["cold", "cached"] {
            for path in SURFACE {
                let p = get_on(&mut plain_conn, path);
                let t = get_on(&mut traced_conn, path);
                assert_eq!(
                    comparable(&p),
                    comparable(&t),
                    "chaos={chaos_rate} {pass} {path}: traced arm diverged from plain"
                );
                assert!(
                    p.header("X-Trace-Id").is_none(),
                    "untraced arm leaked X-Trace-Id at {path}"
                );
                assert!(
                    t.header("X-Trace-Id").is_some(),
                    "traced arm missing X-Trace-Id at {path}"
                );
            }
        }
        plain.shutdown();
        traced.shutdown();
    }
}

// ------------------------------------------------------------ claim 2

/// The stage names of the one trace in a `/debug/traces?id=` document,
/// sorted.
fn stage_names(doc: &str) -> Vec<&str> {
    let mut names: Vec<&str> = doc
        .split("\"name\": \"")
        .skip(1)
        .filter_map(|rest| rest.split('"').next())
        .collect();
    names.sort_unstable();
    names
}

/// An uncached `/errors` and an uncached `/rollup` each record exactly
/// the request stages, once each; and `/metrics` from the traced,
/// self-scraping server still validates.
#[test]
fn traced_reads_record_exactly_the_request_stages() {
    let (report, quarantine) = study(0.0);
    let server = serve(&report, &quarantine, true);
    let mut conn = connect(server.addr());

    let mut expected = vec![
        "parse",
        "queue_wait",
        "route",
        "cache_lookup",
        "render",
        "write",
    ];
    expected.sort_unstable();
    for path in ["/errors", "/rollup?metric=errors&bucket=day"] {
        let resp = get_on(&mut conn, path);
        assert_eq!(resp.status, 200, "{path}");
        let id = resp
            .header("X-Trace-Id")
            .unwrap_or_else(|| panic!("traced {path} carries X-Trace-Id"))
            .to_owned();
        let doc = resolve_trace(&mut conn, &id);
        assert_eq!(stage_names(&doc), expected, "{path}: {doc}");
    }

    // The exposition stays valid with tracing and the self-scrape on.
    let metrics = get_on(&mut conn, "/metrics");
    assert_eq!(metrics.status, 200, "/metrics status");
    let summary = obs::check::validate_prometheus(&metrics.text())
        .unwrap_or_else(|e| panic!("/metrics failed obs::check with tracing on: {e}"));
    assert!(
        summary.has_prefix("servd_"),
        "/metrics lost the servd_ families"
    );
    server.shutdown();
}

/// `/readyz` is 200 with a live worker (and without ingest at all) and
/// flips to 503 the moment the worker is gone.
#[test]
fn readyz_flips_when_the_ingest_worker_dies() {
    let dir = std::env::temp_dir().join(format!("trace_eq_readyz_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("ingest dir");
    let recovered = servd::ingest::recover(IngestConfig::new(&dir), Pipeline::delta(), LOG_YEAR)
        .expect("recover empty dir");
    let (report, quarantine) = recovered.engine.materialize_full();
    let store = Arc::new(StoreHandle::new(StudyStore::build(
        report,
        Some(&quarantine),
    )));
    let worker = servd::ingest::spawn_worker(
        recovered.engine,
        Arc::clone(&recovered.handle),
        Arc::clone(&store),
    );
    let server = servd::start_with_ingest(
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            ..ServerConfig::default()
        },
        store,
        Some(Arc::clone(&recovered.handle)),
    )
    .expect("server starts");
    let mut conn = connect(server.addr());

    let up = get_on(&mut conn, "/readyz");
    assert_eq!(up.status, 200, "live worker: {}", up.text());
    assert!(up.text().contains("\"live_ingest\":true"), "{}", up.text());
    assert!(up.text().contains("\"ready\":true"), "{}", up.text());

    worker.stop();
    let down = get_on(&mut conn, "/readyz");
    assert_eq!(down.status, 503, "dead worker: {}", down.text());
    assert!(down.text().contains("\"ready\":false"), "{}", down.text());
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------------------------------ claim 3

/// Owned label pairs, as the replay oracle keys its series.
type ReplayLabels = Vec<(String, String)>;

/// Brute-force oracle for [`Tsdb::query`]: filters the recorded
/// scrape-time snapshots and re-downsamples them with an independently
/// written last-sample-per-bucket rule.
fn replay(
    history: &[(u64, Vec<MetricSnapshot>)],
    query: &HistoryQuery,
) -> Vec<(ReplayLabels, Vec<(u64, u64)>)> {
    use std::collections::BTreeMap;
    let mut raw: BTreeMap<ReplayLabels, Vec<(u64, u64)>> = BTreeMap::new();
    for (t, snapshot) in history {
        if *t < query.from || *t >= query.to {
            continue;
        }
        for m in snapshot {
            let (name, value) = match &m.value {
                MetricValue::Counter(v) | MetricValue::Gauge(v) => (m.name.to_owned(), *v),
                MetricValue::Histogram(_) => continue, // exercised in obs's own tests
            };
            if name != query.name {
                continue;
            }
            let labels: ReplayLabels = m
                .labels
                .iter()
                .map(|(k, v)| ((*k).to_owned(), v.clone()))
                .collect();
            raw.entry(labels).or_default().push((*t, value));
        }
    }
    raw.into_iter()
        .filter_map(|(labels, points)| {
            let points = match query.step {
                0 => points,
                step => {
                    // Independent restatement of the downsampling
                    // contract: bucket b covers [from + b*step,
                    // from + (b+1)*step), reports its last sample,
                    // stamped at the bucket start.
                    let mut buckets: BTreeMap<u64, u64> = BTreeMap::new();
                    for (t, v) in points {
                        let bucket = query.from + (t - query.from) / step * step;
                        buckets.insert(bucket, v);
                    }
                    buckets.into_iter().collect()
                }
            };
            (!points.is_empty()).then_some((labels, points))
        })
        .collect()
}

/// Feeds a deterministic snapshot sequence to a [`Tsdb`] while
/// recording every scrape, then checks raw and stepped queries — plus
/// partial time windows — against the brute-force replay.
#[test]
fn history_agrees_with_brute_force_replay_of_scrapes() {
    let tsdb = Tsdb::new(64);
    let mut history: Vec<(u64, Vec<MetricSnapshot>)> = Vec::new();
    for i in 0..40u64 {
        let t = 1_000 + i * 3; // 3 s cadence
        let snapshot = vec![
            MetricSnapshot {
                name: "requests_total",
                labels: vec![("endpoint", "/errors".to_owned())],
                value: MetricValue::Counter(i * i),
            },
            MetricSnapshot {
                name: "requests_total",
                labels: vec![("endpoint", "/rollup".to_owned())],
                value: MetricValue::Counter(i * 7 % 113),
            },
            MetricSnapshot {
                name: "queue_depth",
                labels: vec![],
                value: MetricValue::Gauge((i * 13) % 29),
            },
        ];
        assert!(tsdb.scrape(t, &snapshot), "scrape at t={t} must advance");
        history.push((t, snapshot));
    }

    let queries = [
        HistoryQuery {
            name: "requests_total".to_owned(),
            from: 0,
            to: u64::MAX,
            step: 0,
        },
        HistoryQuery {
            name: "requests_total".to_owned(),
            from: 1_000,
            to: 1_060,
            step: 10,
        },
        HistoryQuery {
            name: "queue_depth".to_owned(),
            from: 1_030,
            to: 1_090,
            step: 7,
        },
        HistoryQuery {
            name: "queue_depth".to_owned(),
            from: 1_117,
            to: 1_118,
            step: 0,
        },
        HistoryQuery {
            name: "nosuchmetric".to_owned(),
            from: 0,
            to: u64::MAX,
            step: 5,
        },
    ];
    for query in queries {
        let got = tsdb.query(&query);
        let want = replay(&history, &query);
        assert_eq!(
            got.series.len(),
            want.len(),
            "{query:?}: series count diverged from replay"
        );
        for (series, (labels, points)) in got.series.iter().zip(&want) {
            assert_eq!(&series.labels, labels, "{query:?}: label order diverged");
            assert_eq!(
                &series.points, points,
                "{query:?} {labels:?}: points diverged from brute-force replay"
            );
        }
    }

    // Non-advancing scrapes store nothing — replay must keep agreeing
    // after a rejected timestamp.
    let stale = vec![MetricSnapshot {
        name: "queue_depth",
        labels: vec![],
        value: MetricValue::Gauge(9_999),
    }];
    assert!(!tsdb.scrape(1_000, &stale), "stale scrape must be rejected");
    let all = HistoryQuery {
        name: "queue_depth".to_owned(),
        from: 0,
        to: u64::MAX,
        step: 0,
    };
    assert_eq!(
        tsdb.query(&all).series[0].points,
        replay(&history, &all)[0].1,
        "rejected scrape leaked into the history"
    );
}
