//! `query`: `delta_serve` on the corpus, one keep-alive connection per
//! load thread, in a closed loop.
//!
//! Half the requests come from a fixed dashboard set (they hit the
//! response cache); the other half are distinct filtered `/errors`,
//! `/rollup?host=&from=&to=` and `/mtbe?xid=` queries drawn from the seed
//! inside the corpus span (they go to the store's render and scatter
//! code). Closed loop because on two shared cores an open-loop
//! generator's own wake-ups swamp microsecond tails.

use super::{guards, med, prom_labeled, prom_sum, self_time, Ctx, Outcome, Windowed};
use crate::client::Client;
use crate::corpus::{Corpus, CorpusFiles};
use crate::oracle::Oracle;
use crate::procs::start_server;
use crate::spans::Recorder;
use delta_gpu_resilience::prelude::*;
use hpclog::extract::XidExtractor;
use hpclog::quarantine::QuarantineLedger;
use resilience::rollup::{self, RollupCube};
use servd::http::{ParseProgress, Parser, RequestLimits};
use servd::{ErrorFilter, ResponseCache, RollupMetric, RollupQuery, StoreHandle, StudyStore};
use std::time::{Duration, Instant};
use xid::ErrorKind;

/// Server spawns per run; `setup_s` is their median.
const SETUP_SPAWNS: usize = 3;
/// Every this many distinct responses per client is kept for checking.
const SPOT_EVERY: u64 = 16;
/// Requests replayed in process by the traced run.
const TRACE_REQUESTS: u64 = 8_000;
/// Each client reconnects after this many requests, so the run averages
/// over many accept decisions (which event-loop thread owns a connection)
/// instead of depending on one.
const RECONNECT_EVERY: u64 = 256;

/// The dashboard half: paper surfaces and canonical rollups.
pub const DASHBOARD: [&str; 12] = [
    "/tables/1",
    "/tables/2",
    "/tables/3",
    "/fig2",
    "/mtbe",
    "/jobs/impact",
    "/availability",
    "/snapshot",
    "/rollup?metric=errors&bucket=day&tz=UTC",
    "/rollup?metric=mtbe&bucket=week&tz=UTC",
    "/rollup?metric=impact&bucket=month&tz=America/Chicago",
    "/rollup?metric=availability&bucket=week&tz=Europe/Berlin",
];

/// What a request asks for, in structured form for the oracle.
#[derive(Debug, Clone)]
pub enum Ask {
    /// `DASHBOARD[i]`.
    Dashboard(usize),
    /// A filtered `/errors`.
    Errors(ErrorFilter),
    /// A host-scoped `/rollup`.
    Rollup(RollupQuery),
    /// `/mtbe?xid=`.
    Mtbe(ErrorKind),
}

/// One request of the stream.
#[derive(Debug, Clone)]
pub struct Req {
    /// Path and query string.
    pub path: String,
    /// What it asks for.
    pub ask: Ask,
}

/// The seeded request stream of one client.
#[derive(Debug)]
pub struct Stream {
    rng: Rng,
    hosts: Vec<String>,
    span: (u64, u64),
    n: u64,
}

impl Stream {
    /// Client `client`'s stream for `seed` over the oracle's hosts and
    /// the corpus time span.
    pub fn new(seed: u64, client: u64, oracle: &Oracle) -> Stream {
        let mut hosts: Vec<String> = oracle
            .report
            .errors
            .iter()
            .map(|e| e.host.clone())
            .collect();
        hosts.sort();
        hosts.dedup();
        if hosts.is_empty() {
            hosts.push("gpub001".to_owned());
        }
        let periods = oracle.report.config.periods;
        let first = oracle
            .report
            .errors
            .first()
            .map_or(periods.op.start, |e| e.time);
        let last = oracle
            .report
            .errors
            .last()
            .map_or(periods.op.end, |e| e.time);
        Stream {
            rng: Rng::seed_from(seed).fork(0x0051_0000 + client),
            hosts,
            span: (first.unix(), last.unix().max(first.unix() + 1)),
            n: 0,
        }
    }

    fn window(&mut self) -> (Timestamp, Timestamp) {
        let from = self.span.0 + self.rng.range_u64(self.span.1 - self.span.0);
        let width = 3_600 + self.rng.range_u64(14 * 86_400);
        (
            Timestamp::from_unix(from),
            Timestamp::from_unix(from + width),
        )
    }

    /// The next request: even positions dashboard, odd positions distinct.
    pub fn next_req(&mut self) -> Req {
        self.n += 1;
        if self.n.is_multiple_of(2) {
            let i = self.rng.range_u64(DASHBOARD.len() as u64) as usize;
            return Req {
                path: DASHBOARD[i].to_owned(),
                ask: Ask::Dashboard(i),
            };
        }
        let pick = self.rng.range_u64(20);
        let kind = ErrorKind::STUDIED[self.rng.range_u64(ErrorKind::STUDIED.len() as u64) as usize];
        if pick >= 18 {
            return Req {
                path: format!("/mtbe?xid={}", kind.primary_code()),
                ask: Ask::Mtbe(kind),
            };
        }
        let host = self.hosts[self.rng.range_u64(self.hosts.len() as u64) as usize].clone();
        let (from, to) = self.window();
        if pick >= 9 {
            let mut query = RollupQuery::for_metric(RollupMetric::Errors);
            query.host = Some(host.clone());
            query.from = Some(from);
            query.to = Some(to);
            return Req {
                path: format!(
                    "/rollup?metric=errors&bucket=day&tz=UTC&host={host}&from={}&to={}",
                    from.unix(),
                    to.unix()
                ),
                ask: Ask::Rollup(query),
            };
        }
        let by_host = pick.is_multiple_of(2);
        let filter = ErrorFilter {
            host: by_host.then(|| host.clone()),
            kind: (!by_host).then_some(kind),
            from: Some(from),
            to: Some(to),
        };
        let key = if by_host {
            format!("host={host}")
        } else {
            format!("xid={}", kind.primary_code())
        };
        Req {
            path: format!("/errors?{key}&from={}&to={}", from.unix(), to.unix()),
            ask: Ask::Errors(filter),
        }
    }
}

/// The oracle's body for `ask`.
fn expected(oracle: &Oracle, ask: &Ask) -> Result<String, String> {
    let s = &oracle.store;
    match ask {
        Ask::Dashboard(i) => {
            let path = DASHBOARD[*i];
            if let Some(surface) = oracle.surface(path) {
                return Ok(surface);
            }
            Ok(match path {
                "/mtbe" => s.mtbe_csv(None),
                "/jobs/impact" => s.jobs_impact_csv(),
                "/availability" => s.availability_json(),
                "/snapshot" => s.snapshot_info(1),
                _ => s.rollup_csv(&dashboard_rollup(path)?)?,
            })
        }
        Ask::Errors(filter) => Ok(oracle.errors_csv(filter)),
        Ask::Rollup(query) => s.rollup_csv(query),
        Ask::Mtbe(kind) => Ok(s.mtbe_csv(Some(*kind))),
    }
}

/// Parses one of the dashboard's canonical rollup paths.
fn dashboard_rollup(path: &str) -> Result<RollupQuery, String> {
    let mut query = RollupQuery::for_metric(RollupMetric::Errors);
    let params = path.split_once('?').map_or("", |(_, p)| p);
    for pair in params.split('&') {
        match pair.split_once('=') {
            Some(("metric", v)) => query.metric = RollupMetric::parse(v)?,
            Some(("bucket", v)) => query.bucket = v.parse().map_err(|_| format!("bucket {v}"))?,
            Some(("tz", v)) => query.tz = v.to_owned(),
            _ => return Err(format!("unexpected dashboard parameter {pair:?}")),
        }
    }
    Ok(query)
}

/// One client's tally.
#[derive(Debug, Default)]
struct Tally {
    /// (completion offset from the run start in s, latency in ms).
    lat_ms: Vec<(f64, f64)>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    spots: Vec<(Ask, Vec<u8>)>,
}

fn client_loop(
    addr: std::net::SocketAddr,
    mut stream: Stream,
    (start, until): (Instant, Instant),
    dashboard: &[Vec<u8>],
) -> Tally {
    let mut client = Client::new(addr, Duration::from_secs(10));
    let mut t = Tally::default();
    let mut distinct = 0u64;
    while Instant::now() < until {
        if t.attempted % RECONNECT_EVERY == RECONNECT_EVERY - 1 {
            client.disconnect();
        }
        let req = stream.next_req();
        t.attempted += 1;
        let sent = Instant::now();
        let resp = client.get(&req.path);
        let ms = sent.elapsed().as_secs_f64() * 1e3;
        match resp {
            Ok(r) if r.ok() => {
                t.lat_ms.push(((sent - start).as_secs_f64(), ms));
                match req.ask {
                    Ask::Dashboard(i) if r.body != dashboard[i] => {
                        t.failed += 1;
                        t.problems
                            .push(format!("{} body differs from the oracle", req.path));
                    }
                    Ask::Dashboard(_) => {}
                    ask => {
                        distinct += 1;
                        if distinct.is_multiple_of(SPOT_EVERY) {
                            t.spots.push((ask, r.body));
                        }
                    }
                }
            }
            Ok(r) => {
                t.failed += 1;
                t.problems
                    .push(format!("{} answered {}", req.path, r.status));
            }
            Err(e) => {
                t.failed += 1;
                t.problems.push(format!("{}: {e}", req.path));
            }
        }
    }
    t
}

/// The measured run.
pub fn run(
    ctx: &Ctx,
    corpus: &Corpus,
    files: &CorpusFiles,
    oracle: &Oracle,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let log = ctx.dir.join("serve-query.log");
    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_SPAWNS {
        // Dropping the previous server kills it before the next spawn.
        drop(server.take());
        let s = start_server(&ctx.bins.serve, &files.args(), &log)?;
        setups.push(s.setup.as_secs_f64());
        server = Some(s);
    }
    let server = server.ok_or("no server started")?;
    let dashboard: Vec<Vec<u8>> = (0..DASHBOARD.len())
        .map(|i| expected(oracle, &Ask::Dashboard(i)).map(String::into_bytes))
        .collect::<Result<_, _>>()?;

    let started = Instant::now();
    let until = started + ctx.seconds;
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..ctx.clients as u64)
            .map(|c| {
                let stream = Stream::new(ctx.seed, c, oracle);
                let dashboard = &dashboard;
                scope.spawn(move || client_loop(server.addr, stream, (started, until), dashboard))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("query client thread panicked"))
            .collect()
    });

    let mut lat = Vec::new();
    let mut spots = Vec::new();
    for t in tallies {
        lat.extend(t.lat_ms);
        out.attempted += t.attempted;
        out.failed += t.failed;
        out.problems.extend(t.problems.into_iter().take(5));
        spots.extend(t.spots);
    }
    for (ask, body) in &spots {
        match expected(oracle, ask) {
            Ok(want) if want.as_bytes() == body.as_slice() => {}
            Ok(_) => out.problem(format!(
                "distinct response for {ask:?} differs from the oracle"
            )),
            Err(e) => out.problem(format!("oracle cannot answer {ask:?}: {e}")),
        }
    }

    let mut client = Client::new(server.addr, Duration::from_secs(10));
    let metrics = client
        .get("/metrics")
        .map_err(|e| format!("/metrics: {e}"))?;
    let metrics = String::from_utf8_lossy(&metrics.body).into_owned();
    let traces = client
        .get("/debug/traces?slowest=20")
        .map_err(|e| format!("/debug/traces: {e}"))?;
    super::dump_traces(ctx, "query", &traces.body)?;
    out.peak_rss_mib = server
        .proc
        .peak_rss_mib()
        .ok_or("delta_serve exited early")?;
    drop(server);

    out.setup_s = med(&setups);
    // The gated tail is p90: on two shared cores the p99 of microsecond
    // reads follows the scheduler more than the server.
    let w = Windowed::of(&lat, 0.9);
    out.p50_ms = w.p50_ms;
    out.tail_ms = w.tail_ms;
    out.ops_per_s = w.per_s;
    out.name("setup_s", out.setup_s, "s");
    out.name("read_rps", out.ops_per_s, "req/s");
    out.name("read_p50_us", out.p50_ms * 1e3, "us");
    out.name("read_p90_us", out.tail_ms * 1e3, "us");
    out.name("read_p99_us", Windowed::of(&lat, 0.99).tail_ms * 1e3, "us");
    out.name("peak_rss_mib", out.peak_rss_mib, "MiB");
    out.name("spot_checked", spots.len() as f64, "count");
    out.name_fail_ratio();

    if ctx.trace {
        let hits = prom_sum(&metrics, "servd_cache_hits_total");
        let misses = prom_sum(&metrics, "servd_cache_misses_total");
        let layers = &mut out.layers;
        layers.insert(
            "servd.server_us",
            prom_sum(&metrics, "servd_request_duration_us_sum")
                / prom_sum(&metrics, "servd_request_duration_us_count").max(1.0),
        );
        layers.insert("servd.cache_hit_ratio", hits / (hits + misses).max(1.0));
        layers.insert(
            "servd.scatter_scans",
            prom_sum(&metrics, "servd_scatter_shard_scans_total")
                / prom_labeled(
                    &metrics,
                    "servd_scatter_queries_total",
                    "endpoint=\"errors\"",
                )
                .max(1.0),
        );
        guards(&metrics, &mut out.layers);
        trace(ctx, corpus, oracle, &mut out)?;
    }
    Ok(out)
}

/// The traced run: the server's start-up (lenient scan, pipeline, store
/// build, cubes) and the request stream, re-executed in process.
fn trace(ctx: &Ctx, corpus: &Corpus, oracle: &Oracle, out: &mut Outcome) -> Result<(), String> {
    let rec = Recorder::new();
    let wall = Instant::now();
    let log = corpus.log_bytes();
    let shards = ctx.clients.min(8);
    let store = rec.span("servd.startup", 0, || {
        let mut ledger = QuarantineLedger::new();
        let mut extractor = XidExtractor::studied_only(corpus.year);
        let events = rec.span("hpclog.scan_lenient", 0, || {
            extractor.scan_reader_lenient(log.as_slice(), &mut ledger)
        });
        let stats = extractor.stats();
        let (gpu, cpu, outages) = rec.span("core.csv_parse", 0, || {
            (
                resilience::csvio::parse_jobs_lenient(&corpus.gpu_csv, &mut ledger),
                resilience::csvio::parse_jobs_lenient(&corpus.cpu_csv, &mut ledger),
                resilience::csvio::parse_outages_lenient(&corpus.outages_csv, &mut ledger),
            )
        });
        let report = rec.span("core.pipeline", 0, || {
            Pipeline::delta().run_events(events, Some(stats), &gpu, &cpu, &outages)
        });
        // The quarantine summary only feeds `/snapshot`'s caveat count,
        // which this replay does not serve.
        rec.span("servd.store_build", 0, || {
            StudyStore::build_sharded(report, None, shards)
        })
    });
    // The store build's cube sets, once more on their own: the 12
    // RollupCube builds plus impact and availability cells.
    let report = store.report();
    rec.span("core.rollup_build", 0, || {
        for name in Tz::BUILTIN {
            let tz = Tz::by_name(name).expect("builtin timezone");
            for bucket in Bucket::ALL {
                std::hint::black_box((
                    RollupCube::build(&tz, bucket, report.errors.iter().map(|e| (e.time, e.kind))),
                    rollup::impact_cells(&tz, bucket, &report.impact),
                    rollup::availability_cells(&tz, bucket, &report.op_outages),
                ));
            }
        }
    });
    if store.table1() != oracle.store.table1() {
        out.problem("traced start-up replay built a different Table I".to_owned());
    }

    let handle = StoreHandle::new(store);
    let cache = ResponseCache::new();
    let parse = |wire: &[u8]| {
        let mut parser = Parser::new(RequestLimits::unbounded());
        parser.push(wire);
        match parser.poll(None) {
            ParseProgress::Done(req) => Ok(req),
            other => Err(format!("parser rejected a benchmark request: {other:?}")),
        }
    };
    // Warm the response cache with the dashboard set, untraced.
    for path in DASHBOARD {
        let req = parse(format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())?;
        servd::router::handle(&req, &handle, &cache, None);
    }
    let published = handle.current();
    let mut stream = Stream::new(ctx.seed, 0, oracle);
    for step in 1..=TRACE_REQUESTS {
        let r = stream.next_req();
        let wire = format!(
            "GET {} HTTP/1.1\r\nHost: bench\r\nContent-Length: 0\r\n\r\n",
            r.path
        );
        rec.span("servd.request", step, || -> Result<(), String> {
            let req = rec.span("servd.parse", step, || parse(wire.as_bytes()))?;
            let s = &published.store;
            match &r.ask {
                Ask::Dashboard(_) => {
                    let resp = rec.span("servd.handle_hit", step, || {
                        servd::router::handle(&req, &handle, &cache, None)
                    });
                    if resp.status != 200 {
                        return Err(format!("{} answered {} in process", r.path, resp.status));
                    }
                }
                Ask::Errors(filter) => {
                    std::hint::black_box(
                        rec.span("servd.render_miss", step, || s.errors_csv(filter)),
                    );
                }
                Ask::Rollup(query) => {
                    rec.span("servd.render_miss", step, || s.rollup_csv(query))?;
                }
                Ask::Mtbe(kind) => {
                    std::hint::black_box(
                        rec.span("servd.render_miss", step, || s.mtbe_csv(Some(*kind))),
                    );
                }
            }
            Ok(())
        })?;
    }
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    let layers = &mut out.layers;
    layers.insert(
        "hpclog.scan_lenient_ms",
        self_time(&rec, "hpclog.scan_lenient", 1e6, false),
    );
    layers.insert(
        "servd.store_build_ms",
        self_time(&rec, "servd.store_build", 1e6, false),
    );
    layers.insert(
        "core.rollup_build_ms",
        self_time(&rec, "core.rollup_build", 1e6, false),
    );
    layers.insert("servd.parse_us", self_time(&rec, "servd.parse", 1e3, true));
    layers.insert(
        "servd.handle_hit_us",
        self_time(&rec, "servd.handle_hit", 1e3, true),
    );
    layers.insert(
        "servd.render_miss_us",
        self_time(&rec, "servd.render_miss", 1e3, true),
    );
    layers.insert("trace.wall_ms", wall_ms);
    super::write_spans(ctx.root, "query", ctx.seed, &rec)
}
