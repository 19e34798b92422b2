//! Request routing: path + query → rendered [`Response`].
//!
//! The router is a pure function of `(request, snapshot, cache)`; the
//! snapshot is pinned by cloning the handle's `Arc` **once** at the top,
//! so every byte of a response comes from a single store no matter how
//! many swaps land mid-request. Store-derived endpoints carry an
//! `X-Snapshot` header naming that snapshot and an `X-Cache: hit|miss`
//! header, giving tests a deterministic view of cache behavior without
//! reading global metrics.
//!
//! Each request stage is an [`obs::span()`]: `route` around the dispatch,
//! `cache_lookup` and `render` on the read path, and `whatif_parse`,
//! `whatif_cache`, `whatif_enqueue` and `whatif_wait` on the compute
//! path. Every span adds to its `obs_span_*` series, and
//! [`handle_traced`] enters the request's trace so they land in it too.

use crate::admission;
use crate::cache::ResponseCache;
use crate::http::{Request, Response};
use crate::ingest::{IngestHandle, IngestStream, Offer};
use crate::store::{parse_time, parse_xid, ErrorFilter, RollupMetric, RollupQuery, StoreHandle};
use crate::whatif::{self, WhatifHandle};
use obs::registry::DURATION_US_BUCKETS;
use obs::{Counter, FlightRecorder, Histogram, HistoryQuery, Trace, Tsdb};
use resilience::scenario::ScenarioSpec;
use simtime::civiltime::ParseCivilError;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// The serving-side observability handles the router reads from: the
/// flight recorder behind `/debug/traces` and the self-scraped
/// time-series store behind `/metrics/history`. Either may be `None`
/// (the feature is off); the endpoints then answer `404` with a hint,
/// mirroring how `/ingest/*` behaves on a read-only server.
#[derive(Debug, Clone, Default)]
pub struct ObsState {
    /// Completed-trace retention, when request tracing is enabled.
    pub recorder: Option<Arc<FlightRecorder>>,
    /// Metrics history rings, when self-scraping is enabled.
    pub tsdb: Option<Arc<Tsdb>>,
}

/// Routes one request against the current snapshot. `ingest` is the
/// write path (`None` on a read-only server — `/ingest/*` then answers
/// `404`). Untraced compatibility entry point: equivalent to
/// [`handle_traced`] with observability off.
pub fn handle(
    req: &Request,
    store: &StoreHandle,
    cache: &ResponseCache,
    ingest: Option<&IngestHandle>,
) -> Response {
    handle_traced(req, store, cache, ingest, None, &ObsState::default(), None)
}

/// [`handle`] with the request's trace entered on this thread around
/// the dispatch, so the stage spans land in it, and an `X-Trace-Id`
/// header naming the trace. The header is attached *after* the cache
/// write (like `X-Snapshot`/`X-Cache`), so cached bytes stay
/// trace-free and responses are byte-identical with tracing on or off.
pub fn handle_traced(
    req: &Request,
    store: &StoreHandle,
    cache: &ResponseCache,
    ingest: Option<&IngestHandle>,
    whatif: Option<&WhatifHandle>,
    state: &ObsState,
    trace: Option<&Arc<Trace>>,
) -> Response {
    let started = Instant::now();
    let entered = trace.map(Trace::enter);
    let route = obs::span("route");
    let response = dispatch(req, store, cache, ingest, whatif, state);
    drop(route);
    drop(entered);
    if obs::is_enabled() {
        let took_us = started.elapsed().as_micros() as u64;
        RouteSeries::with(|s| s.count(endpoint_label(&req.path), response.status, took_us));
    }
    match trace {
        Some(t) => response.with_header("X-Trace-Id", t.id_hex()),
        None => response,
    }
}

/// This thread's handles to the router's registry series, each looked
/// up once per label value (as `obs` caches span series), so a request
/// counts with relaxed atomic adds instead of a registry lookup, its
/// label-set allocation and the registry's one mutex. A series is still
/// registered on its first use, so `/metrics` lists the same series.
#[derive(Default)]
struct RouteSeries {
    requests: HashMap<&'static str, Counter>,
    responses: HashMap<u16, Counter>,
    duration: Option<Histogram>,
    cache_hits: Option<Counter>,
    cache_misses: Option<Counter>,
}

impl RouteSeries {
    fn with(f: impl FnOnce(&mut RouteSeries)) {
        thread_local! {
            static SERIES: RefCell<RouteSeries> = RefCell::default();
        }
        SERIES.with_borrow_mut(f);
    }

    /// Counts one answered request.
    fn count(&mut self, endpoint: &'static str, status: u16, took_us: u64) {
        self.requests
            .entry(endpoint)
            .or_insert_with(|| obs::counter("servd_requests_total", &[("endpoint", endpoint)]))
            .inc();
        self.responses
            .entry(status)
            .or_insert_with(|| {
                obs::counter("servd_responses_total", &[("code", &status.to_string())])
            })
            .inc();
        self.duration
            .get_or_insert_with(|| {
                obs::histogram("servd_request_duration_us", &[], DURATION_US_BUCKETS)
            })
            .observe(took_us);
    }

    /// Counts one response-cache lookup.
    fn cache(&mut self, hit: bool) {
        let (slot, name) = if hit {
            (&mut self.cache_hits, "servd_cache_hits_total")
        } else {
            (&mut self.cache_misses, "servd_cache_misses_total")
        };
        slot.get_or_insert_with(|| obs::counter(name, &[])).inc();
    }
}

/// Collapses paths to a bounded label set so the metric cardinality
/// cannot be driven by request spam.
fn endpoint_label(path: &str) -> &'static str {
    match path {
        "/healthz" => "healthz",
        "/readyz" => "readyz",
        "/metrics" => "metrics",
        "/metrics/history" => "metrics_history",
        "/debug/traces" => "debug_traces",
        "/snapshot" => "snapshot",
        "/fig2" => "fig2",
        "/errors" => "errors",
        "/mtbe" => "mtbe",
        "/rollup" => "rollup",
        "/jobs/impact" => "jobs_impact",
        "/availability" => "availability",
        "/ingest/logs" => "ingest_logs",
        "/ingest/jobs" => "ingest_jobs",
        "/ingest/cpu-jobs" => "ingest_cpu_jobs",
        "/ingest/outages" => "ingest_outages",
        "/ingest/status" => "ingest_status",
        "/ingest/flush" => "ingest_flush",
        "/whatif" => "whatif",
        p if p.starts_with("/whatif/jobs/") => "whatif_jobs",
        p if p.starts_with("/tables/") => "tables",
        _ => "other",
    }
}

/// Renders a `405` that names the methods the endpoint *does* accept —
/// the `Allow` header RFC 9110 requires on every 405.
fn method_not_allowed(allow: &'static str, body: &str) -> Response {
    Response::text(405, body).with_header("Allow", allow)
}

fn dispatch(
    req: &Request,
    store: &StoreHandle,
    cache: &ResponseCache,
    ingest: Option<&IngestHandle>,
    whatif: Option<&WhatifHandle>,
    state: &ObsState,
) -> Response {
    if let Some(segment) = req.path.strip_prefix("/ingest/") {
        return dispatch_ingest(req, segment, ingest);
    }
    if req.path == "/whatif" || req.path.starts_with("/whatif/") {
        return dispatch_whatif(req, store, whatif);
    }
    if req.method != "GET" && req.method != "HEAD" {
        return method_not_allowed("GET, HEAD", "only GET and HEAD are supported here\n");
    }

    // Uncached, snapshot-independent endpoints first.
    match req.path.as_str() {
        "/healthz" => return Response::text(200, "ok\n"),
        "/readyz" => return readyz(store, ingest),
        "/metrics" => {
            return Response::text(200, obs::global().report().to_prometheus());
        }
        "/metrics/history" => return metrics_history(req, state),
        "/debug/traces" => return debug_traces(req, state),
        _ => {}
    }

    // Everything else reads the store: pin one snapshot for the whole
    // request.
    let published = store.current();
    let key = ResponseCache::key(&req.path, &req.canonical_query());
    let lookup = obs::span("cache_lookup");
    let cached = cache.get(published.id, &key);
    drop(lookup);
    if obs::is_enabled() {
        RouteSeries::with(|s| s.cache(cached.is_some()));
    }
    if let Some(cached) = cached {
        return cached
            .with_header("X-Snapshot", published.id.to_string())
            .with_header("X-Cache", "hit");
    }

    let render = obs::span("render");
    let s = &published.store;
    let response = match req.path.as_str() {
        "/tables/1" => Response::text(200, s.table1()),
        "/tables/2" => Response::text(200, s.table2()),
        "/tables/3" => Response::text(200, s.table3()),
        "/fig2" => Response::text(200, s.fig2()),
        "/errors" => match error_filter(req) {
            Ok(filter) => Response::csv(200, s.errors_csv(&filter)),
            Err(msg) => Response::text(400, format!("{msg}\n")),
        },
        "/mtbe" => match req.query_value("xid").map(parse_xid).transpose() {
            Ok(kind) => Response::csv(200, s.mtbe_csv(kind)),
            Err(msg) => Response::text(400, format!("{msg}\n")),
        },
        "/rollup" => match rollup_query(req).and_then(|q| s.rollup_csv(&q)) {
            Ok(csv) => Response::csv(200, csv),
            Err(msg) => Response::text(400, format!("{msg}\n")),
        },
        "/jobs/impact" => Response::csv(200, s.jobs_impact_csv()),
        "/availability" => Response::json(200, s.availability_json()),
        "/snapshot" => Response::text(200, s.snapshot_info(published.id)),
        _ => Response::text(404, "no such endpoint\n"),
    };
    drop(render);

    if response.status == 200 {
        cache.put(published.id, key, response.clone());
    }
    response
        .with_header("X-Snapshot", published.id.to_string())
        .with_header("X-Cache", "miss")
}

/// `GET /readyz`: the liveness-plus-freshness surface. Always JSON;
/// `503` when live ingest is configured but its worker has died (the
/// serving path still works, the data is just going stale). The same
/// numbers are mirrored as gauges so scrape-based alerting needs no
/// JSON parsing.
fn readyz(store: &StoreHandle, ingest: Option<&IngestHandle>) -> Response {
    let published = store.current();
    let age_secs = published.at.elapsed().as_secs();
    let stats = ingest.map(IngestHandle::ready_stats);
    let ready = stats.is_none_or(|s| s.worker_running);
    let (queue_depth, wal_bytes) = stats.map_or((0, 0), |s| (s.queue_depth as u64, s.wal_bytes));
    if obs::is_enabled() {
        obs::gauge("servd_ready", &[]).set(u64::from(ready));
        obs::gauge("servd_snapshot_id", &[]).set(published.id);
        obs::gauge("servd_snapshot_age_secs", &[]).set(age_secs);
    }
    let body = format!(
        "{{\"ready\":{ready},\"snapshot\":{},\"snapshot_age_secs\":{age_secs},\
         \"ingest_queue_depth\":{queue_depth},\"wal_backlog_bytes\":{wal_bytes},\
         \"live_ingest\":{}}}\n",
        published.id,
        ingest.is_some(),
    );
    Response::json(if ready { 200 } else { 503 }, body)
}

/// `GET /debug/traces`: the flight recorder's JSON dump. `?id=` looks
/// up one trace by its `X-Trace-Id` hex, `?slowest=N` truncates the
/// slowest-first listing, `?since=MS` (unix milliseconds) drops traces
/// started earlier. Unknown keys fail loudly like every other query
/// surface here.
fn debug_traces(req: &Request, state: &ObsState) -> Response {
    let Some(recorder) = state.recorder.as_ref() else {
        return Response::text(
            404,
            "request tracing is not enabled (start with --trace-capacity > 0)\n",
        );
    };
    let mut id = None;
    let mut slowest = None;
    let mut since = None;
    for (k, v) in &req.query {
        match k.as_str() {
            "id" => match obs::trace::parse_hex_id(v) {
                Some(n) => id = Some(n),
                None => return Response::text(400, format!("bad trace id {v:?}\n")),
            },
            "slowest" => match v.parse::<usize>() {
                Ok(n) => slowest = Some(n),
                Err(_) => return Response::text(400, format!("bad slowest count {v:?}\n")),
            },
            "since" => match v.parse::<u64>() {
                Ok(n) => since = Some(n),
                Err(_) => return Response::text(400, format!("bad since timestamp {v:?}\n")),
            },
            other => return Response::text(400, format!("unknown query parameter {other:?}\n")),
        }
    }
    if let Some(id) = id {
        return match recorder.find(id) {
            Some(record) => Response::json(200, obs::trace::render_traces_json(&[record])),
            None => Response::text(404, format!("no such trace {id:016x}\n")),
        };
    }
    let mut traces = recorder.snapshot();
    if let Some(since) = since {
        traces.retain(|r| r.started_unix_ms >= since);
    }
    if let Some(n) = slowest {
        traces.truncate(n);
    }
    Response::json(200, obs::trace::render_traces_json(&traces))
}

/// `GET /metrics/history`: range queries over the self-scraped series
/// rings. `name` is required; `from`/`to` bound scrape timestamps as
/// `[from, to)` unix seconds; `step` downsamples to one point per
/// bucket (0 = raw).
fn metrics_history(req: &Request, state: &ObsState) -> Response {
    let Some(tsdb) = state.tsdb.as_ref() else {
        return Response::text(
            404,
            "metrics history is not enabled (start with --scrape-secs > 0)\n",
        );
    };
    let mut name = None;
    let (mut from, mut to, mut step) = (0u64, u64::MAX, 0u64);
    for (k, v) in &req.query {
        let slot = match k.as_str() {
            "name" => {
                name = Some(v.clone());
                continue;
            }
            "from" => &mut from,
            "to" => &mut to,
            "step" => &mut step,
            other => return Response::text(400, format!("unknown query parameter {other:?}\n")),
        };
        match v.parse::<u64>() {
            Ok(n) => *slot = n,
            Err(_) => return Response::text(400, format!("bad {k} value {v:?}\n")),
        }
    }
    let Some(name) = name else {
        return Response::text(400, "missing required parameter name=<metric name>\n");
    };
    Response::json(
        200,
        tsdb.query_json(&HistoryQuery {
            name,
            from,
            to,
            step,
        }),
    )
}

/// The compute path: `GET/POST /whatif?...` and `GET /whatif/jobs/:id`.
/// Results are cached by the what-if job registry itself, keyed by
/// `(snapshot, canonical spec)`; `X-Cache` reports whether this request
/// hit a finished campaign.
fn dispatch_whatif(req: &Request, store: &StoreHandle, whatif: Option<&WhatifHandle>) -> Response {
    let Some(handle) = whatif else {
        return Response::text(404, "the what-if service is not enabled on this server\n");
    };
    if let Some(id) = req.path.strip_prefix("/whatif/jobs/") {
        if req.method != "GET" && req.method != "HEAD" {
            return method_not_allowed("GET, HEAD", "use GET to poll a whatif job\n");
        }
        return whatif::poll_response(handle, id);
    }
    if req.path != "/whatif" {
        return Response::text(404, "no such endpoint\n");
    }
    if req.method != "GET" && req.method != "HEAD" && req.method != "POST" {
        return method_not_allowed("GET, HEAD, POST", "use GET or POST for /whatif\n");
    }
    let parse = obs::span("whatif_parse");
    let pairs = match whatif::request_pairs(req) {
        Ok(pairs) => pairs,
        Err(msg) => return Response::text(400, msg),
    };
    let spec = match ScenarioSpec::parse(&pairs, handle.rep_cap()) {
        Ok(spec) => spec,
        Err(e) => return Response::text(400, format!("{e}\n")),
    };
    drop(parse);
    // Snapshot-scoped like the read path: pin the current snapshot once
    // and fold its id into the job key.
    let published = store.current();
    let lookup = obs::span("whatif_cache");
    let submitted = handle.submit(published.id, &spec);
    drop(lookup);
    match submitted {
        whatif::Submit::Ready { body } => Response::json(200, body)
            .with_header("X-Snapshot", published.id.to_string())
            .with_header("X-Cache", "hit"),
        whatif::Submit::Overloaded { retry_after_secs } => {
            admission::overloaded("whatif", retry_after_secs)
        }
        whatif::Submit::ShuttingDown => {
            Response::text(503, "the what-if service is shutting down\n")
        }
        whatif::Submit::Accepted { id } => {
            drop(obs::span("whatif_enqueue"));
            if spec.reps <= whatif::SYNC_REPS {
                let wait = obs::span("whatif_wait");
                let resp = whatif::sync_response(handle, &id);
                drop(wait);
                if resp.status == 200 {
                    return resp
                        .with_header("X-Snapshot", published.id.to_string())
                        .with_header("X-Cache", "miss");
                }
                resp
            } else {
                whatif::accepted_response(handle, &id)
            }
        }
    }
}

/// The write path: `POST /ingest/{logs,jobs,cpu-jobs,outages}[?seq=N]`,
/// `POST /ingest/flush`, `GET /ingest/status`. Responses are JSON and
/// never cached (they are not snapshot-scoped).
fn dispatch_ingest(req: &Request, segment: &str, ingest: Option<&IngestHandle>) -> Response {
    let Some(ingest) = ingest else {
        return Response::text(404, "live ingest is not enabled on this server\n");
    };
    match segment {
        "status" => {
            if req.method != "GET" && req.method != "HEAD" {
                return method_not_allowed("GET, HEAD", "use GET for /ingest/status\n");
            }
            return Response::json(200, ingest.status_json());
        }
        "flush" => {
            if req.method != "POST" {
                return method_not_allowed("POST", "use POST for /ingest/flush\n");
            }
            return match ingest.flush() {
                Ok(info) => Response::json(
                    200,
                    format!("{{\"flushed\":true,\"snapshot\":{}}}\n", info.snapshot),
                ),
                Err(why) => Response::text(503, format!("flush failed: {why}\n")),
            };
        }
        _ => {}
    }
    let Some(stream) = IngestStream::from_segment(segment) else {
        return Response::text(404, "no such ingest stream\n");
    };
    if req.method != "POST" {
        return method_not_allowed("POST", "use POST to ingest\n");
    }
    let seq = match req.query_value("seq") {
        None => None,
        Some(raw) => match raw.parse::<u64>() {
            Ok(n) => Some(n),
            Err(_) => return Response::text(400, format!("bad seq {raw:?}\n")),
        },
    };
    match ingest.offer(stream, seq, &req.body) {
        Offer::Accepted { seq } => Response::json(
            200,
            format!(
                "{{\"stream\":\"{}\",\"seq\":{seq},\"accepted\":{}}}\n",
                stream.name(),
                seq + 1
            ),
        ),
        Offer::Duplicate { accepted } => Response::json(
            200,
            format!(
                "{{\"stream\":\"{}\",\"duplicate\":true,\"accepted\":{accepted}}}\n",
                stream.name()
            ),
        ),
        Offer::Gap { expected } => Response::json(
            409,
            format!(
                "{{\"stream\":\"{}\",\"error\":\"sequence gap\",\"expected\":{expected}}}\n",
                stream.name()
            ),
        ),
        Offer::Overloaded { retry_after_secs } => admission::overloaded("ingest", retry_after_secs),
        Offer::Unavailable => Response::text(503, "ingest is shutting down\n"),
        Offer::WalFailed(why) => {
            Response::text(503, format!("ingest write-ahead log failed: {why}\n"))
        }
    }
}

/// Builds the `/errors` filter from the query, rejecting unknown keys so
/// a typo (`?hots=`) fails loudly instead of silently returning the
/// unfiltered set.
fn error_filter(req: &Request) -> Result<ErrorFilter, String> {
    let mut filter = ErrorFilter::default();
    for (k, v) in &req.query {
        match k.as_str() {
            "host" => filter.host = Some(v.clone()),
            "xid" => filter.kind = Some(parse_xid(v)?),
            "from" => filter.from = Some(parse_time(v)?),
            "to" => filter.to = Some(parse_time(v)?),
            other => return Err(format!("unknown query parameter {other:?}")),
        }
    }
    Ok(filter)
}

/// Builds the `/rollup` query: `metric` is required, `bucket` defaults
/// to `day` and `tz` to `UTC`, and unknown keys fail loudly like
/// [`error_filter`]. Filter applicability (host is errors-only, xid
/// never applies to availability) is checked by the store renderer.
fn rollup_query(req: &Request) -> Result<RollupQuery, String> {
    let mut metric = None;
    let mut query = RollupQuery::for_metric(RollupMetric::Errors);
    for (k, v) in &req.query {
        match k.as_str() {
            "metric" => metric = Some(RollupMetric::parse(v)?),
            "bucket" => query.bucket = v.parse().map_err(|e: ParseCivilError| e.to_string())?,
            "tz" => query.tz = v.clone(),
            "host" => query.host = Some(v.clone()),
            "xid" => query.kind = Some(parse_xid(v)?),
            "from" => query.from = Some(parse_time(v)?),
            "to" => query.to = Some(parse_time(v)?),
            other => return Err(format!("unknown query parameter {other:?}")),
        }
    }
    match metric {
        Some(metric) => {
            query.metric = metric;
            Ok(query)
        }
        None => Err("missing required parameter metric=errors|mtbe|impact|availability".to_owned()),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::store::StudyStore;
    use resilience::Pipeline;

    fn empty_handle() -> StoreHandle {
        let report = Pipeline::delta().run_events(Vec::new(), None, &[], &[], &[]);
        StoreHandle::new(StudyStore::build(report, None))
    }

    fn get(path: &str, query: &[(&str, &str)]) -> Request {
        Request {
            method: "GET".to_owned(),
            path: path.to_owned(),
            query: query
                .iter()
                .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
                .collect(),
            body: Vec::new(),
            keep_alive: true,
        }
    }

    fn post(path: &str, query: &[(&str, &str)], body: &[u8]) -> Request {
        Request {
            body: body.to_vec(),
            method: "POST".to_owned(),
            ..get(path, query)
        }
    }

    fn header<'a>(resp: &'a Response, name: &str) -> Option<&'a str> {
        resp.extra
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    #[test]
    fn routes_every_endpoint() {
        let store = empty_handle();
        let cache = ResponseCache::new();
        for path in [
            "/healthz",
            "/metrics",
            "/tables/1",
            "/tables/2",
            "/tables/3",
            "/fig2",
            "/errors",
            "/mtbe",
            "/jobs/impact",
            "/availability",
            "/snapshot",
        ] {
            let resp = handle(&get(path, &[]), &store, &cache, None);
            assert_eq!(resp.status, 200, "{path}");
        }
        assert_eq!(handle(&get("/nope", &[]), &store, &cache, None).status, 404);
    }

    #[test]
    fn non_get_is_405() {
        let store = empty_handle();
        let cache = ResponseCache::new();
        let mut req = get("/healthz", &[]);
        req.method = "DELETE".to_owned();
        assert_eq!(handle(&req, &store, &cache, None).status, 405);
    }

    #[test]
    fn bad_queries_are_400() {
        let store = empty_handle();
        let cache = ResponseCache::new();
        for (path, query) in [
            ("/errors", [("xid", "13")]),
            ("/errors", [("from", "whenever")]),
            ("/errors", [("bogus", "1")]),
            ("/mtbe", [("xid", "abc")]),
            ("/rollup", [("metric", "bogus")]),
            ("/rollup", [("bogus", "1")]),
        ] {
            let resp = handle(&get(path, &query), &store, &cache, None);
            assert_eq!(resp.status, 400, "{path}?{query:?}");
            // Every 400 body is one line: it ends in exactly one newline.
            assert!(
                resp.body.ends_with('\n') && !resp.body.ends_with("\n\n"),
                "{path}?{query:?}: {:?}",
                resp.body
            );
        }
    }

    #[test]
    fn cache_hits_on_reordered_params_and_misses_after_swap() {
        let store = empty_handle();
        let cache = ResponseCache::new();
        let a = handle(
            &get("/errors", &[("host", "h"), ("from", "5")]),
            &store,
            &cache,
            None,
        );
        assert_eq!(header(&a, "X-Cache"), Some("miss"));
        let b = handle(
            &get("/errors", &[("from", "5"), ("host", "h")]),
            &store,
            &cache,
            None,
        );
        assert_eq!(header(&b, "X-Cache"), Some("hit"));
        assert_eq!(a.body, b.body);

        let report = Pipeline::delta().run_events(Vec::new(), None, &[], &[], &[]);
        store.publish(StudyStore::build(report, None));
        let c = handle(
            &get("/errors", &[("host", "h"), ("from", "5")]),
            &store,
            &cache,
            None,
        );
        assert_eq!(header(&c, "X-Cache"), Some("miss"), "swap invalidates");
        assert_eq!(header(&c, "X-Snapshot"), Some("2"));
    }

    #[test]
    fn rollup_routes_and_validates() {
        let store = empty_handle();
        let cache = ResponseCache::new();
        let ok = handle(
            &get("/rollup", &[("metric", "errors")]),
            &store,
            &cache,
            None,
        );
        assert_eq!(ok.status, 200);
        assert!(ok.body.starts_with("bucket,start,end,count"), "{}", ok.body);
        let full = handle(
            &get(
                "/rollup",
                &[
                    ("metric", "mtbe"),
                    ("bucket", "week"),
                    ("tz", "America/Chicago"),
                    ("xid", "119"),
                    ("from", "0"),
                    ("to", "99999999999"),
                ],
            ),
            &store,
            &cache,
            None,
        );
        assert_eq!(full.status, 200, "{}", full.body);
        for query in [
            vec![],
            vec![("metric", "bogus")],
            vec![("metric", "errors"), ("bucket", "decade")],
            vec![("metric", "errors"), ("tz", "Mars/Olympus")],
            vec![("metric", "mtbe"), ("host", "gpub001")],
            vec![("metric", "availability"), ("xid", "119")],
            vec![("metric", "errors"), ("bogus", "1")],
        ] {
            let resp = handle(&get("/rollup", &query), &store, &cache, None);
            assert_eq!(resp.status, 400, "{query:?}");
        }
    }

    #[test]
    fn error_responses_are_not_cached() {
        let store = empty_handle();
        let cache = ResponseCache::new();
        handle(&get("/errors", &[("xid", "13")]), &store, &cache, None);
        assert!(cache.is_empty());
    }

    // ---- ingest routing ---------------------------------------------

    use crate::ingest::{recover, IngestConfig};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn ingest_dir() -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "servd-router-ingest-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn ingest_endpoints_404_when_disabled() {
        let store = empty_handle();
        let cache = ResponseCache::new();
        for path in ["/ingest/logs", "/ingest/status", "/ingest/flush"] {
            let resp = handle(&post(path, &[], b"x"), &store, &cache, None);
            assert_eq!(resp.status, 404, "{path}");
        }
    }

    #[test]
    fn ingest_post_accepts_dedups_and_rejects() {
        let dir = ingest_dir();
        let rec = recover(
            IngestConfig {
                queue_capacity: 2,
                ..IngestConfig::new(&dir)
            },
            Pipeline::delta(),
            2023,
        )
        .unwrap();
        let ingest = Some(&*rec.handle);
        let store = empty_handle();
        let cache = ResponseCache::new();

        let ok = handle(
            &post("/ingest/logs", &[("seq", "0")], b"line\n"),
            &store,
            &cache,
            ingest,
        );
        assert_eq!(ok.status, 200);
        assert!(ok.body.contains("\"seq\":0"), "{}", ok.body);

        let dup = handle(
            &post("/ingest/logs", &[("seq", "0")], b"line\n"),
            &store,
            &cache,
            ingest,
        );
        assert_eq!(dup.status, 200);
        assert!(dup.body.contains("duplicate"), "{}", dup.body);

        let gap = handle(
            &post("/ingest/logs", &[("seq", "7")], b"line\n"),
            &store,
            &cache,
            ingest,
        );
        assert_eq!(gap.status, 409);
        assert!(gap.body.contains("\"expected\":1"), "{}", gap.body);

        let bad = handle(
            &post("/ingest/logs", &[("seq", "banana")], b"line\n"),
            &store,
            &cache,
            ingest,
        );
        assert_eq!(bad.status, 400);

        // Fill the 2-slot queue (one slot already used by seq 0).
        handle(
            &post("/ingest/logs", &[], b"more\n"),
            &store,
            &cache,
            ingest,
        );
        let shed = handle(
            &post("/ingest/logs", &[], b"more\n"),
            &store,
            &cache,
            ingest,
        );
        assert_eq!(shed.status, 429);
        assert_eq!(header(&shed, "Retry-After"), Some("1"));

        // GET on an ingest stream, POST on status: 405 both ways, each
        // naming what the endpoint does accept.
        let wrong_stream = handle(&get("/ingest/logs", &[]), &store, &cache, ingest);
        assert_eq!(wrong_stream.status, 405);
        assert_eq!(header(&wrong_stream, "Allow"), Some("POST"));
        let wrong_status = handle(&post("/ingest/status", &[], b""), &store, &cache, ingest);
        assert_eq!(wrong_status.status, 405);
        assert_eq!(header(&wrong_status, "Allow"), Some("GET, HEAD"));
        let mut flush_get = get("/ingest/flush", &[]);
        flush_get.method = "GET".to_owned();
        let wrong_flush = handle(&flush_get, &store, &cache, ingest);
        assert_eq!(wrong_flush.status, 405);
        assert_eq!(header(&wrong_flush, "Allow"), Some("POST"));
        // Unknown stream.
        assert_eq!(
            handle(&post("/ingest/nope", &[], b""), &store, &cache, ingest).status,
            404
        );

        let status = handle(&get("/ingest/status", &[]), &store, &cache, ingest);
        assert_eq!(status.status, 200);
        assert!(status.body.contains("\"accepted\":2"), "{}", status.body);

        // No worker: flush must fail loudly, not hang.
        let flush = handle(&post("/ingest/flush", &[], b""), &store, &cache, ingest);
        assert_eq!(flush.status, 503);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ---- whatif routing ---------------------------------------------

    use crate::whatif::{WhatifConfig, WhatifHandle};

    fn traced_whatif(req: &Request, store: &StoreHandle, whatif: &WhatifHandle) -> Response {
        let cache = ResponseCache::new();
        handle_traced(
            req,
            store,
            &cache,
            None,
            Some(whatif),
            &ObsState::default(),
            None,
        )
    }

    #[test]
    fn whatif_404_when_disabled_405_with_allow_otherwise() {
        let store = empty_handle();
        let cache = ResponseCache::new();
        assert_eq!(
            handle(&get("/whatif", &[]), &store, &cache, None).status,
            404
        );

        let whatif = WhatifHandle::new(WhatifConfig {
            workers: 0,
            ..WhatifConfig::default()
        });
        let mut del = get("/whatif", &[]);
        del.method = "DELETE".to_owned();
        let resp = traced_whatif(&del, &store, &whatif);
        assert_eq!(resp.status, 405);
        assert_eq!(header(&resp, "Allow"), Some("GET, HEAD, POST"));
        let poll = post("/whatif/jobs/abc", &[], b"");
        let resp = traced_whatif(&poll, &store, &whatif);
        assert_eq!(resp.status, 405);
        assert_eq!(header(&resp, "Allow"), Some("GET, HEAD"));
        // Misc 405s outside whatif carry Allow too (satellite fix).
        let mut del_healthz = get("/healthz", &[]);
        del_healthz.method = "DELETE".to_owned();
        let resp = handle(&del_healthz, &store, &cache, None);
        assert_eq!(resp.status, 405);
        assert_eq!(header(&resp, "Allow"), Some("GET, HEAD"));
    }

    #[test]
    fn whatif_bad_specs_are_400() {
        let store = empty_handle();
        let whatif = WhatifHandle::new(WhatifConfig {
            workers: 0,
            rep_cap: 8,
            ..WhatifConfig::default()
        });
        for query in [
            vec![("mttr_scale", "0")],
            vec![("mttr_scale", "nan")],
            vec![("xid_rate", "13:2")],
            vec![("xid_rate", "79")],
            vec![("sched", "lifo")],
            vec![("reps", "9")],
            vec![("bogus", "1")],
            vec![("mttr_scale", "0.5"), ("mttr_scale", "2")],
        ] {
            let resp = traced_whatif(&get("/whatif", &query), &store, &whatif);
            assert_eq!(resp.status, 400, "{query:?}: {}", resp.body);
        }
    }

    #[test]
    fn whatif_sync_roundtrip_caches_and_polls() {
        let store = empty_handle();
        let whatif = WhatifHandle::new(WhatifConfig {
            workers: 1,
            ..WhatifConfig::default()
        });
        let workers = whatif.spawn_workers();
        let query = [("reps", "1"), ("seed", "5")];

        let cold = traced_whatif(&get("/whatif", &query), &store, &whatif);
        assert_eq!(cold.status, 200, "{}", cold.body);
        assert_eq!(header(&cold, "X-Cache"), Some("miss"));

        let warm = traced_whatif(&get("/whatif", &query), &store, &whatif);
        assert_eq!(warm.status, 200);
        assert_eq!(header(&warm, "X-Cache"), Some("hit"));
        assert_eq!(cold.body, warm.body);

        // POST with a form body is the same spec → same cached result.
        let form = traced_whatif(&post("/whatif", &[], b"reps=1&seed=5"), &store, &whatif);
        assert_eq!(form.status, 200);
        assert_eq!(header(&form, "X-Cache"), Some("hit"));
        assert_eq!(form.body, cold.body);

        // The finished job is pollable under its deterministic id.
        let spec = ScenarioSpec::parse(
            &[
                ("reps".to_owned(), "1".to_owned()),
                ("seed".to_owned(), "5".to_owned()),
            ],
            32,
        )
        .unwrap();
        let id = WhatifHandle::job_id(store.current().id, &spec.canonical());
        let poll = traced_whatif(&get(&format!("/whatif/jobs/{id}"), &[]), &store, &whatif);
        assert_eq!(poll.status, 200);
        assert_eq!(poll.body, cold.body);
        let missing = traced_whatif(&get("/whatif/jobs/ffffffffffffffff", &[]), &store, &whatif);
        assert_eq!(missing.status, 404);

        whatif.request_shutdown();
        for w in workers {
            w.join().unwrap();
        }
    }

    #[test]
    fn whatif_long_campaigns_answer_202_with_poll_url() {
        let store = empty_handle();
        // No workers: the job stays queued, so the 202 surface is
        // deterministic.
        let whatif = WhatifHandle::new(WhatifConfig {
            workers: 0,
            ..WhatifConfig::default()
        });
        let resp = traced_whatif(&get("/whatif", &[("reps", "8")]), &store, &whatif);
        assert_eq!(resp.status, 202, "{}", resp.body);
        assert!(resp.body.contains("\"status\":\"queued\""), "{}", resp.body);
        assert!(resp.body.contains("/whatif/jobs/"), "{}", resp.body);
        let spec = ScenarioSpec::parse(&[("reps".to_owned(), "8".to_owned())], 32).unwrap();
        let id = WhatifHandle::job_id(store.current().id, &spec.canonical());
        assert!(resp.body.contains(&id), "{}", resp.body);
        let poll = traced_whatif(&get(&format!("/whatif/jobs/{id}"), &[]), &store, &whatif);
        assert_eq!(poll.status, 202);
    }

    #[test]
    fn whatif_sheds_with_retry_after_when_queue_full() {
        let store = empty_handle();
        let whatif = WhatifHandle::new(WhatifConfig {
            workers: 0,
            queue_capacity: 1,
            ..WhatifConfig::default()
        });
        let first = traced_whatif(&get("/whatif", &[("reps", "8")]), &store, &whatif);
        assert_eq!(first.status, 202);
        let shed = traced_whatif(
            &get("/whatif", &[("reps", "8"), ("seed", "9")]),
            &store,
            &whatif,
        );
        assert_eq!(shed.status, 429, "{}", shed.body);
        assert_eq!(header(&shed, "Retry-After"), Some("2"));
        // Re-submitting the queued spec joins it instead of shedding.
        let joined = traced_whatif(&get("/whatif", &[("reps", "8")]), &store, &whatif);
        assert_eq!(joined.status, 202);
    }
}
