//! The `/whatif` compute path: counterfactual simulation as a query.
//!
//! The read path serves what *was* (the study's tables and figures);
//! this path serves what *would have been*: `GET/POST
//! /whatif?mttr_scale=&xid_rate=<XID>:<mult>&sched=&seed=&reps=` parses
//! into a canonical [`ScenarioSpec`], runs a bounded seeded campaign
//! over the simulation substrates (`resilience::scenario`) on a
//! dedicated worker pool, and returns baseline-vs-scenario deltas for
//! MTBE, availability, errors, reboots and jobs-killed with per-rep
//! spread.
//!
//! # Contract
//!
//! * **Bounded**: campaigns queue behind a fixed number of workers with
//!   a fixed queue depth; a full queue sheds with `429` + `Retry-After`
//!   through the same [`admission`](crate::admission) policy as ingest.
//! * **Deterministic**: the result body is a pure function of the
//!   canonical spec (which embeds the seed) — byte-identical across
//!   repeats, worker counts and snapshot swaps.
//! * **Single-flight**: identical specs submitted concurrently share
//!   one computation; `servd_whatif_computed_total` counts campaigns
//!   actually run, `servd_whatif_cache_hits_total` counts answers
//!   served from a finished job.
//! * **Cached**: finished jobs are the cache, keyed by
//!   `(snapshot, canonical spec)` — the same scoping rule as the read
//!   path's [`ResponseCache`](crate::cache::ResponseCache), enforced by
//!   folding the snapshot id into the job id.
//! * **Poll for the long tail**: campaigns with `reps` ≤ [`SYNC_REPS`]
//!   answer inline; longer ones return `202` with a deterministic job
//!   id and make progress observable at `/whatif/jobs/:id`.

use crate::admission::AdmissionPolicy;
use crate::http::{percent_decode, Request, Response};
use resilience::scenario::{run_campaign, spread, CampaignResult, RepOutcome, ScenarioSpec};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Campaigns with at most this many reps are answered inline (the
/// handler blocks on the worker, like `/ingest/flush` blocks on its
/// condvar); anything longer gets a `202` + poll URL.
pub const SYNC_REPS: u32 = 4;

/// How long the inline path waits before degrading to a `202`. A rep
/// (both arms) costs a few tens of milliseconds, so four reps finish more
/// than two orders of magnitude sooner than this unless the box is badly
/// oversubscribed.
const SYNC_WAIT: Duration = Duration::from_secs(60);

/// Finished jobs retained as the result cache; the oldest finished job
/// is evicted beyond this.
const MAX_FINISHED_JOBS: usize = 64;

/// Campaign wall-time histogram buckets, in microseconds (10 ms .. 60 s):
/// a `reps=1` campaign takes a few tens of milliseconds.
const CAMPAIGN_US_BUCKETS: &[u64] = &[
    10_000, 25_000, 50_000, 100_000, 250_000, 500_000, 1_000_000, 2_500_000, 5_000_000, 10_000_000,
    30_000_000, 60_000_000,
];

/// What-if service tunables.
#[derive(Debug, Clone)]
pub struct WhatifConfig {
    /// Campaign worker threads.
    pub workers: usize,
    /// Campaigns queued ahead of the workers; beyond this a *new* spec
    /// sheds with `429` (joining an in-flight spec never sheds).
    pub queue_capacity: usize,
    /// Upper bound a request's `reps=` may ask for.
    pub rep_cap: u32,
}

impl Default for WhatifConfig {
    fn default() -> Self {
        WhatifConfig {
            workers: 2,
            queue_capacity: 8,
            rep_cap: 32,
        }
    }
}

impl WhatifConfig {
    /// Seconds suggested to a shed client via `Retry-After`.
    const RETRY_AFTER_SECS: u32 = 2;

    /// The shared shed contract this queue enforces.
    pub fn admission(&self) -> AdmissionPolicy {
        AdmissionPolicy {
            rejected_metric: "servd_whatif_rejected_total",
            queue_capacity: self.queue_capacity,
            retry_after_secs: Self::RETRY_AFTER_SECS,
        }
    }
}

/// Where a job is in its life.
#[derive(Debug, Clone)]
enum JobState {
    Queued,
    Running { done: u32, total: u32 },
    Done { body: String },
    Failed { message: String },
}

#[derive(Debug)]
struct Job {
    spec: ScenarioSpec,
    state: JobState,
}

#[derive(Debug, Default)]
struct State {
    jobs: HashMap<String, Job>,
    /// Ids waiting for a worker, FIFO.
    queue: VecDeque<String>,
    /// Finished (done or failed) ids, oldest first — the eviction order.
    finished: VecDeque<String>,
    /// Workers currently inside a campaign (mirrored to the
    /// `servd_whatif_jobs_active` gauge).
    active: usize,
    shutdown: bool,
}

/// What [`WhatifHandle::submit`] decided.
#[derive(Debug)]
pub enum Submit {
    /// The campaign had already finished: here is the cached body.
    Ready {
        /// The finished result body.
        body: String,
    },
    /// The job is queued or running (newly created or joined).
    Accepted {
        /// The deterministic job id.
        id: String,
    },
    /// The queue is full; retry after the hint.
    Overloaded {
        /// Seconds for the `Retry-After` header.
        retry_after_secs: u32,
    },
    /// The service is draining.
    ShuttingDown,
}

/// A poll-surface view of one job.
#[derive(Debug, Clone)]
pub enum JobStatus {
    /// Waiting for a worker.
    Queued,
    /// On a worker; `done` of `total` arm-reps finished.
    Running {
        /// Finished arm-reps.
        done: u32,
        /// Total arm-reps (2 × reps).
        total: u32,
    },
    /// Finished successfully.
    Done {
        /// The result body.
        body: String,
    },
    /// Finished with an error.
    Failed {
        /// Why.
        message: String,
    },
}

/// The shared what-if service state: job registry, bounded queue, and
/// the two condvars (work for the pool, done for inline waiters).
#[derive(Debug)]
pub struct WhatifHandle {
    config: WhatifConfig,
    state: Mutex<State>,
    work: Condvar,
    done: Condvar,
}

impl WhatifHandle {
    /// Creates the service state (no threads yet — see
    /// [`spawn_workers`](Self::spawn_workers)).
    pub fn new(config: WhatifConfig) -> Arc<WhatifHandle> {
        Arc::new(WhatifHandle {
            config,
            state: Mutex::new(State::default()),
            work: Condvar::new(),
            done: Condvar::new(),
        })
    }

    /// The configured rep cap (the parse-time ceiling for `reps=`).
    pub fn rep_cap(&self) -> u32 {
        self.config.rep_cap
    }

    /// Lock helper: a poisoned mutex only means a worker panicked
    /// mid-update; the registry stays structurally valid, so recover
    /// the guard rather than propagating the poison.
    fn lock(&self) -> MutexGuard<'_, State> {
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// The deterministic job id: FNV-1a over `snapshot:canonical`,
    /// rendered as 16 hex digits. Deterministic ids make the `202`
    /// surface reproducible and give single-flight its key.
    pub fn job_id(snapshot: u64, canonical: &str) -> String {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in snapshot
            .to_string()
            .bytes()
            .chain(std::iter::once(b':'))
            .chain(canonical.bytes())
        {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        format!("{h:016x}")
    }

    /// Create-or-join: the single admission point for `/whatif`.
    pub fn submit(&self, snapshot: u64, spec: &ScenarioSpec) -> Submit {
        let id = Self::job_id(snapshot, &spec.canonical());
        let mut state = self.lock();
        if state.shutdown {
            return Submit::ShuttingDown;
        }
        enum Hit {
            Done(String),
            Retry,
            Join,
            Miss,
        }
        let hit = match state.jobs.get(&id).map(|j| &j.state) {
            Some(JobState::Done { body }) => Hit::Done(body.clone()),
            // A failed job stays visible at its poll URL but a fresh
            // submission retries it.
            Some(JobState::Failed { .. }) => Hit::Retry,
            Some(_) => Hit::Join,
            None => Hit::Miss,
        };
        match hit {
            Hit::Done(body) => {
                drop(state);
                if obs::is_enabled() {
                    obs::counter("servd_whatif_cache_hits_total", &[]).inc();
                }
                return Submit::Ready { body };
            }
            Hit::Retry => {
                state.finished.retain(|f| *f != id);
                return self.enqueue(state, id, spec);
            }
            Hit::Join => return Submit::Accepted { id },
            Hit::Miss => {}
        }
        if let Err(retry_after_secs) = self.config.admission().admit(state.queue.len()) {
            return Submit::Overloaded { retry_after_secs };
        }
        self.enqueue(state, id, spec)
    }

    fn enqueue(&self, mut state: MutexGuard<'_, State>, id: String, spec: &ScenarioSpec) -> Submit {
        state.jobs.insert(
            id.clone(),
            Job {
                spec: spec.clone(),
                state: JobState::Queued,
            },
        );
        state.queue.push_back(id.clone());
        let depth = state.queue.len() as u64;
        drop(state);
        self.work.notify_one();
        if obs::is_enabled() {
            obs::gauge("servd_whatif_queue_depth", &[]).set(depth);
        }
        Submit::Accepted { id }
    }

    /// The poll surface's view of a job.
    pub fn status(&self, id: &str) -> Option<JobStatus> {
        let state = self.lock();
        state.jobs.get(id).map(|job| match &job.state {
            JobState::Queued => JobStatus::Queued,
            JobState::Running { done, total } => JobStatus::Running {
                done: *done,
                total: *total,
            },
            JobState::Done { body } => JobStatus::Done { body: body.clone() },
            JobState::Failed { message } => JobStatus::Failed {
                message: message.clone(),
            },
        })
    }

    /// Blocks until the job finishes (either way) or `timeout` lapses.
    /// Returns `None` on timeout or if the job vanished (evicted).
    pub fn wait(&self, id: &str, timeout: Duration) -> Option<Result<String, String>> {
        let deadline = Instant::now() + timeout;
        let mut state = self.lock();
        loop {
            match state.jobs.get(id).map(|j| &j.state) {
                Some(JobState::Done { body }) => return Some(Ok(body.clone())),
                Some(JobState::Failed { message }) => return Some(Err(message.clone())),
                Some(_) if state.shutdown => return None,
                Some(_) => {}
                None => return None,
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            state = match self.done.wait_timeout(state, deadline - now) {
                Ok((guard, _)) => guard,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
    }

    /// Spawns the campaign worker pool.
    pub fn spawn_workers(self: &Arc<Self>) -> Vec<JoinHandle<()>> {
        (0..self.config.workers)
            .map(|i| {
                let handle = Arc::clone(self);
                thread::Builder::new()
                    .name(format!("whatif-{i}"))
                    .spawn(move || handle.worker_loop())
                    .unwrap_or_else(|e| {
                        // Thread spawn fails only under resource
                        // exhaustion at startup; surface it hard.
                        panic!("spawning whatif worker: {e}")
                    })
            })
            .collect()
    }

    /// Begins drain: queued-but-unstarted jobs fail fast (inline
    /// waiters wake), workers exit after their current campaign.
    pub fn request_shutdown(&self) {
        let mut state = self.lock();
        state.shutdown = true;
        while let Some(id) = state.queue.pop_front() {
            if let Some(job) = state.jobs.get_mut(&id) {
                job.state = JobState::Failed {
                    message: "the what-if service is shutting down".to_owned(),
                };
                state.finished.push_back(id);
            }
        }
        drop(state);
        self.work.notify_all();
        self.done.notify_all();
    }

    fn worker_loop(&self) {
        loop {
            let (id, spec) = {
                let mut state = self.lock();
                loop {
                    if state.shutdown {
                        return;
                    }
                    if let Some(id) = state.queue.pop_front() {
                        let depth = state.queue.len() as u64;
                        let Some(job) = state.jobs.get_mut(&id) else {
                            continue;
                        };
                        let total = job.spec.reps * 2;
                        job.state = JobState::Running { done: 0, total };
                        let spec = job.spec.clone();
                        drop(state);
                        if obs::is_enabled() {
                            obs::gauge("servd_whatif_queue_depth", &[]).set(depth);
                        }
                        break (id, spec);
                    }
                    state = match self.work.wait(state) {
                        Ok(guard) => guard,
                        Err(poisoned) => poisoned.into_inner(),
                    };
                }
            };
            {
                let mut state = self.lock();
                state.active += 1;
                let active = state.active as u64;
                drop(state);
                if obs::is_enabled() {
                    obs::gauge("servd_whatif_jobs_active", &[]).set(active);
                }
            }
            let started = Instant::now();
            let span = obs::span("whatif_campaign");
            let result = run_campaign(&spec, |done, total| {
                let mut state = self.lock();
                if let Some(job) = state.jobs.get_mut(&id) {
                    job.state = JobState::Running { done, total };
                }
            });
            drop(span);
            let elapsed_us = started.elapsed().as_micros() as u64;
            let new_state = match result {
                Ok(campaign) => JobState::Done {
                    body: render_result(&campaign),
                },
                Err(e) => JobState::Failed {
                    message: e.to_string(),
                },
            };
            let mut state = self.lock();
            if let Some(job) = state.jobs.get_mut(&id) {
                job.state = new_state;
            }
            state.finished.push_back(id);
            while state.finished.len() > MAX_FINISHED_JOBS {
                if let Some(old) = state.finished.pop_front() {
                    state.jobs.remove(&old);
                }
            }
            state.active -= 1;
            let active = state.active as u64;
            drop(state);
            // Counted before the waiters wake, so a scrape that follows
            // the answer sees the campaign.
            if obs::is_enabled() {
                obs::gauge("servd_whatif_jobs_active", &[]).set(active);
                obs::counter("servd_whatif_computed_total", &[]).inc();
                obs::counter("servd_whatif_reps_total", &[]).add(u64::from(spec.reps));
                obs::histogram(
                    "servd_whatif_campaign_duration_us",
                    &[],
                    CAMPAIGN_US_BUCKETS,
                )
                .observe(elapsed_us);
            }
            self.done.notify_all();
        }
    }
}

/// Canonical float rendering (shortest round-trip, like the scenario
/// keys) so result bodies are byte-stable.
fn fmt_f64(v: f64) -> String {
    format!("{v}")
}

/// A headline-number accessor on one rep's outcome.
type MetricFn = dyn Fn(&RepOutcome) -> f64;

fn arm_json(reps: &[RepOutcome], metric: &MetricFn) -> String {
    let s = spread(reps, metric);
    let vals: Vec<String> = reps.iter().map(|r| fmt_f64(metric(r))).collect();
    format!(
        "{{\"mean\":{},\"min\":{},\"max\":{},\"reps\":[{}]}}",
        fmt_f64(s.mean),
        fmt_f64(s.min),
        fmt_f64(s.max),
        vals.join(",")
    )
}

fn metric_json(result: &CampaignResult, metric: &MetricFn) -> String {
    let base = spread(&result.baseline, metric);
    let scen = spread(&result.scenario, metric);
    format!(
        "{{\"baseline\":{},\"scenario\":{},\"delta_mean\":{}}}",
        arm_json(&result.baseline, metric),
        arm_json(&result.scenario, metric),
        fmt_f64(scen.mean - base.mean)
    )
}

/// Renders the result body. Snapshot-independent by construction — the
/// campaign is a pure function of the spec — which is what makes
/// post-swap recomputation byte-identical.
pub fn render_result(result: &CampaignResult) -> String {
    let metrics: &[(&str, &MetricFn)] = &[
        ("availability", &|r| r.availability),
        ("errors", &|r| r.errors as f64),
        ("jobs_killed", &|r| r.jobs_killed as f64),
        ("mtbe_hours", &|r| r.mtbe_hours),
        ("reboots", &|r| r.reboots as f64),
    ];
    let rendered: Vec<String> = metrics
        .iter()
        .map(|(name, f)| format!("\"{name}\":{}", metric_json(result, f)))
        .collect();
    format!(
        "{{\"spec\":\"{}\",\"reps\":{},\"sim_scale\":{},\"metrics\":{{{}}}}}\n",
        result.spec.canonical(),
        result.spec.reps,
        fmt_f64(resilience::scenario::SIM_SCALE),
        rendered.join(",")
    )
}

/// Parses an `application/x-www-form-urlencoded` body into pairs, the
/// same decoding rules as the URL query. `None` on undecodable input.
pub fn parse_form(body: &str) -> Option<Vec<(String, String)>> {
    let mut pairs = Vec::new();
    for piece in body.split('&') {
        if piece.is_empty() {
            continue;
        }
        let (k, v) = piece.split_once('=')?;
        pairs.push((percent_decode(k)?, percent_decode(v)?));
    }
    Some(pairs)
}

/// The progress body for a queued/running job: `202`-shaped, carrying
/// the deterministic id and the poll URL.
pub fn progress_body(id: &str, status: &str, done: u32, total: u32) -> String {
    format!(
        "{{\"job\":\"{id}\",\"status\":\"{status}\",\"done\":{done},\"total\":{total},\
         \"poll\":\"/whatif/jobs/{id}\"}}\n"
    )
}

/// Renders the `202 Accepted` response for a not-yet-finished job,
/// reading its current progress.
pub fn accepted_response(handle: &WhatifHandle, id: &str) -> Response {
    let (status, done, total) = match handle.status(id) {
        Some(JobStatus::Running { done, total }) => ("running", done, total),
        _ => ("queued", 0, 0),
    };
    Response::json(202, progress_body(id, status, done, total))
}

/// The poll endpoint: `GET /whatif/jobs/:id`.
pub fn poll_response(handle: &WhatifHandle, id: &str) -> Response {
    match handle.status(id) {
        None => Response::text(404, "no such whatif job\n"),
        Some(JobStatus::Queued) => Response::json(202, progress_body(id, "queued", 0, 0)),
        Some(JobStatus::Running { done, total }) => {
            Response::json(202, progress_body(id, "running", done, total))
        }
        Some(JobStatus::Done { body }) => Response::json(200, body),
        Some(JobStatus::Failed { message }) => {
            Response::text(500, format!("whatif campaign failed: {message}\n"))
        }
    }
}

/// Merges URL query pairs with an optional form body into the spec
/// parameter list.
///
/// # Errors
///
/// A message suitable for a `400` body when the form body is
/// undecodable.
pub fn request_pairs(req: &Request) -> Result<Vec<(String, String)>, String> {
    let mut pairs = req.query.clone();
    if req.method == "POST" && !req.body.is_empty() {
        let text =
            std::str::from_utf8(&req.body).map_err(|_| "request body is not UTF-8\n".to_owned())?;
        let form = parse_form(text.trim_end_matches(['\r', '\n']))
            .ok_or_else(|| "request body is not form-encoded\n".to_owned())?;
        pairs.extend(form);
    }
    Ok(pairs)
}

/// Waits out the inline (synchronous) path: small campaigns block here
/// until the worker finishes, degrading to a `202` under pathological
/// load rather than wedging the connection.
pub fn sync_response(handle: &WhatifHandle, id: &str) -> Response {
    match handle.wait(id, SYNC_WAIT) {
        Some(Ok(body)) => Response::json(200, body),
        Some(Err(message)) => Response::text(500, format!("whatif campaign failed: {message}\n")),
        None => accepted_response(handle, id),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn spec(query: &[(&str, &str)]) -> ScenarioSpec {
        let pairs: Vec<(String, String)> = query
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect();
        ScenarioSpec::parse(&pairs, 32).unwrap()
    }

    #[test]
    fn job_ids_are_deterministic_and_snapshot_scoped() {
        let canonical = spec(&[]).canonical();
        let a = WhatifHandle::job_id(1, &canonical);
        let b = WhatifHandle::job_id(1, &canonical);
        let c = WhatifHandle::job_id(2, &canonical);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 16);
        assert!(a.bytes().all(|ch| ch.is_ascii_hexdigit()));
    }

    #[test]
    fn submit_joins_in_flight_specs_and_sheds_new_ones() {
        // No workers: jobs stay queued, exposing the admission logic.
        let handle = WhatifHandle::new(WhatifConfig {
            workers: 0,
            queue_capacity: 1,
            ..WhatifConfig::default()
        });
        let first = spec(&[("seed", "1")]);
        let id = match handle.submit(9, &first) {
            Submit::Accepted { id } => id,
            other => panic!("{other:?}"),
        };
        // Same spec joins the queued job without a new slot.
        match handle.submit(9, &first) {
            Submit::Accepted { id: joined } => assert_eq!(joined, id),
            other => panic!("{other:?}"),
        }
        // A different spec needs a slot and the queue is full.
        match handle.submit(9, &spec(&[("seed", "2")])) {
            Submit::Overloaded { retry_after_secs } => assert!(retry_after_secs > 0),
            other => panic!("{other:?}"),
        }
        assert!(matches!(handle.status(&id), Some(JobStatus::Queued)));
    }

    #[test]
    fn worker_computes_once_and_result_is_served_from_cache() {
        let handle = WhatifHandle::new(WhatifConfig {
            workers: 1,
            ..WhatifConfig::default()
        });
        let workers = handle.spawn_workers();
        let s = spec(&[("reps", "1"), ("seed", "5")]);
        let id = match handle.submit(3, &s) {
            Submit::Accepted { id } => id,
            other => panic!("{other:?}"),
        };
        let body = handle
            .wait(&id, Duration::from_secs(120))
            .expect("campaign finished")
            .expect("campaign succeeded");
        assert!(body.contains("\"metrics\""), "{body}");
        // Resubmission is now a cache hit with the identical body.
        match handle.submit(3, &s) {
            Submit::Ready { body: cached } => assert_eq!(cached, body),
            other => panic!("{other:?}"),
        }
        handle.request_shutdown();
        for w in workers {
            w.join().unwrap();
        }
    }

    #[test]
    fn shutdown_fails_queued_jobs_and_wakes_waiters() {
        let handle = WhatifHandle::new(WhatifConfig {
            workers: 0,
            ..WhatifConfig::default()
        });
        let id = match handle.submit(1, &spec(&[])) {
            Submit::Accepted { id } => id,
            other => panic!("{other:?}"),
        };
        handle.request_shutdown();
        match handle.status(&id) {
            Some(JobStatus::Failed { message }) => {
                assert!(message.contains("shutting down"), "{message}")
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(handle.submit(1, &spec(&[])), Submit::ShuttingDown));
    }

    #[test]
    fn render_is_deterministic_for_a_fixed_campaign() {
        let s = spec(&[("reps", "1"), ("seed", "5"), ("mttr_scale", "0.5")]);
        let a = run_campaign(&s, |_, _| {}).unwrap();
        let b = run_campaign(&s, |_, _| {}).unwrap();
        assert_eq!(render_result(&a), render_result(&b));
        let body = render_result(&a);
        for key in [
            "availability",
            "errors",
            "jobs_killed",
            "mtbe_hours",
            "reboots",
            "delta_mean",
            "sim_scale",
        ] {
            assert!(body.contains(key), "{key} missing from {body}");
        }
    }

    #[test]
    fn form_bodies_parse_like_queries() {
        let pairs = parse_form("mttr_scale=0.5&xid_rate=79%3A2").unwrap();
        assert_eq!(
            pairs,
            vec![
                ("mttr_scale".to_owned(), "0.5".to_owned()),
                ("xid_rate".to_owned(), "79:2".to_owned()),
            ]
        );
        assert!(parse_form("no-equals-sign").is_none());
        assert_eq!(parse_form("").unwrap(), vec![]);
    }
}
