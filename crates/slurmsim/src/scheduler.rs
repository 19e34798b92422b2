//! The event-driven FIFO + backfill scheduler and error co-simulation.
//!
//! [`Simulation::run`] replays a generated workload against a cluster while
//! consuming two external timelines produced by the fault injector: GPU
//! error events (which kill co-located jobs per the [`KillModel`]) and node
//! hold windows (during which a node is unschedulable). Holds kill no jobs:
//! per §V-C, Delta drains a node and lets active jobs finish before the
//! reboot — job deaths come from the errors themselves. The output is the
//! sacct-style accounting table the analysis pipeline joins against the
//! error log — the §V methodology run in the forward direction.

use crate::job::{JobId, JobRecord, JobState};
use crate::kill::{KillModel, KillScope};
use crate::workload::{JobSpec, WorkloadConfig};
use clustersim::{Cluster, GpuErrorEvent, GpuId, NodeId, Outage};
use simrng::Rng;
use simtime::Timestamp;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// How many queued jobs each scheduling pass may inspect (bounded backfill:
/// deeper scans change almost nothing at realistic queue depths but cost
/// simulation time).
const BACKFILL_DEPTH: usize = 64;

/// Queue-drain policy: what the scheduler does when the head of the queue
/// cannot start.
///
/// Delta runs Slurm with backfill, so [`SchedPolicy::Backfill`] is the
/// default and reproduces the historical behavior exactly. The strict
/// FIFO variant is a counterfactual axis (the `/whatif?sched=fifo` knob):
/// a wide job stuck at the head blocks everything behind it, which is how
/// head-of-line blocking turns node drains into queue-wide wait inflation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// Strict first-in-first-out: each pass stops at the first queued job
    /// that cannot be placed.
    Fifo,
    /// Bounded backfill: up to [`BACKFILL_DEPTH`] jobs behind a stuck head
    /// may start if they fit (the measured-system default).
    #[default]
    Backfill,
}

impl SchedPolicy {
    /// Parses the `/whatif` query token: `fifo` or `backfill`.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the accepted tokens.
    pub fn parse(raw: &str) -> Result<Self, String> {
        match raw {
            "fifo" => Ok(SchedPolicy::Fifo),
            "backfill" => Ok(SchedPolicy::Backfill),
            other => Err(format!("bad sched {other:?} (expected fifo|backfill)")),
        }
    }

    /// The canonical query token (the inverse of [`SchedPolicy::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            SchedPolicy::Fifo => "fifo",
            SchedPolicy::Backfill => "backfill",
        }
    }
}

/// Requeue-on-failure policy: what happens to a job killed by a GPU error.
///
/// Models the §V-B mitigation discussion: without checkpointing a restarted
/// job repeats all of its work; with periodic checkpoints it resumes from
/// the last one. [`RequeuePolicy::none`] (the default) matches Delta as
/// measured — killed jobs just fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequeuePolicy {
    /// Maximum automatic restarts per job (0 disables requeueing).
    pub max_retries: u32,
    /// Delay between the kill and re-entering the queue.
    pub restart_delay: simtime::Duration,
    /// Checkpoint period; `None` means restarts repeat the whole job.
    pub checkpoint_interval: Option<simtime::Duration>,
}

impl RequeuePolicy {
    /// No requeueing (Delta as measured).
    pub fn none() -> Self {
        RequeuePolicy {
            max_retries: 0,
            restart_delay: simtime::Duration::ZERO,
            checkpoint_interval: None,
        }
    }

    /// Requeue up to `max_retries` times with hourly checkpoints and a
    /// 5-minute restart delay — a typical checkpoint/restart setup.
    pub fn hourly_checkpoints(max_retries: u32) -> Self {
        RequeuePolicy {
            max_retries,
            restart_delay: simtime::Duration::from_mins(5),
            checkpoint_interval: Some(simtime::Duration::from_hours(1)),
        }
    }

    /// Whether requeueing is active.
    pub fn enabled(&self) -> bool {
        self.max_retries > 0
    }
}

impl Default for RequeuePolicy {
    fn default() -> Self {
        RequeuePolicy::none()
    }
}

/// Aggregate scheduler counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SchedulerStats {
    /// Jobs killed directly by a GPU error.
    pub error_kills: u64,
    /// Error events that landed on a GPU with no running job.
    pub errors_on_idle: u64,
    /// Peak queue depth observed.
    pub peak_queue: usize,
    /// Automatic restarts performed under the [`RequeuePolicy`].
    pub requeues: u64,
    /// GPU-hours of work discarded by kills (work since the last
    /// checkpoint, or the whole attempt without checkpointing).
    pub lost_gpu_hours: f64,
}

/// The result of a simulation run.
#[derive(Debug, Clone)]
pub struct SimulationOutcome {
    /// GPU job records, ordered by job id (submission order).
    pub jobs: Vec<JobRecord>,
    /// CPU job records (generated, not scheduled — they share no resources
    /// with the GPU partition).
    pub cpu_jobs: Vec<JobRecord>,
    /// Scheduler counters.
    pub stats: SchedulerStats,
}

impl SimulationOutcome {
    /// Success rate of the GPU jobs (§V-A reports 74.68%).
    pub fn gpu_success_rate(&self) -> f64 {
        success_rate(&self.jobs)
    }

    /// Success rate of the CPU jobs (§V-A reports 74.90%).
    pub fn cpu_success_rate(&self) -> f64 {
        success_rate(&self.cpu_jobs)
    }

    /// GPU allocation (fraction of GPU-hours occupied) over a window on a
    /// cluster with `total_gpus` devices. Delta's operational period ran
    /// around 90% allocated.
    ///
    /// # Panics
    ///
    /// Panics if `total_gpus` is zero or the window is empty.
    pub fn gpu_allocation(&self, total_gpus: usize, window: simtime::Period) -> f64 {
        assert!(total_gpus > 0);
        let capacity = total_gpus as f64 * window.hours();
        let used: f64 = self
            .jobs
            .iter()
            .map(|j| {
                // Clip each job to the window.
                let start = j.start.max(window.start);
                let end = j.end.min(window.end);
                if end > start {
                    j.gpus as f64 * (end - start).as_hours_f64()
                } else {
                    0.0
                }
            })
            .sum();
        used / capacity
    }

    /// Queue-wait statistics in hours: `(mean, p50, p99)`, `None` with no
    /// started jobs.
    pub fn wait_stats_hours(&self) -> Option<(f64, f64, f64)> {
        let mut waits: Vec<f64> = self
            .jobs
            .iter()
            .filter(|j| !j.nodes.is_empty())
            .map(|j| j.wait().as_hours_f64())
            .collect();
        if waits.is_empty() {
            return None;
        }
        waits.sort_by(f64::total_cmp);
        let mean = waits.iter().sum::<f64>() / waits.len() as f64;
        let idx = |p: f64| waits[(p * (waits.len() - 1) as f64).round() as usize];
        Some((mean, idx(0.50), idx(0.99)))
    }
}

fn success_rate(jobs: &[JobRecord]) -> f64 {
    if jobs.is_empty() {
        return 0.0;
    }
    jobs.iter().filter(|j| j.state.is_success()).count() as f64 / jobs.len() as f64
}

/// A configured scheduler simulation.
///
/// # Example
///
/// ```
/// use clustersim::{Cluster, ClusterSpec};
/// use slurmsim::{Simulation, WorkloadConfig};
///
/// let cluster = Cluster::new(ClusterSpec::tiny());
/// let workload = WorkloadConfig::delta_scaled(0.001);
/// let expected = workload.gpu_jobs;
/// let outcome = Simulation::new(&cluster, workload, 7).run(&[], &[]);
/// assert_eq!(outcome.jobs.len() as u64, expected);
/// ```
#[derive(Debug, Clone)]
pub struct Simulation<'c> {
    cluster: &'c Cluster,
    workload: WorkloadConfig,
    kill: KillModel,
    requeue: RequeuePolicy,
    policy: SchedPolicy,
    seed: u64,
}

impl<'c> Simulation<'c> {
    /// Creates a simulation with the default (paper-calibrated) kill model,
    /// no requeueing, and backfill scheduling.
    pub fn new(cluster: &'c Cluster, workload: WorkloadConfig, seed: u64) -> Self {
        Simulation {
            cluster,
            workload,
            kill: KillModel::delta(),
            requeue: RequeuePolicy::none(),
            policy: SchedPolicy::Backfill,
            seed,
        }
    }

    /// Overrides the kill model (for ablations).
    pub fn with_kill_model(mut self, kill: KillModel) -> Self {
        self.kill = kill;
        self
    }

    /// Enables requeue-on-failure (checkpoint/restart what-if analysis).
    pub fn with_requeue(mut self, requeue: RequeuePolicy) -> Self {
        self.requeue = requeue;
        self
    }

    /// Overrides the queue-drain policy (scheduler what-if analysis).
    pub fn with_policy(mut self, policy: SchedPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The GPU job specs [`Simulation::run`] schedules: the workload
    /// generated from this simulation's seed, sorted by submission time.
    pub fn gpu_specs(&self) -> Vec<JobSpec> {
        self.workload
            .generate(&mut Rng::seed_from(self.seed).fork(1))
    }

    /// Schedules caller-supplied GPU job specs against the error and
    /// node-hold timelines and returns only the scheduler counters.
    ///
    /// This is the event loop [`Simulation::run`] runs, without the
    /// accounting records or the CPU pool: given [`Simulation::gpu_specs`]
    /// it returns exactly `run`'s [`SimulationOutcome::stats`]. `specs`
    /// must be sorted by submission time; a spec's index is its job id.
    /// `errors` and `holds` are as for `run`.
    pub fn schedule(
        &self,
        specs: &[JobSpec],
        errors: &[GpuErrorEvent],
        holds: &[Outage],
    ) -> SchedulerStats {
        let mut span = obs::span("stage_schedule");
        let stats = self.engine(specs, errors, holds, false).stats;
        span.add_items(specs.len() as u64);
        record_scheduler_metrics(&stats, specs.len(), None);
        stats
    }

    /// Runs the workload against the error and node-hold timelines.
    ///
    /// `errors` must be sorted by time (campaign outputs are); `holds` are
    /// the campaign's merged unschedulable windows. Events outside the
    /// workload window are ignored harmlessly.
    pub fn run(&self, errors: &[GpuErrorEvent], holds: &[Outage]) -> SimulationOutcome {
        let mut span = obs::span("stage_schedule");
        let specs = self.gpu_specs();
        let cpu_specs = self
            .workload
            .generate_cpu(&mut Rng::seed_from(self.seed).fork(2));
        let engine = self.engine(&specs, errors, holds, true);
        let stats = engine.stats;
        let jobs = engine.records(&specs);
        let cpu_jobs = cpu_specs
            .into_iter()
            .enumerate()
            .map(|(i, s)| JobRecord {
                id: JobId(1_000_000_000 + i as u64),
                name: s.name.to_string(),
                submit: s.submit,
                start: s.submit,
                end: s.submit + s.duration,
                gpus: 0,
                nodes: Vec::new(),
                gpu_ids: Vec::new(),
                state: s.baseline_state,
            })
            .collect();
        let outcome = SimulationOutcome {
            jobs,
            cpu_jobs,
            stats,
        };
        span.add_items(outcome.jobs.len() as u64 + outcome.cpu_jobs.len() as u64);
        record_scheduler_metrics(&stats, outcome.jobs.len(), Some(outcome.cpu_jobs.len()));
        outcome
    }

    /// The one scheduling event loop behind [`Simulation::run`] and
    /// [`Simulation::schedule`]; only `run` asks it to keep `records`.
    fn engine(
        &self,
        specs: &[JobSpec],
        errors: &[GpuErrorEvent],
        holds: &[Outage],
        records: bool,
    ) -> Engine<'c> {
        let mut engine = Engine::new(
            self.cluster,
            records.then_some(specs.len()),
            self.kill,
            self.requeue,
            self.policy,
            Rng::seed_from(self.seed).fork(3),
        );
        engine.run(specs, errors, holds);
        engine
    }
}

/// Publishes a finished simulation's scheduling tallies to the global
/// metrics registry: `gpu_jobs` scheduled, plus the CPU pool when the
/// caller generated one. Write-only.
fn record_scheduler_metrics(stats: &SchedulerStats, gpu_jobs: usize, cpu_jobs: Option<usize>) {
    if !obs::is_enabled() {
        return;
    }
    obs::counter("slurmsim_jobs_scheduled_total", &[("pool", "gpu")]).add(gpu_jobs as u64);
    if let Some(cpu_jobs) = cpu_jobs {
        obs::counter("slurmsim_jobs_scheduled_total", &[("pool", "cpu")]).add(cpu_jobs as u64);
    }
    obs::counter("slurmsim_jobs_killed_total", &[]).add(stats.error_kills);
    obs::counter("slurmsim_errors_on_idle_total", &[]).add(stats.errors_on_idle);
    obs::counter("slurmsim_requeues_total", &[]).add(stats.requeues);
    obs::gauge("slurmsim_peak_queue_depth", &[]).set_max(stats.peak_queue as u64);
}

/// The most GPUs a node holds (Delta's eight-way nodes): jobs up to this
/// wide are placed on one node, an attempt's GPUs on one node are a `u8`
/// mask, and [`Engine::owner`] gives every node this many slots.
const NODE_SLOTS: usize = 8;

/// The mask of a node's GPUs `0..gpu_count`.
fn all_gpus(gpu_count: u8) -> u8 {
    ((1u16 << gpu_count) - 1) as u8
}

/// The `want` lowest set bits of `mask` (which has at least that many).
fn lowest_bits(mut mask: u8, want: u32) -> u8 {
    let mut taken = 0;
    for _ in 0..want {
        let low = mask & mask.wrapping_neg();
        taken |= low;
        mask ^= low;
    }
    taken
}

/// The GPUs an attempt holds.
#[derive(Debug, Clone, Copy)]
enum GpuSet {
    /// GPUs of node `node`: bit `g` of `mask` is GPU `g`, allocated in
    /// ascending order.
    Node { node: usize, mask: u8 },
    /// Whole nodes, in node order: `Engine::whole[start..start + len]`.
    Nodes { start: usize, len: usize },
}

/// A started job's live state.
#[derive(Debug, Clone)]
struct RunJob {
    spec_idx: usize,
    start: Timestamp,
    gpus: GpuSet,
    done: bool,
    /// Sticky NVLink fate: whether this job actively uses the faulted
    /// link. Rolled once on first exposure — a job that CRC retries saved
    /// stays safe through every repeat of the same flapping link error
    /// (§IV(v): 46% of affected jobs ran to completion).
    nvlink_vulnerable: Option<bool>,
    /// Sticky MMU fate: whether this job's application masks MMU faults
    /// (§V-B: frameworks can catch the exception and skip the iteration).
    /// Masking is a property of the job's code, so it is rolled once.
    mmu_vulnerable: Option<bool>,
}

/// Per-job requeue bookkeeping.
#[derive(Debug, Clone, Copy)]
struct RetryState {
    attempts: u32,
    /// Work still to do at the next attempt.
    remaining: simtime::Duration,
    /// Start of the first attempt (the record keeps it).
    first_start: Timestamp,
}

/// A finished job's accounting, kept compact until
/// [`Engine::records`] joins it with its spec.
#[derive(Debug, Clone, Copy)]
struct Placement {
    /// Start of the first attempt.
    start: Timestamp,
    end: Timestamp,
    /// The last attempt's GPUs.
    gpus: GpuSet,
    state: JobState,
}

/// The allocation index: answers "which is the first up node with at
/// least `w` free GPUs" and "how many GPUs sit on fully idle up nodes"
/// without walking the nodes.
///
/// A max-tree over the nodes in index order: leaf `n` holds node `n`'s
/// free GPU count while the node is up and 0 while it is held, each
/// inner slot the max of its children. A no-fit answer is one look at
/// the root; a fit is a leftmost descent, which lands on exactly the node
/// a first-fit scan in node order would pick. Works for any node count.
#[derive(Debug, Clone)]
struct FreeIndex {
    /// Leaf count: the node count rounded up to a power of two.
    leaves: usize,
    /// `tree[leaves + n]` is node `n`'s leaf; `tree[i]` is the max of
    /// `tree[2i]` and `tree[2i + 1]`; `tree[0]` is unused.
    tree: Vec<u8>,
    /// GPUs on up nodes whose every GPU is free (the multi-node pool).
    idle_gpus: u32,
}

impl FreeIndex {
    /// An index over `cluster` with every node up and idle.
    fn new(cluster: &Cluster) -> Self {
        let leaves = cluster.node_count().next_power_of_two();
        let mut index = FreeIndex {
            leaves,
            tree: vec![0; 2 * leaves],
            idle_gpus: 0,
        };
        for (n, node) in cluster.nodes().iter().enumerate() {
            index.set(n, node.gpu_count(), node.gpu_count());
        }
        index
    }

    /// Records that node `n` (with `gpu_count` GPUs) now offers
    /// `schedulable` free GPUs: its free count while up, 0 while held.
    fn set(&mut self, n: usize, schedulable: u8, gpu_count: u8) {
        let mut i = self.leaves + n;
        if self.tree[i] == gpu_count {
            self.idle_gpus -= u32::from(gpu_count);
        }
        if schedulable == gpu_count {
            self.idle_gpus += u32::from(gpu_count);
        }
        self.tree[i] = schedulable;
        while i > 1 {
            i /= 2;
            let max = self.tree[2 * i].max(self.tree[2 * i + 1]);
            if self.tree[i] == max {
                break;
            }
            self.tree[i] = max;
        }
    }

    /// The lowest-indexed node offering at least `want` GPUs.
    fn first_fit(&self, want: u8) -> Option<usize> {
        if self.tree[1] < want {
            return None;
        }
        let mut i = 1;
        while i < self.leaves {
            i = if self.tree[2 * i] >= want {
                2 * i
            } else {
                2 * i + 1
            };
        }
        Some(i - self.leaves)
    }
}

/// Internal mutable engine.
struct Engine<'c> {
    cluster: &'c Cluster,
    /// GPUs in the cluster: the clamp on a job's request.
    total_gpus: u32,
    kill: KillModel,
    requeue: RequeuePolicy,
    policy: SchedPolicy,
    rng: Rng,
    node_up: Vec<bool>,
    /// `free[n]` has bit `g` set while GPU `g` of node `n` is unallocated.
    free: Vec<u8>,
    /// Mirrors `node_up` and `free`; every change to either goes
    /// through [`Engine::sync_node`].
    index: FreeIndex,
    /// `owner[n * NODE_SLOTS + g]` = the index into `running` of the
    /// attempt holding GPU `g` of node `n`.
    owner: Vec<Option<usize>>,
    /// The node lists of whole-node attempts ([`GpuSet::Nodes`]),
    /// appended as they start.
    whole: Vec<usize>,
    running: Vec<RunJob>,
    queue: VecDeque<usize>,
    finish: BinaryHeap<Reverse<(Timestamp, usize)>>,
    /// Killed jobs waiting out their restart delay: (resume time, spec).
    resume: BinaryHeap<Reverse<(Timestamp, usize)>>,
    retry: std::collections::HashMap<usize, RetryState>,
    /// Each job's placement by spec index, once it finishes; `None` when
    /// the caller reads only the counters.
    placements: Option<Vec<Option<Placement>>>,
    stats: SchedulerStats,
    /// Every attempt's start instant and GPUs, for the hold-window
    /// property.
    #[cfg(test)]
    starts: Vec<(Timestamp, Vec<GpuId>)>,
}

impl<'c> Engine<'c> {
    /// An engine over `cluster` with every node up and idle. With
    /// `records` = `Some(job count)` it keeps each finished job's
    /// placement for [`Engine::records`].
    ///
    /// # Panics
    ///
    /// Panics if a node has more than [`NODE_SLOTS`] GPUs.
    fn new(
        cluster: &'c Cluster,
        records: Option<usize>,
        kill: KillModel,
        requeue: RequeuePolicy,
        policy: SchedPolicy,
        rng: Rng,
    ) -> Self {
        assert!(
            cluster
                .nodes()
                .iter()
                .all(|n| usize::from(n.gpu_count()) <= NODE_SLOTS),
            "a node holds more than {NODE_SLOTS} GPUs"
        );
        Engine {
            cluster,
            total_gpus: cluster.gpu_count() as u32,
            kill,
            requeue,
            policy,
            rng,
            node_up: vec![true; cluster.node_count()],
            free: cluster
                .nodes()
                .iter()
                .map(|n| all_gpus(n.gpu_count()))
                .collect(),
            index: FreeIndex::new(cluster),
            owner: vec![None; cluster.node_count() * NODE_SLOTS],
            whole: Vec::new(),
            running: Vec::new(),
            queue: VecDeque::new(),
            finish: BinaryHeap::new(),
            resume: BinaryHeap::new(),
            retry: std::collections::HashMap::new(),
            placements: records.map(|jobs| vec![None; jobs]),
            stats: SchedulerStats::default(),
            #[cfg(test)]
            starts: Vec::new(),
        }
    }

    fn run(&mut self, specs: &[JobSpec], errors: &[GpuErrorEvent], holds: &[Outage]) {
        // Hold edges: (time, node index, is_down), sorted.
        let mut edges: Vec<(Timestamp, usize, bool)> = Vec::with_capacity(holds.len() * 2);
        for o in holds {
            if (o.node.index() as usize) < self.node_up.len() {
                edges.push((o.start, o.node.index() as usize, true));
                edges.push((o.end(), o.node.index() as usize, false));
            }
        }
        edges.sort_by_key(|&(t, n, d)| (t, n, d));
        self.running.reserve(specs.len());

        // An exhausted stream's next time, after every real instant.
        const NEVER: u64 = u64::MAX;
        let (mut si, mut ei, mut oi) = (0usize, 0usize, 0usize);
        loop {
            // Next pending time from each stream; tie-break priority:
            // finishes (free resources) < resumes < hold edges < errors
            // < submits, so a later stream wins only if strictly earlier.
            let times = [
                self.finish.peek().map_or(NEVER, |Reverse((t, _))| t.unix()),
                self.resume.peek().map_or(NEVER, |Reverse((t, _))| t.unix()),
                edges.get(oi).map_or(NEVER, |e| e.0.unix()),
                errors.get(ei).map_or(NEVER, |e| e.time.unix()),
                specs.get(si).map_or(NEVER, |s| s.submit.unix()),
            ];
            let mut tag = 0;
            for (stream, &t) in times.iter().enumerate().skip(1) {
                if t < times[tag] {
                    tag = stream;
                }
            }
            if times[tag] == NEVER {
                break;
            }
            match tag {
                0 => {
                    let Reverse((t, idx)) = self.finish.pop().expect("peeked non-empty");
                    self.on_finish(t, idx, specs);
                    self.drain_queue(t, specs);
                }
                1 => {
                    let Reverse((t, idx)) = self.resume.pop().expect("peeked non-empty");
                    if !self.try_start(idx, t, specs) {
                        self.queue.push_back(idx);
                        self.stats.peak_queue = self.stats.peak_queue.max(self.queue.len());
                    }
                }
                2 => {
                    let (t, node, down) = edges[oi];
                    oi += 1;
                    self.on_hold_edge(node, down);
                    if !down {
                        self.drain_queue(t, specs);
                    }
                }
                3 => {
                    let ev = errors[ei];
                    ei += 1;
                    self.on_error(&ev, specs);
                }
                _ => {
                    let idx = si;
                    si += 1;
                    let t = specs[idx].submit;
                    if !self.try_start(idx, t, specs) {
                        self.queue.push_back(idx);
                        self.stats.peak_queue = self.stats.peak_queue.max(self.queue.len());
                    }
                }
            }
        }
    }

    /// Attempts to allocate and start job `idx` at time `t`.
    fn try_start(&mut self, idx: usize, t: Timestamp, specs: &[JobSpec]) -> bool {
        let want = specs[idx].gpus.min(self.total_gpus).max(1);
        let Some(gpus) = self.find_allocation(want) else {
            return false;
        };
        let run_idx = self.running.len();
        self.assign(gpus, Some(run_idx));
        #[cfg(test)]
        {
            let ids = self.gpu_ids(gpus);
            self.starts.push((t, ids));
        }
        let duration = self
            .retry
            .get(&idx)
            .map(|r| r.remaining)
            .unwrap_or(specs[idx].duration);
        let end = t + duration;
        self.running.push(RunJob {
            spec_idx: idx,
            start: t,
            gpus,
            done: false,
            nvlink_vulnerable: None,
            mmu_vulnerable: None,
        });
        self.finish.push(Reverse((end, run_idx)));
        true
    }

    /// Finds GPUs for a `want`-wide job: single-node first-fit for jobs
    /// that fit on one node, whole-node accumulation for larger jobs.
    /// The index answers a no-fit without touching a node.
    fn find_allocation(&mut self, want: u32) -> Option<GpuSet> {
        let found = if want <= NODE_SLOTS as u32 {
            self.index.first_fit(want as u8).map(|node| GpuSet::Node {
                node,
                mask: lowest_bits(self.free[node], want),
            })
        } else if self.index.idle_gpus < want {
            None
        } else {
            // Multi-node: accumulate fully idle nodes; the idle count
            // says there are enough.
            let start = self.whole.len();
            let mut got = 0;
            for (n, node) in self.cluster.nodes().iter().enumerate() {
                if self.node_up[n] && self.free[n] == all_gpus(node.gpu_count()) {
                    self.whole.push(n);
                    got += u32::from(node.gpu_count());
                    if got >= want {
                        break;
                    }
                }
            }
            Some(GpuSet::Nodes {
                start,
                len: self.whole.len() - start,
            })
        };
        #[cfg(test)]
        assert_eq!(
            found.map(|gpus| self.gpu_ids(gpus)),
            self.scan_allocation(want),
            "allocation index disagrees with the scan for a {want}-GPU job"
        );
        found
    }

    /// The reference allocator: a first-fit walk over every node and its
    /// owner slots, which [`Engine::find_allocation`] must answer
    /// identically.
    #[cfg(test)]
    fn scan_allocation(&self, want: u32) -> Option<Vec<GpuId>> {
        let nodes = self.cluster.nodes();
        let idle = |n: usize, g: u8| self.owner[n * NODE_SLOTS + g as usize].is_none();
        let free = |n: usize| (0..nodes[n].gpu_count()).filter(|&g| idle(n, g)).count() as u32;
        if want <= 8 {
            for (n, node) in nodes.iter().enumerate() {
                if self.node_up[n] && node.gpu_count() as u32 >= want && free(n) >= want {
                    let mut gpus = Vec::with_capacity(want as usize);
                    for g in 0..node.gpu_count() {
                        if idle(n, g) {
                            gpus.push(GpuId::new(node.id(), g));
                            if gpus.len() as u32 == want {
                                return Some(gpus);
                            }
                        }
                    }
                }
            }
            return None;
        }
        // Multi-node: accumulate fully idle nodes.
        let mut gpus = Vec::with_capacity(want as usize);
        for (n, node) in nodes.iter().enumerate() {
            if self.node_up[n] && free(n) == u32::from(node.gpu_count()) {
                for g in 0..node.gpu_count() {
                    gpus.push(GpuId::new(node.id(), g));
                }
                if gpus.len() as u32 >= want {
                    return Some(gpus);
                }
            }
        }
        None
    }

    /// The GPUs of `gpus`, in allocation order.
    fn gpu_ids(&self, gpus: GpuSet) -> Vec<GpuId> {
        let nodes = self.cluster.nodes();
        match gpus {
            GpuSet::Node { node, mask } => (0..nodes[node].gpu_count())
                .filter(|g| mask >> g & 1 == 1)
                .map(|g| GpuId::new(nodes[node].id(), g))
                .collect(),
            GpuSet::Nodes { start, len } => self.whole[start..start + len]
                .iter()
                .flat_map(|&n| nodes[n].gpus())
                .collect(),
        }
    }

    /// How many GPUs `gpus` holds.
    fn gpu_count(&self, gpus: GpuSet) -> u32 {
        match gpus {
            GpuSet::Node { mask, .. } => mask.count_ones(),
            GpuSet::Nodes { start, len } => self.whole[start..start + len]
                .iter()
                .map(|&n| u32::from(self.cluster.nodes()[n].gpu_count()))
                .sum(),
        }
    }

    /// Gives `gpus` to attempt `owner`, or frees them with `None`.
    fn assign(&mut self, gpus: GpuSet, owner: Option<usize>) {
        match gpus {
            GpuSet::Node { node, mask } => self.assign_on(node, mask, owner),
            GpuSet::Nodes { start, len } => {
                for i in start..start + len {
                    let n = self.whole[i];
                    self.assign_on(n, all_gpus(self.cluster.nodes()[n].gpu_count()), owner);
                }
            }
        }
    }

    /// Gives the GPUs of node `n` in `mask` to `owner` (frees them with
    /// `None`), then syncs the node once.
    fn assign_on(&mut self, n: usize, mask: u8, owner: Option<usize>) {
        let slots = &mut self.owner[n * NODE_SLOTS..][..NODE_SLOTS];
        let mut bits = mask;
        while bits != 0 {
            slots[bits.trailing_zeros() as usize] = owner;
            bits &= bits - 1;
        }
        if owner.is_some() {
            self.free[n] &= !mask;
        } else {
            self.free[n] |= mask;
        }
        self.sync_node(n);
    }

    /// Pushes node `n`'s `node_up`/`free` state into the index.
    fn sync_node(&mut self, n: usize) {
        let schedulable = if self.node_up[n] {
            self.free[n].count_ones() as u8
        } else {
            0
        };
        self.index
            .set(n, schedulable, self.cluster.nodes()[n].gpu_count());
    }

    /// Starts whatever the drain policy allows: strict FIFO stops at the
    /// first queued job that cannot be placed; backfill inspects the head
    /// region (bounded by [`BACKFILL_DEPTH`]) and starts anything that fits.
    fn drain_queue(&mut self, t: Timestamp, specs: &[JobSpec]) {
        if self.policy == SchedPolicy::Fifo {
            while let Some(&idx) = self.queue.front() {
                if !self.try_start(idx, t, specs) {
                    break;
                }
                self.queue.pop_front();
            }
            return;
        }
        loop {
            let mut started_any = false;
            let depth = self.queue.len().min(BACKFILL_DEPTH);
            let mut i = 0;
            while i < depth.min(self.queue.len()) {
                let idx = self.queue[i];
                if self.try_start(idx, t, specs) {
                    self.queue.remove(i);
                    started_any = true;
                } else {
                    i += 1;
                }
            }
            if !started_any {
                break;
            }
        }
    }

    /// Natural completion: finalize with the baseline state.
    fn on_finish(&mut self, t: Timestamp, run_idx: usize, specs: &[JobSpec]) {
        if self.running[run_idx].done {
            return;
        }
        let state = specs[self.running[run_idx].spec_idx].baseline_state;
        self.finalize(run_idx, t, state);
    }

    /// A hold only toggles schedulability: per §V-C the drain lets
    /// resident jobs run to completion, so nothing is killed here.
    fn on_hold_edge(&mut self, node: usize, down: bool) {
        self.node_up[node] = !down;
        self.sync_node(node);
    }

    fn on_error(&mut self, ev: &GpuErrorEvent, specs: &[JobSpec]) {
        let n = ev.gpu.node.index() as usize;
        let g = ev.gpu.index as usize;
        if n >= self.node_up.len() || g >= usize::from(self.cluster.nodes()[n].gpu_count()) {
            return;
        }
        // Blast radius: node-scoped kinds (GSP, bus drop) wedge the whole
        // node's driver, so every resident job rolls the dice, in
        // ascending run order.
        let slots = match self.kill.scope(ev.kind) {
            KillScope::Gpu => g..g + 1,
            KillScope::Node => 0..NODE_SLOTS,
        };
        let mut victims = [0usize; NODE_SLOTS];
        let mut count = 0;
        for &run_idx in self.owner[n * NODE_SLOTS..][slots].iter().flatten() {
            if !victims[..count].contains(&run_idx) {
                victims[count] = run_idx;
                count += 1;
            }
        }
        let victims = &mut victims[..count];
        victims.sort_unstable();
        if victims.iter().all(|&run_idx| self.running[run_idx].done) {
            self.stats.errors_on_idle += 1;
            return;
        }
        let mut any = false;
        for &run_idx in victims.iter() {
            if self.running[run_idx].done {
                continue;
            }
            // NVLink and MMU survivability are properties of the *job*
            // (link usage; application-level exception handling), so their
            // fate is rolled once per job and reused on repeat exposures.
            let dies = match ev.kind {
                xid::ErrorKind::NvlinkError => match self.running[run_idx].nvlink_vulnerable {
                    Some(v) => v,
                    None => {
                        let v = self.kill.kills(ev.kind, &mut self.rng);
                        self.running[run_idx].nvlink_vulnerable = Some(v);
                        v
                    }
                },
                xid::ErrorKind::MmuError => match self.running[run_idx].mmu_vulnerable {
                    Some(v) => v,
                    None => {
                        let v = self.kill.kills(ev.kind, &mut self.rng);
                        self.running[run_idx].mmu_vulnerable = Some(v);
                        v
                    }
                },
                _ => self.kill.kills(ev.kind, &mut self.rng),
            };
            if dies {
                self.stats.error_kills += 1;
                self.kill_with_requeue(run_idx, ev.time, specs);
                any = true;
            }
        }
        if any {
            self.drain_queue(ev.time, specs);
        }
    }

    /// Kills a running job, either finalizing it as `NODE_FAIL` or — under
    /// an active [`RequeuePolicy`] with retries left — releasing its GPUs
    /// and scheduling a restart from the last checkpoint.
    fn kill_with_requeue(&mut self, run_idx: usize, t: Timestamp, specs: &[JobSpec]) {
        let RunJob {
            spec_idx,
            start,
            gpus,
            ..
        } = self.running[run_idx];
        let gpu_count = f64::from(self.gpu_count(gpus));
        let attempts = self.retry.get(&spec_idx).map_or(0, |r| r.attempts);
        let done_this_attempt = t - start;
        let remaining_before = self
            .retry
            .get(&spec_idx)
            .map(|r| r.remaining)
            .unwrap_or(specs[spec_idx].duration);

        if !self.requeue.enabled() || attempts >= self.requeue.max_retries {
            // Lost work: everything since the last checkpoint (whole
            // attempt without checkpointing).
            let lost = match self.requeue.checkpoint_interval {
                Some(c) if self.requeue.enabled() => {
                    simtime::Duration::from_secs(done_this_attempt.as_secs() % c.as_secs().max(1))
                }
                _ => done_this_attempt,
            };
            self.stats.lost_gpu_hours += gpu_count * lost.as_hours_f64();
            self.finalize(run_idx, t, JobState::NodeFail);
            return;
        }

        // Progress preserved: checkpointed work survives, the rest is lost.
        let kept = match self.requeue.checkpoint_interval {
            Some(c) => simtime::Duration::from_secs(
                done_this_attempt.as_secs() / c.as_secs().max(1) * c.as_secs().max(1),
            ),
            None => simtime::Duration::ZERO,
        };
        let lost = done_this_attempt - kept;
        self.stats.lost_gpu_hours += gpu_count * lost.as_hours_f64();
        self.stats.requeues += 1;
        let first_start = self.retry.get(&spec_idx).map_or(start, |r| r.first_start);
        self.retry.insert(
            spec_idx,
            RetryState {
                attempts: attempts + 1,
                remaining: remaining_before - kept,
                first_start,
            },
        );
        // Release the GPUs without writing a record.
        self.running[run_idx].done = true;
        self.assign(gpus, None);
        self.resume
            .push(Reverse((t + self.requeue.restart_delay, spec_idx)));
    }

    /// Releases the job's GPUs and, when records are kept, its placement.
    fn finalize(&mut self, run_idx: usize, end: Timestamp, state: JobState) {
        let run = &mut self.running[run_idx];
        run.done = true;
        let (spec_idx, start, gpus) = (run.spec_idx, run.start, run.gpus);
        self.assign(gpus, None);
        if let Some(placements) = &mut self.placements {
            placements[spec_idx] = Some(Placement {
                start: self.retry.get(&spec_idx).map_or(start, |r| r.first_start),
                // A job killed at its start instant still occupies one
                // second of accounting so elapsed times stay positive.
                end: end.max(start + simtime::Duration::from_secs(1)),
                gpus,
                state,
            });
        }
    }

    /// Joins each placement with its spec into a [`JobRecord`], rendering
    /// its name, and synthesises CANCELLED records for jobs that never
    /// started (queued past the end of the trace).
    ///
    /// # Panics
    ///
    /// Panics if the engine was built without `records`.
    fn records(&self, specs: &[JobSpec]) -> Vec<JobRecord> {
        let placements = self
            .placements
            .as_ref()
            .expect("the engine keeps placements");
        placements
            .iter()
            .zip(specs)
            .enumerate()
            .map(|(i, (placed, spec))| match placed {
                Some(p) => {
                    let gpu_ids = self.gpu_ids(p.gpus);
                    let mut nodes: Vec<NodeId> = gpu_ids.iter().map(|g| g.node).collect();
                    nodes.dedup();
                    JobRecord {
                        id: JobId(i as u64),
                        name: spec.name.to_string(),
                        submit: spec.submit,
                        start: p.start,
                        end: p.end,
                        gpus: gpu_ids.len() as u32,
                        nodes,
                        gpu_ids,
                        state: p.state,
                    }
                }
                None => JobRecord {
                    id: JobId(i as u64),
                    name: spec.name.to_string(),
                    submit: spec.submit,
                    start: spec.submit,
                    end: spec.submit,
                    gpus: spec.gpus,
                    nodes: Vec::new(),
                    gpu_ids: Vec::new(),
                    state: JobState::Cancelled,
                },
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::JobName;
    use clustersim::{ClusterSpec, IncidentId};
    use simtime::Duration;
    use xid::ErrorKind;

    fn tiny_cluster() -> Cluster {
        Cluster::new(ClusterSpec::tiny())
    }

    fn small_workload(fraction: f64) -> WorkloadConfig {
        WorkloadConfig::delta_scaled(fraction)
    }

    #[test]
    fn all_jobs_get_records_in_submission_order() {
        let cluster = tiny_cluster();
        let outcome = Simulation::new(&cluster, small_workload(0.0005), 1).run(&[], &[]);
        for (i, job) in outcome.jobs.iter().enumerate() {
            assert_eq!(job.id, JobId(i as u64));
            assert!(job.end >= job.start);
            assert!(job.start >= job.submit);
        }
    }

    #[test]
    fn fifo_blocks_behind_the_head_where_backfill_does_not() {
        let cluster = tiny_cluster();
        assert_eq!(
            cluster.nodes()[3].gpu_count(),
            8,
            "tiny spec: node 3 is the eight-way"
        );
        let t0 = Timestamp::from_unix(1_000_000);
        let spec = |submit_off: u64, gpus: u32, dur_secs: u64| JobSpec {
            submit: t0 + Duration::from_secs(submit_off),
            name: JobName::new("j", submit_off),
            gpus,
            duration: Duration::from_secs(dur_secs),
            baseline_state: JobState::Completed,
        };
        // Job 0 takes every four-way GPU; the eight-way node is held down,
        // so job 1 (8 GPUs, single-node only) and job 2 (1 GPU) both queue.
        // When job 0 finishes at t=500 the drain runs: backfill starts job
        // 2 past the stuck head; strict FIFO leaves it queued until the
        // hold lifts at t=2000.
        let specs = vec![spec(0, 12, 500), spec(1, 8, 100), spec(2, 1, 100)];
        let hold = Outage {
            node: cluster.nodes()[3].id(),
            start: t0,
            duration: Duration::from_secs(2000),
            action: xid::RecoveryAction::NodeReboot,
        };
        for (policy, expect_start) in [(SchedPolicy::Backfill, 500), (SchedPolicy::Fifo, 2000)] {
            let mut engine = Engine::new(
                &cluster,
                Some(specs.len()),
                KillModel::delta(),
                RequeuePolicy::none(),
                policy,
                Rng::seed_from(1),
            );
            engine.run(&specs, &[], &[hold]);
            let records = engine.records(&specs);
            assert_eq!(
                records[2].start,
                t0 + Duration::from_secs(expect_start),
                "{policy:?}"
            );
        }
    }

    #[test]
    fn sched_policy_parses_and_round_trips() {
        assert_eq!(SchedPolicy::parse("fifo").unwrap(), SchedPolicy::Fifo);
        assert_eq!(
            SchedPolicy::parse("backfill").unwrap(),
            SchedPolicy::Backfill
        );
        assert!(SchedPolicy::parse("lifo").is_err());
        for p in [SchedPolicy::Fifo, SchedPolicy::Backfill] {
            assert_eq!(SchedPolicy::parse(p.name()).unwrap(), p);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let cluster = tiny_cluster();
        let a = Simulation::new(&cluster, small_workload(0.0005), 9).run(&[], &[]);
        let b = Simulation::new(&cluster, small_workload(0.0005), 9).run(&[], &[]);
        assert_eq!(a.jobs, b.jobs);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn success_rate_without_errors_matches_baseline() {
        let cluster = tiny_cluster();
        let outcome = Simulation::new(&cluster, small_workload(0.002), 2).run(&[], &[]);
        let rate = outcome.gpu_success_rate();
        // Some jobs may be cancelled by never starting, so allow slack
        // below the 74.68% target but not above.
        assert!(rate > 0.70 && rate < 0.78, "success rate {rate}");
        let cpu = outcome.cpu_success_rate();
        assert!((cpu - 0.749).abs() < 0.02, "cpu success {cpu}");
    }

    #[test]
    fn gsp_error_on_busy_gpu_kills_job() {
        let cluster = tiny_cluster();
        let workload = small_workload(0.002);
        let window = workload.window;
        // Blanket the window with GSP errors on every GPU every ~2 hours.
        let mut errors = Vec::new();
        let mut t = window.start;
        let mut incident = 0u64;
        while t < window.end {
            for gpu in cluster.gpus() {
                errors.push(GpuErrorEvent::new(
                    t,
                    gpu,
                    ErrorKind::GspError,
                    IncidentId(incident),
                ));
                incident += 1;
            }
            t = t + Duration::from_hours(2);
        }
        let outcome = Simulation::new(&cluster, workload, 3).run(&errors, &[]);
        assert!(outcome.stats.error_kills > 0, "{:?}", outcome.stats);
        let node_fails = outcome
            .jobs
            .iter()
            .filter(|j| j.state == JobState::NodeFail)
            .count();
        assert!(node_fails as u64 >= outcome.stats.error_kills);
    }

    #[test]
    fn rre_errors_never_kill() {
        let cluster = tiny_cluster();
        let workload = small_workload(0.001);
        let window = workload.window;
        let mut errors = Vec::new();
        let mut t = window.start;
        while t < window.end {
            for gpu in cluster.gpus() {
                errors.push(GpuErrorEvent::new(
                    t,
                    gpu,
                    ErrorKind::RowRemapEvent,
                    IncidentId(0),
                ));
            }
            t = t + Duration::from_hours(1);
        }
        let outcome = Simulation::new(&cluster, workload, 4).run(&errors, &[]);
        assert_eq!(outcome.stats.error_kills, 0);
    }

    #[test]
    fn hold_blocks_scheduling_without_killing() {
        let cluster = tiny_cluster();
        let workload = small_workload(0.002);
        let window = workload.window;
        // Hold node 0 out for the entire window.
        let hold = Outage {
            node: NodeId::new(0),
            start: window.start,
            duration: window.length(),
            action: xid::RecoveryAction::NodeReboot,
        };
        let outcome = Simulation::new(&cluster, workload, 5).run(&[], &[hold]);
        // No job may have *started* on node 0 while it was held (jobs that
        // queue past the hold may legitimately start there afterwards).
        for job in &outcome.jobs {
            if job.state != JobState::Cancelled && job.start < hold.end() {
                assert!(!job.uses_node(NodeId::new(0)), "{job} ran on a held node");
            }
        }
        // Holds themselves kill nothing.
        assert_eq!(
            outcome
                .jobs
                .iter()
                .filter(|j| j.state == JobState::NodeFail)
                .count(),
            0
        );
    }

    #[test]
    fn multi_node_jobs_get_whole_nodes() {
        let cluster = tiny_cluster(); // 3x4 + 1x8 = 20 GPUs
        let workload = small_workload(0.0005);
        let outcome = Simulation::new(&cluster, workload, 6).run(&[], &[]);
        for job in &outcome.jobs {
            if job.gpus > 8 && job.state != JobState::Cancelled {
                assert!(job.nodes.len() >= 2, "{job}");
            }
        }
    }

    #[test]
    fn requeue_restarts_killed_jobs() {
        let cluster = tiny_cluster();
        let workload = small_workload(0.001);
        let window = workload.window;
        // One GSP error early in the window: without requeue the victim
        // dies; with requeue it restarts and completes.
        let errors = vec![GpuErrorEvent::new(
            window.start + Duration::from_hours(24),
            GpuId::new(NodeId::new(0), 0),
            ErrorKind::GspError,
            IncidentId(0),
        )];
        let plain = Simulation::new(&cluster, workload.clone(), 11).run(&errors, &[]);
        let retried = Simulation::new(&cluster, workload, 11)
            .with_requeue(RequeuePolicy::hourly_checkpoints(3))
            .run(&errors, &[]);
        // Same workload stream: requeue can only reduce NODE_FAIL count.
        let plain_fails = plain
            .jobs
            .iter()
            .filter(|j| j.state == JobState::NodeFail)
            .count();
        let retried_fails = retried
            .jobs
            .iter()
            .filter(|j| j.state == JobState::NodeFail)
            .count();
        assert!(
            retried_fails <= plain_fails,
            "{retried_fails} > {plain_fails}"
        );
        if plain.stats.error_kills > 0 {
            assert_eq!(retried.stats.requeues, retried.stats.error_kills);
        }
        // Both see the same number of records.
        assert_eq!(plain.jobs.len(), retried.jobs.len());
    }

    #[test]
    fn requeue_checkpointing_bounds_lost_work() {
        let cluster = tiny_cluster();
        let workload = small_workload(0.002);
        let window = workload.window;
        // Kill everything hourly for a stretch: checkpointed restarts lose
        // at most one checkpoint interval per kill.
        let mut errors = Vec::new();
        let mut t = window.start + Duration::from_hours(10);
        for i in 0..20u64 {
            errors.push(GpuErrorEvent::new(
                t,
                GpuId::new(NodeId::new(0), 0),
                ErrorKind::GspError,
                IncidentId(i),
            ));
            t = t + Duration::from_hours(3);
        }
        let ckpt = Simulation::new(&cluster, workload.clone(), 12)
            .with_requeue(RequeuePolicy::hourly_checkpoints(10))
            .run(&errors, &[]);
        let restart = Simulation::new(&cluster, workload, 12)
            .with_requeue(RequeuePolicy {
                checkpoint_interval: None,
                ..RequeuePolicy::hourly_checkpoints(10)
            })
            .run(&errors, &[]);
        if ckpt.stats.requeues > 0 && restart.stats.requeues > 0 {
            // Full restarts lose at least as much work per requeue.
            let ckpt_per = ckpt.stats.lost_gpu_hours / ckpt.stats.requeues as f64;
            let restart_per = restart.stats.lost_gpu_hours / restart.stats.requeues.max(1) as f64;
            assert!(ckpt_per <= restart_per + 1e-9, "{ckpt_per} > {restart_per}");
        }
    }

    #[test]
    fn allocation_and_wait_statistics() {
        let cluster = tiny_cluster();
        let workload = small_workload(0.002);
        let window = workload.window;
        let outcome = Simulation::new(&cluster, workload, 30).run(&[], &[]);
        let alloc = outcome.gpu_allocation(cluster.gpu_count(), window);
        // A busy tiny cluster: meaningfully loaded, never above 1.
        assert!((0.05..=1.0).contains(&alloc), "allocation {alloc}");
        let (mean, p50, p99) = outcome.wait_stats_hours().unwrap();
        assert!(mean >= 0.0 && p50 <= p99);
    }

    #[test]
    fn requeue_policy_accessors() {
        assert!(!RequeuePolicy::none().enabled());
        assert!(RequeuePolicy::hourly_checkpoints(2).enabled());
        assert_eq!(RequeuePolicy::default(), RequeuePolicy::none());
    }

    #[test]
    fn errors_on_idle_gpus_are_counted() {
        let cluster = tiny_cluster();
        // No workload overlap: single error long before any job.
        let workload = small_workload(0.0005);
        let errors = [GpuErrorEvent::new(
            Timestamp::from_unix(1),
            GpuId::new(NodeId::new(0), 0),
            ErrorKind::GspError,
            IncidentId(0),
        )];
        let outcome = Simulation::new(&cluster, workload, 7).run(&errors, &[]);
        assert_eq!(outcome.stats.errors_on_idle, 1);
    }

    /// One handcrafted 2-GPU job (node 0 first-fit ⇒ GPUs 0 and 1),
    /// driven through the private [`Engine`] against a given error
    /// timeline. Deterministic kinds only (kill probability 0 or 1).
    fn run_two_gpu_job(
        duration_secs: u64,
        errors: &[GpuErrorEvent],
    ) -> (JobRecord, SchedulerStats) {
        let cluster = tiny_cluster();
        let specs = [JobSpec {
            submit: Timestamp::from_unix(1_000),
            name: JobName::new("edge", 0),
            gpus: 2,
            duration: Duration::from_secs(duration_secs),
            baseline_state: JobState::Completed,
        }];
        let mut engine = Engine::new(
            &cluster,
            Some(specs.len()),
            KillModel::delta(),
            RequeuePolicy::none(),
            SchedPolicy::Backfill,
            Rng::seed_from(7),
        );
        engine.run(&specs, errors, &[]);
        let stats = engine.stats;
        let mut records = engine.records(&specs);
        (records.remove(0), stats)
    }

    fn contained_error_at(secs: u64, gpu_index: u8) -> GpuErrorEvent {
        GpuErrorEvent::new(
            Timestamp::from_unix(secs),
            GpuId::new(NodeId::new(0), gpu_index),
            ErrorKind::ContainedMemoryError,
            IncidentId(0),
        )
    }

    #[test]
    fn gpu_scope_error_on_non_allocated_gpu_spares_multi_gpu_job() {
        // The job holds GPUs 0 and 1 of node 0; the contained-memory error
        // (GPU blast radius, kill probability 1.0) lands on GPU 3 of the
        // same node, which the job does not hold. The job must survive and
        // the error must count as landing on an idle GPU.
        let (rec, stats) = run_two_gpu_job(10_000, &[contained_error_at(2_000, 3)]);
        assert_eq!(rec.state, JobState::Completed, "{rec:?}");
        assert_eq!(rec.end, Timestamp::from_unix(11_000));
        assert_eq!(rec.gpus, 2);
        assert_eq!(stats.error_kills, 0);
        assert_eq!(stats.errors_on_idle, 1);

        // Control: the same error on an allocated GPU kills the job.
        let (rec, stats) = run_two_gpu_job(10_000, &[contained_error_at(2_000, 1)]);
        assert_eq!(rec.state, JobState::NodeFail, "{rec:?}");
        assert_eq!(rec.end, Timestamp::from_unix(2_000));
        assert_eq!(stats.error_kills, 1);
        assert_eq!(stats.errors_on_idle, 0);
    }

    #[test]
    fn node_scope_error_kills_multi_gpu_job_from_any_gpu_index() {
        // GSP errors wedge the whole node's driver: even fired on GPU 3 —
        // which the job does not hold — every resident job is exposed.
        let errors = [GpuErrorEvent::new(
            Timestamp::from_unix(2_000),
            GpuId::new(NodeId::new(0), 3),
            ErrorKind::GspError,
            IncidentId(0),
        )];
        let (rec, stats) = run_two_gpu_job(10_000, &errors);
        assert_eq!(rec.state, JobState::NodeFail, "{rec:?}");
        assert_eq!(rec.end, Timestamp::from_unix(2_000));
        assert_eq!(stats.error_kills, 1);
    }

    #[test]
    fn job_finishing_in_the_same_tick_as_the_error_completes() {
        // Finish and error collide at t = 2000. The event loop drains
        // finishes before errors at equal timestamps (a job that ends as
        // the error arrives was not running when it landed), so the job
        // keeps its baseline state and the error counts as idle.
        let (rec, stats) = run_two_gpu_job(1_000, &[contained_error_at(2_000, 0)]);
        assert_eq!(rec.state, JobState::Completed, "{rec:?}");
        assert_eq!(rec.end, Timestamp::from_unix(2_000));
        assert_eq!(stats.error_kills, 0);
        assert_eq!(stats.errors_on_idle, 1);

        // One second earlier the job is still running and dies.
        let (rec, stats) = run_two_gpu_job(1_000, &[contained_error_at(1_999, 0)]);
        assert_eq!(rec.state, JobState::NodeFail, "{rec:?}");
        assert_eq!(rec.end, Timestamp::from_unix(1_999));
        assert_eq!(stats.error_kills, 1);
    }

    /// A random cluster shape: the tiny and Delta specs, one with more
    /// than 128 GPU nodes, and small odd ones (down to none at all).
    fn random_cluster(g: &mut propcheck::Gen) -> ClusterSpec {
        match g.usize_in(0, 4) {
            0 => ClusterSpec::tiny(),
            1 => ClusterSpec::delta(),
            2 => ClusterSpec {
                four_way_nodes: g.u16_in(120, 150),
                eight_way_nodes: g.u16_in(9, 20),
                cpu_nodes: 0,
            },
            _ => ClusterSpec {
                four_way_nodes: g.u16_in(0, 6),
                eight_way_nodes: g.u16_in(0, 4),
                cpu_nodes: 0,
            },
        }
    }

    /// Disjoint hold windows per node, as the fault campaign merges them.
    fn random_holds(g: &mut propcheck::Gen, cluster: &Cluster, t0: Timestamp) -> Vec<Outage> {
        let mut holds = Vec::new();
        for node in cluster.nodes() {
            let mut t = t0 + Duration::from_secs(g.u64_below(24 * 3600));
            for _ in 0..g.usize_in(0, 4) {
                let duration = Duration::from_secs(g.u64_in(60, 12 * 3600));
                holds.push(Outage {
                    node: node.id(),
                    start: t,
                    duration,
                    action: xid::RecoveryAction::NodeReboot,
                });
                t = t + duration + Duration::from_secs(g.u64_in(1, 24 * 3600));
            }
        }
        holds
    }

    /// Errors sorted by time over valid GPUs, mixing GPU- and node-scoped
    /// kinds, sticky-fate kinds and kinds that never kill.
    fn random_errors(
        g: &mut propcheck::Gen,
        cluster: &Cluster,
        t0: Timestamp,
    ) -> Vec<GpuErrorEvent> {
        const KINDS: [ErrorKind; 7] = [
            ErrorKind::GspError,
            ErrorKind::FallenOffBus,
            ErrorKind::NvlinkError,
            ErrorKind::MmuError,
            ErrorKind::ContainedMemoryError,
            ErrorKind::PmuSpiError,
            ErrorKind::RowRemapEvent,
        ];
        let mut errors: Vec<GpuErrorEvent> = (0..g.usize_in(0, 80))
            .map(|i| {
                let node = cluster.nodes()[g.usize_in(0, cluster.node_count())];
                GpuErrorEvent::new(
                    t0 + Duration::from_secs(g.u64_below(3 * 24 * 3600)),
                    GpuId::new(node.id(), g.u8_in(0, node.gpu_count())),
                    g.choose(&KINDS),
                    IncidentId(i as u64),
                )
            })
            .collect();
        errors.sort_by_key(|e| e.time);
        errors
    }

    /// About two jobs per GPU over two days: mostly single-node widths,
    /// some multi-node ones up to past the cluster size.
    fn random_specs(g: &mut propcheck::Gen, total_gpus: u32, t0: Timestamp) -> Vec<JobSpec> {
        let mut specs: Vec<JobSpec> = (0..2 * total_gpus as usize + 8)
            .map(|i| {
                let gpus = if g.bool_with(0.9) {
                    g.u32_in(1, 9)
                } else {
                    g.u32_in(9, total_gpus + 17)
                };
                JobSpec {
                    submit: t0 + Duration::from_secs(g.u64_below(2 * 24 * 3600)),
                    name: JobName::new("job", i as u64),
                    gpus,
                    duration: Duration::from_secs(g.u64_in(1, 24 * 3600)),
                    baseline_state: if g.bool() {
                        JobState::Completed
                    } else {
                        JobState::Failed
                    },
                }
            })
            .collect();
        specs.sort_by_key(|s| s.submit);
        specs
    }

    /// The allocation index answers every query with the GPUs the linear
    /// scan picks (`find_allocation` asserts it in test builds), no
    /// attempt starts on a node strictly inside one of that node's hold
    /// windows, and keeping placements changes no start and no counter —
    /// over random cluster shapes, workloads, hold windows and error
    /// streams, under both policies, with requeue on and off.
    #[test]
    fn allocation_index_matches_the_scan_and_honours_holds() {
        propcheck::run("allocation_index_matches_the_scan", 32, |g| {
            let cluster = Cluster::new(random_cluster(g));
            let t0 = Timestamp::from_unix(1_000_000);
            let specs = random_specs(g, cluster.gpu_count() as u32, t0);
            let holds = random_holds(g, &cluster, t0);
            let errors = if cluster.node_count() == 0 {
                Vec::new()
            } else {
                random_errors(g, &cluster, t0)
            };
            let policy = g.choose(&[SchedPolicy::Fifo, SchedPolicy::Backfill]);
            let requeue = if g.bool() {
                RequeuePolicy::hourly_checkpoints(g.u32_in(1, 4))
            } else {
                RequeuePolicy::none()
            };
            let seed = g.u64();
            let run = |records| {
                let mut engine = Engine::new(
                    &cluster,
                    records,
                    KillModel::delta(),
                    requeue,
                    policy,
                    Rng::seed_from(seed),
                );
                engine.run(&specs, &errors, &holds);
                engine
            };
            let engine = run(None);
            let recorded = run(Some(specs.len()));
            assert_eq!(engine.stats, recorded.stats, "{policy:?}");
            assert_eq!(engine.starts, recorded.starts, "{policy:?}");
            for (t, gpus) in &engine.starts {
                for hold in holds
                    .iter()
                    .filter(|h| gpus.iter().any(|g| g.node == h.node))
                {
                    assert!(
                        !(hold.start < *t && *t < hold.end()),
                        "{policy:?}: a job started at {t} inside {hold:?}"
                    );
                }
            }
        });
    }
}
