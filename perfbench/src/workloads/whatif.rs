//! `whatif`: `delta_serve` with an empty ingest directory, serving
//! `/whatif` to one closed-loop client per load thread.
//!
//! Every request is a distinct seeded spec with `reps=1` on the default
//! inline path; the spec axes rotate over `mttr_scale`, `xid_rate` and
//! `sched`. This is the only workload where `faultsim`, `clustersim`,
//! `slurmsim`, `core::scenario` and `servd::whatif` do the work.

use super::{guards, med, prom_sum, q, self_time, Ctx, Outcome};
use crate::client::Client;
use crate::procs::start_server;
use crate::spans::Recorder;
use clustersim::RepairModel;
use delta_gpu_resilience::prelude::*;
use resilience::scenario::{run_campaign, RateAxis, ScenarioSpec, SIM_SCALE};
use simrng::dist::LogNormal;
use std::time::{Duration, Instant};

/// Server spawns per run for `setup_s` (the last one serves the load).
const SETUP_SPAWNS: usize = 12;
/// Each client reconnects after this many requests, so a single accept
/// decision (which event-loop thread owns the connection) cannot decide
/// a run.
const RECONNECT_EVERY: u64 = 4;
/// Specs re-executed in process by the traced run.
const TRACE_SPECS: u64 = 6;
/// Served bodies per client checked against the in-process oracle.
const CHECKED_PER_CLIENT: usize = 1;

const MTTR_SCALES: [&str; 6] = ["0.25", "0.5", "0.75", "1.5", "2", "4"];
const RATE_MULTS: [&str; 4] = ["0.5", "1.5", "2", "3"];
const AXES: [RateAxis; 6] = [
    RateAxis::Mmu,
    RateAxis::Uncorrectable,
    RateAxis::Nvlink,
    RateAxis::Fallen,
    RateAxis::Gsp,
    RateAxis::Pmu,
];

/// The seeded spec stream of one client: query pairs per request.
#[derive(Debug)]
pub struct Specs {
    rng: Rng,
    n: u64,
}

impl Specs {
    /// Client `client`'s stream for `seed`.
    pub fn new(seed: u64, client: u64) -> Specs {
        Specs {
            rng: Rng::seed_from(seed).fork(0x00A1_F000 + client),
            n: 0,
        }
    }

    /// The next spec's query pairs; the axis rotates with the position.
    pub fn next_pairs(&mut self) -> Vec<(String, String)> {
        let pick = |rng: &mut Rng, n: usize| rng.range_u64(n as u64) as usize;
        let axis = match self.n % 3 {
            0 => (
                "mttr_scale".to_owned(),
                MTTR_SCALES[pick(&mut self.rng, 6)].to_owned(),
            ),
            1 => {
                let code = AXES[pick(&mut self.rng, 6)].canonical_code();
                let mult = RATE_MULTS[pick(&mut self.rng, 4)];
                ("xid_rate".to_owned(), format!("{code}:{mult}"))
            }
            _ => ("sched".to_owned(), "fifo".to_owned()),
        };
        self.n += 1;
        vec![
            axis,
            ("seed".to_owned(), (self.rng.next_u64() >> 16).to_string()),
            ("reps".to_owned(), "1".to_owned()),
        ]
    }
}

fn query_string(pairs: &[(String, String)]) -> String {
    pairs
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join("&")
}

/// A served spec kept for checking: its query pairs and the body.
type Kept = (Vec<(String, String)>, Vec<u8>);

/// One client's tally.
#[derive(Debug, Default)]
struct Tally {
    lat_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    kept: Vec<Kept>,
}

fn client_loop(addr: std::net::SocketAddr, mut specs: Specs, until: Instant) -> Tally {
    let mut client = Client::new(addr, Duration::from_secs(120));
    let mut t = Tally::default();
    while Instant::now() < until {
        if t.attempted > 0 && t.attempted % RECONNECT_EVERY == 0 {
            client.disconnect();
        }
        let pairs = specs.next_pairs();
        let path = format!("/whatif?{}", query_string(&pairs));
        t.attempted += 1;
        let sent = Instant::now();
        match client.get(&path) {
            Ok(r) if r.status == 200 => {
                t.lat_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                if t.kept.len() < CHECKED_PER_CLIENT {
                    t.kept.push((pairs, r.body));
                }
            }
            Ok(r) => {
                t.failed += 1;
                t.problems.push(format!("{path} answered {}", r.status));
            }
            Err(e) => {
                t.failed += 1;
                t.problems.push(format!("{path}: {e}"));
            }
        }
    }
    t
}

/// The measured run.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut server = None;
    for k in 0..SETUP_SPAWNS {
        drop(server.take());
        let args = [
            "--ingest-dir".to_owned(),
            ctx.dir.join(format!("whatif-{k}")).display().to_string(),
        ];
        let s = start_server(&ctx.bins.serve, &args, &ctx.dir.join("whatif.log"))?;
        setups.push(s.setup.as_secs_f64());
        server = Some(s);
    }
    let server = server.ok_or("no server started")?;

    let started = Instant::now();
    let until = started + ctx.seconds;
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..ctx.clients as u64)
            .map(|c| {
                let specs = Specs::new(ctx.seed, c);
                scope.spawn(move || client_loop(server.addr, specs, until))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("whatif client thread panicked"))
            .collect()
    });
    let elapsed = started.elapsed().as_secs_f64();

    let mut c = Client::new(server.addr, Duration::from_secs(30));
    let metrics = String::from_utf8_lossy(
        &c.get("/metrics")
            .map_err(|e| format!("/metrics: {e}"))?
            .body,
    )
    .into_owned();
    let traces = c
        .get("/debug/traces?slowest=20")
        .map_err(|e| format!("/debug/traces: {e}"))?;
    super::dump_traces(ctx, "whatif", &traces.body)?;
    out.peak_rss_mib = server
        .proc
        .peak_rss_mib()
        .ok_or("delta_serve exited early")?;
    drop(server);

    let mut lat = Vec::new();
    let mut kept = Vec::new();
    for t in tallies {
        lat.extend(t.lat_ms);
        out.attempted += t.attempted;
        out.failed += t.failed;
        out.problems.extend(t.problems.into_iter().take(5));
        kept.extend(t.kept);
    }
    for (pairs, body) in &kept {
        let spec =
            ScenarioSpec::parse(pairs, 32).map_err(|e| format!("benchmark spec {pairs:?}: {e}"))?;
        let want = run_campaign(&spec, |_, _| {})
            .map(|r| servd::whatif::render_result(&r))
            .map_err(|e| format!("oracle campaign: {e}"))?;
        if want.as_bytes() != body.as_slice() {
            out.problem(format!(
                "/whatif body for {} differs from the oracle",
                spec.canonical()
            ));
        }
    }

    out.setup_s = med(&setups);
    out.p50_ms = q(&lat, 0.5);
    out.tail_ms = q(&lat, 0.9);
    out.ops_per_s = lat.len() as f64 / elapsed;
    out.name("setup_s", out.setup_s, "s");
    out.name("whatif_p50_ms", out.p50_ms, "ms");
    out.name("whatif_p90_ms", out.tail_ms, "ms");
    out.name("whatif_rps", out.ops_per_s, "req/s");
    out.name("peak_rss_mib", out.peak_rss_mib, "MiB");
    out.name("requests", lat.len() as f64, "count");
    out.name_fail_ratio();

    if ctx.trace {
        out.layers.insert(
            "servd.whatif_computed",
            prom_sum(&metrics, "servd_whatif_computed_total"),
        );
        guards(&metrics, &mut out.layers);
        trace(ctx, &mut out)?;
    }
    Ok(out)
}

/// `ScenarioSpec`'s knobs applied to a fault configuration, as the
/// scenario module applies them (Delta's measured repair fits scaled by
/// `mttr_scale`, family hazards multiplied).
fn apply(spec: &ScenarioSpec, config: &mut FaultConfig) -> Result<(), String> {
    let s = spec.mttr_scale;
    if s != 1.0 {
        let model = |mean: f64, median: f64| {
            LogNormal::from_mean_median(mean * s, median * s).map_err(|e| format!("{e:?}"))
        };
        config.repair = RepairModel::new(model(0.88, 0.60)?, model(24.0, 12.0)?);
    }
    for &(axis, mult) in &spec.xid_rates {
        let pair = match axis {
            RateAxis::Mmu => &mut config.rates.mmu_per_gpu_hour,
            RateAxis::Uncorrectable => &mut config.rates.uncorrectable_per_gpu_hour,
            RateAxis::Nvlink => &mut config.rates.nvlink_incidents_per_node_hour,
            RateAxis::Fallen => &mut config.rates.fallen_per_gpu_hour,
            RateAxis::Gsp => &mut config.rates.gsp_per_gpu_hour,
            RateAxis::Pmu => &mut config.rates.pmu_per_gpu_hour,
        };
        pair.0 *= mult;
        pair.1 *= mult;
    }
    Ok(())
}

/// The traced run: the first specs of client 0 re-executed through
/// `Campaign` and `Simulation` with a span around each, baseline and
/// scenario arm per rep, as `scenario::run_campaign` runs them. The first
/// spec's outcome is checked against `run_campaign` itself.
fn trace(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let rec = Recorder::new();
    let wall = Instant::now();
    let mut specs = Specs::new(ctx.seed, 0);
    let (mut events, mut jobs, mut kills) = (0u64, 0u64, 0u64);
    for step in 1..=TRACE_SPECS {
        let spec = ScenarioSpec::parse(&specs.next_pairs(), 32).map_err(|e| e.to_string())?;
        let mut arms = Vec::new();
        rec.span("whatif.spec", step, || -> Result<(), String> {
            let root = Rng::seed_from(spec.seed);
            for rep in 0..spec.reps {
                let rep_seed = root.fork(u64::from(rep)).next_u64();
                for arm in [spec.baseline(), spec.clone()] {
                    let mut config = FaultConfig::delta_scaled(SIM_SCALE);
                    config.emit_logs = false;
                    config.seed = rep_seed;
                    apply(&arm, &mut config)?;
                    let campaign =
                        rec.span("faultsim.campaign", step, || Campaign::new(config).run());
                    let cluster = Cluster::new(campaign.config.spec);
                    let outcome = rec.span("slurmsim.schedule", step, || {
                        Simulation::new(&cluster, WorkloadConfig::delta_scaled(SIM_SCALE), rep_seed)
                            .with_policy(arm.sched)
                            .run(&campaign.ground_truth, &campaign.holds)
                    });
                    events += campaign.ground_truth.len() as u64;
                    jobs += outcome.jobs.len() as u64;
                    kills += outcome.stats.error_kills;
                    arms.push((
                        campaign.events_in(Phase::Op).count() as u64,
                        outcome.stats.error_kills,
                    ));
                }
            }
            Ok(())
        })?;
        if step == 1 {
            let result = run_campaign(&spec, |_, _| {}).map_err(|e| e.to_string())?;
            let served =
                [&result.baseline[0], &result.scenario[0]].map(|r| (r.errors, r.jobs_killed));
            if arms[..2] != served[..] {
                out.problem(format!(
                    "traced what-if replay of {} differs from run_campaign",
                    spec.canonical()
                ));
            }
        }
    }
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    let layers = &mut out.layers;
    layers.insert(
        "faultsim.campaign_ms",
        self_time(&rec, "faultsim.campaign", 1e6, true),
    );
    layers.insert(
        "slurmsim.schedule_ms",
        self_time(&rec, "slurmsim.schedule", 1e6, true),
    );
    layers.insert("faultsim.events", events as f64);
    layers.insert("slurmsim.jobs", jobs as f64);
    layers.insert("slurmsim.error_kills", kills as f64);
    layers.insert("trace.wall_ms", wall_ms);
    super::write_spans(ctx.root, "whatif", ctx.seed, &rec)
}
