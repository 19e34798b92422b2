//! The determinism-and-canonicalization proof for the `/whatif`
//! counterfactual service.
//!
//! Three contracts are exercised end-to-end over real HTTP servers:
//!
//! 1. **Canonicalization** — reordered, duplicated, and family-aliased
//!    query parameters collapse to one cache key (observable via
//!    `X-Cache: hit`), and malformed specs are typed `400`s.
//! 2. **Determinism** — the same spec + seed yields a byte-identical
//!    response body across event-loop worker counts {1, 4} × store
//!    shard layouts {1, 4} × (cold compute, cached, and recomputed
//!    after a snapshot swap), and those bytes — and the `sched` and
//!    `xid_rate` axes' — match an offline oracle that drives the
//!    simulation substrates directly, without going through
//!    `resilience::scenario`.
//! 3. **Single-flight** — identical specs submitted from N concurrent
//!    keep-alive connections compute exactly one campaign
//!    (`servd_whatif_computed_total` advances by one) and every client
//!    reads identical bytes.
//!
//! The suite serializes itself on a process-local mutex: the
//! single-flight leg asserts on deltas of global metrics, which must
//! not interleave with another leg's campaigns.

use delta_gpu_resilience::prelude::*;
use faultsim::rates::CalibratedRates;
use resilience::scenario::{CampaignResult, RepOutcome, ScenarioSpec, SIM_SCALE};
use servd::testutil::{connect, get_on, request, request_on, whatif_to_completion};
use servd::whatif::render_result;
use servd::{ServerConfig, StoreHandle, StudyStore, WhatifConfig};
use slurmsim::SchedPolicy;
use std::sync::{Arc, Mutex, OnceLock};

/// Serializes the tests in this file (global-metric deltas must not
/// interleave).
fn suite_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn empty_store(shards: usize) -> Arc<StoreHandle> {
    let report = Pipeline::delta().run_events(Vec::new(), None, &[], &[], &[]);
    Arc::new(StoreHandle::new(StudyStore::build_sharded(
        report, None, shards,
    )))
}

fn serve(
    store: Arc<StoreHandle>,
    loop_workers: usize,
    whatif_workers: usize,
) -> servd::RunningServer {
    servd::start(
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: loop_workers,
            whatif: WhatifConfig {
                workers: whatif_workers,
                ..WhatifConfig::default()
            },
            ..ServerConfig::default()
        },
        store,
    )
    .expect("server starts on an ephemeral port")
}

// ------------------------------------------------ parse / canonicalize

#[test]
fn equivalent_specs_share_one_cache_key() {
    let _guard = suite_lock();
    let store = empty_store(1);
    let server = serve(store, 2, 1);
    let addr = server.addr();

    // Cold compute under one ordering...
    let cold = request(addr, "GET", "/whatif?seed=77&reps=1&mttr_scale=0.5", b"");
    assert_eq!(cold.status, 200, "{}", cold.text());
    assert_eq!(cold.header("X-Cache"), Some("miss"));

    // ...then every equivalent spelling is a hit on the same bytes:
    // reordered, duplicated (identically), zero-padded floats, and a
    // POST carrying the spec as a form body.
    for path in [
        "/whatif?mttr_scale=0.5&seed=77&reps=1",
        "/whatif?reps=1&mttr_scale=0.50&seed=77&mttr_scale=0.5",
    ] {
        let resp = request(addr, "GET", path, b"");
        assert_eq!(resp.status, 200, "{path}");
        assert_eq!(resp.header("X-Cache"), Some("hit"), "{path}");
        assert_eq!(resp.body, cold.body, "{path}");
    }
    let form = request(addr, "POST", "/whatif", b"seed=77&reps=1&mttr_scale=0.5");
    assert_eq!(form.status, 200);
    assert_eq!(form.header("X-Cache"), Some("hit"));
    assert_eq!(form.body, cold.body);

    // XID codes canonicalize by hazard family: 94 (contained memory)
    // and 48 (DBE) both scale the uncorrectable-memory rate.
    let family_a = request(addr, "GET", "/whatif?seed=78&reps=1&xid_rate=94:2", b"");
    assert_eq!(family_a.status, 200);
    assert_eq!(family_a.header("X-Cache"), Some("miss"));
    let family_b = request(addr, "GET", "/whatif?seed=78&reps=1&xid_rate=48:2", b"");
    assert_eq!(family_b.header("X-Cache"), Some("hit"));
    assert_eq!(family_b.body, family_a.body);

    server.shutdown();
}

#[test]
fn malformed_specs_are_typed_400s() {
    let _guard = suite_lock();
    let store = empty_store(1);
    let server = serve(store, 1, 1);
    let addr = server.addr();
    for (query, needle) in [
        ("mttr_scale=0", "mttr_scale"),
        ("mttr_scale=nan", "mttr_scale"),
        ("mttr_scale=1e9", "mttr_scale"),
        ("xid_rate=13:2", "not a studied XID"),
        ("xid_rate=999:2", "not a studied XID"),
        ("xid_rate=79", "expected <XID>:<multiplier>"),
        ("xid_rate=79:0", "xid_rate"),
        ("sched=lifo", "fifo|backfill"),
        ("seed=-1", "seed"),
        ("reps=0", "reps"),
        ("reps=4096", "exceeds the server cap"),
        ("bogus=1", "unknown query parameter"),
        ("mttr_scale=0.5&mttr_scale=2", "conflicting"),
        ("xid_rate=94:2&xid_rate=48:3", "conflicting"),
    ] {
        let resp = request(addr, "GET", &format!("/whatif?{query}"), b"");
        assert_eq!(resp.status, 400, "{query}: {}", resp.text());
        assert!(
            resp.text().contains(needle),
            "{query}: {:?} lacks {needle:?}",
            resp.text()
        );
    }
    server.shutdown();
}

// ------------------------------------------------------- offline oracle

/// One arm's knobs, applied to the substrates by hand.
struct Arm {
    mttr_scale: f64,
    sched: SchedPolicy,
    /// Scales the fault config's hazard rates (an `xid_rate` family).
    rates: fn(&mut CalibratedRates),
}

/// Delta as measured: the baseline arm of every campaign.
const MEASURED: Arm = Arm {
    mttr_scale: 1.0,
    sched: SchedPolicy::Backfill,
    rates: |_| {},
};

/// Drives the substrates directly — `faultsim` campaign, op-phase
/// filtering, ledger downtime, `slurmsim` co-simulation through
/// `Simulation::run` (records, CPU pool and all) — without touching
/// `resilience::scenario`'s campaign driver. Any divergence between this
/// and the served numbers is a bug in the scenario layer.
fn oracle_rep(arm: &Arm, rep_seed: u64) -> RepOutcome {
    let mut config = FaultConfig::delta_scaled(SIM_SCALE);
    config.emit_logs = false;
    config.seed = rep_seed;
    let mttr_scale = arm.mttr_scale;
    if mttr_scale != 1.0 {
        let model = |mean: f64, median: f64| {
            simrng::dist::LogNormal::from_mean_median(mean * mttr_scale, median * mttr_scale)
                .expect("valid repair distribution")
        };
        config.repair = clustersim::RepairModel::new(model(0.88, 0.60), model(24.0, 12.0));
    }
    (arm.rates)(&mut config.rates);
    let campaign = Campaign::new(config).run();
    let cluster = Cluster::new(campaign.config.spec);
    let outcome = Simulation::new(&cluster, WorkloadConfig::delta_scaled(SIM_SCALE), rep_seed)
        .with_policy(arm.sched)
        .run(&campaign.ground_truth, &campaign.holds);
    let op = campaign.config.periods.op;
    let op_hours = op.hours();
    let errors = campaign.events_in(Phase::Op).count() as u64;
    let op_downtime: f64 = campaign
        .ledger
        .outages()
        .iter()
        .filter(|o| op.contains(o.start))
        .map(|o| o.duration.as_hours_f64())
        .sum();
    RepOutcome {
        errors,
        reboots: campaign.ledger.outage_count() as u64,
        mtbe_hours: if errors > 0 {
            op_hours / errors as f64
        } else {
            0.0
        },
        availability: 1.0
            - op_downtime / (f64::from(campaign.config.spec.gpu_node_count()) * op_hours),
        jobs_killed: outcome.stats.error_kills,
    }
}

/// The full oracle body for `query` (which must carry `seed` and
/// `reps`): paired rep seeds forked exactly as the scenario layer
/// documents, the baseline arm as measured and the scenario arm under
/// `scenario`, both driven directly.
fn oracle_body_for(query: &str, scenario: &Arm) -> String {
    let pairs: Vec<(String, String)> = query
        .split('&')
        .map(|kv| {
            let (k, v) = kv.split_once('=').expect("key=value");
            (k.to_owned(), v.to_owned())
        })
        .collect();
    let spec = ScenarioSpec::parse(&pairs, 32).expect("valid spec");
    let root = Rng::seed_from(spec.seed);
    let mut baseline = Vec::new();
    let mut scenario_reps = Vec::new();
    for rep in 0..u64::from(spec.reps) {
        let rep_seed = root.fork(rep).next_u64();
        baseline.push(oracle_rep(&MEASURED, rep_seed));
        scenario_reps.push(oracle_rep(scenario, rep_seed));
    }
    render_result(&CampaignResult {
        spec,
        baseline,
        scenario: scenario_reps,
    })
}

/// The oracle body for `mttr_scale=0.5&reps=2&seed=9`.
fn oracle_body() -> String {
    oracle_body_for(
        "mttr_scale=0.5&reps=2&seed=9",
        &Arm {
            mttr_scale: 0.5,
            ..MEASURED
        },
    )
}

// ------------------------------------------------ determinism matrix

#[test]
fn bodies_are_identical_across_workers_shards_and_snapshot_swaps() {
    let _guard = suite_lock();
    let expected = oracle_body();
    let path = "/whatif?mttr_scale=0.5&reps=2&seed=9";
    for loop_workers in [1, 4] {
        for shards in [1, 4] {
            let store = empty_store(shards);
            let server = serve(Arc::clone(&store), loop_workers, 2);
            let addr = server.addr();
            let label = format!("workers={loop_workers} shards={shards}");

            let cold = request(addr, "GET", path, b"");
            assert_eq!(cold.status, 200, "{label}: {}", cold.text());
            assert_eq!(cold.header("X-Cache"), Some("miss"), "{label}");
            assert_eq!(cold.text(), expected, "{label}: cold vs oracle");

            let cached = request(addr, "GET", path, b"");
            assert_eq!(cached.header("X-Cache"), Some("hit"), "{label}");
            assert_eq!(cached.body, cold.body, "{label}: cached");

            // Swap the snapshot: the what-if cache is snapshot-scoped,
            // so the next request recomputes — to the same bytes,
            // because the campaign depends only on the spec.
            let report = Pipeline::delta().run_events(Vec::new(), None, &[], &[], &[]);
            let old_id = store.current().id;
            let new_id = store.publish(StudyStore::build_sharded(report, None, shards));
            assert_ne!(old_id, new_id);
            let post_swap = request(addr, "GET", path, b"");
            assert_eq!(post_swap.status, 200, "{label}: {}", post_swap.text());
            assert_eq!(
                post_swap.header("X-Cache"),
                Some("miss"),
                "{label}: post-swap"
            );
            assert_eq!(
                post_swap.header("X-Snapshot"),
                Some(new_id.to_string().as_str())
            );
            assert_eq!(post_swap.body, cold.body, "{label}: post-swap bytes");

            server.shutdown();
        }
    }
}

#[test]
fn long_campaigns_answer_202_and_poll_to_the_same_bytes() {
    let _guard = suite_lock();
    let store = empty_store(1);
    let server = serve(store, 2, 2);
    let addr = server.addr();

    // reps=6 is over the sync threshold: the first answer is a 202
    // whose poll URL eventually serves the finished body.
    let polled = whatif_to_completion(addr, "/whatif?reps=6&seed=3&xid_rate=79:2", 200);
    assert_eq!(polled.status, 200, "{}", polled.text());

    // The same spec through the front door is now a straight cache hit
    // with identical bytes.
    let hit = request(addr, "GET", "/whatif?reps=6&seed=3&xid_rate=79:2", b"");
    assert_eq!(hit.status, 200);
    assert_eq!(hit.header("X-Cache"), Some("hit"));
    assert_eq!(hit.body, polled.body);
    server.shutdown();
}

/// The `sched` and `xid_rate` axes against the substrate oracle: the
/// served campaign shares one generated workload between its two arms
/// and reads only the scheduler's counters, while the oracle runs the
/// full `Simulation::run` per arm, so any divergence between the two
/// scheduling entry points shows up here.
#[test]
fn sched_and_xid_rate_axes_match_the_substrate_oracle() {
    let _guard = suite_lock();
    let store = empty_store(1);
    let server = serve(store, 2, 2);
    let addr = server.addr();
    let cases = [
        (
            "sched=fifo&reps=2&seed=21",
            Arm {
                sched: SchedPolicy::Fifo,
                ..MEASURED
            },
        ),
        (
            "xid_rate=119:3&reps=2&seed=22",
            Arm {
                rates: |r| {
                    r.gsp_per_gpu_hour.0 *= 3.0;
                    r.gsp_per_gpu_hour.1 *= 3.0;
                },
                ..MEASURED
            },
        ),
    ];
    for (query, arm) in &cases {
        let resp = request(addr, "GET", &format!("/whatif?{query}"), b"");
        assert_eq!(resp.status, 200, "{query}: {}", resp.text());
        assert_eq!(resp.text(), oracle_body_for(query, arm), "{query}");
    }
    server.shutdown();
}

// ---------------------------------------------- single-flight under load

fn metric_value(addr: std::net::SocketAddr, name: &str) -> u64 {
    let metrics = request(addr, "GET", "/metrics", b"").text();
    metrics
        .lines()
        .find(|l| l.starts_with(name) && !l.starts_with('#'))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

#[test]
fn concurrent_identical_specs_compute_one_campaign() {
    let _guard = suite_lock();
    obs::set_enabled(true);
    let store = empty_store(2);
    let server = serve(store, 4, 2);
    let addr = server.addr();
    let computed_before = metric_value(addr, "servd_whatif_computed_total");

    const CLIENTS: usize = 4;
    let path = "/whatif?seed=4242&reps=2&sched=fifo";
    let bodies: Vec<Vec<u8>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(move || {
                    let mut conn = connect(addr);
                    // Keep-alive: prove the connection survives the
                    // inline wait by reusing it for the poll below.
                    let resp = request_on(&mut conn, "GET", path, b"");
                    assert_eq!(resp.status, 200, "{}", resp.text());
                    let again = get_on(&mut conn, path);
                    assert_eq!(again.header("X-Cache"), Some("hit"));
                    assert_eq!(again.body, resp.body);
                    resp.body
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    for body in &bodies[1..] {
        assert_eq!(body, &bodies[0], "all clients read identical bytes");
    }
    let computed_after = metric_value(addr, "servd_whatif_computed_total");
    assert_eq!(
        computed_after - computed_before,
        1,
        "N identical concurrent specs must compute exactly one campaign"
    );
    server.shutdown();
}
