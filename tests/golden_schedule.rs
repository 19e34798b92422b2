//! Golden schedules: the scheduler's accounting output pinned byte for
//! byte under both queue-drain policies, with and without requeueing.
//!
//! `golden_report` pins the Tables I–III renders, which only ever see a
//! Backfill schedule without requeue. Here every combination of
//! {Backfill, Fifo} × {no requeue, hourly checkpoints} is pinned at two
//! scales: each case is the FNV-1a 64 digest of the rendered GPU-job
//! accounting CSV plus every [`SchedulerStats`] field. The fault
//! campaigns are real (holds and error kills included), so any change in
//! allocation order, hold handling, kill rolls or requeue bookkeeping
//! moves a digest. Each case also schedules the same `gpu_specs()`
//! through `Simulation::schedule`, the counters-only path the what-if
//! arms take, and its [`SchedulerStats`] must equal `run`'s.

use delta_gpu_resilience::prelude::*;
use resilience::csvio;
use slurmsim::scheduler::SchedulerStats;
use slurmsim::{RequeuePolicy, SchedPolicy};

/// One pinned schedule.
struct Case {
    scale: f64,
    seed: u64,
    policy: SchedPolicy,
    requeue: bool,
    digest: u64,
    stats: SchedulerStats,
}

const fn stats(
    error_kills: u64,
    errors_on_idle: u64,
    peak_queue: usize,
    requeues: u64,
    lost_gpu_hours: f64,
) -> SchedulerStats {
    SchedulerStats {
        error_kills,
        errors_on_idle,
        peak_queue,
        requeues,
        lost_gpu_hours,
    }
}

const CASES: &[Case] = &[
    Case {
        scale: 0.005,
        seed: 1,
        policy: SchedPolicy::Backfill,
        requeue: false,
        digest: 0x3a88_15d9_8ef7_83e0,
        stats: stats(19, 76, 33, 0, 1682.1824999999997),
    },
    Case {
        scale: 0.005,
        seed: 1,
        policy: SchedPolicy::Backfill,
        requeue: true,
        digest: 0x02f2_596d_d48d_38a6,
        stats: stats(23, 71, 31, 23, 119.80222222222224),
    },
    Case {
        scale: 0.005,
        seed: 1,
        policy: SchedPolicy::Fifo,
        requeue: false,
        digest: 0x4896_80a2_8d60_af1d,
        stats: stats(19, 76, 24, 0, 2281.9900000000002),
    },
    Case {
        scale: 0.005,
        seed: 1,
        policy: SchedPolicy::Fifo,
        requeue: true,
        digest: 0xdc06_2fa4_72df_ccbc,
        stats: stats(16, 79, 27, 16, 97.52000000000001),
    },
    Case {
        scale: 0.01,
        seed: 2,
        policy: SchedPolicy::Backfill,
        requeue: false,
        digest: 0x32fa_9a3b_4766_d987,
        stats: stats(37, 1226, 35, 0, 2466.2686111111116),
    },
    Case {
        scale: 0.01,
        seed: 2,
        policy: SchedPolicy::Backfill,
        requeue: true,
        digest: 0xac20_8a8b_5e7d_eb7f,
        stats: stats(35, 1229, 26, 35, 62.311944444444435),
    },
    Case {
        scale: 0.01,
        seed: 2,
        policy: SchedPolicy::Fifo,
        requeue: false,
        digest: 0x9e74_83cb_3dc3_f229,
        stats: stats(30, 1228, 52, 0, 2419.8769444444442),
    },
    Case {
        scale: 0.01,
        seed: 2,
        policy: SchedPolicy::Fifo,
        requeue: true,
        digest: 0xca18_84f8_1c51_f171,
        stats: stats(35, 1227, 36, 35, 114.94750000000002),
    },
];

/// FNV-1a 64 over the rendered CSV.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One case's GPU-job CSV digest and counters through
/// `Simulation::run`, and the counters `Simulation::schedule` returns
/// over the same `gpu_specs()`.
fn schedule(case: &Case) -> (u64, SchedulerStats, SchedulerStats) {
    let mut config = FaultConfig::delta_scaled(case.scale);
    config.emit_logs = false;
    config.seed = case.seed;
    let campaign = Campaign::new(config).run();
    let cluster = Cluster::new(campaign.config.spec);
    let requeue = if case.requeue {
        RequeuePolicy::hourly_checkpoints(3)
    } else {
        RequeuePolicy::none()
    };
    let sim = Simulation::new(
        &cluster,
        WorkloadConfig::delta_scaled(case.scale),
        case.seed,
    )
    .with_policy(case.policy)
    .with_requeue(requeue);
    let outcome = sim.run(&campaign.ground_truth, &campaign.holds);
    let counters = sim.schedule(&sim.gpu_specs(), &campaign.ground_truth, &campaign.holds);
    let csv = csvio::render_jobs(&bridge::jobs(&outcome.jobs));
    (fnv1a(csv.as_bytes()), outcome.stats, counters)
}

#[test]
fn golden_schedules_match() {
    let mut drifted = Vec::new();
    for case in CASES {
        let (digest, got, counters) = schedule(case);
        if digest != case.digest || got != case.stats || counters != got {
            drifted.push(format!(
                "scale {} seed {} {:?} requeue={}: digest {digest:#018x} stats {got:?} \
                 counters-only {counters:?}",
                case.scale, case.seed, case.policy, case.requeue
            ));
        }
    }
    assert!(
        drifted.is_empty(),
        "schedules drifted:\n{}",
        drifted.join("\n")
    );
}
