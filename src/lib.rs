//! End-to-end reproduction of *"Characterizing Modern GPU Resilience and
//! Impact in HPC Systems: A Case Study of A100 GPUs"* (DSN 2025).
//!
//! This umbrella crate re-exports the whole workspace and provides the
//! [`bridge`] between the simulation substrates (which produce
//! `clustersim`/`slurmsim` records) and the analysis pipeline (which
//! consumes its own sacct-like input types, so it can equally ingest real
//! exports).
//!
//! # The crates
//!
//! | crate | role |
//! |-------|------|
//! | [`simrng`] | deterministic PRNG + distributions |
//! | [`simtime`] | civil time + the study calendar |
//! | [`xid`] | NVIDIA XID error taxonomy |
//! | [`hpclog`] | syslog substrate: formats, patterns, extraction |
//! | [`clustersim`] | the Delta cluster model |
//! | [`faultsim`] | calibrated discrete-event fault injection |
//! | [`slurmsim`] | workload generation + scheduling + error co-simulation |
//! | [`resilience`] | the paper's analysis pipeline |
//! | [`servd`] | HTTP query/serving subsystem over finished studies |
//!
//! # Quickstart
//!
//! ```
//! use delta_gpu_resilience::prelude::*;
//!
//! // 1. Inject faults over a scaled-down Delta for a fast demo.
//! let mut config = FaultConfig::delta_scaled(0.02);
//! config.seed = 42;
//! let campaign = Campaign::new(config).run();
//!
//! // 2. Run a matching workload through the scheduler.
//! let cluster = Cluster::new(campaign.config.spec);
//! let workload = WorkloadConfig::delta_scaled(0.002);
//! let outcome = Simulation::new(&cluster, workload, 42)
//!     .run(&campaign.ground_truth, &campaign.holds);
//!
//! // 3. Analyse logs + jobs + outages with the paper's pipeline.
//! let mut pipeline = Pipeline::delta();
//! pipeline.periods = campaign.config.periods;
//! let report = pipeline.run(
//!     &campaign.archive,
//!     &bridge::jobs(&outcome.jobs),
//!     &bridge::jobs(&outcome.cpu_jobs),
//!     &bridge::outages(campaign.ledger.outages()),
//! );
//! assert!(report.coalesce_summary.errors > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use clustersim;
pub use faultsim;
pub use hpclog;
pub use obs;
pub use resilience;
pub use servd;
pub use simrng;
pub use simtime;
pub use slurmsim;
pub use xid;

pub mod cli;

/// The common imports for examples and tests.
pub mod prelude {
    pub use crate::bridge;
    pub use clustersim::{Cluster, ClusterSpec, DowntimeLedger, GpuErrorEvent, GpuId, NodeId};
    pub use faultsim::{Campaign, CampaignOutput, FaultConfig, StormConfig};
    pub use resilience::findings::Findings;
    pub use resilience::report;
    pub use resilience::{
        AccountedJob, Caveat, OutageRecord, Pipeline, PipelineError, QuarantineReport, StudyReport,
    };
    pub use simrng::Rng;
    pub use simtime::{Bucket, Duration, Period, Phase, StudyPeriods, Timestamp, Tz};
    pub use slurmsim::{JobRecord, JobState, KillModel, Simulation, WorkloadConfig};
    pub use xid::{Category, ErrorKind, RecoveryAction, XidCode};
}

/// Conversions from simulator output records to analysis input records.
///
/// The analysis pipeline deliberately owns its input types (they model a
/// Slurm database export); these helpers map the simulators' richer
/// structures down to them.
pub mod bridge {
    use resilience::{AccountedJob, OutageRecord};

    /// Converts scheduler job records to sacct-style analysis records.
    pub fn jobs(records: &[slurmsim::JobRecord]) -> Vec<AccountedJob> {
        records.iter().map(job).collect()
    }

    /// Converts one job record.
    pub fn job(record: &slurmsim::JobRecord) -> AccountedJob {
        AccountedJob {
            id: record.id.0,
            name: record.name.clone(),
            submit: record.submit,
            start: record.start,
            end: record.end,
            gpus: record.gpus,
            gpu_slots: record
                .gpu_ids
                .iter()
                .map(|g| (g.node.hostname(), g.index))
                .collect(),
            completed: record.state.is_success(),
        }
    }

    /// Converts ledger outages to analysis outage records.
    pub fn outages(outages: &[clustersim::Outage]) -> Vec<OutageRecord> {
        outages
            .iter()
            .map(|o| OutageRecord {
                host: o.node.hostname(),
                start: o.start,
                duration: o.duration,
            })
            .collect()
    }
}

/// The one way a simulated corpus is built: a seeded fault campaign over
/// Delta, the scheduler run against its ground truth, and the inputs the
/// analysis reads — log bytes plus the three CSV exports — with the
/// pipeline set to the campaign's study periods.
///
/// Every binary, bench and suite whose fixture is campaign → cluster →
/// schedule → render builds it here, so two of them given the same
/// arguments analyse the same bytes.
pub mod corpus {
    use crate::bridge;
    use clustersim::Cluster;
    use faultsim::{Campaign, CampaignOutput, FaultConfig};
    use hpclog::chaos::ChaosConfig;
    use resilience::{csvio, Pipeline};
    use slurmsim::{Simulation, SimulationOutcome, WorkloadConfig};
    use std::sync::OnceLock;

    /// A simulated study's inputs. The text inputs are rendered on first
    /// use, so a caller that reads only the archive or the records pays
    /// for no text.
    pub struct Corpus {
        /// The fault campaign: ground truth, outage ledger, log archive.
        pub campaign: CampaignOutput,
        /// The schedule run against the campaign's ground truth and holds.
        pub outcome: SimulationOutcome,
        /// `Pipeline::delta()` over the campaign's study periods.
        pub pipeline: Pipeline,
        log: OnceLock<Vec<u8>>,
        gpu_csv: OnceLock<String>,
        cpu_csv: OnceLock<String>,
        out_csv: OnceLock<String>,
    }

    impl Corpus {
        /// The archive as syslog bytes, chaos-corrupted when a chaos rate
        /// was given; empty when the campaign emitted no log lines.
        pub fn log(&self) -> &[u8] {
            self.log.get_or_init(|| self.campaign.render_log().0)
        }

        /// The GPU job export.
        pub fn gpu_csv(&self) -> &str {
            self.gpu_csv
                .get_or_init(|| csvio::render_jobs(&bridge::jobs(&self.outcome.jobs)))
        }

        /// The CPU job export.
        pub fn cpu_csv(&self) -> &str {
            self.cpu_csv
                .get_or_init(|| csvio::render_jobs(&bridge::jobs(&self.outcome.cpu_jobs)))
        }

        /// The outage export.
        pub fn out_csv(&self) -> &str {
            self.out_csv.get_or_init(|| {
                csvio::render_outages(&bridge::outages(self.campaign.ledger.outages()))
            })
        }
    }

    /// Builds the corpus at `scale` (full Delta at `1.0`) from `seed`,
    /// which seeds the campaign, the schedule and the chaos injector.
    /// A `chaos_rate` above zero corrupts that share of log lines, two
    /// percent of them as duplicates. `emit_logs` off leaves the archive
    /// empty, for runs that read only the ground truth; it also changes
    /// the campaign's random draws, so it is part of the corpus.
    pub fn build(scale: f64, seed: u64, chaos_rate: f64, emit_logs: bool) -> Corpus {
        let full = scale >= 1.0;
        let mut config = if full {
            FaultConfig::delta()
        } else {
            FaultConfig::delta_scaled(scale)
        };
        config.seed = seed;
        config.emit_logs = emit_logs;
        config.chaos = (chaos_rate > 0.0)
            .then(|| ChaosConfig::uniform_with_duplicates(chaos_rate, 0.02, seed));
        let campaign = Campaign::new(config).run();
        let workload = if full {
            WorkloadConfig::delta()
        } else {
            WorkloadConfig::delta_scaled(scale)
        };
        let outcome = Simulation::new(&Cluster::new(campaign.config.spec), workload, seed)
            .run(&campaign.ground_truth, &campaign.holds);
        let mut pipeline = Pipeline::delta();
        pipeline.periods = campaign.config.periods;
        Corpus {
            campaign,
            outcome,
            pipeline,
            log: OnceLock::new(),
            gpu_csv: OnceLock::new(),
            cpu_csv: OnceLock::new(),
            out_csv: OnceLock::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::bridge;
    use clustersim::{GpuId, NodeId, Outage};
    use simtime::{Duration, Timestamp};
    use slurmsim::{JobId, JobRecord, JobState};
    use xid::RecoveryAction;

    #[test]
    fn job_bridge_maps_fields() {
        let record = JobRecord {
            id: JobId(7),
            name: "train_model".to_owned(),
            submit: Timestamp::from_unix(10),
            start: Timestamp::from_unix(20),
            end: Timestamp::from_unix(30),
            gpus: 2,
            nodes: vec![NodeId::new(4)],
            gpu_ids: vec![GpuId::new(NodeId::new(4), 0), GpuId::new(NodeId::new(4), 3)],
            state: JobState::Completed,
        };
        let job = bridge::job(&record);
        assert_eq!(job.id, 7);
        assert!(job.completed);
        assert_eq!(
            job.gpu_slots,
            vec![("gpub005".to_owned(), 0), ("gpub005".to_owned(), 3)]
        );
        assert!(job.is_ml());
    }

    #[test]
    fn failed_states_map_to_not_completed() {
        for state in [
            JobState::Failed,
            JobState::Cancelled,
            JobState::Timeout,
            JobState::NodeFail,
        ] {
            let record = JobRecord {
                id: JobId(1),
                name: "x".to_owned(),
                submit: Timestamp::from_unix(0),
                start: Timestamp::from_unix(0),
                end: Timestamp::from_unix(1),
                gpus: 1,
                nodes: vec![],
                gpu_ids: vec![],
                state,
            };
            assert!(!bridge::job(&record).completed, "{state}");
        }
    }

    #[test]
    fn outage_bridge_maps_hostnames() {
        let outage = Outage {
            node: NodeId::new(0),
            start: Timestamp::from_unix(100),
            duration: Duration::from_mins(53),
            action: RecoveryAction::NodeReboot,
        };
        let records = bridge::outages(&[outage]);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].host, "gpub001");
        assert!((records[0].hours() - 53.0 / 60.0).abs() < 1e-12);
    }
}
