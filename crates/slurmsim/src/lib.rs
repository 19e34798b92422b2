//! A Slurm-like scheduler simulator: workload generation, FIFO + backfill
//! GPU scheduling, error-driven job termination and sacct-style accounting.
//!
//! The DSN'25 study's job-impact analysis (§V) joins the Slurm accounting
//! database — 1.44M GPU jobs and 1.69M CPU jobs over the operational
//! period — against the GPU error log. This crate is the accounting
//! database's generative counterpart:
//!
//! * [`workload`] — generates job specs calibrated to §V-A / Table III:
//!   the GPU-count bucket mix (69.86% single-GPU, ...), log-normal
//!   durations fitted to each bucket's reported mean/median with the 48 h
//!   walltime cap, ML-vs-non-ML job naming, and the ~74.7% baseline
//!   success rate.
//! * [`scheduler`] — an event-driven FIFO + backfill scheduler allocating
//!   GPU slots on a [`clustersim::Cluster`], honouring node outages, and
//!   killing jobs hit by GPU errors according to a [`KillModel`].
//! * [`KillModel`] ([`kill`]) — the per-error-kind conditional termination
//!   probabilities of Table II (GSP 100%, PMU ≈ 97.6%, MMU ≈ 90.5%,
//!   NVLink ≈ 53.8% — errors on idle links are harmless).
//! * [`JobRecord`] ([`job`]) — the sacct-style output record the analysis
//!   pipeline consumes: submit/start/end, node list, GPU count, exit state
//!   and job name.
//!
//! # Example
//!
//! ```
//! use clustersim::{Cluster, ClusterSpec};
//! use slurmsim::{Simulation, WorkloadConfig};
//!
//! let cluster = Cluster::new(ClusterSpec::tiny());
//! let workload = WorkloadConfig::delta_scaled(0.001);
//! let sim = Simulation::new(&cluster, workload, 42);
//! let outcome = sim.run(&[], &[]);
//! assert!(!outcome.jobs.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod job;
pub mod kill;
pub mod scheduler;
pub mod workload;

pub use job::{JobId, JobRecord, JobState};
pub use kill::{KillModel, KillScope};
pub use scheduler::{RequeuePolicy, SchedPolicy, Simulation, SimulationOutcome};
pub use workload::{GpuBucket, WorkloadConfig};
