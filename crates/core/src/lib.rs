//! The DSN'25 Delta GPU resilience analysis pipeline.
//!
//! This crate is the paper's primary contribution, reimplemented as a
//! library: the Stage I–III pipeline of Fig. 1 that turns raw per-day
//! system logs and Slurm accounting records into the published tables and
//! findings.
//!
//! ```text
//!  raw syslog text ──► extraction (hpclog) ──► coalescing ──► error stats   (Table I)
//!                                                   │
//!  sacct job records ───────────────────────────────┴──► job impact        (Tables II, III)
//!                                                   │
//!  node outage records ─────────────────────────────┴──► availability      (Fig. 2, §V-C)
//! ```
//!
//! # Modules
//!
//! * [`mod@coalesce`] — Fig. 1 stage ii: merge duplicated identical error lines
//!   from the same GPU within a window Δt into single errors.
//! * [`stats`] — error counts and system-wide / per-node MTBE per study
//!   phase, category roll-ups (the "memory is 160× more reliable than
//!   hardware" comparison), and the SRE outlier-exclusion rule for the
//!   faulty-GPU storm.
//! * [`impact`] — §V: the 20-second attribution window joining GPU errors
//!   to job terminations, per-kind conditional failure probabilities
//!   (Table II) and the workload-mix statistics (Table III).
//! * [`availability`] — §V-C: MTTR from outage durations, the
//!   MTTF/(MTTF+MTTR) availability estimate and the Fig. 2 unavailability
//!   distribution.
//! * [`histogram`] — fixed-bin histograms and percentiles used by both.
//! * [`report`] — ASCII and CSV renderers for every table and figure.
//! * [`rollup`] — the shared grouped-fold aggregation kernel the table
//!   computations route through, plus DST-correct civil-time rollup
//!   cubes (errors, impact, availability) the serving layer folds per
//!   query.
//! * [`survival`] — Kaplan–Meier time-to-first-error analysis (the Titan
//!   survival-analysis lens from the paper's related work).
//! * [`spatial`] — per-GPU error concentration: top-k shares, Gini
//!   coefficient, hot-GPU detection (the SRE replacement-candidate view).
//! * [`burst`] — inter-arrival burstiness and episode detection,
//!   recovering the flapping structure of §IV from the error stream.
//! * [`pipeline`] — the end-to-end driver: raw [`hpclog::archive::Archive`]
//!   plus job and outage records in, a [`pipeline::StudyReport`] out. Four
//!   entry points produce a report through one canonical event order and
//!   one assembly tail: [`Pipeline::run`] (archive),
//!   [`Pipeline::run_lenient`] (raw bytes; never panics or aborts:
//!   defective input lands in a [`pipeline::QuarantineReport`]),
//!   [`Pipeline::run_events`] (pre-extracted events, what `delta-cli
//!   analyze` and batch `delta-serve` call after their lenient scan) and
//!   the [`StreamingPipeline`].
//! * [`incremental`] — the streaming twin of [`pipeline`]: log bytes and
//!   job records in arbitrary-sized batches, bounded live state, and
//!   versioned checkpoint/restore — proven byte-equivalent to the batch
//!   path at every batching and cut point by the differential test layer.
//! * [`checkpoint`] — the hand-rolled versioned snapshot container the
//!   streaming engine serializes into (magic, version, typed decode
//!   errors; no external serialization crates).
//! * [`error`] — the typed failure taxonomy strict CSV decoding returns
//!   instead of `Box<dyn Error>`.
//! * [`findings`] — programmatic checks of the paper's headline findings
//!   (i)–(vii) against a computed report.
//! * [`scenario`] — counterfactual campaigns over the simulation
//!   substrates (`faultsim` → `clustersim` → `slurmsim`): typed
//!   what-if specs (MTTR scaling, per-XID hazard multipliers,
//!   scheduler policy), canonical cache keys, and seeded paired
//!   baseline-vs-scenario repetitions; the compute layer behind the
//!   serving `/whatif` endpoint.
//!
//! # Example
//!
//! ```
//! use resilience::coalesce::coalesce;
//! use resilience::job::AccountedJob;
//! use hpclog::{Timestamp, XidEvent, PciAddr};
//! use simtime::Duration;
//! use xid::XidCode;
//!
//! // Three identical lines within 60 s are one error.
//! let t = Timestamp::from_ymd_hms(2024, 3, 14, 3, 22, 7)?;
//! let mk = |secs| XidEvent::new(
//!     t + Duration::from_secs(secs), "gpub042", PciAddr::for_gpu_index(0),
//!     XidCode::GSP_RPC_TIMEOUT, "GSP timeout");
//! let merged = coalesce([mk(0), mk(5), mk(40)], Duration::from_secs(60));
//! assert_eq!(merged.len(), 1);
//! assert_eq!(merged[0].merged_lines, 3);
//! # Ok::<(), hpclog::ParseTimestampError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod availability;
pub mod burst;
pub mod checkpoint;
pub mod coalesce;
pub mod correlate;
pub mod csvio;
pub mod error;
pub mod findings;
pub mod histogram;
pub mod impact;
pub mod incremental;
pub mod job;
pub mod markdown;
pub mod pipeline;
pub mod report;
pub mod rollup;
pub mod scenario;
pub mod spatial;
pub mod stats;
pub mod survival;
pub mod timeseries;

pub use checkpoint::{Checkpoint, CheckpointError};
pub use coalesce::{coalesce, CoalescedError};
pub use error::PipelineError;
pub use incremental::StreamingPipeline;
pub use job::{AccountedJob, OutageRecord};
pub use pipeline::{Caveat, Pipeline, QuarantineReport, StudyReport};
