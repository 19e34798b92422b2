//! Input record types: sacct-style job records and outage records.
//!
//! The pipeline deliberately defines its *own* input types rather than
//! importing a scheduler's: the paper's analysis consumed a Slurm
//! accounting database export, and any data source that can produce these
//! plain records — the bundled `slurmsim` simulator, a real `sacct` dump, a
//! CSV — can feed the pipeline.

use simtime::{Duration, Timestamp};
use std::fmt;

/// The §V-A keyword heuristic, usable on bare names; shared with the
/// simulator's [`slurmsim::JobRecord::is_ml`].
pub use slurmsim::job::is_ml_name;

/// One accounted job, as the Slurm database records it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccountedJob {
    /// Scheduler job id.
    pub id: u64,
    /// User-visible job name (basis of the ML-workload heuristic).
    pub name: String,
    /// Submission time.
    pub submit: Timestamp,
    /// Start time.
    pub start: Timestamp,
    /// End time.
    pub end: Timestamp,
    /// Number of GPUs allocated (0 = CPU job).
    pub gpus: u32,
    /// Allocated GPU devices as `(hostname, device index)` pairs, from the
    /// GRES bindings.
    pub gpu_slots: Vec<(String, u8)>,
    /// Whether the job completed successfully (exit 0).
    pub completed: bool,
}

impl AccountedJob {
    /// Elapsed wall-clock runtime.
    pub fn elapsed(&self) -> Duration {
        self.end - self.start
    }

    /// GPU-hours consumed.
    pub fn gpu_hours(&self) -> f64 {
        self.gpus as f64 * self.elapsed().as_hours_f64()
    }

    /// Whether the job was running at `t` (half-open `[start, end)`).
    pub fn running_at(&self, t: Timestamp) -> bool {
        t >= self.start && t < self.end
    }

    /// Whether the job held the GPU `(host, index)`.
    pub fn uses_gpu(&self, host: &str, index: u8) -> bool {
        self.gpu_slots.iter().any(|(h, i)| h == host && *i == index)
    }

    /// The §V-A machine-learning heuristic: job names containing
    /// ML-indicative keywords are classed as ML workloads. The paper uses
    /// exactly this approximation because submission scripts were not
    /// available for inspection.
    pub fn is_ml(&self) -> bool {
        is_ml_name(&self.name)
    }
}

impl fmt::Display for AccountedJob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "job#{} {} gpus={} {} elapsed={}",
            self.id,
            self.name,
            self.gpus,
            if self.completed {
                "COMPLETED"
            } else {
                "FAILED"
            },
            self.elapsed()
        )
    }
}

/// One node outage (drain/reboot episode), as the recovery tooling logs it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutageRecord {
    /// Hostname of the affected node.
    pub host: String,
    /// When the node left service.
    pub start: Timestamp,
    /// How long it stayed out.
    pub duration: Duration,
}

impl OutageRecord {
    /// The outage duration in fractional hours.
    pub fn hours(&self) -> f64 {
        self.duration.as_hours_f64()
    }
}

impl fmt::Display for OutageRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} down {} from {}",
            self.host, self.duration, self.start
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(name: &str) -> AccountedJob {
        AccountedJob {
            id: 1,
            name: name.to_owned(),
            submit: Timestamp::from_unix(0),
            start: Timestamp::from_unix(100),
            end: Timestamp::from_unix(3700),
            gpus: 2,
            gpu_slots: vec![("gpub042".to_owned(), 0), ("gpub042".to_owned(), 1)],
            completed: true,
        }
    }

    #[test]
    fn elapsed_and_gpu_hours() {
        let j = job("x");
        assert_eq!(j.elapsed(), Duration::from_secs(3600));
        assert!((j.gpu_hours() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn running_at_half_open() {
        let j = job("x");
        assert!(!j.running_at(Timestamp::from_unix(99)));
        assert!(j.running_at(Timestamp::from_unix(100)));
        assert!(!j.running_at(Timestamp::from_unix(3700)));
    }

    #[test]
    fn gpu_slot_lookup() {
        let j = job("x");
        assert!(j.uses_gpu("gpub042", 0));
        assert!(j.uses_gpu("gpub042", 1));
        assert!(!j.uses_gpu("gpub042", 2));
        assert!(!j.uses_gpu("gpub043", 0));
    }

    #[test]
    fn ml_heuristic() {
        assert!(is_ml_name("train_resnet50_v2"));
        assert!(is_ml_name("MODEL-eval"));
        assert!(is_ml_name("llm_inference"));
        assert!(!is_ml_name("namd_apoa1"));
        assert!(!is_ml_name("cfd_solver"));
        assert!(job("bert_finetune").is_ml());
    }

    #[test]
    fn outage_hours() {
        let o = OutageRecord {
            host: "gpub001".to_owned(),
            start: Timestamp::from_unix(0),
            duration: Duration::from_mins(53),
        };
        assert!((o.hours() - 53.0 / 60.0).abs() < 1e-12);
        assert!(o.to_string().contains("gpub001"));
    }
}
