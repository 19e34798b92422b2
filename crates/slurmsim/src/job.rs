//! Job identities, terminal states and sacct-style records.

use clustersim::{GpuId, NodeId};
use simtime::{Duration, Timestamp};
use std::fmt;

/// A job's scheduler-assigned identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

/// A job's terminal state, mirroring Slurm's accounting states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobState {
    /// Ran to completion with exit code 0.
    Completed,
    /// Exited non-zero (application error, OOM, crash).
    Failed,
    /// Cancelled by the user or an administrator.
    Cancelled,
    /// Hit its walltime limit.
    Timeout,
    /// Terminated because a node it ran on failed (GPU error, reboot).
    NodeFail,
}

impl JobState {
    /// Whether this state counts as success in the §V-A statistics.
    pub fn is_success(self) -> bool {
        self == JobState::Completed
    }

    /// Whether the state was caused by infrastructure rather than the user.
    pub fn is_infrastructure_failure(self) -> bool {
        self == JobState::NodeFail
    }

    /// Slurm's accounting label.
    pub fn label(self) -> &'static str {
        match self {
            JobState::Completed => "COMPLETED",
            JobState::Failed => "FAILED",
            JobState::Cancelled => "CANCELLED",
            JobState::Timeout => "TIMEOUT",
            JobState::NodeFail => "NODE_FAIL",
        }
    }
}

impl fmt::Display for JobState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One sacct-style accounting record, the unit the analysis pipeline joins
/// against the error log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobRecord {
    /// Scheduler-assigned id.
    pub id: JobId,
    /// User-visible job name (the §V-A ML classification reads this).
    pub name: String,
    /// When the job was submitted.
    pub submit: Timestamp,
    /// When it started running.
    pub start: Timestamp,
    /// When it terminated.
    pub end: Timestamp,
    /// Number of GPUs allocated (0 for CPU jobs).
    pub gpus: u32,
    /// The nodes it ran on (as Slurm records them).
    pub nodes: Vec<NodeId>,
    /// The specific GPUs allocated (Delta's Slurm exposes device-level
    /// GRES bindings, which is what lets the paper attribute per-GPU XID
    /// errors to jobs).
    pub gpu_ids: Vec<GpuId>,
    /// Terminal state.
    pub state: JobState,
}

impl JobRecord {
    /// Elapsed (wall-clock) runtime.
    pub fn elapsed(&self) -> Duration {
        self.end - self.start
    }

    /// Time spent waiting in the queue.
    pub fn wait(&self) -> Duration {
        self.start - self.submit
    }

    /// GPU-hours consumed.
    pub fn gpu_hours(&self) -> f64 {
        self.gpus as f64 * self.elapsed().as_hours_f64()
    }

    /// Whether this is a GPU job.
    pub fn is_gpu_job(&self) -> bool {
        self.gpus > 0
    }

    /// The §V-A machine-learning heuristic: a job is ML if its name
    /// contains an ML-indicative keyword (see [`is_ml_name`]).
    pub fn is_ml(&self) -> bool {
        is_ml_name(&self.name)
    }

    /// Whether the job was running at instant `t`.
    pub fn running_at(&self, t: Timestamp) -> bool {
        t >= self.start && t < self.end
    }

    /// Whether the job ran on `node`.
    pub fn uses_node(&self, node: NodeId) -> bool {
        self.nodes.contains(&node)
    }

    /// Whether the job was allocated `gpu`.
    pub fn uses_gpu(&self, gpu: GpuId) -> bool {
        self.gpu_ids.contains(&gpu)
    }
}

/// The ML-indicative keywords of the §V-A heuristic, in lowercase.
const ML_KEYWORDS: [&[u8]; 12] = [
    b"train",
    b"model",
    b"bert",
    b"resnet",
    b"llm",
    b"gpt",
    b"finetune",
    b"epoch",
    b"torch",
    b"tensorflow",
    b"diffusion",
    b"inference",
];

/// The §V-A machine-learning heuristic on a bare job name: true when the
/// name contains an ML-indicative keyword (`train`, `model`, framework
/// and architecture names), ignoring ASCII case. The paper applies
/// exactly this approximation because submission scripts were off
/// limits.
///
/// It runs on every GPU job of Table III, so it does not allocate: names
/// up to 64 bytes are lowercased into a stack buffer and scanned once,
/// trying only the keywords that start with the byte at hand; longer
/// names are compared case-insensitively in place.
pub fn is_ml_name(name: &str) -> bool {
    let name = name.as_bytes();
    let mut buf = [0u8; 64];
    match buf.get_mut(..name.len()) {
        Some(lower) => {
            lower.copy_from_slice(name);
            lower.make_ascii_lowercase();
            (0..lower.len()).any(|i| {
                ML_KEYWORDS
                    .iter()
                    .any(|k| k[0] == lower[i] && lower[i..].starts_with(k))
            })
        }
        None => ML_KEYWORDS
            .iter()
            .any(|k| name.windows(k.len()).any(|w| w.eq_ignore_ascii_case(k))),
    }
}

impl fmt::Display for JobRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} gpus={} nodes={} state={} elapsed={}",
            self.id,
            self.name,
            self.gpus,
            self.nodes.len(),
            self.state,
            self.elapsed()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(name: &str, gpus: u32) -> JobRecord {
        JobRecord {
            id: JobId(1),
            name: name.to_owned(),
            submit: Timestamp::from_unix(0),
            start: Timestamp::from_unix(600),
            end: Timestamp::from_unix(4200),
            gpus,
            nodes: vec![NodeId::new(3)],
            gpu_ids: vec![GpuId::new(NodeId::new(3), 0)],
            state: JobState::Completed,
        }
    }

    #[test]
    fn elapsed_wait_and_gpu_hours() {
        let r = record("sim", 4);
        assert_eq!(r.elapsed(), Duration::from_secs(3600));
        assert_eq!(r.wait(), Duration::from_secs(600));
        assert!((r.gpu_hours() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn ml_classification_keywords() {
        assert!(record("train_resnet50", 1).is_ml());
        assert!(record("BERT-finetune", 4).is_ml());
        assert!(record("Llama_MODEL_eval", 8).is_ml());
        assert!(!record("namd_apoa1", 2).is_ml());
        assert!(!record("wrf_forecast", 1).is_ml());
    }

    /// The heuristic as first written: lowercase a copy, then `contains`.
    fn is_ml_name_by_allocation(name: &str) -> bool {
        let name = name.to_ascii_lowercase();
        ML_KEYWORDS
            .iter()
            .any(|k| name.contains(std::str::from_utf8(k).unwrap()))
    }

    #[test]
    fn ml_name_matches_allocating_definition() {
        let long = "x".repeat(60);
        let names = [
            String::new(),
            "TRAIN".to_owned(),
            "ReSNeT-50".to_owned(),
            "tRaIn_GPT".to_owned(),
            "trai".to_owned(),
            "TRAİN".to_owned(),
            "straße_model".to_owned(),
            "ｔｒａｉｎ".to_owned(),
            "épochs_Ω".to_owned(),
            format!("{long}gpt"),
            format!("{long}_GPT"),
            format!("{long}TORCH"),
            format!("{long}{long}"),
            format!("{long}{long}Inference"),
            format!("{long}tRa{long}"),
        ];
        for name in &names {
            assert_eq!(is_ml_name(name), is_ml_name_by_allocation(name), "{name:?}");
        }
        assert!(is_ml_name(&names[10]) && names[10].len() == 64);
        assert!(is_ml_name(&names[11]) && names[11].len() == 65);
        assert!(is_ml_name(&names[13]) && names[13].len() > 64);

        // Random names over keyword letters in both cases plus non-ASCII,
        // with whole keywords spliced in now and then.
        let chars: Vec<char> = "tRaInMoDeLbErTgPtLlMfInEpOcHzTfDiFuSoN_-0İßÉ"
            .chars()
            .collect();
        propcheck::run("ml_name_matches_allocating_definition", 2048, |g| {
            let mut name = String::new();
            for _ in 0..g.usize_in(0, 90) {
                if g.bool_with(0.02) {
                    let k = g.choose(&ML_KEYWORDS);
                    name.push_str(&std::str::from_utf8(k).unwrap().to_ascii_uppercase());
                } else {
                    name.push(g.choose(&chars));
                }
            }
            assert_eq!(
                is_ml_name(&name),
                is_ml_name_by_allocation(&name),
                "{name:?}"
            );
        });
    }

    #[test]
    fn running_at_bounds() {
        let r = record("x", 1);
        assert!(!r.running_at(Timestamp::from_unix(599)));
        assert!(r.running_at(Timestamp::from_unix(600)));
        assert!(r.running_at(Timestamp::from_unix(4199)));
        assert!(!r.running_at(Timestamp::from_unix(4200)));
    }

    #[test]
    fn state_predicates() {
        assert!(JobState::Completed.is_success());
        for s in [
            JobState::Failed,
            JobState::Cancelled,
            JobState::Timeout,
            JobState::NodeFail,
        ] {
            assert!(!s.is_success());
        }
        assert!(JobState::NodeFail.is_infrastructure_failure());
        assert!(!JobState::Failed.is_infrastructure_failure());
    }

    #[test]
    fn uses_node_and_gpu() {
        let r = record("x", 1);
        assert!(r.uses_node(NodeId::new(3)));
        assert!(!r.uses_node(NodeId::new(4)));
        assert!(r.uses_gpu(GpuId::new(NodeId::new(3), 0)));
        assert!(!r.uses_gpu(GpuId::new(NodeId::new(3), 1)));
    }

    #[test]
    fn display_forms() {
        assert_eq!(JobState::NodeFail.to_string(), "NODE_FAIL");
        assert!(record("abc", 2).to_string().contains("abc"));
        assert_eq!(JobId(9).to_string(), "job#9");
    }
}
