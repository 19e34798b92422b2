//! Workload generation calibrated to §V-A and Table III.
//!
//! Table III fully determines the GPU workload's shape: the bucket mix over
//! GPU counts, per-bucket elapsed-time statistics (mean ≫ median — a
//! log-normal signature — with the P99 pinned at the 48 h walltime), and
//! the split of GPU-hours between ML and non-ML jobs. [`WorkloadConfig`]
//! encodes those published numbers; [`WorkloadConfig::generate`] turns them
//! into a concrete stream of [`JobSpec`]s for the scheduler.

use crate::job::JobState;
use simrng::dist::{CappedLogNormal, Categorical, Sample, TruncatedLogNormal};
use simrng::Rng;
use simtime::{Duration, Period, StudyPeriods, Timestamp};
use std::fmt;

/// Delta's GPU walltime limit in minutes (the P99 wall in Table III).
pub const WALLTIME_CAP_MINS: f64 = 2880.0;

/// One GPU-count bucket of Table III.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuBucket {
    /// Smallest GPU count in the bucket.
    pub min_gpus: u32,
    /// Largest GPU count in the bucket.
    pub max_gpus: u32,
    /// Fraction of jobs in this bucket (Table III "Count (%)").
    pub share: f64,
    /// Mean elapsed minutes.
    pub mean_mins: f64,
    /// Median (P50) elapsed minutes.
    pub median_mins: f64,
    /// ML GPU-hours (thousands) attributed to the bucket.
    pub ml_gpu_hours_k: f64,
    /// Non-ML GPU-hours (thousands).
    pub non_ml_gpu_hours_k: f64,
}

impl GpuBucket {
    /// The probability a job in this bucket is ML, from the GPU-hour split.
    pub fn ml_probability(&self) -> f64 {
        let total = self.ml_gpu_hours_k + self.non_ml_gpu_hours_k;
        if total == 0.0 {
            0.0
        } else {
            self.ml_gpu_hours_k / total
        }
    }

    /// A label like `"2-4"` matching the paper's row headers.
    pub fn label(&self) -> String {
        if self.min_gpus == self.max_gpus {
            self.min_gpus.to_string()
        } else if self.max_gpus == u32::MAX {
            format!("{}+", self.min_gpus)
        } else {
            format!("{}-{}", self.min_gpus, self.max_gpus)
        }
    }
}

impl fmt::Display for GpuBucket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bucket {} ({:.3}%)", self.label(), self.share)
    }
}

/// The Table III rows. Bucket boundaries follow the paper's headers, read
/// as disjoint ranges: 1, 2–4, 5–8, 9–32, 33–64, 65–128, 129–256, 257+.
pub const TABLE_III_BUCKETS: [GpuBucket; 8] = [
    GpuBucket {
        min_gpus: 1,
        max_gpus: 1,
        share: 69.86,
        mean_mins: 175.62,
        median_mins: 10.15,
        ml_gpu_hours_k: 241.6,
        non_ml_gpu_hours_k: 2724.0,
    },
    GpuBucket {
        min_gpus: 2,
        max_gpus: 4,
        share: 27.31,
        mean_mins: 145.04,
        median_mins: 4.75,
        ml_gpu_hours_k: 344.6,
        non_ml_gpu_hours_k: 3108.7,
    },
    GpuBucket {
        min_gpus: 5,
        max_gpus: 8,
        share: 1.55,
        mean_mins: 133.89,
        median_mins: 2.70,
        ml_gpu_hours_k: 57.9,
        non_ml_gpu_hours_k: 338.6,
    },
    GpuBucket {
        min_gpus: 9,
        max_gpus: 32,
        share: 1.07,
        mean_mins: 270.40,
        median_mins: 73.73,
        ml_gpu_hours_k: 107.1,
        non_ml_gpu_hours_k: 1332.7,
    },
    GpuBucket {
        min_gpus: 33,
        max_gpus: 64,
        share: 0.14,
        mean_mins: 204.52,
        median_mins: 10.25,
        ml_gpu_hours_k: 161.9,
        non_ml_gpu_hours_k: 226.4,
    },
    GpuBucket {
        min_gpus: 65,
        max_gpus: 128,
        share: 0.063,
        mean_mins: 226.28,
        median_mins: 0.32,
        ml_gpu_hours_k: 25.1,
        non_ml_gpu_hours_k: 322.3,
    },
    GpuBucket {
        min_gpus: 129,
        max_gpus: 256,
        share: 0.006,
        mean_mins: 226.53,
        median_mins: 9.19,
        ml_gpu_hours_k: 0.0,
        non_ml_gpu_hours_k: 52.4,
    },
    GpuBucket {
        min_gpus: 257,
        max_gpus: 448,
        share: 0.002,
        mean_mins: 32.12,
        median_mins: 20.40,
        ml_gpu_hours_k: 0.0,
        non_ml_gpu_hours_k: 4.5,
    },
];

/// One job to be submitted, before scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSpec {
    /// Submission time.
    pub submit: Timestamp,
    /// User-visible job name.
    pub name: JobName,
    /// Requested GPU count (0 for CPU jobs).
    pub gpus: u32,
    /// How long the job would run if nothing killed it.
    pub duration: Duration,
    /// The outcome the job reaches *absent* GPU errors (user-space
    /// failures, cancellations and timeouts happen regardless of GPU
    /// health).
    pub baseline_state: JobState,
}

/// Workload parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// Number of GPU jobs to generate.
    pub gpu_jobs: u64,
    /// Number of CPU jobs to generate (records only; CPU jobs never touch
    /// GPU errors).
    pub cpu_jobs: u64,
    /// The submission window (the paper analyses the operational period).
    pub window: Period,
    /// Target success (COMPLETED) fraction for GPU jobs absent GPU errors.
    pub gpu_success_rate: f64,
    /// Target success fraction for CPU jobs.
    pub cpu_success_rate: f64,
}

impl WorkloadConfig {
    /// The paper's workload: 1,445,119 GPU jobs at 74.68% success and
    /// 1,686,696 CPU jobs at 74.90%, over the operational period.
    pub fn delta() -> Self {
        WorkloadConfig {
            gpu_jobs: 1_445_119,
            cpu_jobs: 1_686_696,
            window: StudyPeriods::delta().op,
            gpu_success_rate: 0.7468,
            cpu_success_rate: 0.7490,
        }
    }

    /// A scaled workload: job counts and window length multiplied by
    /// `fraction` (so the offered load per hour is preserved).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fraction <= 1`.
    pub fn delta_scaled(fraction: f64) -> Self {
        assert!(fraction > 0.0 && fraction <= 1.0);
        let mut config = WorkloadConfig::delta();
        config.gpu_jobs = ((config.gpu_jobs as f64 * fraction) as u64).max(10);
        config.cpu_jobs = ((config.cpu_jobs as f64 * fraction) as u64).max(10);
        config.window = StudyPeriods::delta_scaled(fraction).op;
        config
    }

    /// Generates the GPU job stream, sorted by submission time.
    pub fn generate(&self, rng: &mut Rng) -> Vec<JobSpec> {
        let sampler = BucketSampler::new();
        let mut submits: Vec<u64> = (0..self.gpu_jobs)
            .map(|_| {
                self.window.start.unix() + rng.range_u64(self.window.length().as_secs().max(1))
            })
            .collect();
        submits.sort_unstable();
        submits
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                let bucket = sampler.pick(rng);
                let gpus = if bucket.min_gpus == bucket.max_gpus {
                    bucket.min_gpus
                } else {
                    rng.range(bucket.min_gpus as u64, bucket.max_gpus as u64 + 1) as u32
                };
                let is_ml = rng.bool_with(bucket.ml_probability());
                let duration_mins = sampler.duration_mins(bucket, rng);
                let baseline_state = self.sample_baseline(self.gpu_success_rate, rng);
                JobSpec {
                    submit: Timestamp::from_unix(s),
                    name: job_name(is_ml, i as u64, rng),
                    gpus,
                    duration: Duration::from_secs((duration_mins * 60.0).round().max(1.0) as u64),
                    baseline_state,
                }
            })
            .collect()
    }

    /// Generates CPU job records directly (no GPU scheduling involved):
    /// `(submit, duration, state)` triples.
    pub fn generate_cpu(&self, rng: &mut Rng) -> Vec<JobSpec> {
        let dist = TruncatedLogNormal::new(3.2, 2.1, WALLTIME_CAP_MINS)
            .expect("static parameters are valid");
        (0..self.cpu_jobs)
            .map(|i| {
                let s =
                    self.window.start.unix() + rng.range_u64(self.window.length().as_secs().max(1));
                let mins = dist.sample(rng);
                JobSpec {
                    submit: Timestamp::from_unix(s),
                    name: job_name(false, i, rng),
                    gpus: 0,
                    duration: Duration::from_secs((mins * 60.0).round().max(1.0) as u64),
                    baseline_state: self.sample_baseline(self.cpu_success_rate, rng),
                }
            })
            .collect()
    }

    /// Samples a baseline terminal state with the configured success rate;
    /// the failing remainder splits 60/25/15 across FAILED / CANCELLED /
    /// TIMEOUT (typical Slurm accounting proportions).
    fn sample_baseline(&self, success: f64, rng: &mut Rng) -> JobState {
        if rng.bool_with(success) {
            JobState::Completed
        } else {
            let roll = rng.f64();
            if roll < 0.60 {
                JobState::Failed
            } else if roll < 0.85 {
                JobState::Cancelled
            } else {
                JobState::Timeout
            }
        }
    }
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig::delta()
    }
}

/// Internal: bucket picker plus per-bucket duration distributions.
struct BucketSampler {
    picker: Categorical,
    durations: Vec<CappedLogNormal>,
}

impl BucketSampler {
    fn new() -> Self {
        let weights: Vec<f64> = TABLE_III_BUCKETS.iter().map(|b| b.share).collect();
        let durations = TABLE_III_BUCKETS
            .iter()
            .map(|b| {
                // Fit so the *capped* mean matches the reported mean: the
                // paper's statistics are computed over walltime-clamped
                // jobs (its P99 columns sit exactly at the 2880 min cap).
                CappedLogNormal::fit(b.mean_mins, b.median_mins, WALLTIME_CAP_MINS)
                    .expect("Table III rows all have median < mean < cap")
            })
            .collect();
        BucketSampler {
            picker: Categorical::new(&weights).expect("Table III shares are valid weights"),
            durations,
        }
    }

    fn pick(&self, rng: &mut Rng) -> &'static GpuBucket {
        &TABLE_III_BUCKETS[self.picker.sample(rng)]
    }

    fn duration_mins(&self, bucket: &GpuBucket, rng: &mut Rng) -> f64 {
        let idx = TABLE_III_BUCKETS
            .iter()
            .position(|b| b.min_gpus == bucket.min_gpus)
            .expect("bucket comes from the table");
        self.durations[idx].sample(rng)
    }
}

/// A job's name as a stem and the job's index, rendered `"{stem}_{index}"`.
///
/// A generated workload carries tens of thousands of names that only its
/// accounting records print, so a name is kept as this `Copy` value and
/// formatted where a [`crate::JobRecord`] is built: scheduling a workload
/// formats none.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobName {
    stem: &'static str,
    index: u64,
}

impl JobName {
    /// The name `"{stem}_{index}"`.
    pub(crate) const fn new(stem: &'static str, index: u64) -> Self {
        JobName { stem, index }
    }
}

impl fmt::Display for JobName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}_{}", self.stem, self.index)
    }
}

/// Generates a plausible job name; ML names carry the §V-A keywords.
fn job_name(ml: bool, index: u64, rng: &mut Rng) -> JobName {
    const ML_STEMS: [&str; 8] = [
        "train_resnet50",
        "bert_finetune",
        "llm_pretrain",
        "gpt_inference",
        "diffusion_model",
        "torch_ddp_train",
        "epoch_sweep",
        "tensorflow_model",
    ];
    const HPC_STEMS: [&str; 10] = [
        "namd_apoa1",
        "gromacs_md",
        "wrf_forecast",
        "vasp_relax",
        "amber_prod",
        "lammps_flow",
        "cfd_solver",
        "qchem_opt",
        "openfoam_run",
        "quantum_espresso",
    ];
    let stem = if ml {
        ML_STEMS[rng.range_u64(ML_STEMS.len() as u64) as usize]
    } else {
        HPC_STEMS[rng.range_u64(HPC_STEMS.len() as u64) as usize]
    };
    JobName::new(stem, index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobId, JobRecord};
    use clustersim::NodeId;

    fn spec_to_record(spec: &JobSpec) -> JobRecord {
        JobRecord {
            id: JobId(0),
            name: spec.name.to_string(),
            submit: spec.submit,
            start: spec.submit,
            end: spec.submit + spec.duration,
            gpus: spec.gpus,
            nodes: vec![NodeId::new(0)],
            gpu_ids: Vec::new(),
            state: spec.baseline_state,
        }
    }

    #[test]
    fn bucket_shares_sum_to_one_hundred() {
        let total: f64 = TABLE_III_BUCKETS.iter().map(|b| b.share).sum();
        assert!((total - 100.0).abs() < 0.01, "{total}");
    }

    #[test]
    fn buckets_are_disjoint_and_ordered() {
        for pair in TABLE_III_BUCKETS.windows(2) {
            assert!(pair[0].max_gpus < pair[1].min_gpus);
        }
    }

    #[test]
    fn generated_mix_matches_shares() {
        let config = WorkloadConfig::delta_scaled(0.02);
        let mut rng = Rng::seed_from(1);
        let jobs = config.generate(&mut rng);
        let single = jobs.iter().filter(|j| j.gpus == 1).count() as f64 / jobs.len() as f64;
        assert!((single - 0.6986).abs() < 0.01, "single-GPU share {single}");
        let small =
            jobs.iter().filter(|j| (2..=4).contains(&j.gpus)).count() as f64 / jobs.len() as f64;
        assert!((small - 0.2731).abs() < 0.01, "2-4 share {small}");
    }

    #[test]
    fn submissions_are_sorted_and_in_window() {
        let config = WorkloadConfig::delta_scaled(0.001);
        let mut rng = Rng::seed_from(2);
        let jobs = config.generate(&mut rng);
        for pair in jobs.windows(2) {
            assert!(pair[0].submit <= pair[1].submit);
        }
        for j in &jobs {
            assert!(config.window.contains(j.submit));
        }
    }

    #[test]
    fn durations_capped_at_walltime() {
        let config = WorkloadConfig::delta_scaled(0.002);
        let mut rng = Rng::seed_from(3);
        for j in config.generate(&mut rng) {
            assert!(j.duration.as_mins_f64() <= WALLTIME_CAP_MINS + 1e-9);
            assert!(j.duration.as_secs() >= 1);
        }
    }

    #[test]
    fn single_gpu_median_tracks_table() {
        let config = WorkloadConfig::delta_scaled(0.02);
        let mut rng = Rng::seed_from(4);
        let jobs = config.generate(&mut rng);
        let mut mins: Vec<f64> = jobs
            .iter()
            .filter(|j| j.gpus == 1)
            .map(|j| j.duration.as_mins_f64())
            .collect();
        mins.sort_by(f64::total_cmp);
        let median = mins[mins.len() / 2];
        assert!((median - 10.15).abs() < 1.5, "median {median} min");
    }

    #[test]
    fn baseline_success_rate_matches_target() {
        let config = WorkloadConfig::delta_scaled(0.01);
        let mut rng = Rng::seed_from(5);
        let jobs = config.generate(&mut rng);
        let ok = jobs
            .iter()
            .filter(|j| j.baseline_state == JobState::Completed)
            .count() as f64
            / jobs.len() as f64;
        assert!((ok - 0.7468).abs() < 0.01, "success {ok}");
    }

    #[test]
    fn ml_fraction_is_bucket_dependent() {
        let config = WorkloadConfig::delta_scaled(0.02);
        let mut rng = Rng::seed_from(6);
        let jobs = config.generate(&mut rng);
        let ml_rate = |lo: u32, hi: u32| {
            let bucket: Vec<_> = jobs
                .iter()
                .filter(|j| j.gpus >= lo && j.gpus <= hi)
                .collect();
            bucket.iter().filter(|j| spec_to_record(j).is_ml()).count() as f64
                / bucket.len().max(1) as f64
        };
        // 33-64 GPU jobs are heavily ML (41.7% of GPU-hours); 1-GPU much less.
        assert!(ml_rate(1, 1) < 0.15);
        // 128+ jobs are exclusively non-ML in Table III.
        assert!(ml_rate(129, 448) < 1e-9);
    }

    #[test]
    fn ml_names_classify_as_ml() {
        let mut rng = Rng::seed_from(7);
        for i in 0..50 {
            let name = job_name(true, i, &mut rng);
            let mut spec = JobSpec {
                submit: Timestamp::from_unix(0),
                name,
                gpus: 1,
                duration: Duration::from_secs(60),
                baseline_state: JobState::Completed,
            };
            assert!(spec_to_record(&spec).is_ml(), "{}", spec.name);
            spec.name = job_name(false, i, &mut rng);
            assert!(!spec_to_record(&spec).is_ml(), "{}", spec.name);
        }
    }

    #[test]
    fn cpu_jobs_have_no_gpus() {
        let config = WorkloadConfig::delta_scaled(0.001);
        let mut rng = Rng::seed_from(8);
        let cpu = config.generate_cpu(&mut rng);
        assert_eq!(cpu.len() as u64, config.cpu_jobs);
        assert!(cpu.iter().all(|j| j.gpus == 0));
    }

    #[test]
    fn bucket_labels() {
        assert_eq!(TABLE_III_BUCKETS[0].label(), "1");
        assert_eq!(TABLE_III_BUCKETS[1].label(), "2-4");
        assert_eq!(TABLE_III_BUCKETS[7].label(), "257-448");
    }

    #[test]
    fn ml_probability_from_gpu_hours() {
        let b = &TABLE_III_BUCKETS[4]; // 33-64: 161.9 vs 226.4
        assert!((b.ml_probability() - 161.9 / 388.3).abs() < 1e-9);
        assert_eq!(TABLE_III_BUCKETS[7].ml_probability(), 0.0);
    }
}
