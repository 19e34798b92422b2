//! Counterfactual scenario campaigns: the compute layer behind `/whatif`.
//!
//! The paper's headline numbers invite counterfactual questions — what if
//! MTTR halved, Xid 79 doubled, the scheduler ran strict FIFO? — and the
//! simulation substrates (`faultsim` → `clustersim` → `slurmsim`) can
//! answer them. This module turns a handful of typed knobs
//! ([`ScenarioSpec`]) into a bounded, seeded, paired campaign
//! ([`run_campaign`]): for every repetition it runs the *baseline*
//! (Delta as measured) and the *scenario* (the same seeds with the knobs
//! applied) and reports per-rep MTBE, availability, error/reboot counts
//! and jobs killed, so the serving layer can present
//! baseline-vs-scenario deltas with honest spread.
//!
//! # Canonicalization
//!
//! Query surfaces cache under a canonical key, so equivalent specs must
//! collapse to one string: parameters are defaulted, re-ordered and
//! de-duplicated by [`ScenarioSpec::parse`], per-XID rate multipliers
//! are folded onto their *rate family* (Xid 94 and Xid 48 both scale the
//! uncorrectable-memory hazard, so `xid_rate=94:2` and `xid_rate=48:2`
//! canonicalize identically), and [`ScenarioSpec::canonical`] renders
//! the result deterministically. Conflicting duplicates (the same axis
//! with two different values) are a typed error, never a silent
//! last-wins.
//!
//! # Determinism
//!
//! Same spec + seed ⇒ identical [`CampaignResult`] regardless of where
//! or how often it runs: every repetition's fault campaign and scheduler
//! simulation seed forks deterministically from the spec seed, and the
//! baseline arm of rep `r` shares rep `r`'s seed so the comparison is
//! paired (the counterfactual re-rolls *decisions*, not *luck*). No knob
//! changes the GPU job stream, so both arms of a rep schedule the one
//! workload generated from that seed, and each reads only the
//! scheduler's counters.

use clustersim::{Cluster, RepairModel};
use faultsim::{Campaign, FaultConfig};
use simrng::dist::LogNormal;
use simrng::Rng;
use simtime::Phase;
use slurmsim::workload::JobSpec;
use slurmsim::{SchedPolicy, Simulation, WorkloadConfig};
use std::fmt;
use xid::{ErrorKind, XidCode};

/// Fraction of the two-year Delta study each repetition simulates. At
/// 0.02 (~a week of pre-op plus ~2.5 weeks of operation over the full
/// 448-GPU cluster) one paired rep costs 16–24 ms in release on a
/// 2-vCPU VM ([`run_campaign`] at `reps=1`, median over 120 specs, five
/// runs): 2.4–2.8 ms generates the rep's 28,902 GPU jobs and each arm's
/// schedule takes 5–9 ms. That is small enough for an interactive
/// service, and large enough that the op phase sees hundreds of errors.
pub const SIM_SCALE: f64 = 0.02;

/// Defaults for unspecified spec axes.
pub const DEFAULT_SEED: u64 = 0xA100;
/// Default repetition count (paired baseline + scenario runs).
pub const DEFAULT_REPS: u32 = 3;

/// Upper bound on `mttr_scale` and per-XID rate multipliers: generous
/// for any plausible what-if, small enough that a campaign stays
/// bounded.
pub const MAX_SCALE: f64 = 100.0;

/// A hazard-rate family a `xid_rate=<XID>:<mult>` knob can scale.
///
/// The fault injector calibrates one rate per *family*, not per code
/// (Xid 119 and 120 are both GSP; Xid 48/63/64/94/95 are all downstream
/// of one root uncorrectable-memory hazard), so the scenario axis is
/// the family and any member code names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RateAxis {
    /// Xid 31 — MMU faults (`mmu_per_gpu_hour`).
    Mmu,
    /// Xid 48/63/64/94/95 — the root uncorrectable-memory hazard
    /// (`uncorrectable_per_gpu_hour`).
    Uncorrectable,
    /// Xid 74 — NVLink incidents (`nvlink_incidents_per_node_hour`).
    Nvlink,
    /// Xid 79 — fallen off the bus (`fallen_per_gpu_hour`).
    Fallen,
    /// Xid 119/120 — GSP errors (`gsp_per_gpu_hour`).
    Gsp,
    /// Xid 122/123 — PMU SPI failures (`pmu_per_gpu_hour`).
    Pmu,
}

impl RateAxis {
    /// Maps a studied error kind onto its hazard family.
    pub fn from_kind(kind: ErrorKind) -> Option<RateAxis> {
        match kind {
            ErrorKind::MmuError => Some(RateAxis::Mmu),
            ErrorKind::DoubleBitError
            | ErrorKind::RowRemapEvent
            | ErrorKind::RowRemapFailure
            | ErrorKind::ContainedMemoryError
            | ErrorKind::UncontainedMemoryError => Some(RateAxis::Uncorrectable),
            ErrorKind::NvlinkError => Some(RateAxis::Nvlink),
            ErrorKind::FallenOffBus => Some(RateAxis::Fallen),
            ErrorKind::GspError => Some(RateAxis::Gsp),
            ErrorKind::PmuSpiError => Some(RateAxis::Pmu),
            _ => None,
        }
    }

    /// The canonical XID code naming this family in cache keys.
    pub fn canonical_code(self) -> u16 {
        match self {
            RateAxis::Mmu => 31,
            RateAxis::Uncorrectable => 48,
            RateAxis::Nvlink => 74,
            RateAxis::Fallen => 79,
            RateAxis::Gsp => 119,
            RateAxis::Pmu => 122,
        }
    }
}

/// Why a `/whatif` query failed to parse into a [`ScenarioSpec`].
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// A query key the scenario surface does not know.
    UnknownParam(String),
    /// A value failed to parse or fell outside its valid range; carries
    /// the key and the offending raw value.
    BadValue {
        /// The query key.
        key: &'static str,
        /// The raw value as received.
        value: String,
        /// What was expected.
        expected: String,
    },
    /// `xid_rate` named a code the study does not track.
    UnknownXid(String),
    /// The same axis was given twice with different values.
    Conflict {
        /// The query key.
        key: &'static str,
        /// A description of the clash.
        detail: String,
    },
    /// `reps` exceeded the server's cap.
    RepsOverCap {
        /// What was asked for.
        requested: u32,
        /// The server-side cap.
        cap: u32,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::UnknownParam(key) => {
                write!(f, "unknown query parameter {key:?}")
            }
            ScenarioError::BadValue {
                key,
                value,
                expected,
            } => write!(f, "bad {key} {value:?}: expected {expected}"),
            ScenarioError::UnknownXid(raw) => {
                write!(f, "xid_rate {raw:?}: not a studied XID code")
            }
            ScenarioError::Conflict { key, detail } => {
                write!(f, "conflicting {key} values: {detail}")
            }
            ScenarioError::RepsOverCap { requested, cap } => {
                write!(f, "reps {requested} exceeds the server cap {cap}")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

/// A parsed, validated, canonical counterfactual request.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Repair-time multiplier: scales both the reboot and the
    /// replacement duration distributions. `1` is Delta as measured;
    /// must be finite and in `(0, MAX_SCALE]` (a zero MTTR is not a
    /// repair model).
    pub mttr_scale: f64,
    /// Per-family hazard multipliers, sorted by canonical code. Empty
    /// means no rate change.
    pub xid_rates: Vec<(RateAxis, f64)>,
    /// Queue-drain policy for the scheduler arm.
    pub sched: SchedPolicy,
    /// Root seed; every rep forks from it.
    pub seed: u64,
    /// Paired repetitions to run.
    pub reps: u32,
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        ScenarioSpec {
            mttr_scale: 1.0,
            xid_rates: Vec::new(),
            sched: SchedPolicy::Backfill,
            seed: DEFAULT_SEED,
            reps: DEFAULT_REPS,
        }
    }
}

fn parse_scale(key: &'static str, raw: &str) -> Result<f64, ScenarioError> {
    let bad = |expected: &str| ScenarioError::BadValue {
        key,
        value: raw.to_owned(),
        expected: expected.to_owned(),
    };
    let v: f64 = raw
        .parse()
        .map_err(|_| bad(&format!("a number in (0, {MAX_SCALE}]")))?;
    if !v.is_finite() || v <= 0.0 || v > MAX_SCALE {
        return Err(bad(&format!("a number in (0, {MAX_SCALE}]")));
    }
    Ok(v)
}

/// Canonical shortest-round-trip rendering for a validated multiplier;
/// `format!("{v}")` on an `f64` is deterministic and re-parses to the
/// same bits, so `0.50` and `0.5` collapse to one key.
fn fmt_scale(v: f64) -> String {
    format!("{v}")
}

impl ScenarioSpec {
    /// Parses query pairs (in any order, with duplicates) into a
    /// validated spec. `rep_cap` is the server-side ceiling on `reps`.
    ///
    /// Duplicate parameters are accepted when every occurrence
    /// canonicalizes to the same value and rejected as a
    /// [`ScenarioError::Conflict`] otherwise — a client that sends
    /// `mttr_scale=0.5&mttr_scale=2` is asking two different questions
    /// and deserves a 400, not a silent coin-flip.
    ///
    /// # Errors
    ///
    /// A [`ScenarioError`] naming the offending key and value.
    pub fn parse(pairs: &[(String, String)], rep_cap: u32) -> Result<ScenarioSpec, ScenarioError> {
        let mut spec = ScenarioSpec::default();
        let mut seen_mttr: Option<f64> = None;
        let mut seen_sched: Option<SchedPolicy> = None;
        let mut seen_seed: Option<u64> = None;
        let mut seen_reps: Option<u32> = None;
        let mut rates: Vec<(RateAxis, f64)> = Vec::new();
        for (k, v) in pairs {
            match k.as_str() {
                "mttr_scale" => {
                    let parsed = parse_scale("mttr_scale", v)?;
                    if let Some(prev) = seen_mttr {
                        if prev != parsed {
                            return Err(ScenarioError::Conflict {
                                key: "mttr_scale",
                                detail: format!("{} vs {}", fmt_scale(prev), fmt_scale(parsed)),
                            });
                        }
                    }
                    seen_mttr = Some(parsed);
                }
                "xid_rate" => {
                    let (code_raw, mult_raw) =
                        v.split_once(':').ok_or_else(|| ScenarioError::BadValue {
                            key: "xid_rate",
                            value: v.clone(),
                            expected: "<XID>:<multiplier>".to_owned(),
                        })?;
                    let code: u16 = code_raw
                        .parse()
                        .map_err(|_| ScenarioError::UnknownXid(v.clone()))?;
                    let axis = RateAxis::from_kind(ErrorKind::from_code(XidCode::new(code)))
                        .ok_or_else(|| ScenarioError::UnknownXid(v.clone()))?;
                    let mult = parse_scale("xid_rate", mult_raw)?;
                    if let Some(&(_, prev)) = rates.iter().find(|(a, _)| *a == axis) {
                        if prev != mult {
                            return Err(ScenarioError::Conflict {
                                key: "xid_rate",
                                detail: format!(
                                    "xid {} given ×{} and ×{}",
                                    axis.canonical_code(),
                                    fmt_scale(prev),
                                    fmt_scale(mult)
                                ),
                            });
                        }
                    } else {
                        rates.push((axis, mult));
                    }
                }
                "sched" => {
                    let parsed = SchedPolicy::parse(v).map_err(|_| ScenarioError::BadValue {
                        key: "sched",
                        value: v.clone(),
                        expected: "fifo|backfill".to_owned(),
                    })?;
                    if let Some(prev) = seen_sched {
                        if prev != parsed {
                            return Err(ScenarioError::Conflict {
                                key: "sched",
                                detail: format!("{} vs {}", prev.name(), parsed.name()),
                            });
                        }
                    }
                    seen_sched = Some(parsed);
                }
                "seed" => {
                    let parsed: u64 = v.parse().map_err(|_| ScenarioError::BadValue {
                        key: "seed",
                        value: v.clone(),
                        expected: "an unsigned 64-bit integer".to_owned(),
                    })?;
                    if let Some(prev) = seen_seed {
                        if prev != parsed {
                            return Err(ScenarioError::Conflict {
                                key: "seed",
                                detail: format!("{prev} vs {parsed}"),
                            });
                        }
                    }
                    seen_seed = Some(parsed);
                }
                "reps" => {
                    let parsed: u32 = v.parse().map_err(|_| ScenarioError::BadValue {
                        key: "reps",
                        value: v.clone(),
                        expected: "a positive integer".to_owned(),
                    })?;
                    if parsed == 0 {
                        return Err(ScenarioError::BadValue {
                            key: "reps",
                            value: v.clone(),
                            expected: "a positive integer".to_owned(),
                        });
                    }
                    if let Some(prev) = seen_reps {
                        if prev != parsed {
                            return Err(ScenarioError::Conflict {
                                key: "reps",
                                detail: format!("{prev} vs {parsed}"),
                            });
                        }
                    }
                    seen_reps = Some(parsed);
                }
                other => return Err(ScenarioError::UnknownParam(other.to_owned())),
            }
        }
        if let Some(v) = seen_mttr {
            spec.mttr_scale = v;
        }
        if let Some(v) = seen_sched {
            spec.sched = v;
        }
        if let Some(v) = seen_seed {
            spec.seed = v;
        }
        if let Some(v) = seen_reps {
            if v > rep_cap {
                return Err(ScenarioError::RepsOverCap {
                    requested: v,
                    cap: rep_cap,
                });
            }
            spec.reps = v;
        }
        rates.sort_by_key(|(a, _)| a.canonical_code());
        spec.xid_rates = rates;
        Ok(spec)
    }

    /// The neutral twin of this spec: same seed and reps, every
    /// counterfactual knob at its measured-system value. This is the
    /// baseline arm each rep is paired against.
    pub fn baseline(&self) -> ScenarioSpec {
        ScenarioSpec {
            seed: self.seed,
            reps: self.reps,
            ..ScenarioSpec::default()
        }
    }

    /// Whether every knob sits at its measured-system default (the
    /// scenario arm *is* the baseline).
    pub fn is_neutral(&self) -> bool {
        self.mttr_scale == 1.0 && self.xid_rates.is_empty() && self.sched == SchedPolicy::Backfill
    }

    /// The canonical query string: keys sorted, defaults materialized,
    /// multipliers in shortest-round-trip form, rate families under
    /// their canonical code. Two specs are equivalent iff their
    /// canonical strings are byte-equal, which is what the serving
    /// layer caches under.
    pub fn canonical(&self) -> String {
        let mut out = format!(
            "mttr_scale={}&reps={}&sched={}&seed={}",
            fmt_scale(self.mttr_scale),
            self.reps,
            self.sched.name(),
            self.seed
        );
        for (axis, mult) in &self.xid_rates {
            out.push_str(&format!(
                "&xid_rate={}:{}",
                axis.canonical_code(),
                fmt_scale(*mult)
            ));
        }
        out
    }

    /// Applies the spec's knobs to a fault configuration (rates and
    /// repair model; the scheduler knob applies at simulation time).
    fn apply(&self, config: &mut FaultConfig) -> Result<(), ScenarioError> {
        let s = self.mttr_scale;
        if s != 1.0 {
            let model = |mean: f64, median: f64| {
                LogNormal::from_mean_median(mean * s, median * s).map_err(|e| {
                    ScenarioError::BadValue {
                        key: "mttr_scale",
                        value: fmt_scale(s),
                        expected: format!("a scale the repair model accepts ({e})"),
                    }
                })
            };
            // Delta's measured distributions (see RepairModel::delta):
            // reboot LogNormal fit to mean 0.88 h / median 0.60 h,
            // replacement to mean 24 h / median 12 h.
            config.repair = RepairModel::new(model(0.88, 0.60)?, model(24.0, 12.0)?);
        }
        for &(axis, mult) in &self.xid_rates {
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
}

/// One repetition's headline numbers for one arm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepOutcome {
    /// Ground-truth errors in the operational phase.
    pub errors: u64,
    /// Completed node reboots over the whole campaign.
    pub reboots: u64,
    /// Operational hours / operational errors; `0` when no errors
    /// occurred (a sentinel that renders cleanly, unlike infinity).
    pub mtbe_hours: f64,
    /// Empirical operational availability: `1 − downtime/(nodes×hours)`.
    pub availability: f64,
    /// Jobs the scheduler recorded as killed by GPU errors.
    pub jobs_killed: u64,
}

/// A finished campaign: per-rep outcomes for both arms, index-aligned
/// (rep `r` of each arm shares its fork of the spec seed).
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// The spec that ran (canonical).
    pub spec: ScenarioSpec,
    /// Baseline (as-measured) outcomes, one per rep.
    pub baseline: Vec<RepOutcome>,
    /// Counterfactual outcomes, one per rep.
    pub scenario: Vec<RepOutcome>,
}

/// Mean / min / max over one metric of one arm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Arithmetic mean over reps.
    pub mean: f64,
    /// Smallest rep value.
    pub min: f64,
    /// Largest rep value.
    pub max: f64,
}

/// Summarizes `metric` over a slice of rep outcomes.
pub fn spread(reps: &[RepOutcome], metric: impl Fn(&RepOutcome) -> f64) -> Spread {
    let mut mean = 0.0;
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for rep in reps {
        let v = metric(rep);
        mean += v;
        min = min.min(v);
        max = max.max(v);
    }
    if reps.is_empty() {
        return Spread {
            mean: 0.0,
            min: 0.0,
            max: 0.0,
        };
    }
    Spread {
        mean: mean / reps.len() as f64,
        min,
        max,
    }
}

/// Runs one arm's repetition: fault campaign, then the scheduler
/// co-simulation over the rep's GPU workload `jobs` (generated once per
/// rep by `sim`, whose seed is `rep_seed`), then the headline metrics.
/// Only the scheduler's counters are read, so no accounting records are
/// built.
fn run_rep(
    spec: &ScenarioSpec,
    sim: &Simulation<'_>,
    jobs: &[JobSpec],
    rep_seed: u64,
) -> Result<RepOutcome, ScenarioError> {
    let mut config = FaultConfig::delta_scaled(SIM_SCALE);
    config.emit_logs = false;
    config.seed = rep_seed;
    spec.apply(&mut config)?;

    let campaign = Campaign::new(config).run();
    let stats =
        sim.clone()
            .with_policy(spec.sched)
            .schedule(jobs, &campaign.ground_truth, &campaign.holds);

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
    let availability =
        1.0 - op_downtime / (campaign.config.spec.gpu_node_count() as f64 * op_hours);
    Ok(RepOutcome {
        errors,
        reboots: campaign.ledger.outage_count() as u64,
        mtbe_hours: if errors > 0 {
            op_hours / errors as f64
        } else {
            0.0
        },
        availability,
        jobs_killed: stats.error_kills,
    })
}

/// Runs the paired campaign: `spec.reps` repetitions of baseline and
/// scenario. `progress(done, total)` is called after every finished
/// arm-rep (`total = 2 × reps`), which is what backs the `/whatif/jobs`
/// progress surface.
///
/// # Errors
///
/// A [`ScenarioError`] if the spec's knobs produce an invalid substrate
/// configuration (cannot happen for a spec that came out of
/// [`ScenarioSpec::parse`]).
pub fn run_campaign(
    spec: &ScenarioSpec,
    mut progress: impl FnMut(u32, u32),
) -> Result<CampaignResult, ScenarioError> {
    let total = spec.reps * 2;
    let mut done = 0;
    let baseline_spec = spec.baseline();
    let mut baseline = Vec::with_capacity(spec.reps as usize);
    let mut scenario = Vec::with_capacity(spec.reps as usize);
    let root = Rng::seed_from(spec.seed);
    // No knob touches the cluster shape, so every arm's campaign runs on
    // this one.
    let cluster = Cluster::new(FaultConfig::delta_scaled(SIM_SCALE).spec);
    for rep in 0..spec.reps {
        // One fork per rep; baseline and scenario share it so the
        // comparison is paired, and with it the rep's GPU workload.
        let rep_seed = root.fork(u64::from(rep)).next_u64();
        let span = obs::span("whatif_rep");
        let sim = Simulation::new(&cluster, WorkloadConfig::delta_scaled(SIM_SCALE), rep_seed);
        let jobs = sim.gpu_specs();
        let base = run_rep(&baseline_spec, &sim, &jobs, rep_seed)?;
        done += 1;
        progress(done, total);
        let scen = if spec.is_neutral() {
            base
        } else {
            run_rep(spec, &sim, &jobs, rep_seed)?
        };
        done += 1;
        progress(done, total);
        drop(span);
        baseline.push(base);
        scenario.push(scen);
    }
    Ok(CampaignResult {
        spec: spec.clone(),
        baseline,
        scenario,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect()
    }

    #[test]
    fn defaults_and_canonical_form() {
        let spec = ScenarioSpec::parse(&[], 32).unwrap();
        assert_eq!(spec, ScenarioSpec::default());
        assert_eq!(
            spec.canonical(),
            format!("mttr_scale=1&reps=3&sched=backfill&seed={DEFAULT_SEED}")
        );
        assert!(spec.is_neutral());
    }

    #[test]
    fn reordered_and_duplicated_params_canonicalize_identically() {
        let a = ScenarioSpec::parse(
            &pairs(&[("mttr_scale", "0.5"), ("seed", "7"), ("xid_rate", "79:2")]),
            32,
        )
        .unwrap();
        let b = ScenarioSpec::parse(
            &pairs(&[
                ("xid_rate", "79:2"),
                ("mttr_scale", "0.50"),
                ("seed", "7"),
                ("xid_rate", "79:2.0"),
            ]),
            32,
        )
        .unwrap();
        assert_eq!(a.canonical(), b.canonical());
        assert_eq!(
            a.canonical(),
            "mttr_scale=0.5&reps=3&sched=backfill&seed=7&xid_rate=79:2"
        );
    }

    #[test]
    fn family_codes_collapse_to_the_canonical_member() {
        // Xid 94 (contained) and 48 (DBE) are the same root hazard.
        let a = ScenarioSpec::parse(&pairs(&[("xid_rate", "94:2")]), 32).unwrap();
        let b = ScenarioSpec::parse(&pairs(&[("xid_rate", "48:2")]), 32).unwrap();
        assert_eq!(a.canonical(), b.canonical());
        assert!(a.canonical().contains("xid_rate=48:2"), "{}", a.canonical());
        // Xid 120 folds onto 119 (both GSP).
        let c = ScenarioSpec::parse(&pairs(&[("xid_rate", "120:3")]), 32).unwrap();
        assert!(
            c.canonical().contains("xid_rate=119:3"),
            "{}",
            c.canonical()
        );
    }

    #[test]
    fn rate_families_sort_by_canonical_code() {
        let spec =
            ScenarioSpec::parse(&pairs(&[("xid_rate", "122:2"), ("xid_rate", "31:0.5")]), 32)
                .unwrap();
        assert!(
            spec.canonical().ends_with("xid_rate=31:0.5&xid_rate=122:2"),
            "{}",
            spec.canonical()
        );
    }

    #[test]
    fn invalid_specs_are_typed_errors() {
        let cases: &[(&[(&str, &str)], &str)] = &[
            (&[("mttr_scale", "0")], "mttr_scale zero"),
            (&[("mttr_scale", "-1")], "negative"),
            (&[("mttr_scale", "nan")], "nan"),
            (&[("mttr_scale", "1e9")], "over max"),
            (&[("xid_rate", "13:2")], "unstudied xid"),
            (&[("xid_rate", "999:2")], "unknown xid"),
            (&[("xid_rate", "79")], "missing mult"),
            (&[("xid_rate", "79:0")], "zero mult"),
            (&[("sched", "lifo")], "bad sched"),
            (&[("seed", "-3")], "bad seed"),
            (&[("reps", "0")], "zero reps"),
            (&[("bogus", "1")], "unknown key"),
            (&[("mttr_scale", "0.5"), ("mttr_scale", "2")], "conflict"),
            (
                &[("xid_rate", "94:2"), ("xid_rate", "48:3")],
                "family conflict",
            ),
        ];
        for (query, label) in cases {
            let err = ScenarioSpec::parse(&pairs(query), 32);
            assert!(err.is_err(), "{label}: {err:?}");
        }
    }

    #[test]
    fn reps_over_cap_is_a_typed_error() {
        let err = ScenarioSpec::parse(&pairs(&[("reps", "9")]), 8).unwrap_err();
        assert_eq!(
            err,
            ScenarioError::RepsOverCap {
                requested: 9,
                cap: 8
            }
        );
        assert!(ScenarioSpec::parse(&pairs(&[("reps", "8")]), 8).is_ok());
    }

    #[test]
    fn campaign_is_deterministic_and_paired() {
        let spec = ScenarioSpec::parse(
            &pairs(&[("mttr_scale", "0.5"), ("reps", "2"), ("seed", "11")]),
            8,
        )
        .unwrap();
        let a = run_campaign(&spec, |_, _| {}).unwrap();
        let b = run_campaign(&spec, |_, _| {}).unwrap();
        assert_eq!(a, b);
        // Halved repair times should improve availability on average
        // (repair durations feed back into the campaign, so per-rep
        // error counts may drift slightly; the paired seeds keep the
        // comparison tight, not identical).
        let base = spread(&a.baseline, |r| r.availability);
        let scen = spread(&a.scenario, |r| r.availability);
        assert!(
            scen.mean > base.mean,
            "faster repair: {} vs {}",
            scen.mean,
            base.mean
        );
    }

    #[test]
    fn neutral_scenario_reuses_the_baseline_rep() {
        let spec = ScenarioSpec::parse(&pairs(&[("reps", "1"), ("seed", "3")]), 8).unwrap();
        let mut calls = Vec::new();
        let result = run_campaign(&spec, |done, total| calls.push((done, total))).unwrap();
        assert_eq!(result.baseline, result.scenario);
        assert_eq!(calls, vec![(1, 2), (2, 2)]);
    }

    #[test]
    fn spread_summarizes_mean_min_max() {
        let reps = [
            RepOutcome {
                errors: 1,
                reboots: 0,
                mtbe_hours: 2.0,
                availability: 0.9,
                jobs_killed: 5,
            },
            RepOutcome {
                errors: 3,
                reboots: 0,
                mtbe_hours: 4.0,
                availability: 0.8,
                jobs_killed: 7,
            },
        ];
        let s = spread(&reps, |r| r.mtbe_hours);
        assert_eq!((s.mean, s.min, s.max), (3.0, 2.0, 4.0));
        let empty = spread(&[], |r| r.mtbe_hours);
        assert_eq!((empty.mean, empty.min, empty.max), (0.0, 0.0, 0.0));
    }
}
