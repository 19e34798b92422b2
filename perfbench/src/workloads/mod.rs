//! The four workloads and what they share: the run context, the outcome
//! record, and readers for the counters the binaries export.

pub mod analyze;
pub mod ingest;
pub mod query;
pub mod whatif;

use crate::binaries::Binaries;
use crate::spans::{self, Recorder};
use crate::stats;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

/// Everything a workload needs to run.
#[derive(Debug)]
pub struct Ctx<'a> {
    /// Input seed.
    pub seed: u64,
    /// How long to measure.
    pub seconds: Duration,
    /// The binaries under test.
    pub bins: &'a Binaries,
    /// This run's scratch directory.
    pub dir: &'a Path,
    /// The checkout root (span and trace dumps go under `.bench_out`).
    pub root: &'a Path,
    /// Load threads and connections (the core count).
    pub clients: usize,
    /// Whether to follow the measured run with the traced one.
    pub trace: bool,
}

/// One end-to-end figure under the issue's own name, printed for humans.
#[derive(Debug, Clone)]
pub struct Named {
    /// Metric name, e.g. `read_p99_us`.
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed or refused, plus failed output checks.
    pub failed: u64,
    /// Output checks that did not hold.
    pub problems: Vec<String>,
    /// Median set-up time of the process under test, seconds.
    pub setup_s: f64,
    /// Median latency of the workload's unit operation, ms.
    pub p50_ms: f64,
    /// Tail latency of the unit operation, ms (percentile per workload).
    pub tail_ms: f64,
    /// Unit operations completed per second.
    pub ops_per_s: f64,
    /// Peak RSS of the process under test, MiB.
    pub peak_rss_mib: f64,
    /// The workload's figures under the issue's names.
    pub named: Vec<Named>,
    /// Per-layer metrics (traced run only).
    pub layers: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a failed output check.
    pub fn problem(&mut self, what: String) {
        self.failed += 1;
        self.problems.push(what);
    }

    /// Adds a human-readable end-to-end figure.
    pub fn name(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.named.push(Named { name, value, unit });
    }

    /// Adds the fail ratio figure (failed ÷ attempted).
    pub fn name_fail_ratio(&mut self) {
        let ratio = self.failed as f64 / self.attempted.max(1) as f64;
        self.name("fail_ratio", ratio, "ratio");
    }
}

/// Quantile of samples (0 without samples).
pub fn q(samples: &[f64], quantile: f64) -> f64 {
    stats::quantile(samples, quantile).unwrap_or(0.0)
}

/// Median of samples (0 without samples).
pub fn med(samples: &[f64]) -> f64 {
    stats::median(samples).unwrap_or(0.0)
}

/// Latency and rate per one-second window of a run, each reported as the
/// median over the run's full windows. A burst of interference on the
/// shared machine then moves one window, not the run's figure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Windowed {
    /// Median over windows of the window's median latency, ms.
    pub p50_ms: f64,
    /// Median over windows of the window's tail latency, ms.
    pub tail_ms: f64,
    /// Median over windows of completions per second.
    pub per_s: f64,
}

impl Windowed {
    /// From `(start offset s, latency ms)` samples; `tail` is the
    /// quantile reported as `tail_ms`. The last, partial window is
    /// dropped unless it is the only one.
    pub fn of(samples: &[(f64, f64)], tail: f64) -> Windowed {
        let mut windows: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for &(t, ms) in samples {
            windows.entry(t.max(0.0) as u64).or_default().push(ms);
        }
        if windows.len() > 1 {
            windows.pop_last();
        }
        let pick = |f: &dyn Fn(&Vec<f64>) -> f64| med(&windows.values().map(f).collect::<Vec<_>>());
        Windowed {
            p50_ms: pick(&|w| q(w, 0.5)),
            tail_ms: pick(&|w| q(w, tail)),
            per_s: pick(&|w| w.len() as f64),
        }
    }
}

/// Sum of every sample of metric `name` (any labels) in a Prometheus
/// text exposition.
pub fn prom_sum(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            let metric = series.split('{').next()?;
            (metric == name).then(|| value.parse::<f64>().ok())?
        })
        .sum::<f64>()
        + 0.0 // an empty float sum is -0.0
}

/// The sample of `name` whose label set contains `label` (e.g.
/// `span="servd_ingest_publish"`), or 0.
pub fn prom_labeled(text: &str, name: &str, label: &str) -> f64 {
    text.lines()
        .filter(|l| l.starts_with(&format!("{name}{{")) && l.contains(label))
        .filter_map(|l| l.rsplit_once(' ')?.1.parse::<f64>().ok())
        .sum()
}

/// Guard counters that should read zero on every workload.
pub fn guards(metrics: &str, layers: &mut BTreeMap<&'static str, f64>) {
    let rejected = prom_sum(metrics, "servd_connections_rejected_total")
        + prom_sum(metrics, "servd_ingest_rejected_total")
        + prom_sum(metrics, "servd_whatif_rejected_total");
    layers.insert("servd.rejected", rejected);
    layers.insert(
        "servd.whatif_cache_hits",
        prom_sum(metrics, "servd_whatif_cache_hits_total"),
    );
    layers.insert(
        "obs.spans_dropped",
        prom_sum(metrics, "obs_spans_dropped_total"),
    );
}

/// Mean self time per span of `name`, in `unit_ns` units (1e3 → µs,
/// 1e6 → ms), or total when `mean` is false.
pub fn self_time(rec: &Recorder, name: &str, unit_ns: f64, mean: bool) -> f64 {
    let times = spans::self_times(&rec.spans());
    match times.get(name) {
        Some(&(ns, n)) if mean => ns as f64 / unit_ns / n.max(1) as f64,
        Some(&(ns, _)) => ns as f64 / unit_ns,
        None => 0.0,
    }
}

/// Writes `bytes` to `<root>/.bench_out/<name>`.
fn write_out(root: &Path, name: &str, bytes: &[u8]) -> Result<(), String> {
    let dir = root.join(".bench_out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, bytes).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// Writes the traced run's spans as JSON lines under `.bench_out`.
pub fn write_spans(root: &Path, workload: &str, seed: u64, rec: &Recorder) -> Result<(), String> {
    write_out(
        root,
        &format!("spans-{workload}-seed{seed}.jsonl"),
        rec.to_jsonl().as_bytes(),
    )
}

/// Writes a `/debug/traces?slowest=` dump under `.bench_out`, so stalled
/// requests of the run can be attributed afterwards.
pub fn dump_traces(ctx: &Ctx, workload: &str, body: &[u8]) -> Result<(), String> {
    write_out(
        ctx.root,
        &format!("traces-{workload}-seed{}.json", ctx.seed),
        body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXPOSITION: &str = "\
# TYPE servd_cache_hits_total counter
servd_cache_hits_total 30
# TYPE servd_ingest_rejected_total counter
servd_ingest_rejected_total{reason=\"gap\"} 1
servd_ingest_rejected_total{reason=\"wal\"} 2
# TYPE servd_request_duration_us histogram
servd_request_duration_us_bucket{le=\"+Inf\"} 4
servd_request_duration_us_sum 120
servd_request_duration_us_count 4
obs_span_total_us{span=\"servd_ingest_publish\"} 5000
obs_span_total_us{span=\"servd_store_build\"} 700
";

    #[test]
    fn windowed_figures_are_medians_over_full_windows() {
        let mut samples = Vec::new();
        for w in 0..5u32 {
            // Window 2 is disturbed: few completions, slow ones.
            let (n, ms) = if w == 2 {
                (10, 50.0)
            } else {
                (100, 1.0 + f64::from(w))
            };
            for i in 0..n {
                samples.push((f64::from(w) + f64::from(i) / f64::from(n), ms));
            }
        }
        samples.push((5.2, 999.0)); // partial last window, dropped
        let w = Windowed::of(&samples, 0.99);
        assert_eq!(w.per_s, 100.0);
        // Windows 0, 1, 3, 4 have latencies 1, 2, 4, 5 and window 2 has 50.
        assert_eq!(w.p50_ms, 4.0);
        assert_eq!(w.tail_ms, 4.0);
    }

    #[test]
    fn prometheus_samples_sum_across_labels() {
        assert_eq!(prom_sum(EXPOSITION, "servd_cache_hits_total"), 30.0);
        assert_eq!(prom_sum(EXPOSITION, "servd_ingest_rejected_total"), 3.0);
        assert_eq!(prom_sum(EXPOSITION, "servd_request_duration_us_sum"), 120.0);
        assert_eq!(prom_sum(EXPOSITION, "servd_request_duration_us"), 0.0);
        assert_eq!(prom_sum(EXPOSITION, "absent"), 0.0);
        assert_eq!(
            prom_labeled(
                EXPOSITION,
                "obs_span_total_us",
                "span=\"servd_ingest_publish\""
            ),
            5000.0
        );
    }
}
