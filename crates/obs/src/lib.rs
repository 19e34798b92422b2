//! Zero-dependency observability for the resilience pipeline.
//!
//! The pieces, all `std`-only:
//!
//! * [`registry`] — a metrics registry of atomic counters, gauges and
//!   fixed-bucket histograms, keyed by static metric names plus label
//!   sets. Registration interns the `(name, labels)` key behind a mutex;
//!   the returned handles are `Arc`-shared atomics, so the hot path is a
//!   single relaxed atomic op with no locking.
//! * [`span`] — RAII span guards (`obs::span("stage_scan")`), the one
//!   stage record: each adds its stage's count, items, total and longest
//!   wall time to `obs_span_*{span="stage_scan"}` series in the
//!   registry, and also lands in the request trace its thread has
//!   entered, if any.
//! * [`expose`] — [`ObsReport`](expose::ObsReport): a point-in-time
//!   snapshot of the registry, rendered as Prometheus text exposition
//!   format or JSON. [`check`] validates those renderings (used by the
//!   `obs_check` smoke gate).
//! * [`trace`] — request-scoped tracing: a [`FlightRecorder`] mints a
//!   trace id per request, the spans that drop while a thread has
//!   entered the trace become its stages, and sealed traces are
//!   retained slowest-N per rolling window plus all error traces (the
//!   `/debug/traces` substrate).
//! * [`tsdb`] — a fixed-capacity ring time-series store that absorbs
//!   registry snapshots on an injected-clock cadence and serves
//!   downsampled `[from, to)` range queries (the `/metrics/history`
//!   substrate).
//!
//! # The write-only invariant
//!
//! Pipeline code only ever *writes* to the registry; nothing in any
//! analysis path reads a metric back. Instrumentation therefore
//! cannot perturb study outputs — they stay byte-identical with obs
//! enabled, disabled, or absent, at any thread count or chunking
//! (`tests/obs_equivalence.rs` proves it). Exposition is the only
//! reader, and it runs after the pipeline has produced its report.
//!
//! # Naming convention
//!
//! `<layer>_<noun>[_<unit>][_total]` with layer one of `faultsim`,
//! `hpclog`, `core`, `slurmsim` or `obs` itself. Counters end in
//! `_total`, except the three `obs_span_*` counters, which keep the
//! names their readers use; histograms carry an explicit unit (`_us`,
//! `_bytes`); gauges are plain nouns (`core_tie_buffer_high_water`).
//! Labels are reserved for low-cardinality dimensions (hazard class,
//! thread count), never per-item data.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod check;
pub mod expose;
pub mod registry;
pub mod span;
pub mod trace;
pub mod tsdb;

pub use expose::ObsReport;
pub use registry::{Counter, Gauge, Histogram, Registry};
pub use span::Span;
pub use trace::{FlightRecorder, StageRecord, Trace, TraceRecord};
pub use tsdb::{HistoryQuery, HistoryResult, Tsdb};

use span::SpanTable;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// A registry and the enable flag its handles and spans share: the
/// unit every instrumented layer writes into, and exposition reads from.
#[derive(Debug)]
pub struct Obs {
    enabled: Arc<AtomicBool>,
    registry: Registry,
    spans: SpanTable,
}

impl Obs {
    /// Creates an enabled instance.
    pub fn new() -> Self {
        let enabled = Arc::new(AtomicBool::new(true));
        let registry = Registry::new(Arc::clone(&enabled));
        // Registered at 0 so every exposition and history query has the
        // series before a trace first overflows its stage cap.
        registry.counter("obs_spans_dropped_total", &[]);
        Obs {
            enabled,
            registry,
            spans: SpanTable::default(),
        }
    }

    /// Turns recording on or off. Handles stay valid either way; while
    /// disabled every record operation is a single relaxed load.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether recording is currently on.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Opens a span; dropping the guard adds it to this registry's
    /// `obs_span_*` series.
    pub fn span(&self, name: &'static str) -> Span<'_> {
        Span::new(self, name)
    }

    /// Adds one completed stage of `name` to its `obs_span_*` series,
    /// while recording is on.
    pub(crate) fn add_span(&self, name: &'static str, took: Duration, items: u64) {
        if self.is_enabled() {
            self.spans.add(&self.registry, name, took, items);
        }
    }

    /// Snapshots the registry into an exposable report.
    pub fn report(&self) -> ObsReport {
        ObsReport::gather(self)
    }
}

impl Default for Obs {
    fn default() -> Self {
        Self::new()
    }
}

/// The process-wide instance every instrumented layer writes to.
pub fn global() -> &'static Obs {
    static GLOBAL: OnceLock<Obs> = OnceLock::new();
    GLOBAL.get_or_init(Obs::new)
}

/// Enables or disables recording on the global instance.
pub fn set_enabled(on: bool) {
    global().set_enabled(on);
}

/// Whether the global instance is recording.
pub fn is_enabled() -> bool {
    global().is_enabled()
}

/// Registers (or finds) a counter on the global registry.
pub fn counter(name: &'static str, labels: &[(&'static str, &str)]) -> Counter {
    global().registry().counter(name, labels)
}

/// Registers (or finds) a gauge on the global registry.
pub fn gauge(name: &'static str, labels: &[(&'static str, &str)]) -> Gauge {
    global().registry().gauge(name, labels)
}

/// Registers (or finds) a histogram on the global registry.
pub fn histogram(
    name: &'static str,
    labels: &[(&'static str, &str)],
    buckets: &'static [u64],
) -> Histogram {
    global().registry().histogram(name, labels, buckets)
}

/// Opens a span on the global instance; it records itself when dropped.
pub fn span(name: &'static str) -> Span<'static> {
    global().span(name)
}
