//! RAII stage spans: the one record of a pipeline or request stage.
//!
//! `obs::span("stage_scan")` opens a guard; dropping it adds the stage's
//! run to four registry series labelled `span=<name>`:
//!
//! * `obs_span_count` (counter): spans completed;
//! * `obs_span_items` (counter): items the spans reported;
//! * `obs_span_total_us` (counter): summed wall time, microseconds;
//! * `obs_span_max_us` (gauge): the longest single span, microseconds.
//!
//! The totals cover every span since start-up, and they render in
//! `/metrics` and reach the `/metrics/history` store like any other
//! series. Each [`Obs`] looks a name's four series up once, on the
//! name's first drop, and keeps the handles in a name → series table:
//! a later drop is one short lock and a hash of the name. While obs is
//! disabled the series are left alone.
//!
//! If the dropping thread has entered a request trace
//! ([`crate::Trace::enter`]), the span also lands in that trace as a
//! stage, whether or not obs is enabled. A span dropped on any other
//! thread never reaches the trace.

use crate::registry::{Counter, Gauge, Registry};
use crate::Obs;
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// RAII guard for an in-flight span. Records on drop.
#[derive(Debug)]
pub struct Span<'a> {
    obs: &'a Obs,
    name: &'static str,
    start: Instant,
    items: u64,
}

impl<'a> Span<'a> {
    pub(crate) fn new(obs: &'a Obs, name: &'static str) -> Self {
        Span {
            obs,
            name,
            start: Instant::now(),
            items: 0,
        }
    }

    /// Adds to the span's item count (lines scanned, events pushed, ...).
    pub fn add_items(&mut self, n: u64) {
        self.items += n;
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let end = Instant::now();
        crate::trace::record_entered(self.name, self.start, end, self.items);
        self.obs.add_span(
            self.name,
            end.saturating_duration_since(self.start),
            self.items,
        );
    }
}

/// The four series of one span name.
#[derive(Debug)]
struct SpanSeries {
    count: Counter,
    items: Counter,
    total_us: Counter,
    max_us: Gauge,
}

/// Span name → its four series, filled on each name's first drop.
#[derive(Debug, Default)]
pub(crate) struct SpanTable(Mutex<HashMap<&'static str, SpanSeries>>);

impl SpanTable {
    /// Adds one completed span of `name` to its series in `registry`.
    pub(crate) fn add(&self, registry: &Registry, name: &'static str, took: Duration, items: u64) {
        let us = took.as_micros().min(u64::MAX as u128) as u64;
        let mut table = self.0.lock().unwrap_or_else(|e| e.into_inner());
        let series = table.entry(name).or_insert_with(|| {
            let labels = [("span", name)];
            SpanSeries {
                count: registry.counter("obs_span_count", &labels),
                items: registry.counter("obs_span_items", &labels),
                total_us: registry.counter("obs_span_total_us", &labels),
                max_us: registry.gauge("obs_span_max_us", &labels),
            }
        });
        series.count.inc();
        series.items.add(items);
        series.total_us.add(us);
        series.max_us.set_max(us);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use crate::registry::MetricValue;
    use crate::{FlightRecorder, Obs};
    use std::time::Instant;

    /// The value of `name{span="<span>"}` in `obs`, if registered.
    fn read(obs: &Obs, name: &str, span: &str) -> Option<u64> {
        obs.registry()
            .snapshot()
            .into_iter()
            .find(|m| m.name == name && m.labels == [("span", span.to_owned())])
            .and_then(|m| match m.value {
                MetricValue::Counter(v) | MetricValue::Gauge(v) => Some(v),
                MetricValue::Histogram(_) => None,
            })
    }

    #[test]
    fn spans_add_to_the_registry_on_drop() {
        let obs = Obs::new();
        for items in [41u64, 1] {
            let mut s = obs.span("stage_scan");
            s.add_items(items);
        }
        assert_eq!(read(&obs, "obs_span_count", "stage_scan"), Some(2));
        assert_eq!(read(&obs, "obs_span_items", "stage_scan"), Some(42));
    }

    #[test]
    fn every_span_is_counted_and_none_dropped() {
        let obs = Obs::new();
        for _ in 0..5_000 {
            let _s = obs.span("hot");
        }
        assert_eq!(read(&obs, "obs_span_count", "hot"), Some(5_000));
        assert_eq!(
            crate::registry::counter_total(&obs.registry().snapshot(), "obs_spans_dropped_total"),
            0
        );
    }

    #[test]
    fn max_is_the_longest_span_and_total_their_sum() {
        let obs = Obs::new();
        for ms in [1u64, 3] {
            let _s = obs.span("sleepy");
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
        let max = read(&obs, "obs_span_max_us", "sleepy").unwrap();
        let total = read(&obs, "obs_span_total_us", "sleepy").unwrap();
        assert!(max >= 3_000, "max {max} µs");
        assert!(total >= max + 1_000, "total {total} µs, max {max} µs");
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let obs = Obs::new();
        obs.set_enabled(false);
        let _ = obs.span("quiet");
        assert_eq!(read(&obs, "obs_span_count", "quiet"), None);
    }

    /// A span lands in the trace its thread has entered and in the
    /// totals; outside any trace, or on another thread, only in the
    /// totals; with obs disabled, only in the entered trace. A nested
    /// enter restores the outer trace when it ends.
    #[test]
    fn spans_land_in_the_entered_trace_and_in_the_totals() {
        let obs = Obs::new();
        let recorder = FlightRecorder::new(4);
        let (trace, inner) = (
            recorder.begin(Instant::now(), 0),
            recorder.begin(Instant::now(), 0),
        );
        drop(obs.span("outside"));
        {
            let _entered = trace.enter();
            let mut inside = obs.span("inside");
            inside.add_items(3);
            drop(inside);
            std::thread::scope(|s| {
                s.spawn(|| drop(obs.span("elsewhere")));
            });
            {
                let _inner = inner.enter();
                drop(obs.span("nested"));
            }
            obs.set_enabled(false);
            drop(obs.span("disabled"));
            obs.set_enabled(true);
        }
        drop(obs.span("after"));

        let sealed = trace.seal("GET /x", 200, 0);
        let names: Vec<&str> = sealed.stages.iter().map(|s| s.name).collect();
        assert_eq!(names, ["inside", "disabled"]);
        assert_eq!(sealed.stages[0].items, 3);
        assert_eq!(inner.seal("GET /x", 200, 0).stages[0].name, "nested");
        for name in ["outside", "inside", "elsewhere", "nested", "after"] {
            assert_eq!(read(&obs, "obs_span_count", name), Some(1), "{name}");
        }
        assert_eq!(read(&obs, "obs_span_items", "inside"), Some(3));
        assert_eq!(read(&obs, "obs_span_count", "disabled"), None);
    }
}
