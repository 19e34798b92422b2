//! RAII stage spans whose totals live in the registry.
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
//! series. The drop looks its four series up through the registry, one
//! short mutex each; spans mark stages, not items, so that runs a few
//! hundred times a second at most. While obs is disabled a drop is one
//! relaxed load.

use crate::Obs;
use std::time::Instant;

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
        if !self.obs.is_enabled() {
            return;
        }
        let us = self.start.elapsed().as_micros().min(u64::MAX as u128) as u64;
        let labels = [("span", self.name)];
        let registry = self.obs.registry();
        registry.counter("obs_span_count", &labels).inc();
        registry.counter("obs_span_items", &labels).add(self.items);
        registry.counter("obs_span_total_us", &labels).add(us);
        registry.gauge("obs_span_max_us", &labels).set_max(us);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use crate::registry::MetricValue;
    use crate::Obs;

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
}
