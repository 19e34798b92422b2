//! Exposition: snapshotting an [`Obs`](crate::Obs) into an
//! [`ObsReport`] and rendering it as Prometheus text format or JSON.
//!
//! Both renderings are deterministic for a given snapshot: metrics sort
//! by `(name, labels)`. Span totals are ordinary registry series
//! (`obs_span_*{span=...}`) and render like any other.

use crate::registry::{LabelSet, MetricSnapshot, MetricValue};
use crate::Obs;
use std::fmt::Write as _;

/// A point-in-time snapshot of everything the process recorded.
#[derive(Debug, Clone)]
pub struct ObsReport {
    /// Registry contents, sorted by `(name, labels)`.
    pub metrics: Vec<MetricSnapshot>,
}

impl ObsReport {
    /// Snapshots `obs` now.
    pub fn gather(obs: &Obs) -> Self {
        ObsReport {
            metrics: obs.registry().snapshot(),
        }
    }

    /// Renders Prometheus text exposition format (`# TYPE` comments,
    /// one sample per line, histograms as cumulative `le` buckets).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_name = "";
        for m in &self.metrics {
            if m.name != last_name {
                let kind = match &m.value {
                    MetricValue::Counter(_) => "counter",
                    MetricValue::Gauge(_) => "gauge",
                    MetricValue::Histogram(_) => "histogram",
                };
                let _ = writeln!(out, "# TYPE {} {kind}", m.name);
                last_name = m.name;
            }
            match &m.value {
                MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "{}{} {v}", m.name, prom_labels(&m.labels, None));
                }
                MetricValue::Histogram(h) => {
                    let mut cumulative = 0u64;
                    for (i, count) in h.counts.iter().enumerate() {
                        cumulative += count;
                        let le = match h.bounds.get(i) {
                            Some(b) => b.to_string(),
                            None => "+Inf".to_owned(),
                        };
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {cumulative}",
                            m.name,
                            prom_labels(&m.labels, Some(&le))
                        );
                    }
                    let labels = prom_labels(&m.labels, None);
                    let _ = writeln!(out, "{}_sum{labels} {}", m.name, h.sum);
                    let _ = writeln!(out, "{}_count{labels} {}", m.name, h.count);
                }
            }
        }
        out
    }

    /// Renders the same snapshot as a single JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"metrics\": [");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            let _ = write!(out, "\"name\": \"{}\", ", escape(m.name));
            out.push_str("\"labels\": {");
            for (j, (k, v)) in m.labels.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "\"{}\": \"{}\"", escape(k), escape(v));
            }
            out.push_str("}, ");
            match &m.value {
                MetricValue::Counter(v) => {
                    let _ = write!(out, "\"type\": \"counter\", \"value\": {v}");
                }
                MetricValue::Gauge(v) => {
                    let _ = write!(out, "\"type\": \"gauge\", \"value\": {v}");
                }
                MetricValue::Histogram(h) => {
                    out.push_str("\"type\": \"histogram\", \"buckets\": [");
                    let mut cumulative = 0u64;
                    for (k, count) in h.counts.iter().enumerate() {
                        cumulative += count;
                        if k > 0 {
                            out.push_str(", ");
                        }
                        match h.bounds.get(k) {
                            Some(b) => {
                                let _ = write!(out, "{{\"le\": {b}, \"count\": {cumulative}}}");
                            }
                            None => {
                                let _ =
                                    write!(out, "{{\"le\": \"+Inf\", \"count\": {cumulative}}}");
                            }
                        }
                    }
                    let _ = write!(out, "], \"sum\": {}, \"count\": {}", h.sum, h.count);
                }
            }
            out.push('}');
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

fn prom_labels(labels: &LabelSet, le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", escape(v));
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "le=\"{le}\"");
    }
    out.push('}');
    out
}

/// Escapes a string for a Prometheus label value or a JSON string:
/// backslash, double quote and newline per the text-format spec, any
/// other control character as `\u00XX` (a superset JSON also accepts).
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::registry::DURATION_US_BUCKETS;

    fn sample_obs() -> Obs {
        let obs = Obs::new();
        obs.registry()
            .counter("hpclog_lines_scanned_total", &[])
            .add(120);
        obs.registry()
            .counter("faultsim_events_total", &[("kind", "mmu")])
            .add(3);
        obs.registry()
            .gauge("core_tie_buffer_high_water", &[])
            .set(5);
        let h = obs
            .registry()
            .histogram("core_checkpoint_encode_us", &[], DURATION_US_BUCKETS);
        h.observe(75);
        h.observe(300_000);
        {
            let mut s = obs.span("stage_scan");
            s.add_items(120);
        }
        obs
    }

    #[test]
    fn prometheus_rendering_has_types_buckets_and_spans() {
        let text = sample_obs().report().to_prometheus();
        assert!(text.contains("# TYPE hpclog_lines_scanned_total counter"));
        assert!(text.contains("hpclog_lines_scanned_total 120"));
        assert!(text.contains("faultsim_events_total{kind=\"mmu\"} 3"));
        assert!(text.contains("# TYPE core_checkpoint_encode_us histogram"));
        assert!(text.contains("core_checkpoint_encode_us_bucket{le=\"100\"} 1"));
        assert!(text.contains("core_checkpoint_encode_us_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("core_checkpoint_encode_us_count 2"));
        assert!(text.contains("# TYPE obs_span_count counter"));
        assert!(text.contains("obs_span_items{span=\"stage_scan\"} 120"));
        assert!(text.contains("# TYPE obs_span_max_us gauge"));
        assert!(text.contains("obs_spans_dropped_total 0"));
    }

    #[test]
    fn prometheus_buckets_are_cumulative() {
        let text = sample_obs().report().to_prometheus();
        let mut last = 0u64;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("core_checkpoint_encode_us_bucket") {
                let v: u64 = rest.split_whitespace().last().unwrap().parse().unwrap();
                assert!(v >= last, "buckets must be monotone: {line}");
                last = v;
            }
        }
        assert_eq!(last, 2);
    }

    #[test]
    fn json_rendering_is_valid_and_complete() {
        let json = sample_obs().report().to_json();
        crate::check::validate_json(&json).unwrap();
        assert!(json.contains("\"name\": \"hpclog_lines_scanned_total\""));
        assert!(json.contains("\"type\": \"histogram\""));
        assert!(json.contains("\"le\": \"+Inf\""));
        assert!(json.contains("\"labels\": {\"span\": \"stage_scan\"}"));
    }

    #[test]
    fn label_values_are_escaped() {
        let obs = Obs::new();
        obs.registry()
            .counter("weird_total", &[("k", "a\"b\\c\nd")])
            .inc();
        let text = obs.report().to_prometheus();
        assert!(text.contains("weird_total{k=\"a\\\"b\\\\c\\nd\"} 1"));
        crate::check::validate_json(&obs.report().to_json()).unwrap();
    }

    #[test]
    fn renderings_validate_with_the_self_check() {
        let report = sample_obs().report();
        crate::check::validate_prometheus(&report.to_prometheus()).unwrap();
        crate::check::validate_json(&report.to_json()).unwrap();
    }

    /// Reverses [`escape`] per the Prometheus text-format spec: `\\`,
    /// `\"`, `\n`, plus the `\u00XX` control-char form the writer emits.
    fn unescape(s: &str) -> String {
        let mut out = String::new();
        let mut chars = s.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            match chars.next() {
                Some('\\') => out.push('\\'),
                Some('"') => out.push('"'),
                Some('n') => out.push('\n'),
                Some('u') => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let code = u32::from_str_radix(&hex, 16).unwrap();
                    out.push(char::from_u32(code).unwrap());
                }
                other => panic!("unknown escape \\{other:?}"),
            }
        }
        out
    }

    /// Pulls the quoted value of label `key` out of one sample line,
    /// escapes intact (closing quote found by skipping escape pairs).
    fn label_value_on_line<'a>(line: &'a str, key: &str) -> &'a str {
        let needle = format!("{key}=\"");
        let start = line.find(&needle).unwrap() + needle.len();
        let rest = &line[start..];
        let mut escaped = false;
        for (i, c) in rest.char_indices() {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                return &rest[..i];
            }
        }
        panic!("unterminated label value in {line}");
    }

    #[test]
    fn adversarial_label_values_round_trip_through_the_text_format() {
        // Every shape the spec calls out: lone and paired backslashes,
        // embedded quotes, newlines, and the escapes themselves as
        // literal text — plus tabs/CRs, which the writer hex-escapes.
        let cases: &[(&'static str, &str)] = &[
            ("bs", "a\\b"),
            ("bs2", "trailing\\"),
            ("bs3", "\\\\double\\\\"),
            ("quote", "say \"hi\""),
            ("nl", "line1\nline2\n"),
            ("mixed", "q=\"\\\n\"; rest"),
            ("literal", "literal \\n not a newline"),
            ("ctrl", "tab\tcr\rbell\u{7}"),
            ("unicode", "µs — naïve ✓"),
        ];
        let obs = Obs::new();
        for (i, (_, value)) in cases.iter().enumerate() {
            obs.registry()
                .counter("adv_total", &[("case", &i.to_string()), ("v", value)])
                .inc();
        }
        let text = obs.report().to_prometheus();
        // The whole exposition still validates (unique keys, parseable
        // label blocks, finite values) despite the hostile labels.
        crate::check::validate_prometheus(&text).unwrap();
        for (i, (name, value)) in cases.iter().enumerate() {
            let line = text
                .lines()
                .find(|l| l.contains(&format!("case=\"{i}\"")))
                .unwrap_or_else(|| panic!("case {name}: no sample line"));
            assert!(
                !line.contains('\r'),
                "case {name}: escapes must keep the sample on one line"
            );
            assert_eq!(
                unescape(label_value_on_line(line, "v")),
                **value,
                "case {name}: label value must round-trip"
            );
        }
        // The JSON rendering of the same registry also stays valid.
        crate::check::validate_json(&obs.report().to_json()).unwrap();
    }

    #[test]
    fn adversarial_span_names_round_trip_in_span_series() {
        let obs = Obs::new();
        {
            // Span names are 'static, but nothing stops a hostile one.
            let _s = obs.span("scan \"phase\\1\"\nend");
        }
        let text = obs.report().to_prometheus();
        crate::check::validate_prometheus(&text).unwrap();
        let line = text
            .lines()
            .find(|l| l.starts_with("obs_span_count"))
            .unwrap();
        assert_eq!(
            unescape(label_value_on_line(line, "span")),
            "scan \"phase\\1\"\nend"
        );
    }
}
