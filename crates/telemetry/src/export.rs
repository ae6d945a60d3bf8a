//! Deterministic exporters: Prometheus text exposition and JSON.
//!
//! Both exporters consume a [`RegistrySnapshot`] (already sorted by
//! `(name, labels)`) and emit no timestamps, so the same frozen registry
//! always produces byte-identical output — the property the CLI tests
//! diff against.

use crate::registry::{Labels, RegistrySnapshot};

/// Formats an `f64` the way the Prometheus text format expects:
/// `+Inf` / `-Inf` / `NaN` specials, shortest-round-trip decimal
/// otherwise (Rust's `{}` formatting for `f64` is shortest-round-trip).
fn format_value(value: f64) -> String {
    if value.is_nan() {
        "NaN".to_string()
    } else if value == f64::INFINITY {
        "+Inf".to_string()
    } else if value == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{value}")
    }
}

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline.
fn escape_label_value(value: &str) -> String {
    let mut escaped = String::with_capacity(value.len());
    for ch in value.chars() {
        match ch {
            '\\' => escaped.push_str("\\\\"),
            '"' => escaped.push_str("\\\""),
            '\n' => escaped.push_str("\\n"),
            other => escaped.push(other),
        }
    }
    escaped
}

/// Renders a label set as `{k="v",k2="v2"}`, or the empty string when
/// there are no labels. `extra` is appended last (used for `le`).
fn render_labels(labels: &Labels, extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(key, value)| format!("{key}=\"{}\"", escape_label_value(value)))
        .collect();
    if let Some((key, value)) = extra {
        parts.push(format!("{key}=\"{}\"", escape_label_value(value)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// Escapes a string for embedding in a JSON string literal: backslash,
/// double quote, and every control character. The one JSON escaper of the
/// workspace (the exporter, `serve`'s response bodies, the bench reports).
pub fn escape_json(value: &str) -> String {
    let mut escaped = String::with_capacity(value.len());
    for ch in value.chars() {
        match ch {
            '\\' => escaped.push_str("\\\\"),
            '"' => escaped.push_str("\\\""),
            '\n' => escaped.push_str("\\n"),
            '\r' => escaped.push_str("\\r"),
            '\t' => escaped.push_str("\\t"),
            control if (control as u32) < 0x20 => {
                escaped.push_str(&format!("\\u{:04x}", control as u32));
            }
            other => escaped.push(other),
        }
    }
    escaped
}

/// Renders an `f64` as a JSON value; non-finite values become strings
/// (`"NaN"`, `"+Inf"`, `"-Inf"`) since JSON has no literals for them.
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        format!("\"{}\"", format_value(value))
    }
}

/// Renders a snapshot in the Prometheus text exposition format.
///
/// Guarantees: one `# TYPE` line per metric family, families and series
/// sorted by `(name, labels)`, histograms expanded to cumulative
/// `_bucket{le=...}` series plus `_sum` and `_count`, no timestamps, and
/// a trailing newline. Output is a pure function of the snapshot.
pub fn to_prometheus_text(snapshot: &RegistrySnapshot) -> String {
    let mut out = String::new();
    let mut last_family: Option<&str> = None;

    for (name, labels, value) in &snapshot.counters {
        if last_family != Some(name.as_str()) {
            out.push_str(&format!("# TYPE {name} counter\n"));
            last_family = Some(name.as_str());
        }
        out.push_str(&format!("{name}{} {value}\n", render_labels(labels, None)));
    }
    last_family = None;
    for (name, labels, value) in &snapshot.gauges {
        if last_family != Some(name.as_str()) {
            out.push_str(&format!("# TYPE {name} gauge\n"));
            last_family = Some(name.as_str());
        }
        out.push_str(&format!("{name}{} {}\n", render_labels(labels, None), format_value(*value)));
    }
    last_family = None;
    for (name, labels, histogram) in &snapshot.histograms {
        if last_family != Some(name.as_str()) {
            out.push_str(&format!("# TYPE {name} histogram\n"));
            last_family = Some(name.as_str());
        }
        for (bound, cumulative) in histogram.cumulative() {
            let le = format_value(bound);
            out.push_str(&format!(
                "{name}_bucket{} {cumulative}\n",
                render_labels(labels, Some(("le", &le)))
            ));
        }
        out.push_str(&format!(
            "{name}_sum{} {}\n",
            render_labels(labels, None),
            format_value(histogram.sum())
        ));
        out.push_str(&format!(
            "{name}_count{} {}\n",
            render_labels(labels, None),
            histogram.count()
        ));
    }
    out
}

/// Renders one label set as a JSON object.
fn labels_json(labels: &Labels) -> String {
    let fields: Vec<String> = labels
        .iter()
        .map(|(key, value)| format!("\"{}\":\"{}\"", escape_json(key), escape_json(value)))
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// Renders a snapshot as a deterministic JSON document:
/// `{"counters":[...],"gauges":[...],"histograms":[...]}` with series in
/// the snapshot's `(name, labels)` order, no timestamps, and a trailing
/// newline. Histogram entries carry bounds, per-bucket counts, count,
/// sum, mean, stddev, and the p50/p90/p99/p999 bucket-bound quantiles.
pub fn to_json(snapshot: &RegistrySnapshot) -> String {
    let counters: Vec<String> = snapshot
        .counters
        .iter()
        .map(|(name, labels, value)| {
            format!(
                "{{\"name\":\"{}\",\"labels\":{},\"value\":{value}}}",
                escape_json(name),
                labels_json(labels)
            )
        })
        .collect();
    let gauges: Vec<String> = snapshot
        .gauges
        .iter()
        .map(|(name, labels, value)| {
            format!(
                "{{\"name\":\"{}\",\"labels\":{},\"value\":{}}}",
                escape_json(name),
                labels_json(labels),
                json_number(*value)
            )
        })
        .collect();
    let histograms: Vec<String> = snapshot
        .histograms
        .iter()
        .map(|(name, labels, histogram)| {
            let bounds: Vec<String> = histogram.bounds().iter().map(|b| json_number(*b)).collect();
            let buckets: Vec<String> =
                histogram.bucket_counts().iter().map(|c| c.to_string()).collect();
            let quantile = |q: f64| match histogram.quantile(q) {
                Some(value) => json_number(value),
                None => "null".to_string(),
            };
            format!(
                concat!(
                    "{{\"name\":\"{}\",\"labels\":{},\"bounds\":[{}],\"buckets\":[{}],",
                    "\"count\":{},\"sum\":{},\"mean\":{},\"stddev\":{},",
                    "\"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{}}}"
                ),
                escape_json(name),
                labels_json(labels),
                bounds.join(","),
                buckets.join(","),
                histogram.count(),
                json_number(histogram.sum()),
                json_number(histogram.mean()),
                json_number(histogram.stddev()),
                quantile(0.5),
                quantile(0.9),
                quantile(0.99),
                quantile(0.999),
            )
        })
        .collect();
    format!(
        "{{\n  \"counters\": [{}],\n  \"gauges\": [{}],\n  \"histograms\": [{}]\n}}\n",
        counters.join(","),
        gauges.join(","),
        histograms.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    fn sample_registry() -> MetricsRegistry {
        let registry = MetricsRegistry::new();
        registry.counter("decam_jobs_total", &[("pool", "global")]).add(7);
        registry.gauge("decam_queue_depth", &[]).set(2.0);
        let histogram = registry.histogram("decam_score_seconds", &[("method", "scaling/mse")]);
        histogram.record(0.0015);
        histogram.record(0.003);
        registry
    }

    #[test]
    fn prometheus_text_is_deterministic() {
        let registry = sample_registry();
        let a = to_prometheus_text(&registry.snapshot());
        let b = to_prometheus_text(&registry.snapshot());
        assert_eq!(a, b);
        assert!(a.ends_with('\n'));
    }

    #[test]
    fn prometheus_text_declares_types_and_series() {
        let text = to_prometheus_text(&sample_registry().snapshot());
        assert!(text.contains("# TYPE decam_jobs_total counter"));
        assert!(text.contains("decam_jobs_total{pool=\"global\"} 7"));
        assert!(text.contains("# TYPE decam_queue_depth gauge"));
        assert!(text.contains("decam_queue_depth 2"));
        assert!(text.contains("# TYPE decam_score_seconds histogram"));
        assert!(text.contains("decam_score_seconds_bucket{method=\"scaling/mse\",le=\"+Inf\"} 2"));
        assert!(text.contains("decam_score_seconds_count{method=\"scaling/mse\"} 2"));
    }

    #[test]
    fn label_values_are_escaped() {
        let registry = MetricsRegistry::new();
        registry.counter("decam_odd_total", &[("path", "a\"b\\c\nd")]).inc();
        let text = to_prometheus_text(&registry.snapshot());
        assert!(text.contains("path=\"a\\\"b\\\\c\\nd\""));
    }

    #[test]
    fn escapes_specials_and_controls() {
        assert_eq!(escape_json("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
    }

    #[test]
    fn json_numbers_spell_out_non_finite_values() {
        assert_eq!(json_number(1.5), "1.5");
        assert_eq!(json_number(f64::NAN), "\"NaN\"");
        assert_eq!(json_number(f64::INFINITY), "\"+Inf\"");
        assert_eq!(json_number(f64::NEG_INFINITY), "\"-Inf\"");
    }

    #[test]
    fn json_is_deterministic_and_structured() {
        let registry = sample_registry();
        let a = to_json(&registry.snapshot());
        let b = to_json(&registry.snapshot());
        assert_eq!(a, b);
        assert!(a.contains("\"name\":\"decam_jobs_total\""));
        assert!(a.contains("\"value\":7"));
        assert!(a.contains("\"p50\":0.002"));
        assert!(a.contains("\"p999\":0.005"), "tail quantile is part of the summary: {a}");
        assert!(a.ends_with('\n'));
    }

    #[test]
    fn empty_snapshot_exports_cleanly() {
        let registry = MetricsRegistry::new();
        assert_eq!(to_prometheus_text(&registry.snapshot()), "");
        let json = to_json(&registry.snapshot());
        assert!(json.contains("\"counters\": []"));
    }
}
