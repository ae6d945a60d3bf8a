//! The metric catalogue and the per-workload result a run prints.
//!
//! `BENCHMARK.json` at the repository root repeats these names, units
//! and directions and adds the regression bound of each end-to-end
//! metric; a unit test keeps the two in step.

use std::fmt::Write as _;

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub const fn name(self) -> &'static str {
        match self {
            Self::Lower => "lower",
            Self::Higher => "higher",
        }
    }
}

/// One metric: its name, unit and the direction that is better.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// What a user of the scanner or the service sees, measured with tracing
/// off. Every workload reports every one of these; the timings are
/// normalised by the host-speed probe.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s", Lower),
    def("throughput_per_s", "1/s", Higher),
    def("latency_p50_ms", "ms", Lower),
    def("peak_rss_mib", "MiB", Lower),
    def("success_ratio", "ratio", Higher),
];

/// Single-layer numbers from the traced replay. Every workload reports
/// every one of these.
pub const PER_LAYER: &[MetricDef] = &[
    def("codec.decode_us", "us", Lower),
    def("codec.decode_us.png", "us", Lower),
    def("codec.decode_us.jpeg", "us", Lower),
    def("codec.decode_us.bmp", "us", Lower),
    def("codec.decode_us.pnm", "us", Lower),
    def("codec.bytes_per_image", "B", Lower),
    def("stream.decode_blocking_share", "ratio", Lower),
    def("stream.buffer_pool_hit_ratio", "ratio", Higher),
    def("engine.validate_us", "us", Lower),
    def("engine.luma_us", "us", Lower),
    def("engine.score_us", "us", Lower),
    def("engine.score_us.s128", "us", Lower),
    def("engine.score_us.s336", "us", Lower),
    def("engine.score_us.s448", "us", Lower),
    def("engine.score_us.s560", "us", Lower),
    def("engine.vote_us", "us", Lower),
    def("engine.unattributed_share", "ratio", Lower),
    def("engine.verdict_accuracy", "ratio", Higher),
    def("scale.round_trip_us", "us", Lower),
    def("filter.rank_us", "us", Lower),
    def("metrics.ssim_reference_us", "us", Lower),
    def("metrics.ssim_score_us", "us", Lower),
    def("metrics.mse_us", "us", Lower),
    def("spectral.dft_us", "us", Lower),
    def("spectral.dft_us.s128", "us", Lower),
    def("spectral.dft_us.s336", "us", Lower),
    def("spectral.dft_us.s448", "us", Lower),
    def("spectral.dft_us.s560", "us", Lower),
    def("spectral.dft_gflops.s128", "GFLOP/s", Higher),
    def("spectral.dft_gflops.s336", "GFLOP/s", Higher),
    def("spectral.dft_gflops.s448", "GFLOP/s", Higher),
    def("spectral.dft_gflops.s560", "GFLOP/s", Higher),
    def("spectral.csp_us", "us", Lower),
    def("parallel.efficiency_2t", "ratio", Higher),
    def("persist.checkpoint_save_us", "us", Lower),
    def("persist.checkpoint_bytes", "B", Lower),
    def("persist.saves_per_pass", "count", Lower),
    def("http.parse_us", "us", Lower),
    def("http.write_us", "us", Lower),
    def("service.check_bytes_us", "us", Lower),
    def("server.request_ms_mean", "ms", Lower),
    def("server.queue_wait_ms", "ms", Lower),
    def("server.shed_ratio", "ratio", Lower),
    def("server.timeout_ratio", "ratio", Lower),
    def("server.loris_handler_share", "ratio", Lower),
    def("client.tail_latency_ms", "ms", Lower),
    def("client.lag_ms_p95", "ms", Lower),
    def("client.connect_wait_ms", "ms", Lower),
    def("host.probe_ms", "ms", Lower),
    def("trace.overhead_ratio", "ratio", Lower),
];

/// The result of one workload: its metrics in catalogue order (with a
/// free-form note each, e.g. quartiles or a sample count), plus the
/// operation counts and whether every output checked out.
#[derive(Debug)]
pub struct Report {
    catalogue: &'static [MetricDef],
    values: Vec<Option<(f64, String)>>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Report {
    pub fn new(catalogue: &'static [MetricDef]) -> Self {
        Self {
            catalogue,
            values: vec![None; catalogue.len()],
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    /// Records a metric with an explanatory note.
    ///
    /// # Panics
    ///
    /// Panics on a name outside the catalogue — a bug in this program.
    pub fn set(&mut self, name: &str, value: f64, note: impl Into<String>) {
        let slot = self
            .catalogue
            .iter()
            .position(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the catalogue"));
        self.values[slot] = Some((value, note.into()));
    }

    /// A metric recorded so far.
    pub fn value(&self, name: &str) -> Option<f64> {
        let slot = self.catalogue.iter().position(|m| m.name == name)?;
        self.values[slot].as_ref().map(|(value, _)| *value)
    }

    /// Records one failed check; the run then exits non-zero.
    pub fn problem(&mut self, message: impl Into<String>) {
        self.problems.push(message.into());
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// `workload metric value unit  # note` lines, one per metric.
    pub fn lines(&self, workload: &str) -> String {
        let mut out = String::new();
        for (metric, value) in self.catalogue.iter().zip(&self.values) {
            if let Some((value, note)) = value {
                let _ = write!(out, "{workload} {} {value} {}", metric.name, metric.unit);
                if !note.is_empty() {
                    let _ = write!(out, "  # {note}");
                }
                out.push('\n');
            }
        }
        out
    }

    /// The one-line JSON result. A metric that was never set, or that is
    /// not a finite number, is a problem of the run.
    pub fn json_line(&mut self) -> String {
        let mut metrics = Vec::new();
        for (metric, value) in self.catalogue.iter().zip(&self.values) {
            match value {
                Some((value, _)) if value.is_finite() => metrics.push(format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    metric.name, metric.unit
                )),
                Some((value, _)) => {
                    self.problems.push(format!("{} measured as {value}", metric.name));
                }
                None => self.problems.push(format!("{} was not measured", metric.name)),
            }
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::workload::WORKLOADS;

    /// Whether `name` is a valid metric or workload name.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_and_workload_names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|m| m.name)
            .chain(WORKLOADS.iter().map(|w| w.name));
        for name in names {
            assert!(valid_name(name), "{name:?} is not [A-Za-z0-9_.-]+");
            assert!(seen.insert(name), "{name:?} is used twice");
        }
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                metric.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit {:?}",
                metric.unit
            );
        }
        assert!(!valid_name("a b") && !valid_name("") && !valid_name(".x") && !valid_name("a\"b"));
    }

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).unwrap();
        let check = |key: &str, catalogue: &[MetricDef]| {
            let listed = doc.get(key).and_then(json::Value::as_array).unwrap();
            assert_eq!(listed.len(), catalogue.len(), "{key}");
            for (entry, metric) in listed.iter().zip(catalogue) {
                assert_eq!(entry.get("name").and_then(json::Value::as_str), Some(metric.name));
                assert_eq!(entry.get("unit").and_then(json::Value::as_str), Some(metric.unit));
                assert_eq!(
                    entry.get("better").and_then(json::Value::as_str),
                    Some(metric.better.name()),
                    "{}",
                    metric.name
                );
            }
        };
        check("end_to_end", END_TO_END);
        check("per_layer", PER_LAYER);
        let workloads = doc.get("workloads").and_then(json::Value::as_array).unwrap();
        let listed: Vec<&str> =
            workloads.iter().filter_map(|w| w.get("name").and_then(json::Value::as_str)).collect();
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(listed, known);
    }

    #[test]
    fn json_line_flags_unmeasured_and_non_finite_metrics() {
        let mut report = Report::new(END_TO_END);
        for (i, metric) in END_TO_END.iter().enumerate() {
            report.set(metric.name, 1.5 + i as f64, "");
        }
        report.attempted = 3;
        let line = report.json_line();
        assert!(report.correct());
        let doc = json::parse(&line).unwrap();
        assert_eq!(doc.get("correct"), Some(&json::Value::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(json::Value::as_f64), Some(3.0));
        let setup = doc.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(json::Value::as_f64), Some(1.5));
        assert_eq!(setup.get("unit").and_then(json::Value::as_str), Some("s"));

        let mut partial = Report::new(END_TO_END);
        partial.set("setup_s", f64::NAN, "");
        let line = partial.json_line();
        assert!(!partial.correct());
        assert_eq!(json::parse(&line).unwrap().get("correct"), Some(&json::Value::Bool(false)));
    }
}
