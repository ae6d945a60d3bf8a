//! `benchmark compare A B`: two sets of saved runs, judged against the
//! end-to-end bounds in `BENCHMARK.json`.
//!
//! A and B are files holding the standard output of any number of runs;
//! every `workload metric value unit` line of an end-to-end metric is a
//! sample. For each workload and metric the medians and quartiles of both
//! sides are printed, and the pair passes when B's median is no worse
//! than A's by more than the metric's bound.

use crate::json;
use crate::report::{Better, END_TO_END};
use crate::stats::quartiles;
use crate::workload::WORKLOADS;
use std::collections::BTreeMap;
use std::path::Path;

type Samples = BTreeMap<(String, String), Vec<f64>>;

/// Collects the end-to-end metric lines of saved run output.
fn samples(text: &str) -> Samples {
    let mut samples = Samples::new();
    for line in text.lines() {
        let mut tokens = line.split_whitespace();
        let (Some(workload), Some(metric), Some(value)) =
            (tokens.next(), tokens.next(), tokens.next())
        else {
            continue;
        };
        let known = WORKLOADS.iter().any(|w| w.name == workload)
            && END_TO_END.iter().any(|m| m.name == metric);
        if let (true, Ok(value)) = (known, value.parse::<f64>()) {
            samples.entry((workload.to_string(), metric.to_string())).or_default().push(value);
        }
    }
    samples
}

/// The bound of each end-to-end metric, from `BENCHMARK.json`.
fn bounds(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let doc = json::parse(text)?;
    let listed =
        doc.get("end_to_end").and_then(json::Value::as_array).ok_or("no end_to_end list")?;
    listed
        .iter()
        .map(|entry| {
            let name =
                entry.get("name").and_then(json::Value::as_str).ok_or("metric without a name")?;
            let bound =
                entry.get("bound").and_then(json::Value::as_f64).ok_or("metric without a bound")?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

/// How much worse `b` is than `a`, as a share of `a` (negative when better).
fn worsening(a: f64, b: f64, better: Better) -> f64 {
    let change = (b - a) / a.abs().max(f64::MIN_POSITIVE);
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// Prints the comparison table; `Ok(false)` when any pair is outside its
/// bound or missing from one side.
pub fn compare(a: &Path, b: &Path, benchmark_json: &Path) -> Result<bool, String> {
    let read = |path: &Path| {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
    };
    let bounds = bounds(&read(benchmark_json)?)?;
    let (a, b) = (samples(&read(a)?), samples(&read(b)?));
    if a.is_empty() || b.is_empty() {
        return Err("no metric lines found; pass saved `benchmark run` output".into());
    }
    println!(
        "{:<15} {:<17} {:<6} {:>30} {:>30} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "better",
        "A median [q1, q3] (n)",
        "B median [q1, q3] (n)",
        "worse",
        "bound"
    );
    let mut all_within = true;
    let keys: std::collections::BTreeSet<_> = a.keys().chain(b.keys()).collect();
    for key in keys {
        let (workload, metric) = key;
        let def =
            END_TO_END.iter().find(|m| m.name == metric).expect("only known metrics are kept");
        let bound = *bounds.get(metric.as_str()).ok_or_else(|| format!("{metric} has no bound"))?;
        let (Some(sa), Some(sb)) = (a.get(key), b.get(key)) else {
            println!("{workload:<15} {metric:<17} missing on one side");
            all_within = false;
            continue;
        };
        let (qa, qb) = (quartiles(sa), quartiles(sb));
        let worse = worsening(qa[1], qb[1], def.better);
        let within = worse <= bound;
        all_within &= within;
        let side = |q: [f64; 3], n: usize| format!("{:.4} [{:.4}, {:.4}] ({n})", q[1], q[0], q[2]);
        println!(
            "{workload:<15} {metric:<17} {:<6} {:>30} {:>30} {:>7.2}% {:>5.1}%  {}",
            def.better.name(),
            side(qa, sa.len()),
            side(qb, sb.len()),
            worse * 100.0,
            bound * 100.0,
            if within { "within" } else { "OUTSIDE" }
        );
    }
    Ok(all_within)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collects_only_end_to_end_metric_lines() {
        let text = "scan-paper throughput_per_s 10.5 1/s  # note\n\
                    scan-paper codec.decode_us 3 us\n\
                    {\"correct\": true}\n\
                    unknown-workload setup_s 1 s\n\
                    scan-paper throughput_per_s 11.5 1/s\n";
        let samples = samples(text);
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[&("scan-paper".into(), "throughput_per_s".into())], vec![10.5, 11.5]);
    }

    #[test]
    fn worsening_respects_the_direction() {
        assert!((worsening(100.0, 110.0, Better::Lower) - 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, Better::Higher) + 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, Better::Higher) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn reads_bounds_from_benchmark_json() {
        let bounds = bounds(r#"{"end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}"#)
            .unwrap();
        assert_eq!(bounds["setup_s"], 0.25);
        assert!(super::bounds("{}").is_err());
    }
}
