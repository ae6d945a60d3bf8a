//! Run-time overhead measurement (the paper's Table 7).
//!
//! The Criterion benches in `benches/` give publication-grade numbers; this
//! module provides an in-process variant so `repro table7` produces the
//! table in one run without a separate `cargo bench` invocation.

use crate::corpus::{DetectorSet, MixedAttackGenerator};
use crate::ExperimentContext;
use decamouflage_core::report::{number, MarkdownTable};
use decamouflage_core::MethodId;
use decamouflage_imaging::Image;
use decamouflage_telemetry::Histogram;
use std::time::Instant;

/// Measures mean and standard deviation of per-image wall time, in
/// milliseconds, for one scoring closure over a set of images.
///
/// The samples go through a telemetry [`Histogram`] (the same
/// log-bucketed latency histogram the live pipeline records into), whose
/// exact sum / sum-of-squares moments reproduce the mean and population
/// standard deviation the old per-sample vector computed.
pub fn time_per_image(images: &[Image], mut score: impl FnMut(&Image)) -> (f64, f64) {
    let histogram = Histogram::latency_seconds();
    for img in images {
        let start = Instant::now();
        score(img);
        histogram.record(start.elapsed().as_secs_f64());
    }
    let snapshot = histogram.snapshot();
    (snapshot.mean() * 1000.0, snapshot.stddev() * 1000.0)
}

fn title_case(word: &str) -> String {
    let mut chars = word.chars();
    match chars.next() {
        Some(first) => first.to_uppercase().collect::<String>() + chars.as_str(),
        None => String::new(),
    }
}

/// Derives the paper's Method / Metric table labels from a registry name:
/// `scaling/mse` → `("Scaling", "MSE")`, `steganalysis/peak-excess` →
/// `("Steganalysis", "Peak excess")`. A newly registered method gets a
/// readable label with no change here.
fn method_metric_labels(id: MethodId) -> (String, String) {
    let name = id.name();
    let (family, metric) = name.split_once('/').unwrap_or((name, name));
    let metric = match metric {
        "mse" | "ssim" | "csp" => metric.to_uppercase(),
        other => title_case(&other.replace('-', " ")),
    };
    (title_case(family), metric)
}

/// Table 7 — run-time overhead of each detection method. The rows come
/// straight from the method registry ([`MethodId::ALL`]) plus one
/// all-methods engine row.
pub fn table7(ctx: &ExperimentContext) -> String {
    let repeats = ctx.config.count.clamp(3, 30);
    let generator = MixedAttackGenerator::new(ctx.train_profile.clone());
    let detectors = DetectorSet::new(&ctx.train_profile);
    let images: Vec<Image> = (0..repeats).map(|i| generator.benign(i as u64)).collect();

    let mut t = MarkdownTable::new(vec![
        "Method",
        "Metric",
        "Run-time overhead (ms)",
        "Standard deviation (ms)",
    ]);
    let mut push = |method: &str, metric: &str, stats: (f64, f64)| {
        t.push_row(vec![method.to_string(), metric.to_string(), number(stats.0), number(stats.1)]);
    };

    for &id in MethodId::ALL {
        let (method, metric) = method_metric_labels(id);
        push(
            &method,
            &metric,
            time_per_image(&images, |img| {
                let _ = detectors.engine().reference_score(id, img);
            }),
        );
    }
    // Beyond the paper: every registry score from one shared-intermediate
    // engine pass, the cost a deployment running the full ensemble pays.
    push(
        "Engine (all methods)",
        "All registry methods",
        time_per_image(&images, |img| {
            let _ = detectors.engine().score(img);
        }),
    );
    // The same pass behind the quarantine layer (input validation plus the
    // catch_unwind isolation boundary) — what screening untrusted uploads
    // with fault isolation costs over the raw engine.
    push(
        "Engine (resilient)",
        "All registry methods",
        time_per_image(&images, |img| {
            let _ = detectors.engine().score_resilient(img);
        }),
    );

    format!(
        "## Table 7 — run-time overheads of the detection methods\n\n\
         (per-image wall time over {repeats} `{}` images on this machine; \
         see `cargo bench -p decamouflage-bench` for Criterion-grade numbers)\n\n{t}",
        ctx.train_profile.name
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::HarnessConfig;
    use decamouflage_datasets::DatasetProfile;

    #[test]
    fn time_per_image_returns_positive_mean() {
        let images = vec![Image::from_fn_gray(32, 32, |x, y| (x * y) as f64)];
        let (mean, std) = time_per_image(&images, |img| {
            let _ = img.mean_sample();
        });
        assert!(mean >= 0.0);
        assert!(std >= 0.0);
    }

    #[test]
    fn table7_renders_all_methods() {
        let ctx = ExperimentContext::with_profiles(
            HarnessConfig::smoke(3),
            DatasetProfile::tiny(),
            DatasetProfile::tiny(),
        );
        let s = table7(&ctx);
        assert!(s.contains("Scaling"));
        assert!(s.contains("Filtering"));
        assert!(s.contains("Steganalysis"));
        assert!(s.contains("SSIM"));
        assert!(s.contains("Peak excess"));
        assert!(s.contains("Engine (all methods)"));
        assert!(s.contains("Engine (resilient)"));
    }

    #[test]
    fn labels_derive_from_registry_names() {
        assert_eq!(
            method_metric_labels(MethodId::ScalingMse),
            ("Scaling".to_string(), "MSE".to_string())
        );
        assert_eq!(
            method_metric_labels(MethodId::PeakExcess),
            ("Steganalysis".to_string(), "Peak excess".to_string())
        );
    }
}
