//! Framework configuration and paper-reference constants.

use decamouflage_imaging::Size;

/// Fixed input sizes of popular CNN models (the paper's Table 1). These are
/// the downscale targets an attacker aims at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModelInputSize {
    /// Model family name.
    pub model: &'static str,
    /// Expected input size in pixels.
    pub input: Size,
}

impl ModelInputSize {
    /// The paper's Table 1 catalogue.
    pub const TABLE: [ModelInputSize; 5] = [
        ModelInputSize { model: "LeNet-5", input: Size::new(32, 32) },
        ModelInputSize { model: "VGG, ResNet, GoogleNet, MobileNet", input: Size::new(224, 224) },
        ModelInputSize { model: "AlexNet", input: Size::new(227, 227) },
        ModelInputSize { model: "Inception V3/V4", input: Size::new(299, 299) },
        ModelInputSize { model: "DAVE-2 Self-Driving", input: Size::new(200, 66) },
    ];
}

/// Threshold values reported by the paper for its datasets, kept for
/// side-by-side comparison in `EXPERIMENTS.md`. They are *not* used by this
/// reproduction's detectors — thresholds are recalibrated on the synthetic
/// profiles, exactly as the paper's own procedure prescribes for a new
/// dataset.
pub mod paper {
    /// White-box scaling-detection MSE threshold (NeurIPS-2017 training set).
    pub const SCALING_MSE_THRESHOLD: f64 = 1714.96;
    /// White-box scaling-detection SSIM threshold.
    pub const SCALING_SSIM_THRESHOLD: f64 = 0.61;
    /// White-box filtering-detection MSE threshold.
    pub const FILTERING_MSE_THRESHOLD: f64 = 5682.79;
    /// White-box filtering-detection SSIM threshold.
    pub const FILTERING_SSIM_THRESHOLD: f64 = 0.38;
    /// The universal steganalysis threshold (`CSP_T`).
    pub const CSP_THRESHOLD: f64 = 2.0;

    /// Paper-reported run-time overheads (milliseconds, i5-7500) for the
    /// run-time table: `(method, metric, mean_ms, std_ms)`.
    pub const RUNTIME_MS: [(&str, &str, f64, f64); 5] = [
        ("scaling", "mse", 11.0, 5.0),
        ("scaling", "ssim", 137.0, 4.0),
        ("filtering", "mse", 11.0, 3.0),
        ("filtering", "ssim", 174.0, 6.0),
        ("steganalysis", "csp", 3.0, 1.0),
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        assert_eq!(ModelInputSize::TABLE.len(), 5);
        assert_eq!(ModelInputSize::TABLE[0].input, Size::new(32, 32));
        assert_eq!(ModelInputSize::TABLE[1].input, Size::new(224, 224));
        assert_eq!(ModelInputSize::TABLE[4].input, Size::new(200, 66));
        assert!(ModelInputSize::TABLE[4].model.contains("DAVE-2"));
    }

    #[test]
    fn paper_constants_are_plausible() {
        const {
            assert!(paper::SCALING_MSE_THRESHOLD > 0.0);
            assert!(paper::SCALING_SSIM_THRESHOLD > 0.0 && paper::SCALING_SSIM_THRESHOLD < 1.0);
            assert!(paper::FILTERING_SSIM_THRESHOLD < paper::SCALING_SSIM_THRESHOLD);
        }
        assert_eq!(paper::CSP_THRESHOLD, 2.0);
        assert_eq!(paper::RUNTIME_MS.len(), 5);
    }
}
