//! The scaling-detection method (paper §3.1, Algorithm 1).
//!
//! Reverse-engineer the attack: downscale the input to the CNN input size,
//! upscale back, and compare with the input. Benign images survive the
//! round trip; attack images reveal the embedded target and diverge.

use crate::method::MetricKind;
use crate::DetectError;
use decamouflage_imaging::scale::{ScaleAlgorithm, Scaler};
use decamouflage_imaging::{Image, Size};
use decamouflage_metrics::{mse, ssim, SsimConfig};

/// Scaling-detection scorer: `metric(I, upscale(downscale(I)))`.
#[derive(Debug, Clone)]
pub struct ScalingDetector {
    target: Size,
    algorithm: ScaleAlgorithm,
    metric: MetricKind,
    ssim_config: SsimConfig,
}

impl ScalingDetector {
    /// Creates a detector that round-trips through `target` using
    /// `algorithm` and compares with `metric`.
    pub fn new(target: Size, algorithm: ScaleAlgorithm, metric: MetricKind) -> Self {
        Self { target, algorithm, metric, ssim_config: SsimConfig::default() }
    }

    /// Overrides the SSIM parameters (ignored for the MSE metric).
    pub fn with_ssim_config(mut self, config: SsimConfig) -> Self {
        self.ssim_config = config;
        self
    }

    /// The CNN input size the round trip passes through.
    pub const fn target(&self) -> Size {
        self.target
    }

    /// The scaling algorithm used for the round trip.
    pub const fn algorithm(&self) -> ScaleAlgorithm {
        self.algorithm
    }

    /// The comparison metric.
    pub const fn metric(&self) -> MetricKind {
        self.metric
    }

    /// The round-tripped image `S = upscale(downscale(I))` — exposed for
    /// visual inspection (the paper's Figure 17 panels).
    ///
    /// # Errors
    ///
    /// Returns [`DetectError::Imaging`] if either scaler rejects the image.
    pub fn round_tripped(&self, image: &Image) -> Result<Image, DetectError> {
        let down = Scaler::new(image.size(), self.target, self.algorithm)?.apply(image)?;
        let up = Scaler::new(self.target, image.size(), self.algorithm)?.apply(&down)?;
        Ok(up)
    }

    /// The naive reference score, computed from scratch; production code
    /// reaches it only through
    /// [`DetectionEngine::reference_score`](crate::DetectionEngine::reference_score).
    pub(crate) fn score(&self, image: &Image) -> Result<f64, DetectError> {
        let round = self.round_tripped(image)?;
        let value = match self.metric {
            MetricKind::Mse => mse(image, &round)?,
            MetricKind::Ssim => ssim(image, &round, &self.ssim_config)?,
        };
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decamouflage_attack::{craft_attack, AttackConfig};
    use decamouflage_imaging::scale::Scaler;

    fn smooth(n: usize) -> Image {
        Image::from_fn_gray(n, n, |x, y| {
            (128.0 + 60.0 * ((x as f64) * 0.06).sin() + 40.0 * ((y as f64) * 0.045).cos()).round()
        })
    }

    fn busy_target(n: usize) -> Image {
        Image::from_fn_gray(n, n, |x, y| ((x * 83 + y * 47) % 256) as f64)
    }

    fn attack_image(src: usize, dst: usize, algo: ScaleAlgorithm) -> Image {
        let scaler = Scaler::new(Size::square(src), Size::square(dst), algo).unwrap();
        craft_attack(&smooth(src), &busy_target(dst), &scaler, &AttackConfig::default())
            .unwrap()
            .image
    }

    #[test]
    fn benign_mse_is_small_attack_mse_is_large() {
        let det = ScalingDetector::new(Size::square(16), ScaleAlgorithm::Bilinear, MetricKind::Mse);
        let benign_score = det.score(&smooth(64)).unwrap();
        let attack_score = det.score(&attack_image(64, 16, ScaleAlgorithm::Bilinear)).unwrap();
        assert!(
            attack_score > 10.0 * benign_score.max(1.0),
            "benign {benign_score}, attack {attack_score}"
        );
    }

    #[test]
    fn benign_ssim_is_high_attack_ssim_is_low() {
        let det =
            ScalingDetector::new(Size::square(16), ScaleAlgorithm::Bilinear, MetricKind::Ssim);
        let benign_score = det.score(&smooth(64)).unwrap();
        let attack_score = det.score(&attack_image(64, 16, ScaleAlgorithm::Bilinear)).unwrap();
        assert!(benign_score > 0.8, "benign SSIM {benign_score}");
        assert!(attack_score < benign_score - 0.2, "attack SSIM {attack_score}");
    }

    #[test]
    fn detects_nearest_attacks_too() {
        let det = ScalingDetector::new(Size::square(16), ScaleAlgorithm::Nearest, MetricKind::Mse);
        let benign_score = det.score(&smooth(64)).unwrap();
        let attack_score = det.score(&attack_image(64, 16, ScaleAlgorithm::Nearest)).unwrap();
        assert!(attack_score > 5.0 * benign_score.max(1.0));
    }

    #[test]
    fn round_tripped_has_input_shape() {
        let det = ScalingDetector::new(Size::square(8), ScaleAlgorithm::Bilinear, MetricKind::Mse);
        let img = smooth(32);
        let rt = det.round_tripped(&img).unwrap();
        assert_eq!(rt.size(), img.size());
    }

    #[test]
    fn accessors() {
        let det = ScalingDetector::new(Size::square(8), ScaleAlgorithm::Bicubic, MetricKind::Ssim)
            .with_ssim_config(SsimConfig { radius: 3, ..SsimConfig::default() });
        assert_eq!(det.target(), Size::square(8));
        assert_eq!(det.algorithm(), ScaleAlgorithm::Bicubic);
        assert_eq!(det.metric(), MetricKind::Ssim);
    }

    #[test]
    fn black_box_mismatch_still_detects() {
        // Detector uses bilinear, attacker used nearest: the embedded
        // pixels still break the round trip.
        let det = ScalingDetector::new(Size::square(16), ScaleAlgorithm::Bilinear, MetricKind::Mse);
        let benign_score = det.score(&smooth(64)).unwrap();
        let attack_score = det.score(&attack_image(64, 16, ScaleAlgorithm::Nearest)).unwrap();
        assert!(
            attack_score > 5.0 * benign_score.max(1.0),
            "benign {benign_score}, attack {attack_score}"
        );
    }
}
