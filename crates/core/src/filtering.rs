//! The filtering-detection method (paper §3.2, Algorithm 2).
//!
//! Apply a minimum filter to the input and compare with the input. The
//! target pixels embedded by an image-scaling attack are local outliers in
//! an otherwise smooth neighbourhood, so the filter changes an attack image
//! far more than a benign one.

use crate::method::MetricKind;
use crate::DetectError;
use decamouflage_imaging::filter::{rank_filter, RankKind};
use decamouflage_imaging::Image;
use decamouflage_metrics::{mse, ssim, SsimConfig};

/// Filtering-detection scorer: `metric(I, rank_filter(I))`.
#[derive(Debug, Clone)]
pub struct FilteringDetector {
    window: usize,
    kind: RankKind,
    metric: MetricKind,
    ssim_config: SsimConfig,
}

impl FilteringDetector {
    /// Creates the paper's configuration: a 2x2 **minimum** filter compared
    /// with `metric`.
    pub fn new(metric: MetricKind) -> Self {
        Self { window: 2, kind: RankKind::Minimum, metric, ssim_config: SsimConfig::default() }
    }

    /// Overrides the filter window side (default 2).
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn with_window(mut self, window: usize) -> Self {
        assert!(window > 0, "window must be >= 1");
        self.window = window;
        self
    }

    /// Overrides the rank kind (default [`RankKind::Minimum`]; the paper
    /// shows minimum reveals the target best — median/maximum are exposed
    /// for the comparison figure).
    pub fn with_rank(mut self, kind: RankKind) -> Self {
        self.kind = kind;
        self
    }

    /// Overrides the SSIM parameters (ignored for the MSE metric).
    pub fn with_ssim_config(mut self, config: SsimConfig) -> Self {
        self.ssim_config = config;
        self
    }

    /// Filter window side.
    pub const fn window(&self) -> usize {
        self.window
    }

    /// Rank statistic used.
    pub const fn rank(&self) -> RankKind {
        self.kind
    }

    /// The comparison metric.
    pub const fn metric(&self) -> MetricKind {
        self.metric
    }

    /// The filtered image `F` — exposed for visual inspection (the paper's
    /// filter-comparison figure).
    ///
    /// # Errors
    ///
    /// Returns [`DetectError::Imaging`] for an invalid window.
    pub fn filtered(&self, image: &Image) -> Result<Image, DetectError> {
        Ok(rank_filter(image, self.window, self.kind)?)
    }

    /// The naive reference score, computed from scratch; production code
    /// reaches it only through
    /// [`DetectionEngine::reference_score`](crate::DetectionEngine::reference_score).
    pub(crate) fn score(&self, image: &Image) -> Result<f64, DetectError> {
        let filtered = self.filtered(image)?;
        let value = match self.metric {
            MetricKind::Mse => mse(image, &filtered)?,
            MetricKind::Ssim => ssim(image, &filtered, &self.ssim_config)?,
        };
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decamouflage_attack::{craft_attack, AttackConfig};
    use decamouflage_imaging::scale::{ScaleAlgorithm, Scaler};
    use decamouflage_imaging::Size;

    fn smooth(n: usize) -> Image {
        Image::from_fn_gray(n, n, |x, y| {
            (128.0 + 55.0 * ((x as f64) * 0.05).sin() + 45.0 * ((y as f64) * 0.04).cos()).round()
        })
    }

    fn attack_image(src: usize, dst: usize) -> Image {
        let scaler =
            Scaler::new(Size::square(src), Size::square(dst), ScaleAlgorithm::Bilinear).unwrap();
        let target = Image::from_fn_gray(dst, dst, |x, y| ((x * 83 + y * 47) % 256) as f64);
        craft_attack(&smooth(src), &target, &scaler, &AttackConfig::default()).unwrap().image
    }

    #[test]
    fn attack_images_score_higher_mse() {
        let det = FilteringDetector::new(MetricKind::Mse);
        let benign = det.score(&smooth(64)).unwrap();
        let attack = det.score(&attack_image(64, 16)).unwrap();
        assert!(attack > 2.0 * benign, "benign {benign}, attack {attack}");
    }

    #[test]
    fn attack_images_score_lower_ssim() {
        let det = FilteringDetector::new(MetricKind::Ssim);
        let benign = det.score(&smooth(64)).unwrap();
        let attack = det.score(&attack_image(64, 16)).unwrap();
        assert!(attack < benign, "benign {benign}, attack {attack}");
    }

    #[test]
    fn default_is_two_by_two_minimum() {
        let det = FilteringDetector::new(MetricKind::Mse);
        assert_eq!(det.window(), 2);
        assert_eq!(det.rank(), RankKind::Minimum);
        assert_eq!(det.metric(), MetricKind::Mse);
    }

    #[test]
    fn builders_override_settings() {
        let det = FilteringDetector::new(MetricKind::Ssim)
            .with_window(3)
            .with_rank(RankKind::Median)
            .with_ssim_config(SsimConfig { radius: 3, ..SsimConfig::default() });
        assert_eq!(det.window(), 3);
        assert_eq!(det.rank(), RankKind::Median);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_panics() {
        let _ = FilteringDetector::new(MetricKind::Mse).with_window(0);
    }

    #[test]
    fn every_rank_kind_separates_attacks_from_benign() {
        // The paper picks the minimum filter for its visual target reveal;
        // quantitatively all three rank filters must put attack images
        // clearly above benign ones under MSE.
        let benign = smooth(64);
        let attack = attack_image(64, 16);
        for kind in [RankKind::Minimum, RankKind::Median, RankKind::Maximum] {
            let det = FilteringDetector::new(MetricKind::Mse).with_rank(kind);
            let ratio = det.score(&attack).unwrap() / det.score(&benign).unwrap().max(1e-9);
            assert!(ratio > 2.0, "{kind:?} ratio only {ratio}");
        }
    }

    #[test]
    fn filtered_image_exposed() {
        let det = FilteringDetector::new(MetricKind::Mse);
        let img = smooth(16);
        let f = det.filtered(&img).unwrap();
        assert_eq!(f.size(), img.size());
    }
}
