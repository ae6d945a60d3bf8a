//! The steganalysis-detection method (paper §3.3, Algorithm 3).
//!
//! Treat the attack's embedded pixels as hidden information and expose them
//! in the frequency domain: the periodic perturbation pattern creates
//! multiple bright *centered spectrum points* (CSP) where a benign image
//! has exactly one. Uniquely among the three methods, the threshold is
//! dataset-independent: `CSP_T = 2` works without any calibration.

use crate::threshold::{Direction, Threshold};
use crate::DetectError;
use decamouflage_imaging::{Image, Size};
use decamouflage_spectral::csp::{analyze_csp, count_csp, CspArtifacts, CspConfig};

/// The paper's universal CSP threshold: two or more centered spectrum
/// points indicate an attack.
pub const CSP_UNIVERSAL_THRESHOLD: f64 = 2.0;

/// Steganalysis scorer: the number of centered spectrum points.
#[derive(Debug, Clone, Default)]
pub struct SteganalysisDetector {
    config: CspConfig,
}

impl SteganalysisDetector {
    /// Creates a detector with the default CSP pipeline configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a detector with a custom CSP pipeline configuration.
    pub fn with_config(config: CspConfig) -> Self {
        Self { config }
    }

    /// Creates a detector tuned for a known CNN input size (the deployment
    /// case). The attack's periodic peaks always appear at least
    /// `min(target dims)` spectral pixels from the centre, so the central
    /// merge zone can safely extend to 60% of that distance, which in turn
    /// permits a more sensitive brightness threshold.
    pub fn for_target(target: Size) -> Self {
        let config = CspConfig {
            center_merge_radius_px: Some(0.6 * target.width.min(target.height) as f64),
            binarize_threshold: 0.66,
            ..CspConfig::default()
        };
        Self { config }
    }

    /// The CSP pipeline configuration.
    pub fn config(&self) -> &CspConfig {
        &self.config
    }

    /// The fixed, calibration-free threshold (`CSP_T = 2`).
    pub fn universal_threshold() -> Threshold {
        Threshold::new(CSP_UNIVERSAL_THRESHOLD, Direction::AboveIsAttack)
    }

    /// Full pipeline artefacts (centred spectrum, mask, binary image,
    /// blobs) for visualisation.
    pub fn analyze(&self, image: &Image) -> CspArtifacts {
        analyze_csp(image, &self.config)
    }

    /// The naive reference score (the staged CSP pipeline); production
    /// code reaches it only through
    /// [`DetectionEngine::reference_score`](crate::DetectionEngine::reference_score).
    pub(crate) fn score(&self, image: &Image) -> Result<f64, DetectError> {
        Ok(count_csp(image, &self.config).count as f64)
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
            (120.0 + 60.0 * ((x as f64) * 0.05).sin() + 40.0 * ((y as f64) * 0.035).cos()).round()
        })
    }

    fn attack_image(src: usize, dst: usize) -> Image {
        let scaler =
            Scaler::new(Size::square(src), Size::square(dst), ScaleAlgorithm::Bilinear).unwrap();
        let target = Image::from_fn_gray(dst, dst, |x, y| ((x * 83 + y * 47) % 256) as f64);
        craft_attack(&smooth(src), &target, &scaler, &AttackConfig::default()).unwrap().image
    }

    #[test]
    fn benign_has_one_point_attack_has_more() {
        let det = SteganalysisDetector::new();
        let benign = det.score(&smooth(128)).unwrap();
        let attack = det.score(&attack_image(128, 32)).unwrap();
        assert_eq!(benign, 1.0, "benign CSP {benign}");
        assert!(attack >= 2.0, "attack CSP {attack}");
    }

    #[test]
    fn universal_threshold_separates() {
        let det = SteganalysisDetector::new();
        let t = SteganalysisDetector::universal_threshold();
        assert!(!t.is_attack(det.score(&smooth(128)).unwrap()));
        assert!(t.is_attack(det.score(&attack_image(128, 32)).unwrap()));
    }

    #[test]
    fn analyze_exposes_artifacts() {
        let det = SteganalysisDetector::new();
        let art = det.analyze(&smooth(64));
        assert_eq!(art.report.count, 1);
        assert_eq!(art.binary.width(), 64);
    }

    #[test]
    fn for_target_sets_pixel_merge_radius() {
        let det = SteganalysisDetector::for_target(Size::square(112));
        assert_eq!(det.config().center_merge_radius_px, Some(67.2));
        assert_eq!(det.config().binarize_threshold, 0.66);
    }

    #[test]
    fn custom_config_is_respected() {
        let mut config = CspConfig::default();
        config.min_area = 1_000_000;
        let det = SteganalysisDetector::with_config(config.clone());
        assert_eq!(det.config(), &config);
        assert_eq!(det.score(&smooth(64)).unwrap(), 0.0);
    }
}
