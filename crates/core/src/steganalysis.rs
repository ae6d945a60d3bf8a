//! The steganalysis-detection method's configuration (paper §3.3,
//! Algorithm 3).
//!
//! Treat the attack's embedded pixels as hidden information and expose them
//! in the frequency domain: the periodic perturbation pattern creates
//! multiple bright *centered spectrum points* (CSP) where a benign image
//! has exactly one. Uniquely among the three methods, the threshold is
//! dataset-independent: `CSP_T = 2` works without any calibration. The
//! engine scores the method ([`MethodId::Csp`](crate::MethodId::Csp)).

use crate::threshold::{Direction, Threshold};
use decamouflage_imaging::Size;
use decamouflage_spectral::csp::CspConfig;

/// The paper's universal CSP threshold: two or more centered spectrum
/// points indicate an attack.
pub const CSP_UNIVERSAL_THRESHOLD: f64 = 2.0;

/// The CSP pipeline configuration for a CNN input size, and the method's
/// calibration-free threshold.
#[derive(Debug, Clone)]
pub struct SteganalysisDetector {
    config: CspConfig,
}

impl SteganalysisDetector {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_target_sets_pixel_merge_radius() {
        let det = SteganalysisDetector::for_target(Size::square(112));
        assert_eq!(det.config().center_merge_radius_px, Some(67.2));
        assert_eq!(det.config().binarize_threshold, 0.66);
    }
}
