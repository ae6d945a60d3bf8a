//! Alternative frequency-domain detector: radial peak excess.
//!
//! An extension beyond the paper's three methods: instead of counting
//! blobs, measure how far the brightest off-centre spectral sample towers
//! over the radial background at its radius. This score is continuous —
//! unlike the integer CSP count — which makes it calibrable with the same
//! white-box / black-box machinery as the spatial methods, and a candidate
//! fourth ensemble member against adaptive attackers.
//!
//! Every `steganalysis/peak-excess` score is taken under the
//! **rectangular** window, i.e. on the unwindowed spectrum: the engine
//! pass reads the CSP transform's spectrum as is, and
//! [`DetectionEngine::reference_score`](crate::DetectionEngine::reference_score)
//! sets [`WindowKind::Rectangular`] to match it. The Hann window is only
//! this standalone detector's default, and only this module's unit tests
//! reach it. The two windows do not score alike: on those tests' 128²
//! benign/attack pair the Hann score separates the attack and the
//! rectangular one does not (the ROADMAP item "Delete what no production
//! surface runs", under "Which window is peak excess?", has the numbers).

use crate::DetectError;
use decamouflage_imaging::{Image, Size};
use decamouflage_spectral::dft2d::centered_spectrum;
use decamouflage_spectral::radial::peak_excess;
use decamouflage_spectral::window::{apply_window, WindowKind};

/// Radial peak-excess scorer over a windowed spectrum.
///
/// The window defaults to Hann, but the method's scores — the engine's and
/// [`DetectionEngine::reference_score`](crate::DetectionEngine::reference_score)'s
/// — always use [`WindowKind::Rectangular`]; only this module's unit tests
/// score with the default (see the module docs).
#[derive(Debug, Clone)]
pub struct PeakExcessDetector {
    window: WindowKind,
    min_radius_frac: f64,
    max_radius_frac: f64,
}

impl PeakExcessDetector {
    /// Creates a detector with the default configuration (Hann window,
    /// which no engine score uses; radii between 10% and 90% of the
    /// half-minimum dimension).
    pub fn new() -> Self {
        Self { window: WindowKind::Hann, min_radius_frac: 0.1, max_radius_frac: 0.9 }
    }

    /// Creates a detector whose inner exclusion radius is derived from a
    /// known CNN input size (attack peaks appear no closer than
    /// `min(target dims)` pixels from the centre).
    pub fn for_target(target: Size) -> Self {
        let mut d = Self::new();
        // Expressed later as an absolute pixel floor via min_radius_frac
        // when scoring; store the fraction of the *target*.
        d.min_radius_frac = 0.5 * target.width.min(target.height) as f64;
        d.max_radius_frac = -1.0; // marker: absolute mode
        d
    }

    /// Overrides the window function.
    #[must_use]
    pub fn with_window(mut self, window: WindowKind) -> Self {
        self.window = window;
        self
    }

    /// The window function in use.
    pub const fn window(&self) -> WindowKind {
        self.window
    }

    /// The `(min_radius, max_radius)` search band for an image of this
    /// size. Shared with the engine's fused spectrum path so both score
    /// the identical radius range.
    pub(crate) fn radii_for(&self, image: &Image) -> (usize, usize) {
        let half_min = 0.5 * image.width().min(image.height()) as f64;
        if self.max_radius_frac < 0.0 {
            // Absolute mode (for_target): inner radius in pixels, outer at
            // 90% of the half-minimum dimension.
            let inner = self.min_radius_frac.min(half_min * 0.8);
            (inner as usize, (half_min * 0.9) as usize)
        } else {
            ((half_min * self.min_radius_frac) as usize, (half_min * self.max_radius_frac) as usize)
        }
    }

    /// The naive reference score, computed from scratch; production code
    /// reaches it only through
    /// [`DetectionEngine::reference_score`](crate::DetectionEngine::reference_score).
    pub(crate) fn score(&self, image: &Image) -> Result<f64, DetectError> {
        // Gray inputs are windowed in place — no luma copy; RGB pays one
        // fused luma pass.
        let gray_storage;
        let gray = if image.channel_count() == 1 {
            image
        } else {
            gray_storage = image.to_gray();
            &gray_storage
        };
        let windowed = apply_window(gray, self.window);
        let spectrum = centered_spectrum(&windowed);
        let (min_r, max_r) = self.radii_for(image);
        Ok(peak_excess(&spectrum, min_r.max(1), max_r.max(2)))
    }
}

impl Default for PeakExcessDetector {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decamouflage_attack::{craft_attack, AttackConfig};
    use decamouflage_imaging::scale::{ScaleAlgorithm, Scaler};

    fn smooth(n: usize) -> Image {
        Image::from_fn_gray(n, n, |x, y| {
            (124.0 + 55.0 * ((x as f64) * 0.06).sin() + 45.0 * ((y as f64) * 0.05).cos()).round()
        })
    }

    fn attack_image(src: usize, dst: usize) -> Image {
        let scaler =
            Scaler::new(Size::square(src), Size::square(dst), ScaleAlgorithm::Bilinear).unwrap();
        let target = Image::from_fn_gray(dst, dst, |x, y| ((x * 83 + y * 47) % 256) as f64);
        craft_attack(&smooth(src), &target, &scaler, &AttackConfig::default()).unwrap().image
    }

    #[test]
    fn attack_scores_above_benign() {
        let det = PeakExcessDetector::for_target(Size::square(32));
        let benign = det.score(&smooth(128)).unwrap();
        let attack = det.score(&attack_image(128, 32)).unwrap();
        assert!(attack > benign + 0.05, "benign {benign:.3}, attack {attack:.3}");
    }

    #[test]
    fn builder_and_accessors() {
        let det = PeakExcessDetector::new().with_window(WindowKind::Blackman);
        assert_eq!(det.window(), WindowKind::Blackman);
        let d2 = PeakExcessDetector::default();
        assert_eq!(d2.window(), WindowKind::Hann);
    }

    #[test]
    fn scores_are_finite_on_degenerate_inputs() {
        let det = PeakExcessDetector::new();
        for img in [
            Image::filled(8, 8, decamouflage_imaging::Channels::Gray, 0.0),
            Image::filled(4, 4, decamouflage_imaging::Channels::Gray, 255.0),
            Image::from_fn_gray(16, 3, |x, y| ((x * y) % 256) as f64),
        ] {
            let s = det.score(&img).unwrap();
            assert!(s.is_finite() && s >= 0.0);
        }
    }

    #[test]
    fn target_mode_excludes_central_region() {
        let det = PeakExcessDetector::for_target(Size::square(32));
        let (min_r, max_r) = det.radii_for(&smooth(128));
        assert_eq!(min_r, 16);
        assert!(max_r > min_r);
    }
}
