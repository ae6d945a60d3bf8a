//! Apodisation (window) functions.
//!
//! The DFT implicitly treats an image as periodic; the jump between
//! opposite borders leaks energy into a bright axis-aligned cross in the
//! centred spectrum. Multiplying the image by a window that decays towards
//! the borders suppresses that cross, which sharpens the CSP statistic's
//! central blob. No method score windows: the paper does not, and peak
//! excess scores the unwindowed spectrum. The windows stay for checking the
//! CSP count under each of them (`tests/spectral_invariants.rs`) and for
//! comparing peak excess under a window with the unwindowed score.

use decamouflage_imaging::Image;
use std::f64::consts::PI;

/// Supported window shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WindowKind {
    /// No windowing (identity).
    #[default]
    Rectangular,
    /// Hann window: `0.5 (1 - cos(2πn/(N-1)))`.
    Hann,
    /// Hamming window: `0.54 - 0.46 cos(2πn/(N-1))`.
    Hamming,
    /// Blackman window (three-term).
    Blackman,
}

impl WindowKind {
    /// Window weight at position `n` of a length-`len` axis, in `[0, 1]`.
    pub fn weight(&self, n: usize, len: usize) -> f64 {
        if len <= 1 {
            return 1.0;
        }
        let x = 2.0 * PI * n as f64 / (len - 1) as f64;
        match self {
            WindowKind::Rectangular => 1.0,
            WindowKind::Hann => 0.5 * (1.0 - x.cos()),
            WindowKind::Hamming => 0.54 - 0.46 * x.cos(),
            WindowKind::Blackman => 0.42 - 0.5 * x.cos() + 0.08 * (2.0 * x).cos(),
        }
    }

    /// The full 1-D window of length `len`.
    pub fn coefficients(&self, len: usize) -> Vec<f64> {
        (0..len).map(|n| self.weight(n, len)).collect()
    }
}

/// Multiplies an image by the separable 2-D window `w(x) * w(y)`.
///
/// The mean sample value is preserved (the windowed image is re-centred on
/// the original mean) so the DC coefficient stays comparable across window
/// kinds.
pub fn apply_window(img: &Image, kind: WindowKind) -> Image {
    if kind == WindowKind::Rectangular {
        return img.clone();
    }
    let wx = kind.coefficients(img.width());
    let wy = kind.coefficients(img.height());
    let mean = img.mean_sample();
    let mut out = img.clone();
    for (y, &wy_val) in wy.iter().enumerate() {
        for (x, &wx_val) in wx.iter().enumerate() {
            let w = wx_val * wy_val;
            for c in 0..img.channel_count() {
                // Window the deviation from the mean, not the raw value:
                // borders fade to the mean instead of to black.
                let v = mean + (img.get(x, y, c) - mean) * w;
                out.set(x, y, c, v);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use decamouflage_imaging::Channels;

    #[test]
    fn rectangular_is_identity() {
        let img = Image::from_fn_gray(6, 5, |x, y| (x * y) as f64);
        assert_eq!(apply_window(&img, WindowKind::Rectangular), img);
        assert_eq!(WindowKind::Rectangular.weight(3, 10), 1.0);
    }

    #[test]
    fn hann_is_zero_at_edges_and_one_at_center() {
        let n = 11;
        assert!(WindowKind::Hann.weight(0, n).abs() < 1e-12);
        assert!(WindowKind::Hann.weight(n - 1, n).abs() < 1e-12);
        assert!((WindowKind::Hann.weight(n / 2, n) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hamming_keeps_small_edge_weight() {
        let n = 11;
        let edge = WindowKind::Hamming.weight(0, n);
        assert!((edge - 0.08).abs() < 1e-12);
    }

    #[test]
    fn blackman_is_near_zero_at_edges() {
        let n = 21;
        assert!(WindowKind::Blackman.weight(0, n).abs() < 1e-9);
        assert!((WindowKind::Blackman.weight(n / 2, n) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn windows_are_symmetric() {
        for kind in [WindowKind::Hann, WindowKind::Hamming, WindowKind::Blackman] {
            let c = kind.coefficients(16);
            for i in 0..8 {
                assert!((c[i] - c[15 - i]).abs() < 1e-12, "{kind:?} asymmetric at {i}");
            }
        }
    }

    #[test]
    fn degenerate_lengths() {
        for kind in [WindowKind::Hann, WindowKind::Hamming, WindowKind::Blackman] {
            assert_eq!(kind.weight(0, 1), 1.0);
            assert_eq!(kind.coefficients(1), vec![1.0]);
        }
    }

    #[test]
    fn windowed_image_preserves_mean_anchor() {
        let img = Image::from_fn_gray(16, 16, |x, _| (x * 16) as f64);
        let mean = img.mean_sample();
        let windowed = apply_window(&img, WindowKind::Hann);
        // Border pixels fade to the image mean.
        assert!((windowed.get(0, 0, 0) - mean).abs() < 1e-9);
        assert!((windowed.get(15, 15, 0) - mean).abs() < 1e-9);
    }

    #[test]
    fn windowing_reduces_border_discontinuity_leakage() {
        use crate::dft2d::centered_spectrum;
        // A strong horizontal ramp has a big left-right wrap discontinuity
        // that smears a bright horizontal line through the spectrum centre.
        let img = Image::from_fn_gray(64, 64, |x, _| x as f64 * 4.0);
        let plain = centered_spectrum(&img);
        let windowed = centered_spectrum(&apply_window(&img, WindowKind::Hann));
        // Compare brightness on the horizontal axis away from the centre.
        let leak = |spec: &Image| (40..60).map(|x| spec.get(x, 32, 0)).sum::<f64>() / 20.0;
        assert!(
            leak(&windowed) < leak(&plain),
            "windowing did not reduce leakage: {} vs {}",
            leak(&windowed),
            leak(&plain)
        );
    }

    #[test]
    fn rgb_windows_every_channel() {
        let img = Image::from_fn_rgb(8, 8, |x, y| [(x * 30) as f64, (y * 30) as f64, 128.0]);
        let out = apply_window(&img, WindowKind::Hann);
        assert_eq!(out.channels(), Channels::Rgb);
        assert_eq!(out.size(), img.size());
    }
}
