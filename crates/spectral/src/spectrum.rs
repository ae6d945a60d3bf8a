//! Low-pass masking and binarisation of centred spectra.
//!
//! These implement the middle stages of the paper's steganalysis pipeline
//! (Equation 7 and Figure "Process of computing the centered spectrum
//! points"): an ideal circular low-pass filter `H(u, v)` keeps only
//! frequencies within radius `D_T` of the centre, and a brightness threshold
//! converts the masked spectrum into a binary blob image.

use decamouflage_imaging::{Channels, Image};

/// A binary raster (0 or 1 samples) produced by [`binarize`].
pub type BinaryImage = Image;

/// Applies the paper's ideal low-pass filter to a *centred* spectrum image:
/// samples farther than `radius` (in pixels) from the image centre are set
/// to zero, everything else is kept.
///
/// `radius` is the paper's threshold `D_T`; [`crate::csp::CspConfig`]
/// expresses it as a fraction of half the smaller image side
/// ([`crate::csp::CspConfig::radius_for`]) so that it scales with image
/// size.
pub fn low_pass_mask(spectrum: &Image, radius: f64) -> Image {
    let cx = (spectrum.width() as f64 - 1.0) / 2.0;
    let cy = (spectrum.height() as f64 - 1.0) / 2.0;
    let r2 = radius * radius;
    let mut out = spectrum.clone();
    for y in 0..spectrum.height() {
        for x in 0..spectrum.width() {
            let dx = x as f64 - cx;
            let dy = y as f64 - cy;
            if dx * dx + dy * dy > r2 {
                for c in 0..spectrum.channel_count() {
                    out.set(x, y, c, 0.0);
                }
            }
        }
    }
    out
}

/// Thresholds a `[0, 1]`-normalised spectrum into a binary image: samples
/// `>= threshold` become 1, everything else 0.
pub fn binarize(spectrum: &Image, threshold: f64) -> BinaryImage {
    let mut out = Image::zeros(spectrum.width(), spectrum.height(), Channels::Gray);
    let src = spectrum.to_gray();
    for y in 0..src.height() {
        for x in 0..src.width() {
            out.set(x, y, 0, if src.get(x, y, 0) >= threshold { 1.0 } else { 0.0 });
        }
    }
    out
}

/// Fraction of samples that are set in a binary image.
pub fn fill_ratio(binary: &BinaryImage) -> f64 {
    let total = binary.plane_len() as f64;
    binary.plane(0).iter().filter(|&&v| v != 0.0).count() as f64 / total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_pass_keeps_center_kills_corners() {
        let img = Image::filled(9, 9, Channels::Gray, 1.0);
        let masked = low_pass_mask(&img, 2.0);
        assert_eq!(masked.get(4, 4, 0), 1.0);
        assert_eq!(masked.get(0, 0, 0), 0.0);
        assert_eq!(masked.get(8, 8, 0), 0.0);
        assert_eq!(masked.get(4, 2, 0), 1.0); // distance 2, on the boundary
        assert_eq!(masked.get(4, 1, 0), 0.0); // distance 3
    }

    #[test]
    fn low_pass_radius_zero_keeps_only_center_of_odd_grid() {
        let img = Image::filled(5, 5, Channels::Gray, 1.0);
        let masked = low_pass_mask(&img, 0.0);
        let ones: Vec<(usize, usize)> = (0..5)
            .flat_map(|y| (0..5).map(move |x| (x, y)))
            .filter(|&(x, y)| masked.get(x, y, 0) != 0.0)
            .collect();
        assert_eq!(ones, vec![(2, 2)]);
    }

    #[test]
    fn binarize_thresholds_inclusively() {
        let img = Image::from_gray_plane(3, 1, vec![0.2, 0.5, 0.9]).unwrap();
        let b = binarize(&img, 0.5);
        assert_eq!(b.plane(0), &[0.0, 1.0, 1.0]);
    }

    #[test]
    fn binarize_extremes() {
        let img = Image::from_gray_plane(2, 1, vec![0.0, 1.0]).unwrap();
        assert_eq!(binarize(&img, 0.0).plane(0), &[1.0, 1.0]);
        assert_eq!(binarize(&img, 1.1).plane(0), &[0.0, 0.0]);
    }

    #[test]
    fn fill_ratio_counts_set_fraction() {
        let img = Image::from_gray_plane(4, 1, vec![1.0, 0.0, 1.0, 0.0]).unwrap();
        assert_eq!(fill_ratio(&img), 0.5);
        assert_eq!(fill_ratio(&Image::zeros(3, 3, Channels::Gray)), 0.0);
    }

    #[test]
    fn mask_then_binarize_composes() {
        let img = Image::filled(9, 9, Channels::Gray, 0.8);
        let masked = low_pass_mask(&img, 1.5);
        let b = binarize(&masked, 0.5);
        assert!(fill_ratio(&b) > 0.0);
        assert!(fill_ratio(&b) < 0.2);
    }
}
