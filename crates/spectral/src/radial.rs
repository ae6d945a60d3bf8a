//! Radially averaged spectral profiles and peak-to-background statistics.
//!
//! Natural images have a monotonically decaying (`~1/f`) radial spectrum.
//! An image-scaling attack injects energy at discrete frequencies, which
//! shows up as samples far above the radial background at their radius.
//! The [`peak_excess`] statistic quantifies this without any blob counting
//! — an alternative steganalysis score (the `steganalysis/peak-excess`
//! method) and a robustness cross-check for the CSP method.

use decamouflage_imaging::Image;

/// The radially averaged profile of a centred spectrum image.
#[derive(Debug, Clone, PartialEq)]
pub struct RadialProfile {
    /// `mean[r]` is the average spectrum magnitude over all pixels whose
    /// integer distance from the centre is `r`.
    pub mean: Vec<f64>,
    /// `max[r]` is the maximum magnitude at integer radius `r`.
    pub max: Vec<f64>,
    /// Number of pixels contributing to each radius bin.
    pub count: Vec<usize>,
}

impl RadialProfile {
    /// Number of radius bins.
    pub fn len(&self) -> usize {
        self.mean.len()
    }

    /// Whether the profile is empty.
    pub fn is_empty(&self) -> bool {
        self.mean.is_empty()
    }
}

/// The integer radius of every pixel of one image shape, row-major, plus
/// the bin count. Pure geometry — it depends only on the dimensions, so
/// profiles over a corpus of same-sized spectra reuse one map instead of
/// re-deriving `sqrt(dx² + dy²).round()` per pixel per image.
#[derive(Debug)]
struct RadiusMap {
    /// `radius[y * w + x] = (dx² + dy²).sqrt().round()` — exactly the
    /// per-pixel expression of the historical loop, so the binning is
    /// bit-identical.
    radius: Vec<u32>,
    /// Number of radius bins (`max_r`).
    bins: usize,
}

impl RadiusMap {
    fn new(w: usize, h: usize) -> Self {
        let cx = (w as f64 - 1.0) / 2.0;
        let cy = (h as f64 - 1.0) / 2.0;
        let bins = ((cx * cx + cy * cy).sqrt().ceil() as usize) + 1;
        let mut radius = Vec::with_capacity(w * h);
        for y in 0..h {
            let dy = y as f64 - cy;
            let dy2 = dy * dy;
            for x in 0..w {
                let dx = x as f64 - cx;
                radius.push((dx * dx + dy2).sqrt().round() as u32);
            }
        }
        Self { radius, bins }
    }
}

thread_local! {
    /// Per-shape radius maps (spectra in a corpus share dimensions).
    static RADIUS_MAPS: std::cell::RefCell<
        std::collections::HashMap<(usize, usize), std::rc::Rc<RadiusMap>>,
    > = std::cell::RefCell::new(std::collections::HashMap::new());
}

/// Computes the radial profile of a (centred, grayscale) spectrum image.
/// RGB inputs use the first channel.
///
/// Runs as one flat row-major pass over the raw sample buffer, binning
/// through the cached per-shape `RadiusMap` — no per-sample accessor,
/// bounds assertion, or square root.
pub fn radial_profile(spectrum: &Image) -> RadialProfile {
    let (w, h) = (spectrum.width(), spectrum.height());
    let map = RADIUS_MAPS.with(|cache| {
        cache
            .borrow_mut()
            .entry((w, h))
            .or_insert_with(|| std::rc::Rc::new(RadiusMap::new(w, h)))
            .clone()
    });
    let mut sum = vec![0.0f64; map.bins];
    let mut max = vec![0.0f64; map.bins];
    let mut count = vec![0usize; map.bins];
    // Channel 0 is a contiguous plane for Gray and RGB alike, so one
    // stride-1 pass covers both cases.
    for (&r, &v) in map.radius.iter().zip(spectrum.plane(0)) {
        let r = r as usize;
        sum[r] += v;
        if v > max[r] {
            max[r] = v;
        }
        count[r] += 1;
    }
    let mean =
        sum.iter().zip(&count).map(|(s, &c)| if c > 0 { s / c as f64 } else { 0.0 }).collect();
    RadialProfile { mean, max, count }
}

/// Peak-excess statistic of a centred **log-magnitude** spectrum: the
/// largest difference `max[r] - mean[r]` over radii in
/// `[min_radius, max_radius]` (a difference of logs is a ratio of linear
/// magnitudes).
///
/// Benign spectra are radially smooth, so the excess stays small; attack
/// peaks tower over their ring's background. The `steganalysis/peak-excess`
/// method scores the unwindowed spectrum, the one the CSP count reads, so
/// the boundary-leakage cross counts towards its excess; a window
/// ([`crate::window::apply_window`]) suppresses the cross but scores on
/// another scale. Radii below `min_radius` exclude the DC blob.
pub fn peak_excess(spectrum: &Image, min_radius: usize, max_radius: usize) -> f64 {
    let profile = radial_profile(spectrum);
    let hi = max_radius.min(profile.len().saturating_sub(1));
    let mut worst = 0.0f64;
    for r in min_radius..=hi {
        if profile.count[r] == 0 {
            continue;
        }
        let excess = profile.max[r] - profile.mean[r];
        if excess > worst {
            worst = excess;
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft2d::centered_spectrum;
    use decamouflage_imaging::{Channels, Image};

    fn smooth(n: usize) -> Image {
        Image::from_fn_gray(n, n, |x, y| {
            120.0 + 60.0 * ((x as f64) * 0.06).sin() + 40.0 * ((y as f64) * 0.045).cos()
        })
    }

    fn combed(n: usize, p: usize) -> Image {
        let base = smooth(n);
        Image::from_fn_gray(n, n, |x, y| {
            let v = base.get(x, y, 0);
            if x % p == 0 && y % p == 0 {
                (v + 200.0).min(255.0)
            } else {
                v
            }
        })
    }

    #[test]
    fn flat_pass_is_bit_identical_to_per_pixel_reference() {
        let gray = smooth(17);
        let rgb = Image::from_fn_rgb(9, 13, |x, y| [((x * 5 + y * 3) % 23) as f64, 99.0, -7.0]);
        for img in [&gray, &rgb] {
            let cx = (img.width() as f64 - 1.0) / 2.0;
            let cy = (img.height() as f64 - 1.0) / 2.0;
            let max_r = ((cx * cx + cy * cy).sqrt().ceil() as usize) + 1;
            let mut sum = vec![0.0f64; max_r];
            let mut max = vec![0.0f64; max_r];
            let mut count = vec![0usize; max_r];
            for y in 0..img.height() {
                for x in 0..img.width() {
                    let dx = x as f64 - cx;
                    let dy = y as f64 - cy;
                    let r = (dx * dx + dy * dy).sqrt().round() as usize;
                    let v = img.get(x, y, 0);
                    sum[r] += v;
                    if v > max[r] {
                        max[r] = v;
                    }
                    count[r] += 1;
                }
            }
            let profile = radial_profile(img);
            assert_eq!(profile.count, count);
            assert_eq!(profile.max, max);
            for (r, (&s, &c)) in sum.iter().zip(&count).enumerate() {
                let mean = if c > 0 { s / c as f64 } else { 0.0 };
                assert!(profile.mean[r].to_bits() == mean.to_bits(), "radius {r}");
            }
        }
    }

    #[test]
    fn profile_covers_all_pixels() {
        let img = Image::filled(8, 6, Channels::Gray, 1.0);
        let profile = radial_profile(&img);
        assert_eq!(profile.count.iter().sum::<usize>(), 48);
        assert!(!profile.is_empty());
    }

    #[test]
    fn constant_spectrum_has_flat_profile() {
        let img = Image::filled(16, 16, Channels::Gray, 0.5);
        let profile = radial_profile(&img);
        for r in 0..profile.len() {
            if profile.count[r] > 0 {
                assert!((profile.mean[r] - 0.5).abs() < 1e-12);
                assert!((profile.max[r] - 0.5).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn benign_spectrum_decays_radially() {
        let spec = centered_spectrum(&smooth(64));
        let profile = radial_profile(&spec);
        // Mean magnitude near the centre exceeds the outer region.
        let inner: f64 = profile.mean[1..6].iter().sum::<f64>() / 5.0;
        let outer: f64 = profile.mean[24..30].iter().sum::<f64>() / 6.0;
        assert!(inner > outer, "inner {inner} vs outer {outer}");
    }

    fn windowed_spectrum(img: &Image) -> Image {
        centered_spectrum(&crate::window::apply_window(img, crate::window::WindowKind::Hann))
    }

    #[test]
    fn attack_peaks_raise_peak_excess() {
        let benign = peak_excess(&windowed_spectrum(&smooth(64)), 6, 30);
        let attacked = peak_excess(&windowed_spectrum(&combed(64, 4)), 6, 30);
        assert!(attacked > benign + 0.05, "benign {benign:.3}, attacked {attacked:.3}");
    }

    #[test]
    fn excess_is_nonnegative() {
        let spec = windowed_spectrum(&smooth(32));
        assert!(peak_excess(&spec, 2, 12) >= 0.0);
    }

    #[test]
    fn empty_radius_range_yields_zero() {
        let spec = centered_spectrum(&smooth(16));
        assert_eq!(peak_excess(&spec, 500, 600), 0.0);
    }
}
