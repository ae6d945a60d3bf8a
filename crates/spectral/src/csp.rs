//! Centered spectrum point (CSP) counting — the paper's steganalysis metric.
//!
//! Pipeline (paper §3.3 and §4.2): image → 2-D DFT → `fftshift` →
//! `log(1 + |F|)` normalised to `[0, 1]` → ideal low-pass mask of radius
//! `D_T` → brightness binarisation → connected-component (contour) count.
//! Benign natural images yield a single central blob; image-scaling attack
//! images add periodic side peaks and yield two or more.

use crate::components::{label_components, Component, Connectivity};
use crate::dft2d::centered_spectrum;
use crate::spectrum::{binarize, low_pass_mask};
use decamouflage_imaging::{Channels, Image};

/// Tuning parameters of the CSP counter.
///
/// The defaults are the values used throughout the reproduction; they were
/// chosen on the *training* dataset profile and — like the paper's fixed
/// `CSP_T = 2` — transfer unchanged to other datasets.
#[derive(Debug, Clone, PartialEq)]
pub struct CspConfig {
    /// Brightness threshold in the normalised `[0, 1]` log-magnitude
    /// spectrum at and above which a sample counts as "bright".
    pub binarize_threshold: f64,
    /// Low-pass radius `D_T` expressed as a fraction of half of the smaller
    /// image dimension, so the mask scales with image size.
    pub low_pass_radius_frac: f64,
    /// Blobs smaller than this many pixels are ignored as specks.
    pub min_area: usize,
    /// Pixel connectivity for blob labelling.
    pub connectivity: Connectivity,
    /// Blobs whose centroid lies within this fraction of the half-minimum
    /// dimension from the spectrum centre are satellites of the central
    /// (DC) point and merge into it. Attack side peaks sit at
    /// `N / scale_factor` pixels from the centre — far outside this zone.
    pub center_merge_radius_frac: f64,
    /// Absolute override (in pixels) for the central merge radius. When the
    /// CNN input size is known, attack peaks always appear at least
    /// `min(target dims)` pixels from the centre, so a fixed pixel radius
    /// below that is the sharper choice
    /// (see `decamouflage_core::SteganalysisDetector::for_target`).
    pub center_merge_radius_px: Option<f64>,
}

impl Default for CspConfig {
    fn default() -> Self {
        Self {
            binarize_threshold: 0.72,
            low_pass_radius_frac: 0.9,
            min_area: 1,
            connectivity: Connectivity::Eight,
            center_merge_radius_frac: 0.2,
            center_merge_radius_px: None,
        }
    }
}

impl CspConfig {
    /// Absolute low-pass radius in pixels for an image of the given size.
    pub fn radius_for(&self, width: usize, height: usize) -> f64 {
        0.5 * width.min(height) as f64 * self.low_pass_radius_frac
    }
}

/// Result of a CSP analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct CspReport {
    /// Number of centered spectrum points: one for the merged central (DC)
    /// blob cluster plus one per outlying blob.
    pub count: usize,
    /// The raw surviving blobs (before central merging), in scan order.
    pub components: Vec<Component>,
}

impl CspReport {
    /// Distance from each blob centroid to the spectrum centre, sorted
    /// ascending. The first entry is (for benign images) the DC blob.
    pub fn centroid_distances(&self, width: usize, height: usize) -> Vec<f64> {
        let cx = (width as f64 - 1.0) / 2.0;
        let cy = (height as f64 - 1.0) / 2.0;
        let mut d: Vec<f64> = self.components.iter().map(|c| c.distance_to(cx, cy)).collect();
        d.sort_by(|a, b| a.partial_cmp(b).expect("distances are finite"));
        d
    }
}

/// Intermediate artefacts of the CSP pipeline, for visualisation and
/// debugging (mirrors the panels of the paper's Figure on contour
/// detection).
#[derive(Debug, Clone, PartialEq)]
pub struct CspArtifacts {
    /// Normalised centred log-magnitude spectrum.
    pub centered: Image,
    /// Spectrum after the ideal low-pass mask.
    pub masked: Image,
    /// Binary spectrum fed to the component labeller.
    pub binary: Image,
    /// Final report.
    pub report: CspReport,
}

/// Labels the binary spectrum, drops specks, merges central satellites and
/// produces the final point count. Shared tail of [`analyze_csp`] and
/// [`count_csp_in_spectrum_with_mags`].
fn report_from_binary(binary: &Image, config: &CspConfig) -> CspReport {
    let components: Vec<Component> = label_components(binary, config.connectivity)
        .into_iter()
        .filter(|c| c.area >= config.min_area)
        .collect();

    // Blobs inside the central merge zone are satellites of the DC point:
    // they count as one centered spectrum point together.
    let cx = (binary.width() as f64 - 1.0) / 2.0;
    let cy = (binary.height() as f64 - 1.0) / 2.0;
    let merge_radius = config.center_merge_radius_px.unwrap_or_else(|| {
        0.5 * binary.width().min(binary.height()) as f64 * config.center_merge_radius_frac
    });
    let central = components.iter().filter(|c| c.distance_to(cx, cy) <= merge_radius).count();
    let outlying = components.len() - central;
    let count = outlying + usize::from(central > 0);

    CspReport { count, components }
}

/// Runs the full CSP pipeline, returning all intermediate artefacts.
pub fn analyze_csp(img: &Image, config: &CspConfig) -> CspArtifacts {
    let centered = centered_spectrum(img);
    let radius = config.radius_for(centered.width(), centered.height());
    let masked = low_pass_mask(&centered, radius);
    let binary = binarize(&masked, config.binarize_threshold);
    let report = report_from_binary(&binary, config);
    CspArtifacts { centered, masked, binary, report }
}

/// Counts the centered spectrum points of an image (fast path without
/// keeping intermediate images alive).
pub fn count_csp(img: &Image, config: &CspConfig) -> CspReport {
    analyze_csp(img, config).report
}

/// [`count_csp`] on an already-computed, *unshifted* DFT
/// ([`crate::dft2d::dft2_planned`]) and its precomputed
/// [`crate::dft2d::Spectrum2D::log_magnitudes`] buffer, with the
/// `fftshift`, log-magnitude normalisation, low-pass mask and binarisation
/// fused into one pass over the frequency grid. An engine that needs the
/// spectrum for several methods (CSP counting, radial peak excess) runs
/// the transform and the logs — the expensive half of the pass — once and
/// feeds the same buffers to each consumer.
///
/// Every float operation matches the staged pipeline — the same
/// `ln(1 + |F|)` values, the same global maximum, the same
/// `value * scale >= threshold` predicate and the same centre-distance test
/// — so the resulting binary image, components and count are **bit-identical**
/// to [`count_csp`] (asserted by unit and property tests). Only the three
/// intermediate spectrum images and the shifted coefficient copy are gone.
///
/// # Panics
///
/// Panics if `mags` does not have one entry per coefficient.
pub fn count_csp_in_spectrum_with_mags(
    spec: &crate::dft2d::Spectrum2D,
    mags: &[f64],
    config: &CspConfig,
) -> CspReport {
    let (w, h) = (spec.width(), spec.height());
    assert_eq!(mags.len(), w * h, "log-magnitude buffer shape mismatch");
    let mut max = f64::MIN;
    for &m in mags {
        max = max.max(m);
    }
    let scale = if max > 0.0 { 1.0 / max } else { 0.0 };

    let radius = config.radius_for(w, h);
    let r2 = radius * radius;
    let cx = (w as f64 - 1.0) / 2.0;
    let cy = (h as f64 - 1.0) / 2.0;
    let (half_w, half_h) = (w / 2, h / 2);
    let mut binary = Image::zeros(w, h, Channels::Gray);
    let out = binary.plane_mut(0);
    // Inverse fftshift: centred position (x, y) reads the unshifted
    // coefficient at ((x - w/2) mod w, (y - h/2) mod h). Per row the modulo
    // splits into exactly two contiguous runs of the source row, so the
    // inner loops are stride-1 zips with no index arithmetic; the float
    // operations per pixel are unchanged (bit-identical binarisation).
    fn fuse_row(
        out: &mut [f64],
        mags: &[f64],
        dx2: &[f64],
        dy2: f64,
        r2: f64,
        scale: f64,
        threshold: f64,
    ) {
        for ((o, &m), &d2) in out.iter_mut().zip(mags).zip(dx2) {
            let masked = if d2 + dy2 > r2 { 0.0 } else { m * scale };
            *o = if masked >= threshold { 1.0 } else { 0.0 };
        }
    }
    // dx² depends only on the column, so it is hoisted into a per-width
    // table (same `(x as f64 - cx)²` operations, just computed once).
    let dx2: Vec<f64> = (0..w)
        .map(|x| {
            let dx = x as f64 - cx;
            dx * dx
        })
        .collect();
    let split = w - half_w;
    for y in 0..h {
        let dy = y as f64 - cy;
        let dy2 = dy * dy;
        let sv = (y + h - half_h) % h;
        let mags_row = &mags[sv * w..(sv + 1) * w];
        let (out_lo, out_hi) = out[y * w..(y + 1) * w].split_at_mut(half_w);
        fuse_row(
            out_lo,
            &mags_row[split..],
            &dx2[..half_w],
            dy2,
            r2,
            scale,
            config.binarize_threshold,
        );
        fuse_row(
            out_hi,
            &mags_row[..split],
            &dx2[half_w..],
            dy2,
            r2,
            scale,
            config.binarize_threshold,
        );
    }
    report_from_binary(&binary, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft2d::dft2_planned;

    /// The fused pass on a freshly planned spectrum.
    fn fused_csp(img: &Image, config: &CspConfig) -> CspReport {
        let spec = dft2_planned(img);
        count_csp_in_spectrum_with_mags(&spec, &spec.log_magnitudes(), config)
    }

    fn smooth_benign(n: usize) -> Image {
        Image::from_fn_gray(n, n, |x, y| {
            120.0
                + 60.0 * ((x as f64) * 0.07).sin()
                + 45.0 * ((y as f64) * 0.05).cos()
                + 20.0 * ((x + y) as f64 * 0.03).sin()
        })
    }

    /// A benign image with a strong period-`p` impulse comb added — the
    /// spectral signature an image-scaling attack leaves behind.
    fn combed(n: usize, p: usize) -> Image {
        let base = smooth_benign(n);
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
    fn benign_image_has_single_csp() {
        let report = count_csp(&smooth_benign(64), &CspConfig::default());
        assert_eq!(report.count, 1, "components: {:?}", report.components);
    }

    #[test]
    fn flat_image_has_single_csp() {
        let img = Image::filled(32, 32, decamouflage_imaging::Channels::Gray, 100.0);
        let report = count_csp(&img, &CspConfig::default());
        assert_eq!(report.count, 1);
    }

    #[test]
    fn periodic_comb_produces_multiple_csps() {
        let report = count_csp(&combed(64, 4), &CspConfig::default());
        assert!(report.count >= 2, "expected side peaks, got {}", report.count);
    }

    #[test]
    fn planned_csp_is_bit_identical_to_staged_pipeline() {
        let images = [
            smooth_benign(64),
            combed(64, 4),
            combed(48, 3),
            smooth_benign(33), // odd size: exercises the asymmetric shift
            Image::filled(32, 32, decamouflage_imaging::Channels::Gray, 100.0),
        ];
        let mut target_like = CspConfig::default();
        target_like.binarize_threshold = 0.66;
        target_like.center_merge_radius_px = Some(9.6);
        for config in [CspConfig::default(), target_like] {
            for img in &images {
                let staged = count_csp(img, &config);
                let fused = fused_csp(img, &config);
                assert_eq!(staged, fused, "{}x{}", img.width(), img.height());
            }
        }
    }

    #[test]
    fn benign_central_blob_sits_at_center() {
        let img = smooth_benign(64);
        let report = count_csp(&img, &CspConfig::default());
        let d = report.centroid_distances(64, 64);
        assert!(d[0] < 4.0, "central blob too far from center: {}", d[0]);
    }

    #[test]
    fn comb_side_peaks_are_off_center() {
        let report = count_csp(&combed(64, 4), &CspConfig::default());
        let d = report.centroid_distances(64, 64);
        assert!(d.last().unwrap() > &8.0, "distances: {d:?}");
    }

    #[test]
    fn artifacts_expose_pipeline_stages() {
        let art = analyze_csp(&smooth_benign(32), &CspConfig::default());
        assert_eq!(art.centered.size().width, 32);
        assert_eq!(art.masked.size().width, 32);
        assert_eq!(art.binary.size().width, 32);
        assert_eq!(art.report.count, 1);
        // Binary image is strictly 0/1.
        for &v in art.binary.plane(0) {
            assert!(v == 0.0 || v == 1.0);
        }
    }

    #[test]
    fn min_area_suppresses_specks() {
        let mut config = CspConfig::default();
        config.min_area = 10_000; // absurd floor: nothing survives
        let report = count_csp(&smooth_benign(32), &config);
        assert_eq!(report.count, 0);
    }

    #[test]
    fn radius_scales_with_image_size() {
        let config = CspConfig::default();
        assert!(config.radius_for(100, 100) > config.radius_for(50, 50));
        assert_eq!(config.radius_for(64, 32), config.radius_for(32, 64));
    }

    #[test]
    fn tight_low_pass_hides_side_peaks() {
        // With a tiny D_T the side peaks fall outside the mask: the comb
        // image degenerates to one central blob. This documents why D_T
        // must be generous.
        let mut config = CspConfig::default();
        config.low_pass_radius_frac = 0.1;
        let report = count_csp(&combed(64, 4), &config);
        assert_eq!(report.count, 1);
    }

    #[test]
    fn default_config_values_are_stable() {
        let c = CspConfig::default();
        assert_eq!(c.binarize_threshold, 0.72);
        assert_eq!(c.low_pass_radius_frac, 0.9);
        assert_eq!(c.min_area, 1);
        assert_eq!(c.connectivity, Connectivity::Eight);
        assert_eq!(c.center_merge_radius_frac, 0.2);
        assert_eq!(c.center_merge_radius_px, None);
    }

    #[test]
    fn pixel_merge_radius_overrides_fraction() {
        // A huge pixel radius swallows the comb's side peaks into the
        // central point.
        let mut config = CspConfig::default();
        config.center_merge_radius_px = Some(1000.0);
        let report = count_csp(&combed(64, 4), &config);
        assert_eq!(report.count, 1);
    }
}
