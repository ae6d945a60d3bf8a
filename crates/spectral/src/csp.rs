//! Centered spectrum point (CSP) counting — the paper's steganalysis metric.
//!
//! Pipeline (paper §3.3 and §4.2): image → 2-D DFT → `fftshift` →
//! `log(1 + |F|)` normalised to `[0, 1]` → ideal low-pass mask of radius
//! `D_T` → brightness binarisation → connected-component (contour) count.
//! Benign natural images yield a single central blob; image-scaling attack
//! images add periodic side peaks and yield two or more.

use crate::components::{label_components, label_mask, Component, Connectivity};
use crate::dft2d::{centered_spectrum, Spectrum2D};
use crate::spectrum::{binarize, low_pass_mask};
use decamouflage_imaging::Image;

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

/// Drops the specks among the labelled blobs of a `width` × `height`
/// binary spectrum, merges central satellites and produces the final point
/// count. Shared tail of [`analyze_csp`] and the fused counters.
fn report_from_components(
    components: Vec<Component>,
    width: usize,
    height: usize,
    config: &CspConfig,
) -> CspReport {
    let components: Vec<Component> =
        components.into_iter().filter(|c| c.area >= config.min_area).collect();

    // Blobs inside the central merge zone are satellites of the DC point:
    // they count as one centered spectrum point together.
    let cx = (width as f64 - 1.0) / 2.0;
    let cy = (height as f64 - 1.0) / 2.0;
    let merge_radius = config
        .center_merge_radius_px
        .unwrap_or_else(|| 0.5 * width.min(height) as f64 * config.center_merge_radius_frac);
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
    let components = label_components(&binary, config.connectivity);
    let report = report_from_components(components, binary.width(), binary.height(), config);
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
/// fused into one pass over the frequency grid.
///
/// Every float operation matches the staged pipeline — the same
/// `ln(1 + |F|)` values, the same global maximum, the same
/// `value * scale >= threshold` predicate and the same centre-distance test
/// — so the resulting binary image, components and count are **bit-identical**
/// to [`count_csp`] (asserted by unit and property tests). Only the three
/// intermediate spectrum images and the shifted coefficient copy are gone.
/// This is the full-`ln` oracle of [`count_csp_in_spectrum`], and its
/// fallback.
///
/// # Panics
///
/// Panics if `mags` does not have one entry per coefficient.
pub fn count_csp_in_spectrum_with_mags(
    spec: &Spectrum2D,
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
    let threshold = config.binarize_threshold;
    // A masked-out sample is 0.0, which a threshold <= 0 counts as bright.
    let mut mask = centred_mask(w, h, config, |i, inside| {
        (if inside { mags[i] * scale } else { 0.0 }) >= threshold
    });
    let components = label_mask(&mut mask, w, h, config.connectivity);
    report_from_components(components, w, h, config)
}

/// Relative width of the guard bands of [`count_csp_in_spectrum`]. The
/// roundings the bands must absorb (`ln`, `sqrt`, `expm1`, `1 + |F|` and
/// the products, each within a few ULPs) are near `1e-15` relative, so a
/// band a million times wider is safe and still holds almost no
/// coefficient of a real spectrum.
const GUARD: f64 = 1e-9;

/// Smallest log-domain brightness bound `threshold · max` that
/// [`count_csp_in_spectrum`] decides from `|F|²`: below it, `1 + |F|`
/// rounds in absolute steps (`2⁻⁵²`) no longer far below the band
/// `GUARD · bound`.
const MIN_LEVEL: f64 = 1e-6;

/// [`count_csp_in_spectrum_with_mags`] without a log-magnitude buffer and
/// with an exact `ln` for only a handful of coefficients; the report —
/// count and every [`Component`] — is identical.
///
/// The oracle sets a centred pixel inside the low-pass disk when
/// `ln(1 + |F|) · (1 / max) >= threshold`, with `max` the largest
/// `ln(1 + |F|)` of the grid. Both sides are monotone in `|F|²`, up to
/// roundings of a few ULPs, so this counter works on `|F|²` (two products
/// and a sum, as [`Complex64::norm`](crate::Complex64::norm) starts):
///
/// - **The maximum.** Only coefficients whose `|F|²` lies within
///   `1e-9` (relative) of the largest `|F|²` take the exact `ln`; every
///   other one is smaller by far more than `ln` can err, so the fold over
///   the band is the oracle's `max` bit for bit.
/// - **The bound.** With `L = threshold · max`, a coefficient is bright if
///   `|F|² >= expm1(L (1 + 3·1e-9))²` and dark if
///   `|F|² <= expm1(L (1 − 3·1e-9))²`; between the two it takes the exact
///   `ln` and the oracle's own predicate. Outside the band the verdict
///   holds with a margin of `1e-9 · L` in the log domain, against
///   roundings near `1e-15 · L`.
///
/// For an image with non-negative samples no `|F|` exceeds the DC term
/// `|Σ p|`, so one pass binarises against the DC term's bound while it
/// finds the true maximum; only when the two differ (negative samples,
/// rounding ties) does a second pass binarise again.
///
/// It falls back to the oracle (and its full `ln` pass) where the margins
/// are not assured: a threshold that is not positive (masked-out pixels are
/// then bright too), a spectrum whose largest `|F|` is below 1 or not
/// finite, a bound `L` below `1e-6`, or one whose magnitude
/// overflows. NaN coefficients are dark, and skipped by the maximum, in
/// both.
pub fn count_csp_in_spectrum(spec: &Spectrum2D, config: &CspConfig) -> CspReport {
    let (w, h) = (spec.width(), spec.height());
    let data = spec.as_slice();
    let threshold = config.binarize_threshold;
    let fallback = || count_csp_in_spectrum_with_mags(spec, &spec.log_magnitudes(), config);
    // Binarise against the DC term's bound while finding the true maximum.
    let guess = data.first().map(|dc| (1.0 + dc.norm()).ln());
    let mut peak = Peak::default();
    let guessed = guess.and_then(|max| Band::new(max, threshold)).map(|band| {
        // Seeding the peak with the DC term keeps its band list short.
        peak.see(data[0].norm_sqr());
        centred_mask(w, h, config, |i, inside| {
            let n2 = data[i].norm_sqr();
            peak.see(n2);
            inside && band.bright(n2)
        })
    });
    if guessed.is_none() {
        data.iter().for_each(|c| peak.see(c.norm_sqr()));
    }
    let Some(max) = peak.log_max() else { return fallback() };
    let mut mask = match guessed {
        Some(mask) if guess.map(f64::to_bits) == Some(max.to_bits()) => mask,
        _ => {
            let Some(band) = Band::new(max, threshold) else { return fallback() };
            centred_mask(w, h, config, |i, inside| inside && band.bright(data[i].norm_sqr()))
        }
    };
    let components = label_mask(&mut mask, w, h, config.connectivity);
    report_from_components(components, w, h, config)
}

/// The largest `|F|²` seen so far, and every `|F|²` seen within [`GUARD`]
/// of the running largest. That floor only rises, so the list holds every
/// value within the final band.
#[derive(Debug)]
struct Peak {
    top: f64,
    floor: f64,
    near: Vec<f64>,
}

impl Default for Peak {
    fn default() -> Self {
        Self { top: f64::MIN, floor: f64::MIN, near: Vec::new() }
    }
}

impl Peak {
    /// Records one `|F|²`; NaN is skipped, as `f64::max` skips it.
    #[inline]
    fn see(&mut self, n2: f64) {
        if n2 >= self.floor {
            self.near.push(n2);
            if n2 > self.top {
                self.top = n2;
                self.floor = n2 * (1.0 - GUARD);
            }
        }
    }

    /// The oracle's normalising maximum `max ln(1 + |F|)`, with the exact
    /// `ln` of only the band; `None` when the largest `|F|²` is below 1 or
    /// not finite.
    fn log_max(self) -> Option<f64> {
        if !(1.0..f64::INFINITY).contains(&self.top) {
            return None;
        }
        let max = self
            .near
            .into_iter()
            .filter(|&n2| n2 >= self.floor)
            .map(|n2| (1.0 + n2.sqrt()).ln())
            .fold(f64::MIN, f64::max);
        Some(max)
    }
}

/// [`count_csp_in_spectrum`]'s brightness test for one normalising
/// maximum: `|F|²` bounds `dark < bright` with the oracle's predicate
/// between them.
#[derive(Debug, Clone, Copy)]
struct Band {
    dark: f64,
    bright: f64,
    scale: f64,
    threshold: f64,
}

impl Band {
    /// The band for the normalising maximum `max`, or `None` when it cannot
    /// decide (see [`count_csp_in_spectrum`]).
    fn new(max: f64, threshold: f64) -> Option<Self> {
        let level = threshold * max;
        if level.is_nan() || level < MIN_LEVEL {
            return None;
        }
        let magnitude_squared = |factor: f64| {
            let magnitude = (level * factor).exp_m1();
            magnitude * magnitude
        };
        let bright = magnitude_squared(1.0 + 3.0 * GUARD);
        bright.is_finite().then(|| Self {
            dark: magnitude_squared(1.0 - 3.0 * GUARD),
            bright,
            scale: 1.0 / max,
            threshold,
        })
    }

    /// Whether a coefficient of squared magnitude `n2` inside the disk is
    /// bright: the oracle's `ln(1 + |F|) · scale >= threshold`.
    #[inline]
    fn bright(&self, n2: f64) -> bool {
        n2 >= self.bright
            || (n2 > self.dark && (1.0 + n2.sqrt()).ln() * self.scale >= self.threshold)
    }
}

/// The binary low-pass-masked centred spectrum as a byte mask: centred
/// position `(x, y)` reads the unshifted coefficient at index
/// `((y - h/2) mod h) · w + (x - w/2) mod w` and is set when
/// `bright(index, inside)` holds, `inside` being whether the position lies
/// within the disk of radius [`CspConfig::radius_for`]. Per row the
/// modulo splits into two contiguous runs of the source row, and the disk
/// test is the staged pipeline's `dx² + dy² > r²` on the same values.
fn centred_mask(
    w: usize,
    h: usize,
    config: &CspConfig,
    mut bright: impl FnMut(usize, bool) -> bool,
) -> Vec<u8> {
    let radius = config.radius_for(w, h);
    let r2 = radius * radius;
    let cx = (w as f64 - 1.0) / 2.0;
    let cy = (h as f64 - 1.0) / 2.0;
    // dx² depends only on the column, so it is hoisted into a per-width
    // table (same `(x as f64 - cx)²` operations, just computed once).
    let dx2: Vec<f64> = (0..w)
        .map(|x| {
            let dx = x as f64 - cx;
            dx * dx
        })
        .collect();
    let (half_w, half_h) = (w / 2, h / 2);
    let split = w - half_w;
    let mut mask = vec![0u8; w * h];
    for (y, row) in mask.chunks_exact_mut(w.max(1)).enumerate() {
        let dy = y as f64 - cy;
        let dy2 = dy * dy;
        let source = (y + h - half_h) % h * w;
        let (lo, hi) = row.split_at_mut(half_w);
        for (x, out) in lo.iter_mut().enumerate() {
            *out = u8::from(bright(source + split + x, dx2[x] + dy2 <= r2));
        }
        for (x, out) in hi.iter_mut().enumerate() {
            *out = u8::from(bright(source + x, dx2[half_w + x] + dy2 <= r2));
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft2d::dft2_planned;
    use crate::Complex64;
    use proptest::prelude::*;

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
        let target_like = CspConfig {
            binarize_threshold: 0.66,
            center_merge_radius_px: Some(9.6),
            ..CspConfig::default()
        };
        for config in [CspConfig::default(), target_like] {
            for img in &images {
                let staged = count_csp(img, &config);
                let fused = fused_csp(img, &config);
                assert_eq!(staged, fused, "{}x{}", img.width(), img.height());
                let ln_free = count_csp_in_spectrum(&dft2_planned(img), &config);
                assert_eq!(staged, ln_free, "ln-free {}x{}", img.width(), img.height());
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
        // An absurd floor: nothing survives.
        let config = CspConfig { min_area: 10_000, ..CspConfig::default() };
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
        let config = CspConfig { low_pass_radius_frac: 0.1, ..CspConfig::default() };
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
        let config = CspConfig { center_merge_radius_px: Some(1000.0), ..CspConfig::default() };
        let report = count_csp(&combed(64, 4), &config);
        assert_eq!(report.count, 1);
    }

    /// A deterministic xorshift stream, so one proptest seed builds a whole
    /// spectrum.
    struct Stream(u64);

    impl Stream {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }

        fn pick<T: Copy>(&mut self, options: &[T]) -> T {
            options[(self.next() % options.len() as u64) as usize]
        }

        /// A value in `±1` scaled by `10^k`, `k` uniform in `[0, decades)`.
        fn wide(&mut self, decades: f64) -> f64 {
            (2.0 * self.unit() - 1.0) * 10f64.powf(self.unit() * decades)
        }
    }

    /// `|F|` equal to each of `magnitudes`, one ULP below and one above.
    fn with_neighbours(magnitudes: &[f64]) -> Vec<f64> {
        magnitudes.iter().flat_map(|&m| [m.next_down(), m, m.next_up()]).collect()
    }

    /// Spectrum `kind` of `w` × `h` coefficients for `threshold`: random,
    /// random under a small DC term (so the maximum is elsewhere),
    /// magnitudes at the brightness band's edges and at the bound itself,
    /// ties at the maximum, all zero, near zero, and NaN-poisoned.
    fn adversarial_spectrum(
        kind: usize,
        w: usize,
        h: usize,
        seed: u64,
        threshold: f64,
    ) -> Spectrum2D {
        let mut rng = Stream(seed | 1);
        let n = w * h;
        let mut data: Vec<Complex64> =
            (0..n).map(|_| Complex64::new(rng.wide(4.0), rng.wide(4.0))).collect();
        let dc = 128.0 * n as f64 + 1e4;
        data[0] = Complex64::from_real(dc);
        let place = |rng: &mut Stream, data: &mut [Complex64], values: &[f64]| {
            for slot in data.iter_mut().skip(1) {
                if rng.unit() < 0.7 {
                    let value = rng.pick(values);
                    // A real or an imaginary coefficient of magnitude `value`.
                    *slot = if rng.unit() < 0.5 {
                        Complex64::new(value, 0.0)
                    } else {
                        Complex64::new(0.0, -value)
                    };
                }
            }
        };
        match kind {
            0 => {}
            1 => data[0] = Complex64::new(0.5, -0.25),
            2 => {
                let max = (1.0 + dc).ln();
                let mut edges = vec![(threshold * max).exp_m1()];
                if let Some(band) = Band::new(max, threshold) {
                    edges.extend([band.dark.sqrt(), band.bright.sqrt()]);
                }
                let edges: Vec<f64> = edges.into_iter().filter(|m| m.is_finite()).collect();
                if !edges.is_empty() {
                    place(&mut rng, &mut data, &with_neighbours(&edges));
                }
            }
            3 => {
                let a = 1.0 + rng.unit() * 100.0;
                data[0] = Complex64::new(3.0 * a, 4.0 * a);
                let top = data[0].norm();
                place(&mut rng, &mut data, &with_neighbours(&[top, top * (1.0 - GUARD)]));
                for slot in data.iter_mut().skip(1) {
                    if rng.unit() < 0.2 {
                        *slot = Complex64::new(4.0 * a, -3.0 * a);
                    }
                }
            }
            4 => data.iter_mut().for_each(|c| *c = Complex64::ZERO),
            5 => {
                for c in &mut data {
                    let scale = 10f64.powf(-rng.unit() * 320.0);
                    *c = Complex64::new(rng.wide(0.0) * scale, rng.wide(0.0) * scale);
                }
            }
            _ => {
                for c in data.iter_mut() {
                    if rng.unit() < 0.2 {
                        *c = Complex64::new(f64::NAN, rng.wide(2.0));
                    }
                }
            }
        }
        Spectrum2D::from_parts(w, h, data)
    }

    const THRESHOLDS: [f64; 11] =
        [0.72, 0.66, 0.3, 0.95, 1.0, 0.0, -0.5, f64::NAN, 1.5, 1e-9, 1e-5];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(600))]

        #[test]
        fn ln_free_count_matches_the_full_ln_oracle(
            kind in 0usize..7,
            w in 1usize..=13,
            h in 1usize..=13,
            seed in any::<u64>(),
            threshold_choice in 0usize..=THRESHOLDS.len(),
            random_threshold in 0.05f64..0.99,
            four in any::<bool>(),
            merge_px in any::<bool>(),
        ) {
            let threshold = THRESHOLDS.get(threshold_choice).copied().unwrap_or(random_threshold);
            let config = CspConfig {
                binarize_threshold: threshold,
                connectivity: if four { Connectivity::Four } else { Connectivity::Eight },
                center_merge_radius_px: merge_px.then_some(2.5),
                ..CspConfig::default()
            };
            let spec = adversarial_spectrum(kind, w, h, seed, threshold);
            let oracle = count_csp_in_spectrum_with_mags(&spec, &spec.log_magnitudes(), &config);
            let fast = count_csp_in_spectrum(&spec, &config);
            prop_assert_eq!(fast.count, oracle.count);
            prop_assert_eq!(fast.components, oracle.components);
        }
    }

    #[test]
    fn the_dc_term_bounds_every_magnitude_of_a_non_negative_image() {
        // The single-pass case of the ln-free counter: for samples >= 0 the
        // DC term is the largest magnitude, so its log is the maximum.
        for img in [smooth_benign(64), combed(48, 3)] {
            let spec = dft2_planned(&img);
            let mags = spec.log_magnitudes();
            let max = mags.iter().copied().fold(f64::MIN, f64::max);
            assert_eq!(mags[0].to_bits(), max.to_bits());
        }
    }
}
