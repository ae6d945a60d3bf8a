//! Structural similarity (SSIM) index — Wang et al. 2004, the paper's
//! Equation 6.
//!
//! Every SSIM score runs through one kernel, the streaming sweep behind
//! [`SsimReference`]: it blurs µa, a², and per candidate µb, b² and ab row
//! by row ([`convolve_planes_by_row`]), combines each output row as soon as
//! its vertical window is complete and adds it to the running sum in flat
//! pixel order. No blurred plane and no copy of an input is ever held;
//! [`ssim_map`], which must write a map, keeps the staged planes and is the
//! test oracle the sweep is checked against bit for bit.

use crate::error::check_same_shape;
use crate::MetricError;
use decamouflage_imaging::filter::{
    convolve_planes_by_row, convolve_planes_with_scratch, gaussian_kernel, ConvScratch, Kernel1D,
    PlaneSource,
};
use decamouflage_imaging::simd::ssim_combine;
use decamouflage_imaging::{Channels, Image};
use std::cell::RefCell;

thread_local! {
    /// Per-thread buffers of the SSIM sweep: the convolution rings and one
    /// combined row, a few rows tall each, never a full plane.
    static SWEEP_SCRATCH: RefCell<(ConvScratch, Vec<f64>)> =
        RefCell::new((ConvScratch::new(), Vec::new()));
}

/// The per-pixel SSIM formula over per-channel blurred rows or planes,
/// invoking `emit(pixel_value)` in flat pixel order. Each statistic is a
/// slice of `ch` equally long slices; the inner loop walks channels in
/// ascending order per pixel — the same per-sample, channel-inner
/// accumulation order as the historical interleaved implementation, so
/// every sum is bit-identical.
///
/// Single-channel callers use [`ssim_combine`], which runs the same
/// arithmetic vectorised, bit for bit.
#[allow(clippy::too_many_arguments)]
fn ssim_formula(
    mu_a: &[&[f64]],
    mu_b: &[&[f64]],
    a_sq: &[&[f64]],
    b_sq: &[&[f64]],
    ab: &[&[f64]],
    c1: f64,
    c2: f64,
    mut emit: impl FnMut(f64),
) {
    let ch = mu_a.len();
    let channels = ch as f64;
    for i in 0..mu_a[0].len() {
        let mut acc = 0.0;
        for c in 0..ch {
            let ma = mu_a[c][i];
            let mb = mu_b[c][i];
            let va = a_sq[c][i] - ma * ma;
            let vb = b_sq[c][i] - mb * mb;
            let cov = ab[c][i] - ma * mb;
            let numerator = (2.0 * ma * mb + c1) * (2.0 * cov + c2);
            let denominator = (ma * ma + mb * mb + c1) * (va + vb + c2);
            acc += numerator / denominator;
        }
        emit(acc / channels);
    }
}

/// SSIM parameters. Defaults follow the reference implementation used by
/// the paper's artefacts: an 11x11 Gaussian window with `sigma = 1.5`,
/// stabilisers `c1 = (0.01 L)²`, `c2 = (0.03 L)²` and dynamic range
/// `L = 255`.
#[derive(Debug, Clone, PartialEq)]
pub struct SsimConfig {
    /// Gaussian window standard deviation.
    pub sigma: f64,
    /// Gaussian window radius in pixels (window side = `2 radius + 1`).
    pub radius: usize,
    /// Luminance stabiliser weight `K1` in `c1 = (K1 L)²`.
    pub k1: f64,
    /// Contrast stabiliser weight `K2` in `c2 = (K2 L)²`.
    pub k2: f64,
    /// Dynamic range of the samples (255 for 8-bit imagery).
    pub dynamic_range: f64,
}

impl Default for SsimConfig {
    fn default() -> Self {
        Self { sigma: 1.5, radius: 5, k1: 0.01, k2: 0.03, dynamic_range: 255.0 }
    }
}

impl SsimConfig {
    fn c1(&self) -> f64 {
        let v = self.k1 * self.dynamic_range;
        v * v
    }

    fn c2(&self) -> f64 {
        let v = self.k2 * self.dynamic_range;
        v * v
    }

    /// Validates the parameters and builds the Gaussian window.
    fn kernel(&self) -> Result<Kernel1D, MetricError> {
        self.validate()?;
        gaussian_kernel(self.sigma, Some(self.radius))
            .map_err(|e| MetricError::InvalidParameter { message: e.to_string() })
    }

    fn validate(&self) -> Result<(), MetricError> {
        if !(self.sigma > 0.0 && self.sigma.is_finite()) {
            return Err(MetricError::InvalidParameter {
                message: format!("ssim sigma must be positive, got {}", self.sigma),
            });
        }
        if self.dynamic_range <= 0.0 {
            return Err(MetricError::InvalidParameter {
                message: format!("dynamic range must be positive, got {}", self.dynamic_range),
            });
        }
        Ok(())
    }
}

/// Mean SSIM index between two images of identical shape, in `[-1, 1]`
/// (1 = identical). Multi-channel images average the per-channel scores.
///
/// # Errors
///
/// Returns [`MetricError::ShapeMismatch`] for shape disagreement and
/// [`MetricError::InvalidParameter`] for unusable configuration values.
///
/// # Example
///
/// ```
/// use decamouflage_imaging::Image;
/// use decamouflage_metrics::{ssim, SsimConfig};
///
/// # fn main() -> Result<(), decamouflage_metrics::MetricError> {
/// let a = Image::from_fn_gray(32, 32, |x, y| ((x + y) * 4) as f64);
/// let noisy = a.map(|v| (v + 25.0).min(255.0));
/// let score = ssim(&a, &noisy, &SsimConfig::default())?;
/// assert!(score < 1.0 && score > 0.0);
/// # Ok(())
/// # }
/// ```
pub fn ssim(a: &Image, b: &Image, config: &SsimConfig) -> Result<f64, MetricError> {
    check_same_shape(a, b)?;
    SsimReference::new(a, config)?.score_against(b)
}

/// Per-pixel SSIM map (averaged over channels for RGB inputs).
///
/// The map is built from staged, full-size blurred planes
/// ([`convolve_planes_with_scratch`]) and its mean equals [`ssim`] bit for
/// bit, which makes it the oracle the streaming sweep is tested against.
///
/// # Errors
///
/// Same conditions as [`ssim`].
pub fn ssim_map(a: &Image, b: &Image, config: &SsimConfig) -> Result<Image, MetricError> {
    check_same_shape(a, b)?;
    let kernel = config.kernel()?;
    let ch = a.channel_count();
    let sources = statistic_sources(a, &[b]);
    let mut planes = vec![Vec::new(); 5 * ch];
    let mut outs: Vec<&mut Vec<f64>> = planes.iter_mut().collect();
    convolve_planes_with_scratch(
        &sources,
        a.width(),
        a.height(),
        &kernel,
        &kernel,
        &mut ConvScratch::new(),
        &mut outs,
    )
    .expect("separable convolution cannot fail");

    let mut map = Image::zeros(a.width(), a.height(), Channels::Gray);
    let stat = |s: usize| (0..ch).map(|c| planes[s * ch + c].as_slice()).collect::<Vec<_>>();
    let (mu_a, a_sq, mu_b, b_sq, ab) = (stat(0), stat(1), stat(2), stat(3), stat(4));
    if ch == 1 {
        ssim_combine(
            map.plane_mut(0),
            mu_a[0],
            mu_b[0],
            a_sq[0],
            b_sq[0],
            ab[0],
            config.c1(),
            config.c2(),
        );
    } else {
        let mut out = map.plane_mut(0).iter_mut();
        ssim_formula(&mu_a, &mu_b, &a_sq, &b_sq, &ab, config.c1(), config.c2(), |v| {
            *out.next().expect("map has one slot per pixel") = v;
        });
    }
    Ok(map)
}

/// The planes the SSIM statistics blur, statistic-major: index `s * ch + c`
/// holds statistic `s` of channel `c`, with µa at `s = 0`, a² at 1 and
/// candidate `k`'s µb, b² and ab at `2 + 3k`, `3 + 3k` and `4 + 3k`.
fn statistic_sources<'i>(a: &'i Image, candidates: &[&'i Image]) -> Vec<PlaneSource<'i>> {
    let mut sources = Vec::with_capacity((2 + 3 * candidates.len()) * a.channel_count());
    sources.extend(a.planes().iter().map(|p| PlaneSource::Plane(p)));
    sources.extend(a.planes().iter().map(|p| PlaneSource::Product(p, p)));
    for b in candidates {
        sources.extend(b.planes().iter().map(|p| PlaneSource::Plane(p)));
        sources.extend(b.planes().iter().map(|p| PlaneSource::Product(p, p)));
        sources.extend(a.planes().iter().zip(b.planes()).map(|(p, q)| PlaneSource::Product(p, q)));
    }
    sources
}

/// One reference image scored against any number of candidates.
///
/// [`SsimReference::new`] validates the configuration and builds the
/// Gaussian window; it copies nothing and blurs nothing. Each score is one
/// streaming sweep over the reference and its candidates:
/// [`SsimReference::score_against_each`] blurs µa and a² once and, per
/// candidate, µb, b² and ab — two candidates, as the detection engine
/// compares its input with the round trip *and* the rank filter, take eight
/// statistics in one sweep. Each output row is combined as soon as its
/// vertical window is complete and added to the candidate's running sum, so
/// the only buffers are a few rows per statistic, kept per thread.
///
/// Scores are **bit-identical** to the mean of [`ssim_map`]: every blurred
/// value takes the same operations in the same order as the staged planes
/// (the exact-equality contract of
/// [`decamouflage_imaging::filter::convolve_planes_by_row`]), the per-pixel
/// formula is the same, and the sum runs over pixels in flat order.
///
/// # Example
///
/// ```
/// use decamouflage_imaging::Image;
/// use decamouflage_metrics::{ssim, SsimConfig, SsimReference};
///
/// # fn main() -> Result<(), decamouflage_metrics::MetricError> {
/// let a = Image::from_fn_gray(24, 24, |x, y| ((x + y) * 5) as f64);
/// let b = a.map(|v| (v + 10.0).min(255.0));
/// let c = a.map(|v| 255.0 - v);
/// let reference = SsimReference::new(&a, &SsimConfig::default())?;
/// assert_eq!(reference.score_against(&b)?, ssim(&a, &b, &SsimConfig::default())?);
/// let both = reference.score_against_each(&[&b, &c])?;
/// assert_eq!(both, [reference.score_against(&b)?, reference.score_against(&c)?]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SsimReference<'a> {
    a: &'a Image,
    kernel: Kernel1D,
    config: SsimConfig,
}

impl<'a> SsimReference<'a> {
    /// Prepares `a` for scoring.
    ///
    /// # Errors
    ///
    /// Returns [`MetricError::InvalidParameter`] for unusable configuration
    /// values.
    pub fn new(a: &'a Image, config: &SsimConfig) -> Result<Self, MetricError> {
        Ok(Self { a, kernel: config.kernel()?, config: config.clone() })
    }

    /// The reference image.
    pub fn image(&self) -> &'a Image {
        self.a
    }

    /// The configuration the scores use.
    pub fn config(&self) -> &SsimConfig {
        &self.config
    }

    /// Mean SSIM of `b` against the reference; equals
    /// `ssim(reference, b, config)` bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`MetricError::ShapeMismatch`] when `b` has a different
    /// shape than the reference.
    pub fn score_against(&self, b: &Image) -> Result<f64, MetricError> {
        Ok(self.score_against_each(&[b])?[0])
    }

    /// Mean SSIM of every candidate against the reference, in one sweep
    /// that blurs the reference side once; score `k` equals
    /// [`SsimReference::score_against`] of `candidates[k]` bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`MetricError::ShapeMismatch`] when a candidate has a
    /// different shape than the reference.
    pub fn score_against_each(&self, candidates: &[&Image]) -> Result<Vec<f64>, MetricError> {
        for b in candidates {
            check_same_shape(self.a, b)?;
        }
        if candidates.is_empty() {
            return Ok(Vec::new());
        }
        let (a, w) = (self.a, self.a.width());
        let ch = a.channel_count();
        let sources = statistic_sources(a, candidates);
        let mut totals = vec![0.0; candidates.len()];
        let (c1, c2) = (self.config.c1(), self.config.c2());
        SWEEP_SCRATCH.with(|scratch| {
            let (conv, combined) = &mut *scratch.borrow_mut();
            combined.resize(w, 0.0);
            let emit = |_: usize, rows: &[f64]| {
                let stat = |s: usize, c: usize| &rows[(s * ch + c) * w..(s * ch + c + 1) * w];
                for (k, total) in totals.iter_mut().enumerate() {
                    let (mu_b, b_sq, ab) = (2 + 3 * k, 3 + 3 * k, 4 + 3 * k);
                    if ch == 1 {
                        ssim_combine(
                            combined,
                            stat(0, 0),
                            stat(mu_b, 0),
                            stat(1, 0),
                            stat(b_sq, 0),
                            stat(ab, 0),
                            c1,
                            c2,
                        );
                        for &v in combined.iter() {
                            *total += v;
                        }
                    } else {
                        let rgb = |s: usize| -> [&[f64]; 3] { std::array::from_fn(|c| stat(s, c)) };
                        let (mu_a, a_sq) = (rgb(0), rgb(1));
                        let (mu_b, b_sq, ab) = (rgb(mu_b), rgb(b_sq), rgb(ab));
                        ssim_formula(&mu_a, &mu_b, &a_sq, &b_sq, &ab, c1, c2, |v| *total += v);
                    }
                }
            };
            convolve_planes_by_row(&sources, w, a.height(), &self.kernel, &self.kernel, conv, emit)
                .expect("every plane has the reference's shape");
        });
        let pixels = (w * a.height()) as f64;
        Ok(totals.into_iter().map(|total| total / pixels).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decamouflage_imaging::Channels;

    fn texture(n: usize) -> Image {
        Image::from_fn_gray(n, n, |x, y| {
            128.0 + 80.0 * ((x as f64) * 0.3).sin() + 40.0 * ((y as f64) * 0.2).cos()
        })
    }

    #[test]
    fn identical_images_score_one() {
        let a = texture(24);
        let s = ssim(&a, &a, &SsimConfig::default()).unwrap();
        assert!((s - 1.0).abs() < 1e-9, "SSIM of identical images = {s}");
    }

    #[test]
    fn ssim_is_symmetric() {
        let a = texture(24);
        let b = a.map(|v| 255.0 - v);
        let cfg = SsimConfig::default();
        let ab = ssim(&a, &b, &cfg).unwrap();
        let ba = ssim(&b, &a, &cfg).unwrap();
        assert!((ab - ba).abs() < 1e-12);
    }

    #[test]
    fn ssim_bounded() {
        let a = texture(24);
        for other in [
            a.map(|v| 255.0 - v),
            Image::filled(24, 24, Channels::Gray, 0.0),
            Image::from_fn_gray(24, 24, |x, y| ((x * 7919 + y * 104729) % 256) as f64),
        ] {
            let s = ssim(&a, &other, &SsimConfig::default()).unwrap();
            assert!((-1.0..=1.0).contains(&s), "SSIM out of range: {s}");
        }
    }

    #[test]
    fn inverted_image_scores_much_lower_than_noisy_copy() {
        let a = texture(32);
        let cfg = SsimConfig::default();
        let slightly_noisy = a.map(|v| (v + 6.0).min(255.0));
        let inverted = a.map(|v| 255.0 - v);
        let near = ssim(&a, &slightly_noisy, &cfg).unwrap();
        let far = ssim(&a, &inverted, &cfg).unwrap();
        assert!(near > 0.9, "near = {near}");
        assert!(far < near - 0.5, "near = {near}, far = {far}");
    }

    #[test]
    fn constant_shift_penalised_only_by_luminance_term() {
        let a = Image::filled(16, 16, Channels::Gray, 100.0);
        let b = Image::filled(16, 16, Channels::Gray, 130.0);
        let s = ssim(&a, &b, &SsimConfig::default()).unwrap();
        // Structure and contrast identical; only luminance differs.
        let c1 = (0.01f64 * 255.0).powi(2);
        let expected = (2.0 * 100.0 * 130.0 + c1) / (100.0f64.powi(2) + 130.0f64.powi(2) + c1);
        assert!((s - expected).abs() < 1e-9, "s = {s}, expected = {expected}");
    }

    #[test]
    fn map_has_image_shape_and_valid_entries() {
        let a = texture(20);
        let b = a.map(|v| (v * 0.9).min(255.0));
        let map = ssim_map(&a, &b, &SsimConfig::default()).unwrap();
        assert_eq!(map.width(), 20);
        assert_eq!(map.height(), 20);
        for &v in map.plane(0) {
            assert!((-1.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn rgb_images_average_channels() {
        let a = Image::from_fn_rgb(16, 16, |x, y| {
            [(x * 16) as f64, (y * 16) as f64, ((x + y) * 8) as f64]
        });
        let s = ssim(&a, &a, &SsimConfig::default()).unwrap();
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_shape_mismatch() {
        let a = Image::zeros(8, 8, Channels::Gray);
        let b = Image::zeros(8, 9, Channels::Gray);
        assert!(ssim(&a, &b, &SsimConfig::default()).is_err());
    }

    #[test]
    fn rejects_bad_config() {
        let a = Image::zeros(8, 8, Channels::Gray);
        let cfg = SsimConfig { sigma: 0.0, ..SsimConfig::default() };
        assert!(ssim(&a, &a, &cfg).is_err());
        let cfg = SsimConfig { dynamic_range: -1.0, ..SsimConfig::default() };
        assert!(ssim(&a, &a, &cfg).is_err());
    }

    /// The sweep against the staged oracle, the mean of [`ssim_map`], bit
    /// for bit: Gray and RGB, a window wider than half the side, 1-row and
    /// 1-column images, heights below the ring, and a two-candidate sweep
    /// equal to two one-candidate sweeps.
    #[test]
    fn reference_scoring_is_bit_identical_to_ssim() {
        let gray = |w, h| {
            Image::from_fn_gray(w, h, |x, y| {
                128.0 + 80.0 * ((x as f64) * 0.3).sin() + 40.0 * ((y as f64) * 0.2).cos()
            })
        };
        let rgb = |w, h| {
            Image::from_fn_rgb(w, h, |x, y| {
                [(x * 16) as f64, (y * 16) as f64, ((x + y) * 8) as f64]
            })
        };
        let images = [gray(24, 24), rgb(17, 13), gray(1, 9), gray(9, 1), rgb(12, 4), gray(30, 7)];
        let small_window = SsimConfig { sigma: 0.8, radius: 2, ..SsimConfig::default() };
        let wide_window = SsimConfig { sigma: 4.0, radius: 13, ..SsimConfig::default() };
        for cfg in [SsimConfig::default(), small_window, wide_window] {
            for a in &images {
                let reference = SsimReference::new(a, &cfg).unwrap();
                let candidates =
                    [a.clone(), a.map(|v| (v + 11.0).min(255.0)), a.map(|v| 255.0 - v)];
                let label = format!(
                    "{}ch {}x{} radius {}",
                    a.channel_count(),
                    a.width(),
                    a.height(),
                    cfg.radius
                );
                let oracle: Vec<u64> = candidates
                    .iter()
                    .map(|b| ssim_map(a, b, &cfg).unwrap().mean_sample().to_bits())
                    .collect();
                for (b, &expected) in candidates.iter().zip(&oracle) {
                    assert_eq!(reference.score_against(b).unwrap().to_bits(), expected, "{label}");
                    assert_eq!(ssim(a, b, &cfg).unwrap().to_bits(), expected, "{label}");
                }
                let pair = reference.score_against_each(&[&candidates[1], &candidates[2]]).unwrap();
                let pair: Vec<u64> = pair.iter().map(|v| v.to_bits()).collect();
                assert_eq!(pair, oracle[1..], "{label}: two-candidate sweep");
            }
        }
    }

    #[test]
    fn reference_scores_no_candidates_and_rejects_any_misshapen_one() {
        let a = texture(12);
        let reference = SsimReference::new(&a, &SsimConfig::default()).unwrap();
        assert!(reference.score_against_each(&[]).unwrap().is_empty());
        let wrong = Image::zeros(12, 13, Channels::Gray);
        assert!(reference.score_against_each(&[&a, &wrong]).is_err());
        assert!(reference.score_against(&Image::zeros(12, 12, Channels::Rgb)).is_err());
    }

    #[test]
    fn reference_rejects_shape_mismatch_and_bad_config() {
        let a = Image::zeros(8, 8, Channels::Gray);
        let b = Image::zeros(8, 9, Channels::Gray);
        let reference = SsimReference::new(&a, &SsimConfig::default()).unwrap();
        assert!(reference.score_against(&b).is_err());
        assert_eq!(reference.image().width(), 8);
        assert_eq!(reference.config().radius, 5);
        let cfg = SsimConfig { sigma: -1.0, ..SsimConfig::default() };
        assert!(SsimReference::new(&a, &cfg).is_err());
    }

    #[test]
    fn default_config_matches_reference_constants() {
        let cfg = SsimConfig::default();
        assert_eq!(cfg.sigma, 1.5);
        assert_eq!(cfg.radius, 5);
        assert!((cfg.c1() - 6.5025).abs() < 1e-9);
        assert!((cfg.c2() - 58.5225).abs() < 1e-9);
    }
}
