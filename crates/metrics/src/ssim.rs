//! Structural similarity (SSIM) index — Wang et al. 2004, the paper's
//! Equation 6.

use crate::error::check_same_shape;
use crate::MetricError;
use decamouflage_imaging::filter::{
    convolve_planes_with_scratch, gaussian_kernel, ConvScratch, Kernel1D, PlaneSource,
};
use decamouflage_imaging::Image;

/// Per-thread buffers for the fused SSIM sweeps: convolution scratch plus
/// the blurred-plane outputs — one buffer per (statistic, channel) pair,
/// grown on demand (five statistics: µa, µb, σa-side, σb-side, σab-side).
struct SsimScratch {
    conv: ConvScratch,
    planes: Vec<Vec<f64>>,
}

thread_local! {
    /// Shared buffers for [`ssim_map`] and [`SsimReference`] scoring.
    static SSIM_SCRATCH: std::cell::RefCell<SsimScratch> =
        std::cell::RefCell::new(SsimScratch { conv: ConvScratch::new(), planes: Vec::new() });
}

/// The per-pixel SSIM formula over per-channel blurred planes, invoking
/// `emit(pixel_value)` in flat pixel order. Each statistic is a slice of
/// `ch` plane slices; the inner loop walks channels in ascending order per
/// pixel — the same per-sample, channel-inner accumulation order as the
/// historical interleaved implementation, so every sum is bit-identical.
///
/// Single-channel callers should prefer [`ssim_formula_flat`], which runs
/// the same arithmetic through the vectorizable
/// [`decamouflage_imaging::simd::ssim_combine`] primitive.
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

/// Single-channel [`ssim_formula`] writing one value per pixel into `dst`
/// (resized to fit) via the flat [`ssim_combine`] pass. Bit-identical to
/// the closure form: the primitive replays the per-channel loop's exact
/// operation sequence, including the accumulator seed and channel average.
///
/// [`ssim_combine`]: decamouflage_imaging::simd::ssim_combine
#[allow(clippy::too_many_arguments)]
fn ssim_formula_flat(
    dst: &mut Vec<f64>,
    mu_a: &[f64],
    mu_b: &[f64],
    a_sq: &[f64],
    b_sq: &[f64],
    ab: &[f64],
    c1: f64,
    c2: f64,
) {
    dst.clear();
    dst.resize(mu_a.len(), 0.0);
    decamouflage_imaging::simd::ssim_combine(dst, mu_a, mu_b, a_sq, b_sq, ab, c1, c2);
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
    let map = ssim_map(a, b, config)?;
    Ok(map.mean_sample())
}

/// Per-pixel SSIM map (averaged over channels for RGB inputs).
///
/// # Errors
///
/// Same conditions as [`ssim`].
pub fn ssim_map(a: &Image, b: &Image, config: &SsimConfig) -> Result<Image, MetricError> {
    check_same_shape(a, b)?;
    config.validate()?;
    let kernel = gaussian_kernel(config.sigma, Some(config.radius))
        .map_err(|e| MetricError::InvalidParameter { message: e.to_string() })?;

    let ch = a.channel_count();
    let mut map = Image::zeros(a.width(), a.height(), decamouflage_imaging::Channels::Gray);
    SSIM_SCRATCH.with(|scratch| {
        let SsimScratch { conv, planes } = &mut *scratch.borrow_mut();
        if planes.len() < 5 * ch {
            planes.resize_with(5 * ch, Vec::new);
        }
        // Sources in statistic-major order: outs[s * ch + c] holds statistic
        // `s` of channel `c`.
        let mut sources = Vec::with_capacity(5 * ch);
        for c in 0..ch {
            sources.push(PlaneSource::Plane(a.plane(c)));
        }
        for c in 0..ch {
            sources.push(PlaneSource::Plane(b.plane(c)));
        }
        for c in 0..ch {
            sources.push(PlaneSource::Product(a.plane(c), a.plane(c)));
        }
        for c in 0..ch {
            sources.push(PlaneSource::Product(b.plane(c), b.plane(c)));
        }
        for c in 0..ch {
            sources.push(PlaneSource::Product(a.plane(c), b.plane(c)));
        }
        {
            let mut outs: Vec<&mut Vec<f64>> = planes.iter_mut().take(5 * ch).collect();
            convolve_planes_with_scratch(
                &sources,
                a.width(),
                a.height(),
                &kernel,
                &kernel,
                conv,
                &mut outs,
            )
            .expect("separable convolution cannot fail");
        }
        if ch == 1 {
            decamouflage_imaging::simd::ssim_combine(
                map.plane_mut(0),
                &planes[0],
                &planes[1],
                &planes[2],
                &planes[3],
                &planes[4],
                config.c1(),
                config.c2(),
            );
        } else {
            let stat =
                |s: usize| (0..ch).map(|c| planes[s * ch + c].as_slice()).collect::<Vec<_>>();
            let (mu_a, mu_b, a_sq, b_sq, ab) = (stat(0), stat(1), stat(2), stat(3), stat(4));
            let mut out = map.plane_mut(0).iter_mut();
            ssim_formula(&mu_a, &mu_b, &a_sq, &b_sq, &ab, config.c1(), config.c2(), |v| {
                *out.next().expect("map has one slot per pixel") = v;
            });
        }
    });
    Ok(map)
}

/// Precomputed reference-side SSIM statistics.
///
/// Comparing one reference image against several candidates (the detection
/// engine scores the same input against its round-tripped *and* its
/// rank-filtered variant) recomputes `blur(a)` and `blur(a²)` on every
/// call of [`ssim`]. `SsimReference` computes them once; each
/// [`SsimReference::score_against`] then needs only the three
/// candidate-side blurs.
///
/// Scores are **bit-identical** to [`ssim`]: the blurs run through
/// [`decamouflage_imaging::filter::convolve_separable_with_scratch`]
/// (exact-equality contract with
/// [`decamouflage_imaging::filter::convolve_separable`]) and the
/// per-pixel SSIM formula and final mean
/// accumulate in the same order as [`ssim_map`] + `mean_sample`.
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
/// let reference = SsimReference::new(&a, &SsimConfig::default())?;
/// assert_eq!(reference.score_against(&b)?, ssim(&a, &b, &SsimConfig::default())?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SsimReference {
    a: Image,
    /// Blurred reference planes µa, one flat row-major plane per channel.
    mu_a: Vec<Vec<f64>>,
    /// Blurred squared reference planes (σa side), same layout.
    a_sq: Vec<Vec<f64>>,
    kernel: Kernel1D,
    config: SsimConfig,
}

impl SsimReference {
    /// Precomputes the reference-side window statistics of `a`.
    ///
    /// # Errors
    ///
    /// Returns [`MetricError::InvalidParameter`] for unusable configuration
    /// values.
    pub fn new(a: &Image, config: &SsimConfig) -> Result<Self, MetricError> {
        config.validate()?;
        let kernel = gaussian_kernel(config.sigma, Some(config.radius))
            .map_err(|e| MetricError::InvalidParameter { message: e.to_string() })?;
        let ch = a.channel_count();
        let mut mu_a: Vec<Vec<f64>> = vec![Vec::new(); ch];
        let mut a_sq: Vec<Vec<f64>> = vec![Vec::new(); ch];
        SSIM_SCRATCH.with(|scratch| {
            let conv = &mut scratch.borrow_mut().conv;
            let mut sources = Vec::with_capacity(2 * ch);
            for c in 0..ch {
                sources.push(PlaneSource::Plane(a.plane(c)));
            }
            for c in 0..ch {
                sources.push(PlaneSource::Product(a.plane(c), a.plane(c)));
            }
            let mut outs: Vec<&mut Vec<f64>> = mu_a.iter_mut().chain(a_sq.iter_mut()).collect();
            convolve_planes_with_scratch(
                &sources,
                a.width(),
                a.height(),
                &kernel,
                &kernel,
                conv,
                &mut outs,
            )
            .expect("separable convolution cannot fail");
        });
        Ok(Self { a: a.clone(), mu_a, a_sq, kernel, config: config.clone() })
    }

    /// The reference image.
    pub fn image(&self) -> &Image {
        &self.a
    }

    /// The configuration the statistics were built with.
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
        check_same_shape(&self.a, b)?;
        // Same traversal as `ssim_map` followed by `mean_sample`: per-pixel
        // map values accumulate in y-major (flat) order, so the final sum
        // matches the staged computation bit for bit.
        let ch = self.a.channel_count();
        let mut total = 0.0;
        SSIM_SCRATCH.with(|scratch| {
            let SsimScratch { conv, planes } = &mut *scratch.borrow_mut();
            if planes.len() < 3 * ch + 1 {
                planes.resize_with(3 * ch + 1, Vec::new);
            }
            // Candidate-side statistics in statistic-major order:
            // planes[s * ch + c]; the last scratch plane holds the combined
            // single-channel map.
            let mut sources = Vec::with_capacity(3 * ch);
            for c in 0..ch {
                sources.push(PlaneSource::Plane(b.plane(c)));
            }
            for c in 0..ch {
                sources.push(PlaneSource::Product(b.plane(c), b.plane(c)));
            }
            for c in 0..ch {
                sources.push(PlaneSource::Product(self.a.plane(c), b.plane(c)));
            }
            {
                let mut outs: Vec<&mut Vec<f64>> = planes.iter_mut().take(3 * ch).collect();
                convolve_planes_with_scratch(
                    &sources,
                    self.a.width(),
                    self.a.height(),
                    &self.kernel,
                    &self.kernel,
                    conv,
                    &mut outs,
                )
                .expect("separable convolution cannot fail");
            }
            if ch == 1 {
                // Materialise the per-pixel values flat, then reduce in the
                // same ascending order the closure form added them.
                let (stats, tail) = planes.split_at_mut(3);
                let combined = &mut tail[0];
                ssim_formula_flat(
                    combined,
                    &self.mu_a[0],
                    &stats[0],
                    &self.a_sq[0],
                    &stats[1],
                    &stats[2],
                    self.config.c1(),
                    self.config.c2(),
                );
                for &v in combined.iter() {
                    total += v;
                }
            } else {
                let stat =
                    |s: usize| (0..ch).map(|c| planes[s * ch + c].as_slice()).collect::<Vec<_>>();
                let (mu_b, b_sq, ab) = (stat(0), stat(1), stat(2));
                let mu_a: Vec<&[f64]> = self.mu_a.iter().map(Vec::as_slice).collect();
                let a_sq: Vec<&[f64]> = self.a_sq.iter().map(Vec::as_slice).collect();
                ssim_formula(
                    &mu_a,
                    &mu_b,
                    &a_sq,
                    &b_sq,
                    &ab,
                    self.config.c1(),
                    self.config.c2(),
                    |v| total += v,
                );
            }
        });
        Ok(total / (self.a.width() * self.a.height()) as f64)
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

    #[test]
    fn reference_scoring_is_bit_identical_to_ssim() {
        let gray = texture(24);
        let rgb = Image::from_fn_rgb(17, 13, |x, y| {
            [(x * 16) as f64, (y * 16) as f64, ((x + y) * 8) as f64]
        });
        let small_window = SsimConfig { sigma: 0.8, radius: 2, ..SsimConfig::default() };
        for cfg in [SsimConfig::default(), small_window] {
            for a in [&gray, &rgb] {
                let reference = SsimReference::new(a, &cfg).unwrap();
                let candidates =
                    [a.clone(), a.map(|v| (v + 11.0).min(255.0)), a.map(|v| 255.0 - v)];
                for b in &candidates {
                    assert_eq!(
                        reference.score_against(b).unwrap(),
                        ssim(a, b, &cfg).unwrap(),
                        "{}ch {}x{}",
                        a.channel_count(),
                        a.width(),
                        a.height()
                    );
                }
            }
        }
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
