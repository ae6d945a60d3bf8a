//! Image resampling.
//!
//! The scalers here reproduce the OpenCV/TensorFlow semantics that the
//! image-scaling attack exploits: interpolating kernels keep a *fixed*
//! support regardless of the scale factor, so strong downscaling reads only
//! a sparse subset of source pixels. [`ScaleAlgorithm::Area`] is the
//! attack-resistant exception (every source pixel contributes) and serves as
//! the "robust scaling" baseline from the paper's related-work discussion.
//!
//! Two interfaces are provided:
//!
//! * [`resize`] / [`Scaler`] — operate on whole [`Image`]s,
//! * [`CoeffMatrix`] — the 1-D sparse linear operator per axis, consumed by
//!   the attack crate.

pub mod kernels;

mod cache;
mod matrix;

pub use cache::ScalerCache;
pub use matrix::{CoeffMatrix, Taps};

use crate::{Image, ImagingError, Size};
use std::fmt;

/// Resampling algorithm selector.
///
/// All variants except `Area` are vulnerable to the image-scaling attack
/// when downscaling by a factor larger than their kernel support.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ScaleAlgorithm {
    /// Nearest-neighbour (OpenCV `INTER_NEAREST`): 1 tap. Most vulnerable.
    Nearest,
    /// Bilinear (OpenCV `INTER_LINEAR` without anti-aliasing): 2 taps/axis.
    Bilinear,
    /// Keys bicubic with `A = -0.75` (OpenCV `INTER_CUBIC`): 4 taps/axis.
    Bicubic,
    /// Pixel-area averaging (OpenCV `INTER_AREA`): attack-resistant for
    /// downscaling; falls back to bilinear when enlarging.
    Area,
    /// Lanczos windowed sinc, order 3: 6 taps/axis.
    Lanczos3,
}

impl ScaleAlgorithm {
    /// All supported algorithms, in declaration order.
    pub const ALL: [ScaleAlgorithm; 5] = [
        ScaleAlgorithm::Nearest,
        ScaleAlgorithm::Bilinear,
        ScaleAlgorithm::Bicubic,
        ScaleAlgorithm::Area,
        ScaleAlgorithm::Lanczos3,
    ];

    /// The algorithms an attacker can realistically target (fixed-support
    /// interpolating kernels).
    pub const VULNERABLE: [ScaleAlgorithm; 3] =
        [ScaleAlgorithm::Nearest, ScaleAlgorithm::Bilinear, ScaleAlgorithm::Bicubic];

    /// Short lowercase name, stable across versions (used in reports).
    pub fn name(&self) -> &'static str {
        match self {
            ScaleAlgorithm::Nearest => "nearest",
            ScaleAlgorithm::Bilinear => "bilinear",
            ScaleAlgorithm::Bicubic => "bicubic",
            ScaleAlgorithm::Area => "area",
            ScaleAlgorithm::Lanczos3 => "lanczos3",
        }
    }
}

impl fmt::Display for ScaleAlgorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A resampling operator pre-built for a fixed source/destination shape.
///
/// Building a [`Scaler`] factors the 2-D resize into two sparse 1-D
/// operators which are then reused across images — this is both the fast
/// path for repeated detection and the representation the attack needs.
///
/// # Example
///
/// ```
/// use decamouflage_imaging::{Image, Size, scale::{Scaler, ScaleAlgorithm}};
///
/// # fn main() -> Result<(), decamouflage_imaging::ImagingError> {
/// let scaler = Scaler::new(Size::new(8, 8), Size::new(4, 4), ScaleAlgorithm::Nearest)?;
/// let img = Image::from_fn_gray(8, 8, |x, y| (x * y) as f64);
/// let out = scaler.apply(&img)?;
/// assert_eq!(out.size(), Size::new(4, 4));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Scaler {
    algorithm: ScaleAlgorithm,
    src: Size,
    dst: Size,
    horizontal: CoeffMatrix,
    vertical: CoeffMatrix,
}

impl Scaler {
    /// Builds a scaler mapping images of size `src` to size `dst`.
    ///
    /// # Errors
    ///
    /// Returns [`ImagingError::InvalidDimensions`] if either size has a zero
    /// dimension.
    pub fn new(src: Size, dst: Size, algorithm: ScaleAlgorithm) -> Result<Self, ImagingError> {
        if !src.is_valid() {
            return Err(ImagingError::InvalidDimensions { width: src.width, height: src.height });
        }
        if !dst.is_valid() {
            return Err(ImagingError::InvalidDimensions { width: dst.width, height: dst.height });
        }
        Ok(Self {
            algorithm,
            src,
            dst,
            horizontal: CoeffMatrix::build(algorithm, src.width, dst.width)?,
            vertical: CoeffMatrix::build(algorithm, src.height, dst.height)?,
        })
    }

    /// The algorithm this scaler uses.
    pub const fn algorithm(&self) -> ScaleAlgorithm {
        self.algorithm
    }

    /// Source size the scaler accepts.
    pub const fn src_size(&self) -> Size {
        self.src
    }

    /// Destination size the scaler produces.
    pub const fn dst_size(&self) -> Size {
        self.dst
    }

    /// The horizontal (width-axis) coefficient operator, `dst.width`
    /// outputs from `src.width` inputs.
    pub fn horizontal_coeffs(&self) -> &CoeffMatrix {
        &self.horizontal
    }

    /// The vertical (height-axis) coefficient operator, `dst.height`
    /// outputs from `src.height` inputs.
    pub fn vertical_coeffs(&self) -> &CoeffMatrix {
        &self.vertical
    }

    /// Resamples an image. Each plane is processed independently; the
    /// vertical pass runs first, then the horizontal pass (the result of a
    /// separable linear operator does not depend on pass order).
    ///
    /// Both passes run over flat stride-1 plane rows: the vertical pass is
    /// one register-accumulating weighted sum of whole source rows per
    /// destination row ([`crate::simd::weighted_sum_rows`]), the horizontal
    /// pass accumulates each output in a register over its ascending taps.
    /// Per output sample the taps are added in exactly the order
    /// [`CoeffMatrix::apply_into`] uses, so the result is bit-identical to
    /// the per-column gather formulation.
    ///
    /// # Errors
    ///
    /// Returns [`ImagingError::ShapeMismatch`] if `img` is not of the
    /// scaler's source size.
    pub fn apply(&self, img: &Image) -> Result<Image, ImagingError> {
        if img.size() != self.src {
            return Err(ImagingError::ShapeMismatch {
                left: img.shape(),
                right: (self.src.width, self.src.height, img.channel_count()),
            });
        }
        let sw = self.src.width;
        let (dw, dh) = (self.dst.width, self.dst.height);

        use crate::simd::{weighted_sum_rows, WEIGHTED_SUM_MAX_ROWS};
        let mut mid = vec![0.0; sw * dh];
        let mut out_planes = Vec::with_capacity(img.channel_count());
        for c in 0..img.channel_count() {
            let src = img.plane(c);

            // Vertical pass: sw x sh -> sw x dh. Each destination row is one
            // register-accumulating weighted sum of its source rows in
            // ascending tap order (grouped by WEIGHTED_SUM_MAX_ROWS; chained
            // groups keep the add order, so the result is bit-identical to
            // the historical per-tap SAXPY chain).
            let mut srcs: [&[f64]; WEIGHTED_SUM_MAX_ROWS] = [&[]; WEIGHTED_SUM_MAX_ROWS];
            let mut wbuf = [0.0f64; WEIGHTED_SUM_MAX_ROWS];
            for (taps, mid_row) in self.vertical.iter_rows().zip(mid.chunks_exact_mut(sw)) {
                for (g, group) in taps.chunks(WEIGHTED_SUM_MAX_ROWS).enumerate() {
                    for (slot, &(j, weight)) in group.iter().enumerate() {
                        srcs[slot] = &src[j * sw..(j + 1) * sw];
                        wbuf[slot] = weight;
                    }
                    weighted_sum_rows(mid_row, &srcs[..group.len()], &wbuf[..group.len()], g > 0);
                }
            }

            // Horizontal pass: sw x dh -> dw x dh, register accumulation per
            // output sample over the stride-1 intermediate row.
            let mut out = vec![0.0; dw * dh];
            for (mid_row, out_row) in mid.chunks_exact(sw).zip(out.chunks_exact_mut(dw)) {
                for (x, taps) in self.horizontal.iter_rows().enumerate() {
                    let mut acc = 0.0;
                    for &(j, weight) in taps {
                        acc += weight * mid_row[j];
                    }
                    out_row[x] = acc;
                }
            }
            out_planes.push(out);
        }
        Image::from_planes(dw, dh, img.channels(), out_planes)
    }
}

/// Resamples `img` to `width x height` using `algorithm`.
///
/// Convenience wrapper over [`Scaler`]; prefer building a [`Scaler`] once
/// when resizing many same-shaped images.
///
/// # Errors
///
/// Returns [`ImagingError::InvalidDimensions`] for zero target dimensions.
pub fn resize(
    img: &Image,
    width: usize,
    height: usize,
    algorithm: ScaleAlgorithm,
) -> Result<Image, ImagingError> {
    Scaler::new(img.size(), Size::new(width, height), algorithm)?.apply(img)
}

/// Anti-aliased resize: Gaussian prefilter matched to the downscale factor
/// (`sigma = 0.4 * (factor - 1)` per axis, skipped when enlarging),
/// followed by a normal [`resize`].
///
/// This is the *robust scaling* defense discussed in the paper's related
/// work (Quiring et al.): the prefilter forces every source pixel to
/// influence the output, so the sparse-pixel image-scaling attack loses
/// its hiding places — at the cost of a softer image and a scaling
/// behaviour no longer compatible with the plain OpenCV kernels.
///
/// # Errors
///
/// Returns [`ImagingError::InvalidDimensions`] for zero target dimensions.
pub fn resize_antialiased(
    img: &Image,
    width: usize,
    height: usize,
    algorithm: ScaleAlgorithm,
) -> Result<Image, ImagingError> {
    if width == 0 || height == 0 {
        return Err(ImagingError::InvalidDimensions { width, height });
    }
    let fx = img.width() as f64 / width as f64;
    let fy = img.height() as f64 / height as f64;
    let sigma = 0.4 * (fx.max(fy) - 1.0);
    let prefiltered =
        if sigma > 0.05 { crate::filter::gaussian_blur(img, sigma)? } else { img.clone() };
    resize(&prefiltered, width, height, algorithm)
}

/// Downscales `img` to `target` and immediately upscales back to the
/// original size — the round trip at the heart of the paper's *scaling
/// detection* method. Returns `(downscaled, roundtripped)`.
///
/// Both legs run on plans from [`ScalerCache::global`], so scoring many
/// same-sized images builds each plan once; a cached plan applies
/// bit-identically to a freshly built [`Scaler`].
///
/// # Errors
///
/// Propagates any scaler construction error.
pub fn round_trip(
    img: &Image,
    target: Size,
    algorithm: ScaleAlgorithm,
) -> Result<(Image, Image), ImagingError> {
    let cache = ScalerCache::global();
    let down = cache.get(img.size(), target, algorithm)?.apply(img)?;
    let up = cache.get(target, img.size(), algorithm)?.apply(&down)?;
    Ok((down, up))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Channels;

    fn gradient(w: usize, h: usize) -> Image {
        Image::from_fn_gray(w, h, |x, y| (x + y) as f64)
    }

    #[test]
    fn resize_reports_target_shape() {
        let img = gradient(10, 8);
        for algo in ScaleAlgorithm::ALL {
            let out = resize(&img, 5, 4, algo).unwrap();
            assert_eq!(out.size(), Size::new(5, 4), "{algo}");
            assert_eq!(out.channels(), Channels::Gray);
        }
    }

    #[test]
    fn resize_rejects_zero_target() {
        let img = gradient(4, 4);
        assert!(resize(&img, 0, 4, ScaleAlgorithm::Bilinear).is_err());
        assert!(resize(&img, 4, 0, ScaleAlgorithm::Bilinear).is_err());
    }

    #[test]
    fn scaler_rejects_wrong_input_size() {
        let scaler =
            Scaler::new(Size::new(8, 8), Size::new(4, 4), ScaleAlgorithm::Bilinear).unwrap();
        assert!(scaler.apply(&gradient(9, 8)).is_err());
    }

    #[test]
    fn flat_image_stays_flat_through_any_scaler() {
        let img = Image::filled(13, 9, Channels::Rgb, 77.0);
        for algo in ScaleAlgorithm::ALL {
            let out = resize(&img, 5, 4, algo).unwrap();
            for &v in out.planes().iter().flatten() {
                assert!((v - 77.0).abs() < 1e-9, "{algo} produced {v}");
            }
        }
    }

    #[test]
    fn nearest_downscale_picks_expected_pixels() {
        let img = Image::from_fn_gray(4, 4, |x, y| (y * 4 + x) as f64);
        let out = resize(&img, 2, 2, ScaleAlgorithm::Nearest).unwrap();
        // floor(i * 2): picks pixels 0 and 2 on each axis.
        assert_eq!(out.plane(0), &[0.0, 2.0, 8.0, 10.0]);
    }

    #[test]
    fn bilinear_downscale_by_two_is_2x2_mean() {
        let img = Image::from_fn_gray(4, 4, |x, y| (y * 4 + x) as f64);
        let out = resize(&img, 2, 2, ScaleAlgorithm::Bilinear).unwrap();
        assert_eq!(out.plane(0), &[2.5, 4.5, 10.5, 12.5]);
    }

    #[test]
    fn area_downscale_by_two_equals_bilinear_by_two() {
        // At exactly factor 2 the area box and the bilinear taps coincide.
        let img = gradient(8, 8);
        let a = resize(&img, 4, 4, ScaleAlgorithm::Area).unwrap();
        let b = resize(&img, 4, 4, ScaleAlgorithm::Bilinear).unwrap();
        assert!(a.approx_eq(&b, 1e-9));
    }

    #[test]
    fn upscale_preserves_linear_ramps_for_bilinear() {
        // Bilinear interpolation reproduces affine signals exactly away
        // from borders.
        let img = Image::from_fn_gray(8, 1, |x, _| x as f64 * 10.0);
        let out = resize(&img, 16, 1, ScaleAlgorithm::Bilinear).unwrap();
        // Interior: sample 8 maps to sx = (8 + 0.5) * 0.5 - 0.5 = 3.75 -> 37.5.
        assert!((out.get(8, 0, 0) - 37.5).abs() < 1e-9);
    }

    #[test]
    fn rgb_channels_are_independent() {
        let img = Image::from_fn_rgb(6, 6, |x, y| [x as f64, y as f64, (x + y) as f64]);
        let out = resize(&img, 3, 3, ScaleAlgorithm::Bilinear).unwrap();
        // Red depends only on x, so each red row is constant across y.
        for y in 0..3 {
            assert_eq!(out.get(0, y, 0), out.get(0, 0, 0));
        }
        // Green depends only on y.
        for x in 0..3 {
            assert_eq!(out.get(x, 0, 1), out.get(0, 0, 1));
        }
    }

    #[test]
    fn scaler_accessors() {
        let s = Scaler::new(Size::new(8, 6), Size::new(4, 3), ScaleAlgorithm::Bicubic).unwrap();
        assert_eq!(s.algorithm(), ScaleAlgorithm::Bicubic);
        assert_eq!(s.src_size(), Size::new(8, 6));
        assert_eq!(s.dst_size(), Size::new(4, 3));
        assert_eq!(s.horizontal_coeffs().src_len(), 8);
        assert_eq!(s.horizontal_coeffs().dst_len(), 4);
        assert_eq!(s.vertical_coeffs().src_len(), 6);
        assert_eq!(s.vertical_coeffs().dst_len(), 3);
    }

    #[test]
    fn round_trip_returns_both_images() {
        let img = gradient(12, 12);
        let (down, up) = round_trip(&img, Size::new(4, 4), ScaleAlgorithm::Bilinear).unwrap();
        assert_eq!(down.size(), Size::new(4, 4));
        assert_eq!(up.size(), Size::new(12, 12));
    }

    #[test]
    fn round_trip_of_smooth_image_is_close() {
        // The scaling-detection premise: benign (smooth) images survive the
        // round trip nearly unchanged.
        let img = Image::from_fn_gray(32, 32, |x, y| {
            128.0 + 60.0 * ((x as f64) * 0.1).sin() + 40.0 * ((y as f64) * 0.07).cos()
        });
        let (_, up) = round_trip(&img, Size::new(16, 16), ScaleAlgorithm::Bilinear).unwrap();
        let mse: f64 =
            img.plane(0).iter().zip(up.plane(0)).map(|(a, b)| (a - b) * (a - b)).sum::<f64>()
                / (32.0 * 32.0);
        assert!(mse < 30.0, "round-trip MSE too large: {mse}");
    }

    #[test]
    fn antialiased_resize_matches_target_shape_and_range() {
        let img = Image::from_fn_gray(32, 32, |x, y| ((x * 11 + y * 7) % 256) as f64);
        let out = resize_antialiased(&img, 8, 8, ScaleAlgorithm::Bilinear).unwrap();
        assert_eq!(out.size(), Size::new(8, 8));
        assert!(out.min_sample() >= 0.0 - 1e-9);
        assert!(out.max_sample() <= 255.0 + 1e-9);
        assert!(resize_antialiased(&img, 0, 8, ScaleAlgorithm::Bilinear).is_err());
    }

    #[test]
    fn antialiased_upscale_skips_the_prefilter() {
        let img = Image::from_fn_gray(8, 8, |x, y| ((x + y) * 16) as f64);
        let plain = resize(&img, 16, 16, ScaleAlgorithm::Bilinear).unwrap();
        let aa = resize_antialiased(&img, 16, 16, ScaleAlgorithm::Bilinear).unwrap();
        assert!(aa.approx_eq(&plain, 1e-9));
    }

    #[test]
    fn antialiasing_averages_untouched_pixels_into_the_output() {
        // A sparse bright comb on the pixels plain bilinear *ignores* at
        // factor 4: invisible to the plain resize, visible after the
        // anti-aliasing prefilter — the essence of the robust-scaling
        // defense.
        let img =
            Image::from_fn_gray(32, 32, |x, y| if x % 4 == 3 && y % 4 == 3 { 255.0 } else { 0.0 });
        let plain = resize(&img, 8, 8, ScaleAlgorithm::Bilinear).unwrap();
        let aa = resize_antialiased(&img, 8, 8, ScaleAlgorithm::Bilinear).unwrap();
        assert!(plain.mean_sample() < 1.0, "plain bilinear must miss the comb");
        assert!(
            aa.mean_sample() > 5.0,
            "anti-aliased resize must see the comb: mean {}",
            aa.mean_sample()
        );
    }

    /// Historical per-column/per-row gather formulation of `Scaler::apply`,
    /// kept as the bit-identity reference for the flat row-major passes.
    fn apply_reference(scaler: &Scaler, img: &Image) -> Image {
        let channels = img.channel_count();
        let (sw, sh) = (scaler.src_size().width, scaler.src_size().height);
        let (dw, dh) = (scaler.dst_size().width, scaler.dst_size().height);
        let mut mid = vec![0.0; sw * dh * channels];
        let mut col = vec![0.0; sh];
        let mut col_out = vec![0.0; dh];
        for c in 0..channels {
            for x in 0..sw {
                for (y, v) in col.iter_mut().enumerate() {
                    *v = img.get(x, y, c);
                }
                scaler.vertical_coeffs().apply_into(&col, &mut col_out);
                for (y, &v) in col_out.iter().enumerate() {
                    mid[(y * sw + x) * channels + c] = v;
                }
            }
        }
        let mut out = Image::zeros(dw, dh, img.channels());
        let mut row = vec![0.0; sw];
        let mut row_out = vec![0.0; dw];
        for c in 0..channels {
            for y in 0..dh {
                for (x, v) in row.iter_mut().enumerate() {
                    *v = mid[(y * sw + x) * channels + c];
                }
                scaler.horizontal_coeffs().apply_into(&row, &mut row_out);
                for (x, &v) in row_out.iter().enumerate() {
                    out.set(x, y, c, v);
                }
            }
        }
        out
    }

    #[test]
    fn flat_apply_is_bit_identical_to_gather_reference() {
        let rgb = Image::from_fn_rgb(13, 9, |x, y| {
            [((x * 31 + y * 17) % 101) as f64, ((x * 7 + y * 43) % 89) as f64, (x * y % 23) as f64]
        });
        let gray = Image::from_fn_gray(9, 13, |x, y| ((x * 53 + y * 29 + x * y) % 97) as f64);
        for algo in ScaleAlgorithm::ALL {
            for (img, dst) in [(&rgb, Size::new(5, 17)), (&gray, Size::new(20, 4))] {
                let scaler = Scaler::new(img.size(), dst, algo).unwrap();
                let fast = scaler.apply(img).unwrap();
                let reference = apply_reference(&scaler, img);
                assert_eq!(
                    fast,
                    reference,
                    "{algo} {:?} -> {dst:?} diverged from the gather reference",
                    img.size()
                );
            }
        }
    }

    #[test]
    fn algorithm_names_are_stable() {
        let names: Vec<&str> = ScaleAlgorithm::ALL.iter().map(|a| a.name()).collect();
        assert_eq!(names, ["nearest", "bilinear", "bicubic", "area", "lanczos3"]);
        assert_eq!(ScaleAlgorithm::Bicubic.to_string(), "bicubic");
    }

    #[test]
    fn vulnerable_set_excludes_area() {
        assert!(!ScaleAlgorithm::VULNERABLE.contains(&ScaleAlgorithm::Area));
    }
}
