//! Pixel-wise error metrics: MSE (Equation 5 of the paper), MAE, maximum
//! absolute difference and PSNR (Equation 8, Appendix A).

use crate::error::check_same_shape;
use crate::MetricError;
use decamouflage_imaging::Image;

/// Sums `f(a_sample, b_sample)` over every sample in pixel-major order —
/// r0, g0, b0, r1, … — exactly the order the old interleaved buffer was
/// reduced in, so planar storage cannot perturb the floating-point result.
fn sum_pixel_major(a: &Image, b: &Image, f: impl Fn(f64, f64) -> f64) -> f64 {
    if a.channel_count() == 1 {
        return a.plane(0).iter().zip(b.plane(0)).map(|(&x, &y)| f(x, y)).sum();
    }
    let (ar, ag, ab) = (a.plane(0), a.plane(1), a.plane(2));
    let (br, bg, bb) = (b.plane(0), b.plane(1), b.plane(2));
    let mut sum = 0.0;
    for i in 0..a.plane_len() {
        sum += f(ar[i], br[i]);
        sum += f(ag[i], bg[i]);
        sum += f(ab[i], bb[i]);
    }
    sum
}

/// Mean squared error between two images of identical shape.
///
/// This is the paper's Equation 5: the average of squared sample
/// differences over all pixels and channels.
///
/// # Errors
///
/// Returns [`MetricError::ShapeMismatch`] when the shapes differ.
///
/// # Example
///
/// ```
/// use decamouflage_imaging::{Channels, Image};
/// use decamouflage_metrics::mse;
///
/// # fn main() -> Result<(), decamouflage_metrics::MetricError> {
/// let a = Image::filled(2, 2, Channels::Gray, 10.0);
/// let b = Image::filled(2, 2, Channels::Gray, 13.0);
/// assert_eq!(mse(&a, &b)?, 9.0);
/// # Ok(())
/// # }
/// ```
pub fn mse(a: &Image, b: &Image) -> Result<f64, MetricError> {
    check_same_shape(a, b)?;
    let sum = sum_pixel_major(a, b, |x, y| (x - y) * (x - y));
    Ok(sum / (a.plane_len() * a.channel_count()) as f64)
}

/// Mean absolute error between two images of identical shape.
///
/// # Errors
///
/// Returns [`MetricError::ShapeMismatch`] when the shapes differ.
pub fn mae(a: &Image, b: &Image) -> Result<f64, MetricError> {
    check_same_shape(a, b)?;
    let sum = sum_pixel_major(a, b, |x, y| (x - y).abs());
    Ok(sum / (a.plane_len() * a.channel_count()) as f64)
}

/// Largest absolute sample difference (`L∞` distance) between two images.
///
/// The attack's success constraint `‖scale(O + Δ) − T‖∞ <= ε` is checked
/// with exactly this metric.
///
/// # Errors
///
/// Returns [`MetricError::ShapeMismatch`] when the shapes differ.
pub fn max_abs_diff(a: &Image, b: &Image) -> Result<f64, MetricError> {
    check_same_shape(a, b)?;
    // A max fold is order-independent, so plane-major traversal is exact.
    let mut peak = 0.0f64;
    for (pa, pb) in a.planes().iter().zip(b.planes()) {
        for (x, y) in pa.iter().zip(pb) {
            peak = peak.max((x - y).abs());
        }
    }
    Ok(peak)
}

/// Peak signal-to-noise ratio in decibels, with `L = 256` intensity levels
/// (Equation 8). Identical images yield `f64::INFINITY`.
///
/// The paper's Appendix A shows PSNR fails to separate benign from attack
/// images; it is provided to reproduce that negative result.
///
/// # Errors
///
/// Returns [`MetricError::ShapeMismatch`] when the shapes differ.
pub fn psnr(a: &Image, b: &Image) -> Result<f64, MetricError> {
    Ok(psnr_from_mse(mse(a, b)?))
}

/// The PSNR of a pair whose [`mse`] is `mse`: `10·log10(255² / mse)`
/// decibels, `f64::INFINITY` at zero. [`psnr`] is exactly [`mse`] followed
/// by this step, so a caller that already holds the MSE gets the same bits
/// without a second pass over the images.
pub fn psnr_from_mse(mse: f64) -> f64 {
    if mse == 0.0 {
        return f64::INFINITY;
    }
    10.0 * ((255.0f64 * 255.0) / mse).log10()
}

#[cfg(test)]
mod tests {
    use super::*;
    use decamouflage_imaging::Channels;

    fn img(values: &[f64]) -> Image {
        Image::from_gray_plane(values.len(), 1, values.to_vec()).unwrap()
    }

    #[test]
    fn mse_of_identical_images_is_zero() {
        let a = Image::from_fn_gray(5, 5, |x, y| (x * y) as f64);
        assert_eq!(mse(&a, &a).unwrap(), 0.0);
    }

    #[test]
    fn mse_known_value() {
        let a = img(&[0.0, 0.0, 0.0, 0.0]);
        let b = img(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(mse(&a, &b).unwrap(), (1.0 + 4.0 + 9.0 + 16.0) / 4.0);
    }

    #[test]
    fn mse_is_symmetric() {
        let a = img(&[1.0, 5.0, 9.0]);
        let b = img(&[2.0, 3.0, 4.0]);
        assert_eq!(mse(&a, &b).unwrap(), mse(&b, &a).unwrap());
    }

    #[test]
    fn mse_rejects_shape_mismatch() {
        let a = Image::zeros(2, 2, Channels::Gray);
        let b = Image::zeros(2, 3, Channels::Gray);
        assert!(mse(&a, &b).is_err());
    }

    #[test]
    fn mae_known_value() {
        let a = img(&[0.0, 0.0]);
        let b = img(&[3.0, -5.0]);
        assert_eq!(mae(&a, &b).unwrap(), 4.0);
    }

    #[test]
    fn max_abs_diff_finds_peak() {
        let a = img(&[0.0, 0.0, 0.0]);
        let b = img(&[1.0, -7.0, 2.0]);
        assert_eq!(max_abs_diff(&a, &b).unwrap(), 7.0);
    }

    #[test]
    fn max_abs_diff_of_identical_is_zero() {
        let a = img(&[4.0, 2.0]);
        assert_eq!(max_abs_diff(&a, &a).unwrap(), 0.0);
    }

    #[test]
    fn psnr_of_identical_images_is_infinite() {
        let a = img(&[10.0, 20.0]);
        assert_eq!(psnr(&a, &a).unwrap(), f64::INFINITY);
    }

    #[test]
    fn psnr_known_value() {
        // MSE = 255² -> PSNR = 0 dB.
        let a = img(&[0.0]);
        let b = img(&[255.0]);
        assert!((psnr(&a, &b).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn psnr_decreases_as_error_grows() {
        let a = img(&[100.0, 100.0, 100.0]);
        let close = img(&[101.0, 100.0, 100.0]);
        let far = img(&[150.0, 60.0, 20.0]);
        assert!(psnr(&a, &close).unwrap() > psnr(&a, &far).unwrap());
    }

    #[test]
    fn metrics_cover_all_channels() {
        let a = Image::from_fn_rgb(2, 1, |_, _| [0.0, 0.0, 0.0]);
        let b = Image::from_fn_rgb(2, 1, |_, _| [3.0, 0.0, 0.0]);
        // Only one of three channels differs: MSE = 9 / 3.
        assert_eq!(mse(&a, &b).unwrap(), 3.0);
    }
}
