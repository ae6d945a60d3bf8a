//! Prevention baselines — the *competing* defenses the paper argues
//! against (§1, §7; Quiring et al., USENIX Security 2020).
//!
//! Two mechanisms are implemented so the repro can quantify the paper's
//! criticism:
//!
//! * [`reconstruct_sampled_pixels`] — the *image reconstruction* defense:
//!   every pixel the scaler actually reads is replaced by the median of its
//!   non-sampled neighbours, destroying any embedded target before scaling.
//!   Effective, but it rewrites pixels of *every* image, degrading benign
//!   inputs too (the quality cost the paper cites as motivation for a
//!   detection-only approach).
//! * *Robust scaling* — simply scaling with
//!   [`decamouflage_imaging::scale::ScaleAlgorithm::Area`], which reads
//!   every source pixel; covered by the attack crate's verification and
//!   the `ablate-robust-scaler` experiment.

use crate::DetectError;
use decamouflage_imaging::scale::Scaler;
use decamouflage_imaging::Image;

/// Applies the image-reconstruction prevention defense: pixels at sampled
/// (row, column) intersections are replaced by the median of the
/// *non-sampled* pixels in a `(2 radius + 1)²` neighbourhood.
///
/// Returns the sanitised image. Scaling the sanitised image afterwards is
/// safe against the image-scaling attack (the attacker's payload pixels
/// are gone), at the cost of altering benign content at the same
/// positions.
///
/// # Errors
///
/// Returns [`DetectError::InvalidConfig`] if `image` does not match the
/// scaler's source size or `radius` is zero.
pub fn reconstruct_sampled_pixels(
    image: &Image,
    scaler: &Scaler,
    radius: usize,
) -> Result<Image, DetectError> {
    if image.size() != scaler.src_size() {
        return Err(DetectError::InvalidConfig {
            message: format!(
                "image {} does not match scaler source {}",
                image.size(),
                scaler.src_size()
            ),
        });
    }
    if radius == 0 {
        return Err(DetectError::InvalidConfig {
            message: "reconstruction radius must be >= 1".into(),
        });
    }

    // Sampled rows/columns: the positions the scaler reads.
    let mut col_sampled = vec![false; image.width()];
    for &j in &scaler.horizontal_coeffs().touched_sources() {
        col_sampled[j] = true;
    }
    let mut row_sampled = vec![false; image.height()];
    for &j in &scaler.vertical_coeffs().touched_sources() {
        row_sampled[j] = true;
    }

    let is_sampled = |x: usize, y: usize| row_sampled[y] && col_sampled[x];
    let mut out = image.clone();
    let mut neighbourhood: Vec<f64> = Vec::with_capacity((2 * radius + 1).pow(2));
    for y in 0..image.height() {
        for x in 0..image.width() {
            if !is_sampled(x, y) {
                continue;
            }
            for c in 0..image.channel_count() {
                neighbourhood.clear();
                for dy in -(radius as isize)..=radius as isize {
                    for dx in -(radius as isize)..=radius as isize {
                        let nx = x as isize + dx;
                        let ny = y as isize + dy;
                        if nx < 0
                            || ny < 0
                            || nx >= image.width() as isize
                            || ny >= image.height() as isize
                        {
                            continue;
                        }
                        let (nx, ny) = (nx as usize, ny as usize);
                        if !is_sampled(nx, ny) {
                            neighbourhood.push(image.get(nx, ny, c));
                        }
                    }
                }
                if neighbourhood.is_empty() {
                    continue; // nothing trustworthy nearby; keep the pixel
                }
                neighbourhood.sort_by(|a, b| a.partial_cmp(b).expect("image samples are not NaN"));
                let median = neighbourhood[neighbourhood.len() / 2];
                out.set(x, y, c, median);
            }
        }
    }
    Ok(out)
}

/// Quality cost of a prevention pass on a benign image: the MSE between
/// the original and the sanitised image (the degradation the paper's
/// detection-only approach avoids).
///
/// # Errors
///
/// Propagates errors from [`reconstruct_sampled_pixels`].
pub fn prevention_quality_cost(
    image: &Image,
    scaler: &Scaler,
    radius: usize,
) -> Result<f64, DetectError> {
    let sanitised = reconstruct_sampled_pixels(image, scaler, radius)?;
    Ok(decamouflage_metrics::mse(image, &sanitised)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use decamouflage_attack::{craft_attack, AttackConfig};
    use decamouflage_imaging::scale::ScaleAlgorithm;
    use decamouflage_imaging::Size;

    fn smooth(n: usize) -> Image {
        Image::from_fn_gray(n, n, |x, y| {
            (128.0 + 50.0 * ((x as f64) * 0.07).sin() + 45.0 * ((y as f64) * 0.06).cos()).round()
        })
    }

    fn busy_target(n: usize) -> Image {
        Image::from_fn_gray(n, n, |x, y| ((x * 83 + y * 47) % 256) as f64)
    }

    #[test]
    fn reconstruction_neutralises_the_attack() {
        let scaler =
            Scaler::new(Size::square(64), Size::square(16), ScaleAlgorithm::Bilinear).unwrap();
        let original = smooth(64);
        let target = busy_target(16);
        let attack =
            craft_attack(&original, &target, &scaler, &AttackConfig::default()).unwrap().image;

        // Before prevention: downscale hits the target.
        let before = scaler.apply(&attack).unwrap();
        let dev_before: f64 = before
            .planes()
            .iter()
            .flatten()
            .zip(target.planes().iter().flatten())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(dev_before <= 4.0, "attack should work before prevention");

        // After prevention: the payload is destroyed.
        let sanitised = reconstruct_sampled_pixels(&attack, &scaler, 2).unwrap();
        let after = scaler.apply(&sanitised).unwrap();
        let mse_after: f64 = after
            .planes()
            .iter()
            .flatten()
            .zip(target.planes().iter().flatten())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            / (target.plane_len() * target.channel_count()) as f64;
        assert!(mse_after > 500.0, "downscale still close to the attack target (MSE {mse_after})");

        // And the sanitised downscale resembles the benign downscale.
        let benign_down = scaler.apply(&original).unwrap();
        let mse_vs_benign: f64 = after
            .planes()
            .iter()
            .flatten()
            .zip(benign_down.planes().iter().flatten())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            / (benign_down.plane_len() * benign_down.channel_count()) as f64;
        assert!(mse_vs_benign < mse_after, "sanitised output should look benign");
    }

    #[test]
    fn prevention_degrades_benign_images() {
        // The paper's argument: prevention is not free — benign inputs are
        // rewritten too.
        let scaler =
            Scaler::new(Size::square(64), Size::square(16), ScaleAlgorithm::Bilinear).unwrap();
        let benign = Image::from_fn_gray(64, 64, |x, y| ((x * 17 + y * 29) % 251) as f64);
        let cost = prevention_quality_cost(&benign, &scaler, 2).unwrap();
        assert!(cost > 0.0, "reconstruction must alter sampled pixels");
    }

    #[test]
    fn smooth_benign_images_cost_little() {
        let scaler =
            Scaler::new(Size::square(64), Size::square(16), ScaleAlgorithm::Bilinear).unwrap();
        let benign = smooth(64);
        let cost = prevention_quality_cost(&benign, &scaler, 2).unwrap();
        // Smooth content: the median of neighbours is close to the pixel.
        assert!(cost < 50.0, "cost {cost}");
    }

    #[test]
    fn validates_inputs() {
        let scaler =
            Scaler::new(Size::square(64), Size::square(16), ScaleAlgorithm::Bilinear).unwrap();
        let wrong_size = smooth(32);
        assert!(reconstruct_sampled_pixels(&wrong_size, &scaler, 2).is_err());
        assert!(reconstruct_sampled_pixels(&smooth(64), &scaler, 0).is_err());
    }

    #[test]
    fn untouched_pixels_are_preserved() {
        let scaler =
            Scaler::new(Size::square(64), Size::square(16), ScaleAlgorithm::Nearest).unwrap();
        let img = smooth(64);
        let out = reconstruct_sampled_pixels(&img, &scaler, 1).unwrap();
        // Nearest at factor 4 samples 16 rows x 16 cols: all other pixels
        // must be bit-identical.
        let mut col_sampled = [false; 64];
        for &j in &scaler.horizontal_coeffs().touched_sources() {
            col_sampled[j] = true;
        }
        let mut row_sampled = [false; 64];
        for &j in &scaler.vertical_coeffs().touched_sources() {
            row_sampled[j] = true;
        }
        for (y, &row) in row_sampled.iter().enumerate() {
            for (x, &col) in col_sampled.iter().enumerate() {
                if !(row && col) {
                    assert_eq!(out.get(x, y, 0), img.get(x, y, 0), "({x},{y}) changed");
                }
            }
        }
    }
}
