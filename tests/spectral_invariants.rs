//! Cross-crate spectral invariants: the CSP statistic must be stable under
//! the symmetries of the DFT, and the windowed pipeline must behave
//! sanely. These guard the steganalysis detector against regressions in
//! any of its four substrate layers (transforms, FFT, masking, labelling).

use decamouflage::datasets::{DatasetProfile, SampleGenerator};
use decamouflage::imaging::scale::ScaleAlgorithm;
use decamouflage::imaging::Image;
use decamouflage::spectral::csp::{count_csp, CspConfig};
use decamouflage::spectral::dft2d::{centered_spectrum, dft2_planned, idft2};
use decamouflage::spectral::window::{apply_window, WindowKind};

fn benign() -> Image {
    SampleGenerator::new(DatasetProfile::tiny(), ScaleAlgorithm::Bilinear).benign(3)
}

fn attack() -> Image {
    SampleGenerator::new(DatasetProfile::tiny(), ScaleAlgorithm::Bilinear).attack_image(3).unwrap()
}

/// The `width × height` image whose pixel `(x, y)` is `img`'s pixel
/// `source(x, y)`, all channels moved together.
fn remap(
    img: &Image,
    width: usize,
    height: usize,
    source: impl Fn(usize, usize) -> (usize, usize),
) -> Image {
    let mut out = Image::zeros(width, height, img.channels());
    for y in 0..height {
        for x in 0..width {
            let (sx, sy) = source(x, y);
            for ch in 0..img.channel_count() {
                out.set(x, y, ch, img.get(sx, sy, ch));
            }
        }
    }
    out
}

fn flip_horizontal(img: &Image) -> Image {
    let (w, h) = (img.width(), img.height());
    remap(img, w, h, |x, y| (w - 1 - x, y))
}

fn flip_vertical(img: &Image) -> Image {
    let (w, h) = (img.width(), img.height());
    remap(img, w, h, |x, y| (x, h - 1 - y))
}

fn rotate180(img: &Image) -> Image {
    let (w, h) = (img.width(), img.height());
    remap(img, w, h, |x, y| (w - 1 - x, h - 1 - y))
}

/// Rotates 90 degrees clockwise: the output is `h` wide and `w` tall.
fn rotate90_cw(img: &Image) -> Image {
    let (w, h) = (img.width(), img.height());
    remap(img, h, w, |x, y| (y, h - 1 - x))
}

#[test]
fn csp_count_is_invariant_under_flips() {
    let config = CspConfig::default();
    for img in [benign(), attack()] {
        let base = count_csp(&img, &config).count;
        assert_eq!(count_csp(&flip_horizontal(&img), &config).count, base);
        assert_eq!(count_csp(&flip_vertical(&img), &config).count, base);
        assert_eq!(count_csp(&rotate180(&img), &config).count, base);
    }
}

#[test]
fn csp_count_is_invariant_under_square_rotation() {
    // 90-degree rotation transposes the spectrum; for square images the
    // blob count is unchanged.
    let config = CspConfig::default();
    let img = attack();
    assert_eq!(img.width(), img.height(), "tiny profile is square");
    let base = count_csp(&img, &config).count;
    assert_eq!(count_csp(&rotate90_cw(&img), &config).count, base);
}

#[test]
fn spectrum_magnitude_is_invariant_under_spatial_shift_of_periodic_content() {
    // Shifting image content only changes DFT phase; the centred magnitude
    // spectrum (and hence CSP) stays the same for a circular shift.
    let img = attack();
    let (w, h) = (img.width(), img.height());
    let shifted = Image::from_fn_gray(w, h, |x, y| img.get((x + 5) % w, (y + 9) % h, 0));
    let a = centered_spectrum(&img);
    let b = centered_spectrum(&shifted);
    assert!(a.approx_eq(&b, 1e-6), "centred magnitude spectrum must ignore circular shifts");
}

#[test]
fn dft_roundtrip_on_generated_images() {
    for img in [benign(), attack()] {
        let back = idft2(&dft2_planned(&img));
        assert!(back.approx_eq(&img.to_gray(), 1e-6));
    }
}

#[test]
fn windowing_keeps_benign_clean_but_needs_a_retuned_threshold_for_attacks() {
    // Windowing rescales spectral magnitudes: the benign verdict is
    // unaffected (still one central blob), but the attack peaks drop by
    // the window's coherent gain, so the binarisation threshold must be
    // re-tuned (lowered) when a window is inserted into the pipeline.
    let default_config = CspConfig::default();
    let benign_w = apply_window(&benign(), WindowKind::Hann);
    assert_eq!(count_csp(&benign_w, &default_config).count, 1);

    let retuned = CspConfig { binarize_threshold: 0.55, ..CspConfig::default() };
    let attack_w = apply_window(&attack(), WindowKind::Hann);
    assert!(
        count_csp(&attack_w, &retuned).count >= 2,
        "retuned windowed pipeline must still see the peaks"
    );
}

#[test]
fn all_windows_keep_attack_detectable_after_retuning() {
    let img = attack();
    for (kind, threshold) in [
        (WindowKind::Rectangular, 0.72),
        (WindowKind::Hann, 0.55),
        (WindowKind::Hamming, 0.55),
        (WindowKind::Blackman, 0.5),
    ] {
        let config = CspConfig { binarize_threshold: threshold, ..CspConfig::default() };
        let windowed = apply_window(&img, kind);
        assert!(
            count_csp(&windowed, &config).count >= 2,
            "{kind:?} window lost the attack peaks at threshold {threshold}"
        );
    }
}

#[test]
fn peak_excess_agrees_with_csp_on_the_tiny_corpus() {
    use decamouflage::detection::{DetectionEngine, MethodId, MethodSet};
    let profile = DatasetProfile::tiny();
    let g = SampleGenerator::new(profile.clone(), ScaleAlgorithm::Bilinear);
    let engine = DetectionEngine::new(profile.target_size)
        .with_methods(MethodSet::of(&[MethodId::PeakExcess]));
    let score = |image| engine.score(&image).unwrap().peak_excess();
    let mut separations = 0;
    for i in 0..6u64 {
        let b = score(g.benign(i));
        let a = score(g.attack_image(i).unwrap());
        separations += usize::from(a > b);
    }
    assert!(separations >= 5, "peak excess separated only {separations}/6");
}
