//! Failure injection: degenerate and hostile inputs must produce errors or
//! sane scores — never panics.

use decamouflage::detection::{DetectionEngine, MethodId, MethodSet, ScoreVector};
use decamouflage::imaging::{Channels, Image, Size};

/// Scales and filters under MSE and counts CSPs — the spatial methods
/// without an SSIM window, which would reject the tiniest inputs.
fn score(target: Size, image: &Image) -> ScoreVector {
    let ids = [MethodId::ScalingMse, MethodId::FilteringMse, MethodId::Csp];
    DetectionEngine::new(target).with_methods(MethodSet::of(&ids)).score(image).unwrap()
}

/// Every score is finite and the CSP count non-negative.
fn assert_sane(scores: &ScoreVector) {
    assert!(scores.scaling_mse().is_finite());
    assert!(scores.filtering_mse().is_finite());
    assert!(scores.csp() >= 0.0);
}

#[test]
fn one_pixel_image_is_handled() {
    assert_sane(&score(Size::square(1), &Image::filled(1, 1, Channels::Gray, 42.0)));
}

#[test]
fn input_smaller_than_cnn_target_still_scores() {
    // Upscale-then-downscale path: an 8x8 input against a 16x16 target.
    let img = Image::from_fn_gray(8, 8, |x, y| ((x * y) % 200) as f64);
    let mse = score(Size::square(16), &img).scaling_mse();
    assert!(mse.is_finite() && mse >= 0.0);
}

#[test]
fn flat_images_are_never_flagged_by_spatial_methods() {
    for level in [0.0, 127.0, 255.0] {
        let scores = score(Size::square(16), &Image::filled(64, 64, Channels::Gray, level));
        assert_eq!(scores.scaling_mse(), 0.0, "flat {level}");
        assert_eq!(scores.filtering_mse(), 0.0, "flat {level}");
    }
}

#[test]
fn flat_image_has_single_csp() {
    let img = Image::filled(64, 64, Channels::Gray, 200.0);
    assert_eq!(score(Size::square(16), &img).csp(), 1.0);
}

#[test]
fn extreme_checkerboard_does_not_panic() {
    let img = Image::from_fn_gray(64, 64, |x, y| if (x + y) % 2 == 0 { 0.0 } else { 255.0 });
    assert_sane(&score(Size::square(16), &img));
}

#[test]
fn out_of_range_samples_are_tolerated() {
    // Samples outside [0, 255] (e.g. from a buggy upstream decoder).
    let img = Image::from_fn_gray(32, 32, |x, y| (x as f64 - y as f64) * 20.0);
    assert_sane(&score(Size::square(8), &img));
}

#[test]
fn rgb_and_gray_inputs_both_score() {
    let gray = Image::from_fn_gray(32, 32, |x, y| ((x * 7 + y * 3) % 256) as f64);
    let rgb = gray.to_rgb();
    for img in [&gray, &rgb] {
        assert_sane(&score(Size::square(8), img));
    }
}

#[test]
fn non_square_inputs_score() {
    let img = Image::from_fn_gray(100, 40, |x, y| ((x + 2 * y) % 256) as f64);
    assert_sane(&score(Size::new(20, 10), &img));
}

#[test]
fn ensemble_with_failing_member_surfaces_error() {
    use decamouflage::detection::ensemble::{DegradePolicy, Ensemble};
    use decamouflage::detection::{Direction, Threshold};
    use decamouflage::metrics::SsimConfig;

    // A zero SSIM sigma fails the member's engine pass on every image.
    let broken = SsimConfig { sigma: 0.0, ..SsimConfig::default() };
    let engine = DetectionEngine::new(Size::square(4))
        .with_ssim_config(broken)
        .with_methods(MethodSet::of(&[MethodId::FilteringSsim]));
    let member = (MethodId::FilteringSsim, Threshold::new(0.5, Direction::BelowIsAttack));
    let ensemble = Ensemble::new(engine, [member], DegradePolicy::Strict);
    let img = Image::filled(16, 16, Channels::Gray, 1.0);
    let err = ensemble.decide(&img).unwrap_err();
    assert!(err.to_string().contains("sigma must be positive"), "{err}");
}

#[test]
fn calibration_rejects_pathological_score_sets() {
    use decamouflage::detection::threshold::{percentile_blackbox, search_whitebox};
    use decamouflage::detection::Direction;

    assert!(search_whitebox(&[], &[1.0], Direction::AboveIsAttack).is_err());
    assert!(search_whitebox(&[f64::NAN], &[1.0], Direction::AboveIsAttack).is_err());
    assert!(percentile_blackbox(&[], 1.0, Direction::AboveIsAttack).is_err());
    assert!(percentile_blackbox(&[1.0, 2.0], 0.0, Direction::AboveIsAttack).is_err());
}

#[test]
fn attack_crafting_against_hostile_targets_degrades_gracefully() {
    use decamouflage::attack::{craft_attack, AttackConfig};
    use decamouflage::imaging::scale::{ScaleAlgorithm, Scaler};

    // An unreachable target (requires values the box cannot express after
    // averaging) must report non-convergence, not panic.
    let original = Image::filled(32, 32, Channels::Gray, 128.0);
    let target = Image::from_fn_gray(8, 8, |x, _| if x % 2 == 0 { 0.0 } else { 255.0 });
    let scaler = Scaler::new(Size::square(32), Size::square(8), ScaleAlgorithm::Area).unwrap();
    let crafted = craft_attack(&original, &target, &scaler, &AttackConfig::default()).unwrap();
    // Area scaling: the crafter must still produce an image in range.
    assert!(crafted.image.min_sample() >= 0.0);
    assert!(crafted.image.max_sample() <= 255.0);
}
