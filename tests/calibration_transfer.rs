//! The paper's headline generalisation claim: thresholds determined on one
//! dataset transfer to a different dataset (abstract: "the threshold
//! determined from one dataset is also applicable to other different
//! datasets").
//!
//! Thresholds come from the same calibration path `decamouflage calibrate`
//! ships; the unseen dataset is scored one class at a time with
//! `score_class` and judged with `evaluate_threshold`.

use decamouflage::datasets::{DatasetProfile, SampleGenerator};
use decamouflage::detection::calibrate::{
    calibrate_blackbox, calibrate_whitebox, score_class, MethodCalibration,
};
use decamouflage::detection::{
    evaluate_threshold, DetectionEngine, Direction, EvalMetrics, FnSource, MethodId, MethodSet,
    StreamConfig, Threshold,
};
use decamouflage::imaging::scale::ScaleAlgorithm;
use decamouflage::imaging::{Image, Size};

const N: usize = 8;

/// The defender's method under test.
const METHOD: MethodId = MethodId::ScalingMse;

/// A second tiny profile acting as the "unseen" dataset: same image
/// statistics, different seed and master parameters.
fn tiny_variant() -> DatasetProfile {
    let mut p = DatasetProfile::tiny();
    p.seed ^= 0xDEAD_BEEF;
    p.name = "tiny-variant";
    p
}

/// The defender's scaling/MSE engine for the training profile's CNN input.
fn scaling_mse(target: Size) -> DetectionEngine {
    DetectionEngine::new(target).with_methods(MethodSet::of(&[METHOD]))
}

fn generator(profile: &DatasetProfile) -> SampleGenerator {
    SampleGenerator::new(profile.clone(), ScaleAlgorithm::Bilinear)
}

fn benign(generator: &SampleGenerator) -> FnSource<impl FnMut(u64) -> Image + '_> {
    FnSource::new(N, |i| generator.benign(i))
}

fn attacks(generator: &SampleGenerator) -> FnSource<impl FnMut(u64) -> Image + '_> {
    FnSource::new(N, |i| generator.attack_image(i).unwrap())
}

/// White-box calibration on `profile`; every sample must score.
fn calibrate(profile: &DatasetProfile, engine: &DetectionEngine) -> MethodCalibration {
    let generator = generator(profile);
    let config = StreamConfig::default();
    let calibration =
        calibrate_whitebox(engine, &mut benign(&generator), &mut attacks(&generator), &config)
            .unwrap();
    assert_eq!(calibration.quarantined(), 0, "a training sample failed to score");
    *calibration.get(METHOD).unwrap()
}

/// Judges `threshold` on `profile`'s labelled corpus; every sample must
/// score.
fn evaluate(
    profile: &DatasetProfile,
    engine: &DetectionEngine,
    threshold: Threshold,
) -> EvalMetrics {
    let generator = generator(profile);
    let config = StreamConfig::default();
    let (benign, benign_ledger) =
        score_class(engine, &mut benign(&generator), &config, "benign").unwrap();
    let (attack, attack_ledger) =
        score_class(engine, &mut attacks(&generator), &config, "attack").unwrap();
    assert!(benign_ledger.is_empty(), "benign samples failed to score: {benign_ledger:?}");
    assert!(attack_ledger.is_empty(), "attack samples failed to score: {attack_ledger:?}");
    evaluate_threshold(benign.column(METHOD), attack.column(METHOD), threshold).unwrap()
}

#[test]
fn whitebox_threshold_transfers_across_profiles() {
    let train_profile = DatasetProfile::tiny();
    let detector = scaling_mse(train_profile.target_size);
    let calibration = calibrate(&train_profile, &detector);
    let eval = evaluate(&tiny_variant(), &detector, calibration.threshold);

    assert!(calibration.train_accuracy >= 0.95);
    assert!(eval.accuracy >= 0.9, "transferred threshold degraded: {eval:?}");
}

#[test]
fn blackbox_percentile_transfers_across_profiles() {
    let train_profile = DatasetProfile::tiny();
    let detector = scaling_mse(train_profile.target_size);
    let generator = generator(&train_profile);
    let tail_percent = 13.0; // generous tail for the tiny sample size
    let calibration = calibrate_blackbox(
        &detector,
        &mut benign(&generator),
        tail_percent,
        &StreamConfig::default(),
    )
    .unwrap();
    assert_eq!(calibration.quarantined(), 0, "a training sample failed to score");
    let threshold = calibration.get(METHOD).unwrap().threshold;
    assert_eq!(threshold.direction(), Direction::AboveIsAttack);

    let eval = evaluate(&tiny_variant(), &detector, threshold);
    assert!(eval.far <= 0.15, "black-box FAR too high: {eval:?}");
}

#[test]
fn threshold_is_insensitive_to_source_size_within_profile() {
    // Calibrate on the tiny profile (64 -> 16) and evaluate on a profile
    // with a larger source size but the same CNN target.
    let train_profile = DatasetProfile::tiny();
    let mut big = DatasetProfile::tiny();
    big.name = "tiny-big";
    big.seed ^= 0x1234_5678;
    big.source_sizes = vec![Size::square(80)];

    let detector = scaling_mse(train_profile.target_size);
    let calibration = calibrate(&train_profile, &detector);
    let eval = evaluate(&big, &detector, calibration.threshold);
    assert!(eval.accuracy >= 0.85, "size shift broke the threshold: {eval:?}");
}

#[test]
fn evaluate_threshold_matches_manual_confusion() {
    let profile = DatasetProfile::tiny();
    let detector = scaling_mse(profile.target_size);
    let threshold = Threshold::new(f64::INFINITY, Direction::AboveIsAttack);
    // Nothing reaches an infinite threshold: all benign pass, all attacks
    // are missed.
    let m = evaluate(&profile, &detector, threshold);
    assert_eq!(m.frr, 0.0);
    assert_eq!(m.far, 1.0);
    assert_eq!(m.accuracy, 0.5);
}
