//! The paper's headline generalisation claim: thresholds determined on one
//! dataset transfer to a different dataset (abstract: "the threshold
//! determined from one dataset is also applicable to other different
//! datasets").

use decamouflage::datasets::{DatasetProfile, SampleGenerator};
use decamouflage::detection::pipeline::{
    evaluate_threshold, run_blackbox, run_whitebox, ScoredCorpus,
};
use decamouflage::detection::{DetectionEngine, MethodId, MethodSet};
use decamouflage::imaging::scale::ScaleAlgorithm;
use decamouflage::imaging::Size;

const N: usize = 8;

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
    DetectionEngine::new(target).with_methods(MethodSet::of(&[MethodId::ScalingMse]))
}

fn score(profile: &DatasetProfile, engine: &DetectionEngine) -> ScoredCorpus {
    let generator = SampleGenerator::new(profile.clone(), ScaleAlgorithm::Bilinear);
    let corpus = engine
        .score_corpus(|i| generator.benign(i), |i| generator.attack_image(i).unwrap(), N, 1)
        .unwrap();
    ScoredCorpus {
        benign: corpus.benign_column(MethodId::ScalingMse),
        attack: corpus.attack_column(MethodId::ScalingMse),
    }
}

#[test]
fn whitebox_threshold_transfers_across_profiles() {
    let train_profile = DatasetProfile::tiny();
    let eval_profile = tiny_variant();
    let detector = scaling_mse(train_profile.target_size);
    let train = score(&train_profile, &detector);
    let eval = score(&eval_profile, &detector);

    let outcome =
        run_whitebox(&train, &eval, decamouflage::detection::Direction::AboveIsAttack).unwrap();
    assert!(outcome.train_accuracy >= 0.95);
    assert!(outcome.eval.accuracy >= 0.9, "transferred threshold degraded: {:?}", outcome.eval);
}

#[test]
fn blackbox_percentile_transfers_across_profiles() {
    let train_profile = DatasetProfile::tiny();
    let eval_profile = tiny_variant();
    let detector = scaling_mse(train_profile.target_size);
    let train = score(&train_profile, &detector);
    let eval = score(&eval_profile, &detector);

    let outcome = run_blackbox(
        &train.benign,
        &eval,
        13.0, // generous tail for the tiny sample size
        decamouflage::detection::Direction::AboveIsAttack,
    )
    .unwrap();
    assert!(outcome.eval.far <= 0.15, "black-box FAR too high: {:?}", outcome.eval);
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
    let train = score(&train_profile, &detector);
    let eval = score(&big, &detector);
    let outcome =
        run_whitebox(&train, &eval, decamouflage::detection::Direction::AboveIsAttack).unwrap();
    assert!(outcome.eval.accuracy >= 0.85, "size shift broke the threshold: {:?}", outcome.eval);
}

#[test]
fn evaluate_threshold_matches_manual_confusion() {
    let profile = DatasetProfile::tiny();
    let detector = scaling_mse(profile.target_size);
    let corpus = score(&profile, &detector);
    let threshold = decamouflage::detection::Threshold::new(
        f64::INFINITY,
        decamouflage::detection::Direction::AboveIsAttack,
    );
    // Nothing reaches an infinite threshold: all benign pass, all attacks
    // are missed.
    let m = evaluate_threshold(&corpus, threshold).unwrap();
    assert_eq!(m.frr, 0.0);
    assert_eq!(m.far, 1.0);
    assert_eq!(m.accuracy, 0.5);
}
