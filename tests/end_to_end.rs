//! End-to-end integration: attack crafting -> detection across the
//! (scaler x metric x mode) grid, on the tiny dataset profile.

use decamouflage::attack::{verify_attack, VerifyConfig};
use decamouflage::datasets::{DatasetProfile, SampleGenerator};
use decamouflage::detection::ensemble::{DegradePolicy, Ensemble};
use decamouflage::detection::persist::ThresholdSet;
use decamouflage::detection::threshold::{percentile_blackbox, search_whitebox};
use decamouflage::detection::{
    DetectionEngine, Direction, MethodId, MethodSet, MetricKind, SteganalysisDetector,
};
use decamouflage::imaging::scale::ScaleAlgorithm;
use decamouflage::imaging::Size;

const N: u64 = 8;

/// The defender's engine for a CNN input size (bilinear round trip),
/// scoring only `ids`.
fn engine(target: Size, ids: &[MethodId]) -> DetectionEngine {
    DetectionEngine::new(target).with_methods(MethodSet::of(ids))
}

fn scores(
    engine: &DetectionEngine,
    id: MethodId,
    generator: &SampleGenerator,
    offset: u64,
) -> (Vec<f64>, Vec<f64>) {
    let score = |image| engine.score(&image).unwrap().get(id);
    let mut benign = Vec::new();
    let mut attack = Vec::new();
    for i in 0..N {
        benign.push(score(generator.benign(offset + i)));
        attack.push(score(generator.attack_image(offset + i).unwrap()));
    }
    (benign, attack)
}

#[test]
fn scaling_detector_separates_for_every_attack_algorithm() {
    let profile = DatasetProfile::tiny();
    for attack_algo in [ScaleAlgorithm::Nearest, ScaleAlgorithm::Bilinear] {
        let generator = SampleGenerator::new(profile.clone(), attack_algo);
        for metric in [MetricKind::Mse, MetricKind::Ssim] {
            let id = MethodId::scaling(metric);
            let (benign, attack) = scores(&engine(profile.target_size, &[id]), id, &generator, 0);
            let search = search_whitebox(&benign, &attack, metric.direction()).unwrap();
            assert!(
                search.train_accuracy >= 0.9,
                "scaling/{metric} vs {attack_algo} attacks: accuracy {}",
                search.train_accuracy
            );
        }
    }
}

#[test]
fn filtering_detector_separates_for_every_metric() {
    let profile = DatasetProfile::tiny();
    let generator = SampleGenerator::new(profile.clone(), ScaleAlgorithm::Bilinear);
    for metric in [MetricKind::Mse, MetricKind::Ssim] {
        let id = MethodId::filtering(metric);
        let (benign, attack) = scores(&engine(profile.target_size, &[id]), id, &generator, 0);
        let search = search_whitebox(&benign, &attack, metric.direction()).unwrap();
        assert!(
            search.train_accuracy >= 0.9,
            "filtering/{metric}: accuracy {}",
            search.train_accuracy
        );
    }
}

#[test]
fn steganalysis_universal_threshold_works_without_calibration() {
    let profile = DatasetProfile::tiny();
    let generator = SampleGenerator::new(profile.clone(), ScaleAlgorithm::Bilinear);
    let engine = engine(profile.target_size, &[MethodId::Csp]);
    let threshold = SteganalysisDetector::universal_threshold();
    let (benign, attack) = scores(&engine, MethodId::Csp, &generator, 0);
    let mut correct = 0;
    for (benign_score, attack_score) in benign.into_iter().zip(attack) {
        correct += usize::from(!threshold.is_attack(benign_score));
        correct += usize::from(threshold.is_attack(attack_score));
    }
    assert!(
        correct as f64 >= 2.0 * N as f64 * 0.85,
        "CSP_T = 2 only classified {correct}/{} correctly",
        2 * N
    );
}

#[test]
fn blackbox_percentile_calibration_detects_unseen_attacks() {
    // Calibrate on benign only; the attacker uses nearest-neighbour, which
    // the calibration never saw. SSIM is the metric here: the synthetic
    // corpus draws its high-frequency content amplitude from a wide range,
    // which gives benign round-trip *MSE* a heavy tail (a 2% percentile on
    // a handful of samples then sits on a single outlier), while SSIM is
    // normalised by local variance and keeps the benign tail compact.
    let profile = DatasetProfile::tiny();
    let benign_gen = SampleGenerator::new(profile.clone(), ScaleAlgorithm::Bilinear);
    let engine = engine(profile.target_size, &[MethodId::ScalingSsim]);
    let score = |image| engine.score(&image).unwrap().scaling_ssim();
    let benign_scores: Vec<f64> = (100..100 + 2 * N).map(|i| score(benign_gen.benign(i))).collect();
    let threshold = percentile_blackbox(&benign_scores, 2.0, MetricKind::Ssim.direction()).unwrap();

    let attacker = SampleGenerator::new(profile, ScaleAlgorithm::Nearest);
    let mut caught = 0;
    for i in 0..N {
        caught += usize::from(threshold.is_attack(score(attacker.attack_image(i).unwrap())));
    }
    assert!(caught as f64 >= N as f64 * 0.85, "caught only {caught}/{N}");
}

#[test]
fn full_ensemble_catches_attacks_and_passes_benign() {
    let profile = DatasetProfile::tiny();
    let generator = SampleGenerator::new(profile.clone(), ScaleAlgorithm::Bilinear);
    let spatial = engine(profile.target_size, &[MethodId::ScalingMse, MethodId::FilteringSsim]);
    let (b_s, a_s) = scores(&spatial, MethodId::ScalingMse, &generator, 50);
    let (b_f, a_f) = scores(&spatial, MethodId::FilteringSsim, &generator, 50);
    let thresholds: ThresholdSet = [
        (
            MethodId::ScalingMse,
            search_whitebox(&b_s, &a_s, Direction::AboveIsAttack).unwrap().threshold,
        ),
        (
            MethodId::FilteringSsim,
            search_whitebox(&b_f, &a_f, Direction::BelowIsAttack).unwrap().threshold,
        ),
        (MethodId::Csp, SteganalysisDetector::universal_threshold()),
    ]
    .into_iter()
    .collect();
    let ensemble =
        Ensemble::paper(profile.target_size, &thresholds, DegradePolicy::Strict).unwrap();

    let is_attack = |image| ensemble.decide(&image).unwrap().is_attack;
    let mut errors = 0;
    for i in 0..N {
        errors += usize::from(is_attack(generator.benign(i)));
        errors += usize::from(!is_attack(generator.attack_image(i).unwrap()));
    }
    assert!(errors <= 1, "{errors} ensemble errors over {} decisions", 2 * N);
}

#[test]
fn crafted_attacks_satisfy_both_paper_criteria() {
    let profile = DatasetProfile::tiny();
    for algo in [ScaleAlgorithm::Nearest, ScaleAlgorithm::Bilinear] {
        let generator = SampleGenerator::new(profile.clone(), algo);
        for i in 0..4u64 {
            let v = verify_attack(
                &generator.benign(i),
                &generator.attack_image(i).unwrap(),
                &generator.target(i),
                &generator.scaler(i),
                &VerifyConfig::default(),
            )
            .unwrap();
            assert!(v.is_successful(), "{algo} attack {i} failed: {v:?}");
        }
    }
}

#[test]
fn rgb_corpus_is_detected_end_to_end() {
    let profile = DatasetProfile::tiny_rgb();
    let generator = SampleGenerator::new(profile.clone(), ScaleAlgorithm::Bilinear);
    let engine = engine(profile.target_size, &[MethodId::ScalingMse, MethodId::Csp]);
    let mut correct = 0usize;
    let trials = 4u64;
    for i in 0..trials {
        let benign = generator.benign(i);
        let attack = generator.attack_image(i).unwrap();
        assert_eq!(benign.channel_count(), 3, "profile must generate RGB");
        let (b, a) = (engine.score(&benign).unwrap(), engine.score(&attack).unwrap());
        correct += usize::from(a.scaling_mse() > b.scaling_mse() * 3.0);
        correct += usize::from(a.csp() > b.csp());
    }
    assert!(
        correct >= (2 * trials as usize) - 1,
        "only {correct}/{} RGB checks passed",
        2 * trials
    );
}
