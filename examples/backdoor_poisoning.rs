//! Offline data-poisoning triage — the paper's §2.2 backdoor scenario.
//!
//! A data aggregator collects training images from third parties. An
//! attacker submits poisoned images that *look* like legitimate samples but
//! downscale to trigger-stamped images of the victim class, planting a
//! backdoor in any CNN trained on the batch. Decamouflage runs offline over
//! the submission queue and quarantines the poison before training.
//!
//! ```text
//! cargo run --release --example backdoor_poisoning
//! ```

use decamouflage::datasets::backdoor::{craft_poison_sample, Trigger};
use decamouflage::datasets::{DatasetProfile, SampleGenerator};
use decamouflage::detection::calibrate::calibrate_whitebox;
use decamouflage::detection::ensemble::{DegradePolicy, Ensemble};
use decamouflage::detection::{
    DetectionEngine, MethodId, MethodSet, SliceSource, SteganalysisDetector, StreamConfig,
};
use decamouflage::imaging::scale::ScaleAlgorithm;
use decamouflage::imaging::Image;

const HOLDOUT: u64 = 24; // in-house clean images used for calibration
const QUEUE: u64 = 40; // third-party submissions to triage
const POISON_EVERY: u64 = 4; // every 4th submission is poisoned

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let profile = DatasetProfile::tiny();
    let generator = SampleGenerator::new(profile.clone(), ScaleAlgorithm::Bilinear);
    let target_size = profile.target_size;
    let trigger = Trigger::default();

    // --- Calibration on the hold-out set -------------------------------
    // The aggregator owns a small clean hold-out set and can craft attack
    // samples against its own pipeline (white-box calibration).
    let clean: Vec<Image> = (0..HOLDOUT).map(|i| generator.benign(1000 + i)).collect();
    let poisoned: Vec<Image> = (0..HOLDOUT)
        .map(|i| craft_poison_sample(&generator, &trigger, 1000 + i).map(|poison| poison.image))
        .collect::<Result<_, _>>()?;
    let spatial = DetectionEngine::new(target_size)
        .with_methods(MethodSet::of(&[MethodId::ScalingMse, MethodId::FilteringSsim]));
    let mut thresholds = calibrate_whitebox(
        &spatial,
        &mut SliceSource::new(&clean),
        &mut SliceSource::new(&poisoned),
        &StreamConfig::default(),
    )?
    .thresholds();
    let threshold_of = |id| thresholds.get(id).expect("calibrated").value();
    println!(
        "calibrated: scaling MSE_T = {:.1}, filtering SSIM_T = {:.3}, CSP_T = 2 (universal)",
        threshold_of(MethodId::ScalingMse),
        threshold_of(MethodId::FilteringSsim)
    );
    thresholds.insert(MethodId::Csp, SteganalysisDetector::universal_threshold());
    let ensemble = Ensemble::paper(target_size, &thresholds, DegradePolicy::Strict)?;

    // --- Triage the submission queue ------------------------------------
    let mut quarantined = 0u64;
    let mut missed_poison = 0u64;
    let mut false_alarms = 0u64;
    let mut accepted = Vec::<Image>::new();
    for i in 0..QUEUE {
        let is_poison = i % POISON_EVERY == 0;
        let submission = if is_poison {
            let crafted = craft_poison_sample(&generator, &trigger, i)?;
            // Camouflage: the perturbation is confined to the sparse set
            // of pixels the scaler samples (the curator sees scattered
            // specks at worst, not the trigger; on the tiny 64-px demo
            // profile those specks are proportionally larger than on
            // real-size images)...
            assert!(
                crafted.stats.perturbed_fraction < 0.35,
                "perturbation not sparse: {:.2}",
                crafted.stats.perturbed_fraction
            );
            // ...but a model trained on the downscaled image sees the
            // trigger clearly.
            let model_view = generator.scaler(i).apply(&crafted.image)?;
            assert!(trigger.is_present(&model_view), "payload missing");
            crafted.image
        } else {
            generator.benign(i)
        };
        let flagged = ensemble.decide(&submission)?.is_attack;
        match (is_poison, flagged) {
            (true, true) => quarantined += 1,
            (true, false) => missed_poison += 1,
            (false, true) => false_alarms += 1,
            (false, false) => accepted.push(submission),
        }
    }

    let poison_total = QUEUE.div_ceil(POISON_EVERY);
    println!(
        "queue of {QUEUE}: {poison_total} poisoned submissions -> {quarantined} quarantined, \
         {missed_poison} missed; {false_alarms} false alarms; {} clean images accepted",
        accepted.len()
    );
    assert_eq!(missed_poison, 0, "a missed poison image would plant the backdoor");
    println!("ok: training set is clean, the backdoor was never planted");
    Ok(())
}
