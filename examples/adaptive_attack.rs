//! Adaptive attacks against the ensemble — the paper's §6 discussion.
//!
//! Two evasion strategies are tried against a calibrated Decamouflage
//! ensemble:
//!
//! 1. **Jitter camouflage** — noise on the pixels the scaler ignores, to
//!    blur the periodic CSP peaks. The downscaled output is untouched, but
//!    the spatial detectors see a *larger* residual: the methods cover for
//!    each other.
//! 2. **Partial-strength attacks** — blending the target towards the benign
//!    downscale to shrink the perturbation. Detectability falls only as the
//!    attack stops reaching its target, i.e. as it stops being an attack.
//!
//! ```text
//! cargo run --release --example adaptive_attack
//! ```

use decamouflage::attack::adaptive::{blend_target, jitter_camouflage};
use decamouflage::attack::{craft_attack, verify_attack, AttackConfig, VerifyConfig};
use decamouflage::datasets::{DatasetProfile, SampleGenerator};
use decamouflage::detection::calibrate::calibrate_whitebox;
use decamouflage::detection::ensemble::{DegradePolicy, Ensemble};
use decamouflage::detection::{
    DetectionEngine, MethodId, MethodSet, SliceSource, SteganalysisDetector, StreamConfig,
};
use decamouflage::imaging::scale::ScaleAlgorithm;
use decamouflage::imaging::Image;

const SAMPLES: u64 = 12;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let profile = DatasetProfile::tiny();
    let generator = SampleGenerator::new(profile.clone(), ScaleAlgorithm::Bilinear);
    let target_size = profile.target_size;

    // Calibrate a white-box ensemble on a hold-out slice: scaling and
    // filtering thresholds from the samples, the universal CSP threshold.
    let clean: Vec<Image> = (0..SAMPLES).map(|i| generator.benign(900 + i)).collect();
    let attacks: Vec<Image> =
        (0..SAMPLES).map(|i| generator.attack_image(900 + i)).collect::<Result<_, _>>()?;
    let spatial = DetectionEngine::new(target_size)
        .with_methods(MethodSet::of(&[MethodId::ScalingMse, MethodId::FilteringSsim]));
    let mut thresholds = calibrate_whitebox(
        &spatial,
        &mut SliceSource::new(&clean),
        &mut SliceSource::new(&attacks),
        &StreamConfig::default(),
    )?
    .thresholds();
    thresholds.insert(MethodId::Csp, SteganalysisDetector::universal_threshold());
    let ensemble = Ensemble::paper(target_size, &thresholds, DegradePolicy::Strict)?;

    // --- Strategy 1: jitter camouflage ----------------------------------
    println!("jitter camouflage (noise amplitude -> detection rate):");
    for strength in [0.0, 8.0, 20.0] {
        let mut caught = 0u64;
        for i in 0..SAMPLES {
            let crafted = generator.attack_image(i)?;
            let evasive = jitter_camouflage(&crafted, &generator.scaler(i), strength, i)?;
            caught += u64::from(ensemble.decide(&evasive)?.is_attack);
        }
        println!("  strength {strength:>4}: {caught}/{SAMPLES} still detected");
    }

    // --- Strategy 2: partial-strength attacks ---------------------------
    println!("partial-strength attacks (blend alpha -> detection rate, attack still works?):");
    for alpha in [1.0, 0.6, 0.3] {
        let mut caught = 0u64;
        let mut still_effective = 0u64;
        for i in 0..SAMPLES {
            let original = generator.benign(i);
            let full_target = generator.target(i);
            let scaler = generator.scaler(i);
            let weak_target = blend_target(&original, &full_target, &scaler, alpha)?;
            let crafted = craft_attack(&original, &weak_target, &scaler, &AttackConfig::default())?;
            caught += u64::from(ensemble.decide(&crafted.image)?.is_attack);
            // Does the weakened image still deliver the *original* target?
            let v = verify_attack(
                &original,
                &crafted.image,
                &full_target,
                &scaler,
                &VerifyConfig::default(),
            )?;
            still_effective += u64::from(v.scales_to_target);
        }
        println!(
            "  alpha {alpha:>3}: {caught}/{SAMPLES} detected, {still_effective}/{SAMPLES} still \
             deliver the full target"
        );
    }

    println!(
        "conclusion: evading one method strengthens another; weakening the attack far enough \
         to slip through also destroys its payload — the paper's defense-in-depth argument."
    );
    Ok(())
}
