//! Quickstart: craft an image-scaling attack, then catch it with all three
//! Decamouflage detection methods and the majority-vote ensemble.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use decamouflage::attack::{craft_attack, verify_attack, AttackConfig, VerifyConfig};
use decamouflage::datasets::{DatasetProfile, SampleGenerator};
use decamouflage::detection::ensemble::{DegradePolicy, Ensemble};
use decamouflage::detection::persist::ThresholdSet;
use decamouflage::detection::{Direction, MethodId, SteganalysisDetector, Threshold};
use decamouflage::imaging::scale::ScaleAlgorithm;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A benign "photo" and an adversarial target, from the seeded
    //    synthetic dataset (stand-in for real photographs).
    let generator = SampleGenerator::new(DatasetProfile::tiny(), ScaleAlgorithm::Bilinear);
    let original = generator.benign(7);
    let target = generator.target(7);
    let scaler = generator.scaler(7);
    println!("original {} -> CNN input {}", original.size(), scaler.dst_size());

    // 2. Craft the attack: visually the original, but downscales to the
    //    target (Xiao et al.'s camouflage attack).
    let crafted = craft_attack(&original, &target, &scaler, &AttackConfig::default())?;
    let verification =
        verify_attack(&original, &crafted.image, &target, &scaler, &VerifyConfig::default())?;
    println!(
        "attack crafted: deviation from target (L-inf) = {:.2}, perturbed {:.1}% of pixels, \
         successful = {}",
        crafted.stats.target_deviation_linf,
        crafted.stats.perturbed_fraction * 100.0,
        verification.is_successful()
    );

    // 3. Assemble the full Decamouflage system: the three detection
    //    methods, scored in one engine pass per image, and their majority
    //    vote. In deployment the first two thresholds come from calibration
    //    (white-box search or black-box percentiles); here we use values
    //    that any calibration run on the tiny profile produces. The CSP
    //    threshold is universal.
    let thresholds: ThresholdSet = [
        (MethodId::ScalingMse, Threshold::new(200.0, Direction::AboveIsAttack)),
        (MethodId::FilteringSsim, Threshold::new(0.55, Direction::BelowIsAttack)),
        (MethodId::Csp, SteganalysisDetector::universal_threshold()),
    ]
    .into_iter()
    .collect();
    let ensemble = Ensemble::paper(scaler.dst_size(), &thresholds, DegradePolicy::Strict)?;

    // 4. Run the three detection methods on both images.
    for (name, image) in [("benign", &original), ("attack", &crafted.image)] {
        let scores = ensemble.engine().score(image)?;
        println!(
            "{name}: scaling MSE = {:8.1}   filtering SSIM = {:.3}   CSP = {}",
            scores.scaling_mse(),
            scores.filtering_ssim(),
            scores.csp()
        );
    }

    let benign_verdict = ensemble.decide(&original)?;
    let attack_verdict = ensemble.decide(&crafted.image)?;
    println!("ensemble on benign: attack = {}", benign_verdict.is_attack);
    for (member, vote) in &attack_verdict.votes {
        println!("  attack vote {member}: {vote}");
    }
    println!("ensemble on attack: attack = {}", attack_verdict.is_attack);

    assert!(!benign_verdict.is_attack, "benign image must pass");
    assert!(attack_verdict.is_attack, "attack image must be caught");
    println!("ok: Decamouflage caught the attack and passed the benign image");
    Ok(())
}
