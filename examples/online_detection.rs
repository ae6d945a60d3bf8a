//! Online (run-time) detection in front of an inference service — the
//! paper's black-box deployment mode.
//!
//! The service never sees the attacker's algorithm. Thresholds come from
//! benign-only percentile calibration (1% tail), the steganalysis method
//! needs no calibration at all, and every incoming request is screened
//! before it reaches the model. Per-image latency is reported, mirroring
//! the paper's run-time overhead table.
//!
//! ```text
//! cargo run --release --example online_detection
//! ```

use decamouflage::datasets::{DatasetProfile, SampleGenerator};
use decamouflage::detection::calibrate::calibrate_blackbox;
use decamouflage::detection::ensemble::{DegradePolicy, Ensemble};
use decamouflage::detection::{
    DetectionEngine, MethodId, MethodSet, SliceSource, SteganalysisDetector, StreamConfig,
};
use decamouflage::imaging::scale::ScaleAlgorithm;
use decamouflage::imaging::Image;
use std::time::Instant;

const CALIBRATION: u64 = 32; // benign traffic sample used for percentiles
const TRAFFIC: u64 = 30; // live requests to screen

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let profile = DatasetProfile::tiny();
    let target_size = profile.target_size;
    // The attacker targets nearest-neighbour scaling; the service neither
    // knows nor cares — its detectors use its own bilinear round trip.
    let attacker = SampleGenerator::new(profile.clone(), ScaleAlgorithm::Nearest);

    // --- Black-box calibration: benign traffic only ---------------------
    let traffic: Vec<Image> = (0..CALIBRATION).map(|i| attacker.benign(5000 + i)).collect();
    let spatial = DetectionEngine::new(target_size)
        .with_methods(MethodSet::of(&[MethodId::ScalingMse, MethodId::FilteringSsim]));
    let config = StreamConfig::default();
    let mut thresholds =
        calibrate_blackbox(&spatial, &mut SliceSource::new(&traffic), 1.0, &config)?.thresholds();
    let threshold_of = |id| thresholds.get(id).expect("calibrated").value();
    println!(
        "black-box thresholds: scaling MSE >= {:.1}, filtering SSIM <= {:.3}, CSP >= 2",
        threshold_of(MethodId::ScalingMse),
        threshold_of(MethodId::FilteringSsim)
    );
    thresholds.insert(MethodId::Csp, SteganalysisDetector::universal_threshold());
    let ensemble = Ensemble::paper(target_size, &thresholds, DegradePolicy::Strict)?;

    // --- Screen live traffic -------------------------------------------
    let mut blocked = 0u32;
    let mut passed = 0u32;
    let mut wrong = 0u32;
    let mut total_ms = 0.0;
    for i in 0..TRAFFIC {
        let is_attack = i % 3 == 0; // a third of the traffic is hostile
        let request = if is_attack { attacker.attack_image(i)? } else { attacker.benign(i) };
        let start = Instant::now();
        let verdict = ensemble.decide(&request)?.is_attack;
        total_ms += start.elapsed().as_secs_f64() * 1000.0;
        if verdict == is_attack {
            if verdict {
                blocked += 1;
            } else {
                passed += 1;
            }
        } else {
            wrong += 1;
        }
    }

    println!(
        "screened {TRAFFIC} requests: {blocked} attacks blocked, {passed} benign passed, \
         {wrong} misclassified; mean latency {:.2} ms/request",
        total_ms / TRAFFIC as f64
    );
    assert!(wrong <= 2, "online screening degraded: {wrong} errors");
    println!("ok: online screening holds up without knowing the attack algorithm");
    Ok(())
}
