//! Full deployment lifecycle: calibrate offline, persist thresholds to a
//! file, reload them in a fresh "process", screen traffic with drift
//! monitoring.
//!
//! ```text
//! cargo run --release --example calibrate_and_persist
//! ```

use decamouflage::datasets::{DatasetProfile, SampleGenerator};
use decamouflage::detection::calibrate::calibrate_whitebox;
use decamouflage::detection::monitor::DetectionMonitor;
use decamouflage::detection::persist::ThresholdSet;
use decamouflage::detection::{
    DetectionEngine, MethodId, MethodSet, SliceSource, SteganalysisDetector, StreamConfig,
};
use decamouflage::imaging::scale::ScaleAlgorithm;
use decamouflage::imaging::Image;
use decamouflage::metrics::OnlineStats;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let profile = DatasetProfile::tiny();
    let generator = SampleGenerator::new(profile.clone(), ScaleAlgorithm::Bilinear);
    let target_size = profile.target_size;

    // ---- Offline: calibrate and persist --------------------------------
    let benign: Vec<Image> = (0..16u64).map(|i| generator.benign(300 + i)).collect();
    let attacks: Vec<Image> =
        (0..16u64).map(|i| generator.attack_image(300 + i)).collect::<Result<_, _>>()?;

    // Scaling and filtering calibrate on the samples in one engine pass per
    // image; CSP keeps its universal threshold.
    let engine = DetectionEngine::new(target_size)
        .with_methods(MethodSet::of(&[MethodId::ScalingMse, MethodId::FilteringSsim]));
    let calibration = calibrate_whitebox(
        &engine,
        &mut SliceSource::new(&benign),
        &mut SliceSource::new(&attacks),
        &StreamConfig::default(),
    )?;

    let mut set = calibration.thresholds();
    set.insert(MethodId::Csp, SteganalysisDetector::universal_threshold());

    let path = std::env::temp_dir().join("decamouflage-thresholds.txt");
    set.save(&path)?;
    println!("calibrated and saved {} thresholds to {}", set.len(), path.display());
    println!("{}", set.to_text());

    // ---- Online: reload in a fresh context ------------------------------
    let restored = ThresholdSet::load(&path)?;
    assert_eq!(restored, set);
    let threshold =
        restored.get(MethodId::ScalingMse).expect("threshold file contains the scaling detector");

    // Calibration statistics feed the drift monitor.
    let stats: OnlineStats =
        calibration.benign_scores.column(MethodId::ScalingMse).iter().copied().collect();
    let mut monitor = DetectionMonitor::new(
        &engine,
        MethodId::ScalingMse,
        threshold,
        stats.mean(),
        stats.population_std_dev(),
        8,   // rolling window
        4.0, // alert at 4 sigmas
    )?;

    let mut blocked = 0;
    let mut drift_alerts = 0;
    for i in 0..24u64 {
        let request = if i % 4 == 0 { generator.attack_image(i)? } else { generator.benign(i) };
        let verdict = monitor.screen(&request)?;
        blocked += u32::from(verdict.is_attack);
        drift_alerts += u32::from(verdict.drift_alert);
    }
    let m = monitor.stats();
    println!(
        "screened {} requests: {blocked} blocked, window mean {:.1} (calibration mean {:.1}), \
         {drift_alerts} drift alerts",
        m.screened,
        m.window_mean,
        stats.mean()
    );
    assert_eq!(blocked, 6, "all six attacks should be blocked");
    assert_eq!(drift_alerts, 0, "in-distribution traffic must not alert");
    std::fs::remove_file(&path).ok();
    println!("ok: calibrate -> persist -> reload -> monitor lifecycle works");
    Ok(())
}
