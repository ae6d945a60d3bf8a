//! Per-stage latency profile of the detection engine, read from its own
//! telemetry timers over a synthetic corpus.
//!
//! Prints µs/image for every shared stage and per-method increment, plus
//! the SSIM share of total engine time, on a 128² corpus; then the engine
//! pass and its `dft` stage at the paper's Table 7 sizes (336², 448²,
//! 560²) beside 512², the radix-2 reference. Used by `ci.sh` as two gates,
//! exiting non-zero if either fails:
//!
//! * the SSIM pipeline (reference build + both SSIM method increments)
//!   consumes [`SSIM_SHARE_LIMIT`] or more of a 128² engine pass — the
//!   vectorized-kernel promise that SSIM no longer dominates scoring;
//! * the best-of-[`PAPER_PASSES`] `dft` stage at 448² exceeds
//!   [`DFT_RATIO_LIMIT`] times the one at 512² — the mixed-radix FFT
//!   promise that a smooth non-power-of-two size costs about what its
//!   pixel count says. Both transforms run in one process, so the ratio
//!   cancels the host's speed swings that an absolute budget would not.
//!
//! Usage: `stage_profile [repeats]` (default 5 passes over 64 images).

use decamouflage_bench::corpus::{DetectorSet, MixedAttackGenerator};
use decamouflage_datasets::DatasetProfile;
use decamouflage_imaging::{Image, Size};
use decamouflage_telemetry::Telemetry;

/// Ceiling on the SSIM share of one engine pass.
const SSIM_SHARE_LIMIT: f64 = 0.50;

/// Ceiling on best-of-[`PAPER_PASSES`] `dft(448²) / dft(512²)`.
const DFT_RATIO_LIMIT: f64 = 1.5;

/// Images per class (64 images total), mirroring the detectors bench.
const CORPUS_PER_CLASS: usize = 32;

/// The paper's Table 7 sizes, then the radix-2 reference size.
const PAPER_SIDES: [usize; 4] = [336, 448, 560, 512];

/// Timed engine passes per paper size (after one warm-up pass).
const PAPER_PASSES: usize = 5;

fn main() {
    let repeats: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(5);
    let ssim_ok = ssim_share_gate(repeats);
    let dft_ok = paper_size_gate();
    if !(ssim_ok && dft_ok) {
        std::process::exit(1);
    }
}

/// The 128² stage profile and its SSIM-share gate; `false` when the gate
/// fails.
fn ssim_share_gate(repeats: usize) -> bool {

    let mut profile = DatasetProfile::tiny();
    profile.name = "stage-profile";
    profile.source_sizes = vec![Size::square(128)];
    profile.target_size = Size::square(32);
    let generator = MixedAttackGenerator::new(profile.clone());
    let detectors = DetectorSet::new(&profile);
    let telemetry = Telemetry::enabled();
    let engine = detectors.engine().clone().with_telemetry(telemetry.clone());

    let images: Vec<Image> = (0..CORPUS_PER_CLASS as u64)
        .flat_map(|i| [generator.benign(i), generator.attack(i)])
        .collect();
    for _ in 0..repeats {
        for image in &images {
            let _ = engine.score(image).expect("synthetic corpus scores cleanly");
        }
    }

    let per_image = |name: &str, labels: &[(&str, &str)]| -> f64 {
        let snapshot = telemetry.histogram(name, labels).snapshot().expect("telemetry enabled");
        if snapshot.count() == 0 {
            0.0
        } else {
            snapshot.sum() / (repeats * images.len()) as f64 * 1e6
        }
    };

    let total = per_image("decam_engine_score_seconds", &[]);
    println!("engine total: {total:.1} µs/image over {} images x {repeats} passes", images.len());
    println!("-- shared stages --");
    let mut ssim_us = 0.0;
    for stage in ["validate", "scale_round_trip", "rank_filter", "ssim_reference", "dft"] {
        let us = per_image("decam_engine_stage_seconds", &[("stage", stage)]);
        println!("  {stage:<18} {us:8.1} µs/image");
        if stage == "ssim_reference" {
            ssim_us += us;
        }
    }
    println!("-- per-method increments --");
    for method in decamouflage_core::MethodId::ALL {
        let us = per_image("decam_method_score_seconds", &[("method", method.name())]);
        println!("  {:<18} {us:8.1} µs/image", method.name());
        if matches!(method.name(), "scaling/ssim" | "filtering/ssim") {
            ssim_us += us;
        }
    }

    let share = if total > 0.0 { ssim_us / total } else { 0.0 };
    println!(
        "SSIM share (reference + scaling/ssim + filtering/ssim): {:.1}% of engine pass \
         (gate {:.0}%)",
        share * 100.0,
        SSIM_SHARE_LIMIT * 100.0
    );
    if share >= SSIM_SHARE_LIMIT {
        eprintln!("FAIL: SSIM stage share exceeds the {SSIM_SHARE_LIMIT:.2} gate");
        return false;
    }
    true
}

/// Engine and `dft`-stage µs/image at every [`PAPER_SIDES`] size, best of
/// [`PAPER_PASSES`] passes over one generated Gray image, and the
/// `dft(448²) / dft(512²)` gate; `false` when the gate fails.
fn paper_size_gate() -> bool {
    println!("-- paper sizes: best of {PAPER_PASSES} engine passes, target 112² --");
    let mut dft_us = Vec::new();
    for side in PAPER_SIDES {
        let mut profile = DatasetProfile::tiny();
        profile.name = "stage-profile-paper";
        profile.source_sizes = vec![Size::square(side)];
        profile.target_size = Size::square(112);
        let image = MixedAttackGenerator::new(profile.clone()).benign(0);
        let telemetry = Telemetry::enabled();
        let engine = DetectorSet::new(&profile).engine().clone().with_telemetry(telemetry.clone());
        let seconds = |name: &str, labels: &[(&str, &str)]| {
            telemetry.histogram(name, labels).snapshot().expect("telemetry enabled").sum()
        };
        let score = || engine.score(&image).expect("generated images score cleanly");
        // Warm-up: FFT plans and scaler caches are built on first use.
        score();
        let (mut engine_best, mut dft_best) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..PAPER_PASSES {
            let engine_before = seconds("decam_engine_score_seconds", &[]);
            let dft_before = seconds("decam_engine_stage_seconds", &[("stage", "dft")]);
            score();
            let engine_us = (seconds("decam_engine_score_seconds", &[]) - engine_before) * 1e6;
            let dft_us =
                (seconds("decam_engine_stage_seconds", &[("stage", "dft")]) - dft_before) * 1e6;
            engine_best = engine_best.min(engine_us);
            dft_best = dft_best.min(dft_us);
        }
        println!("  {side:>3}²  engine {engine_best:9.1} µs/image  dft {dft_best:9.1} µs/image");
        dft_us.push((side, dft_best));
    }
    let best = |side: usize| dft_us.iter().find(|&&(s, _)| s == side).map(|&(_, us)| us);
    let ratio = best(448).expect("448 is profiled") / best(512).expect("512 is profiled");
    println!("dft(448²) / dft(512²): {ratio:.2} (gate {DFT_RATIO_LIMIT:.2})");
    if ratio > DFT_RATIO_LIMIT {
        eprintln!("FAIL: the 448² DFT costs more than {DFT_RATIO_LIMIT:.2}x the 512² one");
        return false;
    }
    true
}
