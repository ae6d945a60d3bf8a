//! Telemetry wiring tests: an enabled [`Telemetry`] handle observes the
//! engine, ensemble and monitor without perturbing a single score, and
//! the counters/histograms it records reconcile exactly with what the
//! pipeline reports through its own return values.

use decamouflage_core::faults::{FaultKind, FaultPlan};
use decamouflage_core::{
    DegradePolicy, DetectionEngine, Direction, Ensemble, MethodId, MethodSet, Threshold,
};
use decamouflage_imaging::{Image, Size};
use decamouflage_telemetry::Telemetry;

/// A deterministic benign-looking scene, varied per index.
fn benign_image(index: u64) -> Image {
    Image::from_fn_gray(32, 32, move |x, y| {
        (120.0 + 60.0 * ((x as f64 + index as f64) * 0.07).sin() + 40.0 * ((y as f64) * 0.05).cos())
            .round()
    })
}

/// A deterministic high-frequency scene standing in for attack images.
fn attack_image(index: u64) -> Image {
    Image::from_fn_gray(32, 32, move |x, y| ((x * 13 + y * 7 + index as usize * 3) % 251) as f64)
}

fn engine() -> DetectionEngine {
    DetectionEngine::new(Size::square(8))
}

const COUNT: usize = 4;

/// The bit-identity guardrail: every score produced with telemetry fully
/// enabled is bit-for-bit the score produced with telemetry disabled.
#[test]
fn enabled_telemetry_does_not_perturb_scores() {
    let silent = engine();
    let observed = engine().with_telemetry(Telemetry::enabled());
    assert!(!silent.telemetry().is_enabled());
    assert!(observed.telemetry().is_enabled());

    for index in 0..COUNT as u64 {
        for image in [benign_image(index), attack_image(index)] {
            let baseline = silent.score(&image).expect("baseline scores");
            let recorded = observed.score(&image).expect("observed scores");
            for &id in MethodId::ALL {
                assert_eq!(
                    baseline.get(id).to_bits(),
                    recorded.get(id).to_bits(),
                    "{id} drifted under telemetry"
                );
            }
        }
    }
}

/// Stage and method histograms record exactly one sample per scored
/// image, and the scored counter matches.
#[test]
fn engine_records_stage_and_method_latencies() {
    let telemetry = Telemetry::enabled();
    let engine = engine().with_telemetry(telemetry.clone());
    let images = 2 * COUNT;
    // The resilient path validates before scoring, so every stage —
    // including `validate` — sees exactly one sample per image.
    for index in 0..COUNT as u64 {
        engine.score_resilient(&benign_image(index)).expect("benign scores");
        engine.score_resilient(&attack_image(index)).expect("attack scores");
    }

    assert_eq!(telemetry.counter("decam_engine_scored_total", &[]).value(), images as u64);
    let count_of = |name: &str, labels: &[(&str, &str)]| {
        telemetry.histogram(name, labels).snapshot().expect("enabled").count()
    };
    assert_eq!(count_of("decam_engine_score_seconds", &[]), images as u64);
    for stage in ["validate", "scale_round_trip", "rank_filter", "ssim_reference", "dft"] {
        assert_eq!(
            count_of("decam_engine_stage_seconds", &[("stage", stage)]),
            images as u64,
            "stage {stage} miscounted"
        );
    }
    for &id in MethodId::ALL {
        let expected = if engine.methods().contains(id) { images as u64 } else { 0 };
        assert_eq!(
            count_of("decam_method_score_seconds", &[("method", id.name())]),
            expected,
            "method {id} miscounted"
        );
    }
    // Stage latencies nest inside the total pass latency.
    let registry = telemetry.registry().expect("enabled");
    let total = registry.histogram("decam_engine_score_seconds", &[]).snapshot();
    let stage_sum: f64 = ["scale_round_trip", "rank_filter", "ssim_reference", "dft"]
        .iter()
        .map(|s| registry.histogram("decam_engine_stage_seconds", &[("stage", s)]).snapshot().sum())
        .sum();
    assert!(
        stage_sum <= total.sum(),
        "stages ({stage_sum}) exceed the pass total ({})",
        total.sum()
    );
}

/// The engine stages a method reads. `luma` runs only for RGB inputs.
fn stages_read_by(id: MethodId) -> &'static [&'static str] {
    match id {
        MethodId::ScalingMse => &["validate", "scale_round_trip"],
        MethodId::ScalingSsim => &["validate", "scale_round_trip", "ssim_reference"],
        MethodId::FilteringMse => &["validate", "rank_filter"],
        MethodId::FilteringSsim => &["validate", "rank_filter", "ssim_reference"],
        MethodId::Csp | MethodId::PeakExcess => &["validate", "luma", "dft"],
    }
}

/// An engine restricted to one method runs only the stages that method
/// reads: each stage series records one sample per scored image when the
/// method reads the stage (per RGB image for `luma`) and none otherwise.
#[test]
fn stages_run_only_for_the_methods_that_read_them() {
    let rgb_image = |index: u64| {
        Image::from_fn_rgb(32, 32, move |x, y| {
            let v = 120.0 + 60.0 * ((x as f64 + index as f64) * 0.07).sin();
            [v.round(), (v * 0.8 + y as f64).round(), 255.0 - v.round()]
        })
    };
    let images: Vec<Image> =
        (0..COUNT as u64).map(benign_image).chain((0..COUNT as u64).map(rgb_image)).collect();
    for &id in MethodId::ALL {
        let telemetry = Telemetry::enabled();
        let engine = engine().with_methods(MethodSet::of(&[id])).with_telemetry(telemetry.clone());
        for image in &images {
            engine.score_resilient(image).expect("scores");
        }
        for stage in
            ["validate", "luma", "scale_round_trip", "rank_filter", "ssim_reference", "dft"]
        {
            let expected = match (stages_read_by(id).contains(&stage), stage) {
                (false, _) => 0,
                (true, "luma") => COUNT,
                (true, _) => images.len(),
            };
            let samples = telemetry
                .histogram("decam_engine_stage_seconds", &[("stage", stage)])
                .snapshot()
                .expect("enabled")
                .count();
            assert_eq!(samples, expected as u64, "{id} engine, stage {stage}");
        }
    }
}

/// Quarantines are counted under their structured fault-kind label, one
/// increment per quarantined slot, across both resilient entry points.
#[test]
fn quarantines_count_by_fault_kind() {
    let telemetry = Telemetry::enabled();
    let quarantined = |fault: &str| {
        telemetry.counter("decam_engine_quarantined_total", &[("fault", fault)]).value()
    };

    // Single-image path: a NaN pixel and an undersized grid.
    let engine = engine().with_telemetry(telemetry.clone());
    let mut poisoned = benign_image(0);
    poisoned.plane_mut(0)[7] = f64::NAN;
    assert!(engine.score_resilient(&poisoned).is_err());
    assert!(engine.score_resilient(&Image::from_fn_gray(4, 4, |_, _| 10.0)).is_err());
    assert_eq!(quarantined("non-finite-pixel"), 1);
    assert_eq!(quarantined("below-minimum-size"), 1);

    // Batch path: one injected panic and one injected error. (A
    // `NanScore` fault is deliberately *not* quarantined at the engine
    // layer — NaN handling belongs to the ensemble and monitor — so it
    // has no fault-kind counter here.)
    let armed = engine
        .with_fault_plan(FaultPlan::new().with(0, FaultKind::Panic).with(2, FaultKind::Error))
        .with_telemetry(telemetry.clone());
    let images: Vec<Image> =
        (0..COUNT as u64).map(benign_image).chain((0..COUNT as u64).map(attack_image)).collect();
    let outcome = armed.score_images(&images, 2);
    let failed = outcome.iter().filter(|result| result.is_err()).count();
    assert_eq!(failed, 2);
    assert_eq!(quarantined("panic"), 1);
    assert_eq!(quarantined("injected"), 1);

    // Successful scores from the same batch landed on the scored counter.
    let scored = telemetry.counter("decam_engine_scored_total", &[]).value();
    assert_eq!(scored, (outcome.len() - failed) as u64);
}

/// Ensemble decisions record votes by member, verdicts, and — when a
/// member cannot vote under a degrading policy — unavailability and a
/// degrade activation tagged with the policy name.
#[test]
fn ensemble_records_votes_verdicts_and_degrades() {
    let telemetry = Telemetry::enabled();
    let always_attack = Threshold::new(f64::NEG_INFINITY, Direction::AboveIsAttack);
    let never_attack = Threshold::new(f64::INFINITY, Direction::AboveIsAttack);
    let members = [
        (MethodId::ScalingMse, always_attack),
        (MethodId::FilteringMse, always_attack),
        (MethodId::Csp, never_attack),
    ];
    let ensemble =
        Ensemble::new(engine(), members, DegradePolicy::Strict).with_telemetry(telemetry.clone());

    let decision = ensemble.decide(&benign_image(0)).expect("decision");
    assert!(decision.is_attack, "two of three rigged members vote attack");

    let votes = |member: MethodId, vote: &str| {
        telemetry
            .counter("decam_ensemble_votes_total", &[("member", member.name()), ("vote", vote)])
            .value()
    };
    assert_eq!(votes(MethodId::ScalingMse, "attack"), 1);
    assert_eq!(votes(MethodId::FilteringMse, "attack"), 1);
    assert_eq!(votes(MethodId::Csp, "benign"), 1);
    assert_eq!(
        telemetry.counter("decam_ensemble_decisions_total", &[("verdict", "attack")]).value(),
        1
    );
    assert_eq!(
        telemetry.counter("decam_ensemble_degraded_total", &[("policy", "strict")]).value(),
        0,
        "a fully available ensemble never degrades"
    );

    // A member whose method the engine disables degrades a
    // majority-of-available vote.
    let gated = engine().with_methods(MethodSet::of(&[MethodId::ScalingMse]));
    let members = [(MethodId::Csp, always_attack), (MethodId::ScalingMse, never_attack)];
    let degraded = Ensemble::new(gated, members, DegradePolicy::MajorityOfAvailable)
        .with_telemetry(telemetry.clone());
    let decision = degraded.decide(&benign_image(0)).expect("degraded decision");
    assert_eq!(decision.unavailable.len(), 1);
    assert!(!decision.is_attack);
    assert_eq!(
        telemetry
            .counter("decam_ensemble_unavailable_total", &[("member", MethodId::Csp.name())])
            .value(),
        1
    );
    assert_eq!(
        telemetry
            .counter("decam_ensemble_degraded_total", &[("policy", "majority-of-available")])
            .value(),
        1
    );
    assert_eq!(
        telemetry.counter("decam_ensemble_decisions_total", &[("verdict", "benign")]).value(),
        1
    );
}

/// The monitor mirrors its screened/flagged/quarantined counters and
/// rolling-window statistics into the registry, labelled by method.
#[test]
fn monitor_mirrors_counters_and_window_gauges() {
    use decamouflage_core::monitor::DetectionMonitor;

    let telemetry = Telemetry::enabled();
    let label: &[(&str, &str)] = &[("detector", MethodId::ScalingMse.name())];
    let mut monitor = DetectionMonitor::new(
        &engine(),
        MethodId::ScalingMse,
        Threshold::new(1e12, Direction::AboveIsAttack),
        100.0,
        25.0,
        8,
        3.0,
    )
    .expect("monitor")
    .with_telemetry(telemetry.clone());

    for index in 0..COUNT as u64 {
        monitor.screen(&benign_image(index)).expect("screened");
    }
    let mut poisoned = benign_image(0);
    poisoned.plane_mut(0)[3] = f64::INFINITY;
    assert!(monitor.screen(&poisoned).is_err());

    let counter = |name: &str| telemetry.counter(name, label).value();
    assert_eq!(counter("decam_monitor_screened_total"), COUNT as u64);
    assert_eq!(counter("decam_monitor_quarantined_total"), 1);
    assert_eq!(counter("decam_monitor_flagged_total"), 0, "threshold rigged unreachable");
    let stats = monitor.stats();
    assert_eq!(stats.screened as u64, counter("decam_monitor_screened_total"));
    assert_eq!(stats.quarantined as u64, counter("decam_monitor_quarantined_total"));
    assert_eq!(
        telemetry.gauge("decam_monitor_window_len", label).value(),
        COUNT as f64,
        "all benign screens fed the rolling window"
    );
    assert!(telemetry.gauge("decam_monitor_window_mean", label).value() > 0.0);
}

/// The exported exposition carries every engine family and round-trips
/// through the strict Prometheus parser.
#[test]
fn engine_export_round_trips_through_the_parser() {
    let telemetry = Telemetry::enabled();
    let engine = engine().with_telemetry(telemetry.clone());
    engine.score(&benign_image(0)).expect("scores");
    assert!(engine.score_resilient(&Image::from_fn_gray(4, 4, |_, _| 10.0)).is_err());

    let text = telemetry.prometheus_text().expect("enabled");
    let parsed = decamouflage_telemetry::parse_prometheus_text(&text).expect("valid exposition");
    for family in [
        "decam_engine_score_seconds",
        "decam_engine_stage_seconds",
        "decam_method_score_seconds",
        "decam_engine_scored_total",
        "decam_engine_quarantined_total",
    ] {
        assert!(parsed.has_family(family), "family {family} missing from exposition");
    }
    assert_eq!(
        parsed.sample_value("decam_engine_scored_total", &[]),
        Some(1.0),
        "exported counter disagrees with the registry"
    );
}
