//! Fault-injection suite for the quarantine layer: deterministic
//! [`FaultPlan`]s drive panics, typed errors and NaN scores through the
//! batch engine, and NaN slots and disabled methods through the ensemble
//! vote, proving the blast radius of each fault stays inside its own slot.

use decamouflage_core::faults::{FaultKind, FaultPlan};
use decamouflage_core::{
    DegradePolicy, DetectionEngine, Direction, Ensemble, MethodId, MethodSet, ScoreError,
    ScoreFault, ScoreVector, Threshold,
};
use decamouflage_imaging::{Image, Size};

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

const COUNT: usize = 6;
const THREADS: usize = 4;

/// The benign scenes (fan-out indices `0..COUNT`), then the attack scenes
/// (`COUNT..2 * COUNT`).
fn corpus() -> Vec<Image> {
    (0..COUNT as u64).map(benign_image).chain((0..COUNT as u64).map(attack_image)).collect()
}

/// The fan-out indices of the quarantined slots, ascending.
fn quarantined(outcome: &[Result<ScoreVector, ScoreError>]) -> Vec<usize> {
    outcome.iter().filter_map(|result| result.as_ref().err().map(|err| err.index)).collect()
}

#[test]
fn one_injected_panic_quarantines_only_its_slot() {
    let images = corpus();
    let clean = engine().score_images(&images, THREADS);
    assert!(quarantined(&clean).is_empty(), "control batch must be clean");

    // Arm a panic at one benign slot (fan-out index 2).
    let armed = engine().with_fault_plan(FaultPlan::new().with(2, FaultKind::Panic));
    let outcome = armed.score_images(&images, THREADS);
    assert_eq!(outcome.len(), 2 * COUNT);
    assert_eq!(quarantined(&outcome), [2]);

    // The quarantined slot carries a recovered-panic cause with its index.
    let err = outcome[2].as_ref().unwrap_err();
    assert!(err.is_panic());
    assert_eq!(err.index, 2);
    assert!(err.to_string().contains("injected panic"), "{err}");

    // Every other slot is bit-identical to the clean run.
    for i in (0..2 * COUNT).filter(|&i| i != 2) {
        assert_eq!(outcome[i].as_ref().unwrap(), clean[i].as_ref().unwrap(), "slot {i} drifted");
    }
}

#[test]
fn worker_pool_survives_a_barrage_of_panics() {
    // Scatter 8 panics over the whole 2 * COUNT fan-out, every index armed
    // deterministically by seed.
    let images = corpus();
    let plan = FaultPlan::scattered(0xDECA, 8, 2 * COUNT, FaultKind::Panic);
    assert_eq!(plan.len(), 8);
    let armed = engine().with_fault_plan(plan);
    let outcome = armed.score_images(&images, THREADS);
    assert_eq!(quarantined(&outcome).len(), 8);
    assert!(outcome.iter().filter_map(|result| result.as_ref().err()).all(|err| err.is_panic()));

    // The *same global pool* then completes a full clean batch: eight
    // unwound jobs left no worker dead and no queue stuck.
    let followup = engine().score_images(&images, THREADS);
    assert!(quarantined(&followup).is_empty(), "pool lost capacity after injected panics");
    assert_eq!(followup.len(), 2 * COUNT);
}

#[test]
fn injected_errors_and_nan_scores_quarantine_with_typed_causes() {
    let plan = FaultPlan::new()
        .with(1, FaultKind::Error) // benign slot 1
        .with(COUNT + 3, FaultKind::NanScore); // attack slot 3
    let outcome = engine().with_fault_plan(plan).score_images(&corpus(), THREADS);

    let err = outcome[1].as_ref().unwrap_err();
    assert!(matches!(err.cause, ScoreFault::Injected));
    assert_eq!(err.index, 1);

    // A NanScore fault produces an all-NaN vector, which is a *scored*
    // result (the vector layer treats NaN as "missing"): ensembles handle
    // it through their degrade policy, not through quarantine.
    let nan_scores = outcome[COUNT + 3].as_ref().unwrap();
    assert!(MethodId::ALL.iter().all(|&id| nan_scores.get(id).is_nan()));
    assert_eq!(quarantined(&outcome), [1]);
}

/// A 3-member ensemble (scaling, filtering, steganalysis) with
/// benign-friendly thresholds, on an engine enabling `methods`.
fn ensemble(methods: MethodSet, policy: DegradePolicy) -> Ensemble {
    let members = [
        (MethodId::ScalingMse, Threshold::new(1e9, Direction::AboveIsAttack)),
        (MethodId::FilteringMse, Threshold::new(1e9, Direction::AboveIsAttack)),
        (MethodId::Csp, Threshold::new(2.0, Direction::AboveIsAttack)),
    ];
    Ensemble::new(engine().with_methods(methods), members, policy)
}

const POLICIES: [DegradePolicy; 3] =
    [DegradePolicy::Strict, DegradePolicy::MajorityOfAvailable, DegradePolicy::FailClosed];

#[test]
fn fail_closed_flags_attack_when_any_voter_is_unavailable() {
    let image = benign_image(0);

    // Control: with every voter healthy every policy accepts the scene.
    for policy in POLICIES {
        let decision = ensemble(MethodSet::all(), policy).decide(&image).unwrap();
        assert!(!decision.is_attack, "clean {policy:?} run must accept the benign scene");
        assert!(decision.is_complete());
    }

    // One NaN voter: FailClosed rejects the image outright even though
    // both surviving members vote benign.
    let closed = ensemble(MethodSet::all(), DegradePolicy::FailClosed);
    let mut scores = closed.engine().score(&image).unwrap();
    scores.set(MethodId::ScalingMse, f64::NAN);
    let decision = closed.vote(Ok(&scores)).unwrap();
    assert!(decision.is_attack, "FailClosed must flag on a broken voter");
    assert_eq!(decision.votes.len(), 2);
    assert!(decision.votes.iter().all(|(_, vote)| !vote), "survivors voted benign");
    assert_eq!(decision.unavailable.len(), 1);

    // Same fault as a method the engine disables: still flagged.
    let gated = MethodSet::all().without(MethodId::FilteringMse);
    let decision = ensemble(gated, DegradePolicy::FailClosed).decide(&image).unwrap();
    assert!(decision.is_attack);
    assert_eq!(decision.unavailable[0].0, MethodId::FilteringMse);
}

#[test]
fn majority_of_available_matches_two_of_three_on_the_remaining_voters() {
    let image = attack_image(0);
    let scores = engine().score(&image).unwrap();

    // Member 0 scores NaN; members 1 and 2 survive.
    let mut poisoned = scores.clone();
    poisoned.set(MethodId::ScalingMse, f64::NAN);
    let decision =
        ensemble(MethodSet::all(), DegradePolicy::MajorityOfAvailable).vote(Ok(&poisoned)).unwrap();
    assert_eq!(decision.votes.len(), 2);
    assert_eq!(decision.unavailable.len(), 1);

    // Reference: the same two members as a standalone strict ensemble.
    let reference = Ensemble::new(
        engine(),
        [
            (MethodId::FilteringMse, Threshold::new(1e9, Direction::AboveIsAttack)),
            (MethodId::Csp, Threshold::new(2.0, Direction::AboveIsAttack)),
        ],
        DegradePolicy::Strict,
    )
    .vote(Ok(&scores))
    .unwrap();
    assert_eq!(decision.votes, reference.votes, "degraded voters must match the 2-ensemble");
    assert_eq!(decision.is_attack, reference.is_attack);

    // Strict, for contrast, refuses to decide at all with the same fault.
    assert!(ensemble(MethodSet::all(), DegradePolicy::Strict).vote(Ok(&poisoned)).is_err());
}

#[test]
fn injected_nan_scores_reach_the_vote_as_unavailable_members() {
    // A NanScore fault is a *scored* slot holding an all-NaN vector: the
    // stream hands it to the vote, where nobody can vote.
    let plan = FaultPlan::new().with(COUNT + 3, FaultKind::NanScore);
    let outcome = engine().with_fault_plan(plan).score_images(&corpus(), THREADS);
    let nan_scores = outcome[COUNT + 3].as_ref().unwrap();
    for policy in POLICIES {
        let vote = ensemble(MethodSet::all(), policy).vote(Ok(nan_scores));
        match policy {
            DegradePolicy::Strict => assert!(vote.is_err()),
            _ => {
                let decision = vote.unwrap();
                assert!(decision.is_attack, "{policy:?} accepted an unscorable image");
                assert!(decision.votes.is_empty());
            }
        }
    }
}

#[test]
fn scattered_fault_plans_reproduce_across_runs() {
    // The same seed builds the same plan, so the same slots quarantine in
    // two independent engines — the property that makes a failing chaos
    // drill replayable.
    let images = corpus();
    let run = |seed: u64| {
        let plan = FaultPlan::scattered(seed, 5, 2 * COUNT, FaultKind::Error);
        quarantined(&engine().with_fault_plan(plan).score_images(&images, THREADS))
    };
    assert_eq!(run(7), run(7));
    assert_ne!(run(7), run(8), "different seeds should hit different slots");
}
