//! Property-based tests (proptest) for the detection framework's
//! calibration, evaluation and persistence invariants.

use decamouflage_core::persist::ThresholdSet;
use decamouflage_core::roc::roc_curve;
use decamouflage_core::threshold::{percentile_blackbox, search_whitebox};
use decamouflage_core::{
    evaluate_decisions, ConfusionCounts, DetectionEngine, Direction, MethodId, Threshold,
};
use decamouflage_imaging::{Image, Size};
use proptest::prelude::*;

fn arb_direction() -> impl Strategy<Value = Direction> {
    prop_oneof![Just(Direction::AboveIsAttack), Just(Direction::BelowIsAttack)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn whitebox_accuracy_is_at_least_majority_class(
        benign in proptest::collection::vec(0.0f64..100.0, 1..30),
        attack in proptest::collection::vec(0.0f64..100.0, 1..30),
        direction in arb_direction(),
    ) {
        let search = search_whitebox(&benign, &attack, direction).unwrap();
        // Trivial classifiers (flag all / flag none) achieve the majority
        // fraction; the optimum can never be worse.
        let total = (benign.len() + attack.len()) as f64;
        let majority = benign.len().max(attack.len()) as f64 / total;
        prop_assert!(search.train_accuracy >= majority - 1e-12);
        prop_assert!(search.train_accuracy <= 1.0 + 1e-12);
    }

    #[test]
    fn whitebox_threshold_reproduces_reported_accuracy(
        benign in proptest::collection::vec(0.0f64..100.0, 1..25),
        attack in proptest::collection::vec(0.0f64..100.0, 1..25),
        direction in arb_direction(),
    ) {
        let search = search_whitebox(&benign, &attack, direction).unwrap();
        let correct = attack.iter().filter(|&&s| search.threshold.is_attack(s)).count()
            + benign.iter().filter(|&&s| !search.threshold.is_attack(s)).count();
        let accuracy = correct as f64 / (benign.len() + attack.len()) as f64;
        prop_assert!((accuracy - search.train_accuracy).abs() < 1e-12);
    }

    #[test]
    fn roc_auc_matches_rank_statistic(
        benign in proptest::collection::vec(0.0f64..100.0, 1..20),
        attack in proptest::collection::vec(0.0f64..100.0, 1..20),
    ) {
        // AUC equals the Mann-Whitney probability that a random attack
        // scores above a random benign (ties count half).
        let curve = roc_curve(&benign, &attack, Direction::AboveIsAttack).unwrap();
        let mut wins = 0.0;
        for &a in &attack {
            for &b in &benign {
                if a > b {
                    wins += 1.0;
                } else if a == b {
                    wins += 0.5;
                }
            }
        }
        let mw = wins / (attack.len() * benign.len()) as f64;
        prop_assert!((curve.auc() - mw).abs() < 1e-9, "auc {} vs mw {}", curve.auc(), mw);
    }

    #[test]
    fn confusion_metrics_are_rates(
        decisions in proptest::collection::vec((any::<bool>(), any::<bool>()), 1..60),
    ) {
        let m = evaluate_decisions(decisions.iter().copied()).unwrap();
        for v in [m.accuracy, m.precision, m.recall, m.far, m.frr] {
            prop_assert!((0.0..=1.0).contains(&v));
        }
        // recall + FAR = 1 when there are attack samples.
        if decisions.iter().any(|&(truth, _)| truth) {
            prop_assert!((m.recall + m.far - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn confusion_counts_total_matches_input(
        decisions in proptest::collection::vec((any::<bool>(), any::<bool>()), 1..60),
    ) {
        let mut c = ConfusionCounts::default();
        for &(truth, flagged) in &decisions {
            c.record(truth, flagged);
        }
        prop_assert_eq!(c.total(), decisions.len());
    }

    #[test]
    fn percentile_threshold_training_frr_tracks_tail(
        benign in proptest::collection::vec(0.0f64..1e4, 20..120),
        tail in 1.0f64..30.0,
        direction in arb_direction(),
    ) {
        let t = percentile_blackbox(&benign, tail, direction).unwrap();
        let frr = benign.iter().filter(|&&s| t.is_attack(s)).count() as f64
            / benign.len() as f64;
        prop_assert!(frr <= tail / 100.0 + 1.0 / benign.len() as f64 + 1e-9);
    }

    #[test]
    fn threshold_set_roundtrips(
        mask in 0u32..(1 << MethodId::COUNT),
        values in proptest::collection::vec((-1e6f64..1e6, any::<bool>()), MethodId::COUNT),
    ) {
        // Every subset of the typed method registry, with arbitrary
        // finite thresholds, survives the text format exactly.
        let mut set = ThresholdSet::new();
        for (i, &id) in MethodId::ALL.iter().enumerate() {
            if mask & (1 << i) != 0 {
                let (value, above) = values[i];
                let dir = if above { Direction::AboveIsAttack } else { Direction::BelowIsAttack };
                set.insert(id, Threshold::new(value, dir));
            }
        }
        let parsed = ThresholdSet::from_text(&set.to_text()).unwrap();
        prop_assert_eq!(parsed.len(), mask.count_ones() as usize);
        prop_assert_eq!(parsed, set);
    }

    #[test]
    fn engine_peak_excess_is_bit_identical_to_standalone(seed in 0u64..1000) {
        // The engine derives the peak-excess score from the spectrum it
        // plans for CSP; it must equal the standalone detector EXACTLY
        // (no tolerance).
        let image = Image::from_fn_gray(40, 40, |x, y| {
            let p = (x as f64 * 0.19 + y as f64 * 0.11 + seed as f64 * 0.37).sin();
            (127.0 + 120.0 * p).round()
        });
        let engine = DetectionEngine::new(Size::square(10));
        let engine_score = engine.score(&image).unwrap().get(MethodId::PeakExcess);
        prop_assert_eq!(engine_score, engine.reference_score(MethodId::PeakExcess, &image).unwrap());
    }
}
