//! Property-based tests (proptest) for the metrics crate.

use decamouflage_imaging::{Channels, Image};
use decamouflage_metrics::{
    color_histogram, histogram_intersection, mae, max_abs_diff, mse, percentile, psnr, ssim,
    Histogram, OnlineStats, SampleSummary, SsimConfig,
};
use proptest::prelude::*;

fn arb_pair() -> impl Strategy<Value = (Image, Image)> {
    (2usize..=14, 2usize..=14).prop_flat_map(|(w, h)| {
        let img = proptest::collection::vec(0u8..=255, w * h)
            .prop_map(move |data| Image::from_u8(w, h, Channels::Gray, &data).unwrap());
        (img.clone(), img)
    })
}

fn arb_triple() -> impl Strategy<Value = (Image, Image, Image)> {
    (2usize..=14, 2usize..=14).prop_flat_map(|(w, h)| {
        let img = proptest::collection::vec(0u8..=255, w * h)
            .prop_map(move |data| Image::from_u8(w, h, Channels::Gray, &data).unwrap());
        (img.clone(), img.clone(), img)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn error_metric_relations((a, b) in arb_pair()) {
        let mse_v = mse(&a, &b).unwrap();
        let mae_v = mae(&a, &b).unwrap();
        let linf = max_abs_diff(&a, &b).unwrap();
        // Jensen: MAE² <= MSE <= L∞ * MAE, and L∞ bounds everything.
        prop_assert!(mae_v * mae_v <= mse_v + 1e-9);
        prop_assert!(mse_v <= linf * mae_v + 1e-9);
        prop_assert!(mae_v <= linf + 1e-12);
        // PSNR consistency with MSE.
        if mse_v > 0.0 {
            let expected = 10.0 * ((255.0f64 * 255.0) / mse_v).log10();
            prop_assert!((psnr(&a, &b).unwrap() - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn triangle_like_inequality_for_linf((a, b, c) in arb_triple()) {
        let ab = max_abs_diff(&a, &b).unwrap();
        let bc = max_abs_diff(&b, &c).unwrap();
        let ac = max_abs_diff(&a, &c).unwrap();
        prop_assert!(ac <= ab + bc + 1e-12);
    }

    #[test]
    fn ssim_identity_and_range((a, b) in arb_pair()) {
        let cfg = SsimConfig::default();
        prop_assert!((ssim(&a, &a, &cfg).unwrap() - 1.0).abs() < 1e-9);
        let s = ssim(&a, &b, &cfg).unwrap();
        prop_assert!((-1.0..=1.0).contains(&s));
    }

    #[test]
    fn color_histogram_is_a_distribution((a, _) in arb_pair(), bins in 1usize..64) {
        let h = color_histogram(&a, bins).unwrap();
        let sum: f64 = h.channel(0).iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        for &v in h.channel(0) {
            prop_assert!(v >= 0.0);
        }
    }

    #[test]
    fn histogram_intersection_bounds((a, b) in arb_pair(), bins in 1usize..32) {
        let s = histogram_intersection(&a, &b, bins).unwrap();
        prop_assert!((0.0..=1.0 + 1e-12).contains(&s));
        let self_sim = histogram_intersection(&a, &a, bins).unwrap();
        prop_assert!((self_sim - 1.0).abs() < 1e-12);
        prop_assert!(s <= self_sim + 1e-12);
    }

    #[test]
    fn percentile_is_monotone_and_bracketed(
        samples in proptest::collection::vec(-1e3f64..1e3, 1..40),
        p1 in 0.0f64..100.0,
        p2 in 0.0f64..100.0,
    ) {
        let (lo, hi) = (p1.min(p2), p1.max(p2));
        let v_lo = percentile(&samples, lo).unwrap();
        let v_hi = percentile(&samples, hi).unwrap();
        prop_assert!(v_lo <= v_hi + 1e-12);
        let min = samples.iter().cloned().fold(f64::MAX, f64::min);
        let max = samples.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert!(v_lo >= min - 1e-12 && v_hi <= max + 1e-12);
    }

    #[test]
    fn online_stats_match_batch_summary(
        samples in proptest::collection::vec(-1e3f64..1e3, 1..50),
    ) {
        let online: OnlineStats = samples.iter().copied().collect();
        let summary = SampleSummary::from_samples(&samples).unwrap();
        prop_assert!((online.mean() - summary.mean).abs() < 1e-9);
        prop_assert!((online.population_std_dev() - summary.std_dev).abs() < 1e-9);
        prop_assert_eq!(online.count(), summary.count);
    }

    #[test]
    fn histogram_bins_all_in_range_samples(
        samples in proptest::collection::vec(0.0f64..100.0, 1..60),
        bins in 1usize..20,
    ) {
        let h = Histogram::from_samples(&samples, bins, Some((0.0, 100.0))).unwrap();
        prop_assert_eq!(h.total(), samples.len());
        prop_assert_eq!(h.bins().len(), bins);
    }
}

// ---------------------------------------------------------------------------
// Vectorized-kernel equivalence suite (ISSUE 6): the scratch-reusing
// `SsimReference` fast path must be bit-identical to the one-shot `ssim`
// entry point, and poisoned inputs must degrade gracefully, never panic.
// ---------------------------------------------------------------------------

use decamouflage_metrics::{ssim_map, SsimReference};

fn arb_channel_pair() -> impl Strategy<Value = (Image, Image)> {
    (1usize..=12, 1usize..=12, any::<bool>()).prop_flat_map(|(w, h, rgb)| {
        let ch = if rgb { Channels::Rgb } else { Channels::Gray };
        let img = proptest::collection::vec(0u8..=255, w * h * ch.count())
            .prop_map(move |data| Image::from_u8(w, h, ch, &data).unwrap());
        (img.clone(), img)
    })
}

fn arb_poisoned_sample() -> impl Strategy<Value = f64> {
    prop_oneof![
        -1e3f64..1e3,
        -1e3f64..1e3,
        -1e3f64..1e3,
        -1e3f64..1e3,
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(-0.0f64),
    ]
}

fn arb_poisoned_gray_pair() -> impl Strategy<Value = (Image, Image)> {
    (3usize..=9, 3usize..=9).prop_flat_map(|(w, h)| {
        (
            proptest::collection::vec(arb_poisoned_sample(), w * h),
            proptest::collection::vec(arb_poisoned_sample(), w * h),
        )
            .prop_map(move |(da, db)| {
                (
                    Image::from_gray_plane(w, h, da).unwrap(),
                    Image::from_gray_plane(w, h, db).unwrap(),
                )
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn ssim_reference_is_bit_identical_to_one_shot_ssim((a, b) in arb_channel_pair()) {
        // The streaming sweep against the staged oracle: the mean of the
        // map built from full-size blurred planes.
        let cfg = SsimConfig::default();
        let reference = SsimReference::new(&a, &cfg).unwrap();
        let fast = reference.score_against(&b).unwrap();
        let slow = ssim_map(&a, &b, &cfg).unwrap().mean_sample();
        prop_assert_eq!(fast.to_bits(), slow.to_bits());
        prop_assert_eq!(ssim(&a, &b, &cfg).unwrap().to_bits(), slow.to_bits());
        // Reuse across calls must not leak state between scores.
        let again = reference.score_against(&b).unwrap();
        prop_assert_eq!(again.to_bits(), slow.to_bits());
        // Two candidates in one sweep score as two one-candidate sweeps.
        let c = b.map(|v| 255.0 - v);
        let pair = reference.score_against_each(&[&b, &c]).unwrap();
        prop_assert_eq!(pair[0].to_bits(), slow.to_bits());
        let slow_c = ssim_map(&a, &c, &cfg).unwrap().mean_sample();
        prop_assert_eq!(pair[1].to_bits(), slow_c.to_bits());
    }

    #[test]
    fn poisoned_metrics_never_panic((a, b) in arb_poisoned_gray_pair()) {
        // NaN/inf samples must flow through every metric as ordinary IEEE
        // values (or clean errors) — the fast kernels may not panic or hang.
        let _ = mse(&a, &b);
        let _ = mae(&a, &b);
        let _ = max_abs_diff(&a, &b);
        let _ = psnr(&a, &b);
        let cfg = SsimConfig::default();
        let one_shot = ssim(&a, &b, &cfg);
        let staged = SsimReference::new(&a, &cfg).unwrap().score_against(&b);
        match (one_shot, staged) {
            (Ok(x), Ok(y)) => {
                prop_assert!(
                    x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                    "ssim {x:?} vs reference {y:?}"
                );
            }
            (a, b) => prop_assert!(a.is_err() == b.is_err()),
        }
    }
}
