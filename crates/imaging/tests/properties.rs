//! Property-based tests (proptest) for the imaging substrate.

use decamouflage_imaging::codec::{decode_bmp, decode_pnm, encode_bmp, encode_pgm, encode_ppm};
use decamouflage_imaging::filter::{
    convolve_separable, convolve_separable_with_scratch, gaussian_kernel, ConvScratch,
};
use decamouflage_imaging::filter::{maximum_filter, minimum_filter, rank_filter, RankKind};
use decamouflage_imaging::scale::{CoeffMatrix, ScaleAlgorithm, Scaler, ScalerCache};
use decamouflage_imaging::transform::{
    flip_horizontal, flip_vertical, rotate180, rotate90_ccw, rotate90_cw, transpose,
};
use decamouflage_imaging::{Channels, Image, Size};
use proptest::prelude::*;

fn arb_image() -> impl Strategy<Value = Image> {
    (2usize..=20, 2usize..=20).prop_flat_map(|(w, h)| {
        proptest::collection::vec(0u8..=255, w * h)
            .prop_map(move |data| Image::from_u8(w, h, Channels::Gray, &data).unwrap())
    })
}

fn arb_algorithm() -> impl Strategy<Value = ScaleAlgorithm> {
    prop_oneof![
        Just(ScaleAlgorithm::Nearest),
        Just(ScaleAlgorithm::Bilinear),
        Just(ScaleAlgorithm::Bicubic),
        Just(ScaleAlgorithm::Area),
        Just(ScaleAlgorithm::Lanczos3),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn scaler_equals_separate_matrix_application(
        img in arb_image(),
        algo in arb_algorithm(),
        dw in 1usize..12,
        dh in 1usize..12,
    ) {
        // The 2-D scaler must equal applying the 1-D coefficient matrices
        // manually: columns then rows.
        let scaler = Scaler::new(img.size(), Size::new(dw, dh), algo).unwrap();
        let direct = scaler.apply(&img).unwrap();

        let v = CoeffMatrix::build(algo, img.height(), dh).unwrap();
        let hmat = CoeffMatrix::build(algo, img.width(), dw).unwrap();
        let mut mid = vec![0.0; img.width() * dh];
        for x in 0..img.width() {
            let col: Vec<f64> = (0..img.height()).map(|y| img.get(x, y, 0)).collect();
            for (y, val) in v.apply(&col).into_iter().enumerate() {
                mid[y * img.width() + x] = val;
            }
        }
        for y in 0..dh {
            let row: Vec<f64> = (0..img.width()).map(|x| mid[y * img.width() + x]).collect();
            for (x, val) in hmat.apply(&row).into_iter().enumerate() {
                prop_assert!(
                    (direct.get(x, y, 0) - val).abs() < 1e-9,
                    "({x},{y}): {} vs {val}",
                    direct.get(x, y, 0)
                );
            }
        }
    }

    #[test]
    fn transform_group_relations(img in arb_image()) {
        prop_assert_eq!(rotate180(&img), flip_horizontal(&flip_vertical(&img)));
        prop_assert_eq!(rotate90_ccw(&rotate90_cw(&img)), img.clone());
        prop_assert_eq!(transpose(&transpose(&img)), img.clone());
        // Transpose swaps the two flips.
        prop_assert_eq!(
            transpose(&flip_horizontal(&img)),
            flip_vertical(&transpose(&img))
        );
    }

    #[test]
    fn codec_roundtrips(img in arb_image()) {
        let back = decode_pnm(&encode_pgm(&img)).unwrap();
        prop_assert!(back.approx_eq(&img, 0.5));
        let rgb = img.to_rgb();
        let back = decode_pnm(&encode_ppm(&rgb)).unwrap();
        prop_assert!(back.approx_eq(&rgb, 0.5));
        let back = decode_bmp(&encode_bmp(&rgb)).unwrap();
        prop_assert!(back.approx_eq(&rgb, 0.5));
    }

    #[test]
    fn erosion_dilation_duality(img in arb_image(), window in 1usize..5) {
        // min(-I) == -max(I) (up to the sample negation).
        let neg = img.map(|v| 255.0 - v);
        let min_of_neg = minimum_filter(&neg, window).unwrap();
        let max_then_neg = maximum_filter(&img, window).unwrap().map(|v| 255.0 - v);
        prop_assert!(min_of_neg.approx_eq(&max_then_neg, 1e-9));
    }

    #[test]
    fn repeated_erosion_never_grows(img in arb_image()) {
        let once = minimum_filter(&img, 3).unwrap();
        let twice = minimum_filter(&once, 3).unwrap();
        for (a, b) in twice.planes().iter().flatten().zip(once.planes().iter().flatten()) {
            prop_assert!(a <= b);
        }
    }

    #[test]
    fn median_is_bracketed_by_extrema(img in arb_image(), window in 1usize..4) {
        let lo = minimum_filter(&img, window).unwrap();
        let mid = rank_filter(&img, window, RankKind::Median).unwrap();
        let hi = maximum_filter(&img, window).unwrap();
        for ((l, m), h) in lo
            .planes()
            .iter()
            .flatten()
            .zip(mid.planes().iter().flatten())
            .zip(hi.planes().iter().flatten())
        {
            prop_assert!(l <= m && m <= h);
        }
    }

    #[test]
    fn cached_scaler_is_bit_identical_to_cold_built(
        img in arb_image(),
        algo in arb_algorithm(),
        dw in 1usize..23,
        dh in 1usize..23,
    ) {
        // The engine's plan cache must not change results: a plan fetched
        // from the cache (cold and warm hits alike) produces exactly the
        // bytes a freshly built scaler does, for every algorithm and for
        // non-power-of-two sizes.
        let dst = Size::new(dw, dh);
        let cold = Scaler::new(img.size(), dst, algo).unwrap().apply(&img).unwrap();
        let cache = ScalerCache::new();
        let miss = cache.get(img.size(), dst, algo).unwrap().apply(&img).unwrap();
        let hit = cache.get(img.size(), dst, algo).unwrap().apply(&img).unwrap();
        prop_assert_eq!(&miss, &cold);
        prop_assert_eq!(&hit, &cold);
        prop_assert_eq!(cache.len(), 1);
    }

    #[test]
    fn scratch_convolution_is_bit_identical_to_reference(
        img in arb_image(),
        sigma_h in 0.4f64..2.5,
        sigma_v in 0.4f64..2.5,
    ) {
        // The fast scratch-buffer convolution (the engine's SSIM blur path)
        // must match the reference implementation bit for bit.
        let horizontal = gaussian_kernel(sigma_h, None).unwrap();
        let vertical = gaussian_kernel(sigma_v, None).unwrap();
        let reference = convolve_separable(&img, &horizontal, &vertical).unwrap();
        let mut scratch = ConvScratch::default();
        let fast =
            convolve_separable_with_scratch(&img, &horizontal, &vertical, &mut scratch).unwrap();
        prop_assert_eq!(&fast, &reference);
    }

    #[test]
    fn quantized_images_are_integral_and_bounded(img in arb_image()) {
        let noisy = img.map(|v| v * 1.3 - 20.0);
        let q = noisy.quantized();
        for &v in q.planes().iter().flatten() {
            prop_assert!((0.0..=255.0).contains(&v));
            prop_assert_eq!(v, v.round());
        }
    }
}

// --- Vectorized-kernel equivalence suite -----------------------------------
//
// Every fast kernel behind the `simd` feature must be bit-identical to the
// plain scalar loop it replaced — including NaN payloads, signed zeros and
// overflow-range values. These properties run the public dispatchers (which
// take the AVX path when the feature and the CPU allow it) against scalar
// references written out verbatim, and compare `to_bits` per element.

use decamouflage_imaging::simd::{
    axpy, fold_max, fold_min, ssim_combine, weighted_sum_rows, WEIGHTED_SUM_MAX_ROWS,
};

/// Mostly-finite samples with occasional NaN / ±inf / −0.0 / near-overflow
/// poison, sized to cross the 4-lane and 16-element SIMD block boundaries.
fn arb_poisoned(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    // The compat `prop_oneof!` is unweighted; repeating the finite range
    // biases samples toward mostly-finite data with occasional poison.
    let finite = -1e3f64..1e3;
    let sample = prop_oneof![
        finite.clone(),
        finite.clone(),
        finite.clone(),
        finite.clone(),
        finite.clone(),
        finite,
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(-0.0),
        Just(1e300),
        Just(-1e300),
    ];
    proptest::collection::vec(sample, len)
}

fn arb_poisoned_image() -> impl Strategy<Value = Image> {
    (3usize..=9, 3usize..=9).prop_flat_map(|(w, h)| {
        arb_poisoned(w * h..w * h + 1)
            .prop_map(move |data| Image::from_gray_plane(w, h, data).unwrap())
    })
}

/// Bit equality modulo NaN payloads: non-NaN results must match exactly;
/// NaN results must be NaN on both sides, but their payload bits are
/// unspecified — IEEE 754 leaves NaN propagation open and LLVM freely
/// commutes `fadd`/`fmul` operands, so two compilations of the *same*
/// scalar expression can already disagree on which quiet NaN comes out
/// (e.g. `NaN + (0.0 * inf)`). The engine never scores NaN pixels
/// (validation quarantines them), so scores are unaffected.
fn bits_match(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn simd_axpy_and_folds_match_scalar_loops(
        dst0 in arb_poisoned(1..67),
        src0 in arb_poisoned(1..67),
        w in prop_oneof![-10.0f64..10.0, Just(f64::NAN), Just(0.0), Just(-0.0)],
    ) {
        let n = dst0.len().min(src0.len());
        let (dst0, src) = (&dst0[..n], &src0[..n]);

        let mut fast = dst0.to_vec();
        axpy(&mut fast, src, w);
        let mut reference = dst0.to_vec();
        for (d, &s) in reference.iter_mut().zip(src) {
            *d += w * s;
        }
        for (&a, &b) in fast.iter().zip(&reference) {
            prop_assert!(bits_match(a, b), "axpy: {a:?} vs {b:?}");
        }

        let mut fast = dst0.to_vec();
        fold_min(&mut fast, src);
        let mut reference = dst0.to_vec();
        for (d, &s) in reference.iter_mut().zip(src) {
            *d = d.min(s);
        }
        for (&a, &b) in fast.iter().zip(&reference) {
            prop_assert!(bits_match(a, b), "fold_min: {a:?} vs {b:?}");
        }

        let mut fast = dst0.to_vec();
        fold_max(&mut fast, src);
        let mut reference = dst0.to_vec();
        for (d, &s) in reference.iter_mut().zip(src) {
            *d = d.max(s);
        }
        for (&a, &b) in fast.iter().zip(&reference) {
            prop_assert!(bits_match(a, b), "fold_max: {a:?} vs {b:?}");
        }
    }

    #[test]
    fn simd_weighted_sum_rows_matches_axpy_chain(
        rows in 1usize..=WEIGHTED_SUM_MAX_ROWS,
        len in 1usize..67,
        accumulate in any::<bool>(),
        pool in arb_poisoned(1200..1201),
        weights0 in arb_poisoned(16..17),
    ) {
        let srcs: Vec<&[f64]> = (0..rows).map(|k| &pool[k * len..(k + 1) * len]).collect();
        let weights = &weights0[..rows];
        let dst0 = &pool[1100..1100 + len];

        let mut fast = dst0.to_vec();
        weighted_sum_rows(&mut fast, &srcs, weights, accumulate);

        let mut reference = dst0.to_vec();
        if !accumulate {
            reference.fill(0.0);
        }
        for (s, &w) in srcs.iter().zip(weights) {
            for (d, &v) in reference.iter_mut().zip(*s) {
                *d += w * v;
            }
        }
        for (&a, &b) in fast.iter().zip(&reference) {
            prop_assert!(bits_match(a, b), "weighted_sum_rows: {a:?} vs {b:?}");
        }
    }

    #[test]
    fn simd_ssim_combine_matches_scalar_formula(
        len in 1usize..67,
        pool in arb_poisoned(400..401),
        c1 in 1e-6f64..10.0,
        c2 in 1e-6f64..10.0,
    ) {
        let plane = |k: usize| &pool[k * len..(k + 1) * len];
        let (mu_a, mu_b, a_sq, b_sq, ab) = (plane(0), plane(1), plane(2), plane(3), plane(4));

        let mut fast = vec![0.0; len];
        ssim_combine(&mut fast, mu_a, mu_b, a_sq, b_sq, ab, c1, c2);

        // The historical per-pixel loop, op for op: `(2.0 * µa) * µb`
        // grouping, a `0.0 + q` accumulator seed, then `/ 1.0` for the
        // single-channel average.
        for i in 0..len {
            let (ma, mb) = (mu_a[i], mu_b[i]);
            let va = a_sq[i] - ma * ma;
            let vb = b_sq[i] - mb * mb;
            let cov = ab[i] - ma * mb;
            let numerator = (2.0 * ma * mb + c1) * (2.0 * cov + c2);
            let denominator = (ma * ma + mb * mb + c1) * (va + vb + c2);
            let mut acc = 0.0;
            acc += numerator / denominator;
            prop_assert!(bits_match(fast[i], acc / 1.0), "pixel {}: {:?} vs {:?}", i, fast[i], acc / 1.0);
        }
    }

    #[test]
    fn oversized_kernel_convolution_is_bit_identical(
        img in arb_image(),
        sigma in 0.8f64..4.0,
        extra in 0usize..6,
    ) {
        // Kernel radius at least half the image side (and beyond), so the
        // clamped border path dominates — the regime where a fast path
        // most easily diverges from the reference.
        let radius = img.width().max(img.height()) / 2 + extra;
        let kernel = gaussian_kernel(sigma, Some(radius)).unwrap();
        let reference = convolve_separable(&img, &kernel, &kernel).unwrap();
        let mut scratch = ConvScratch::default();
        let fast =
            convolve_separable_with_scratch(&img, &kernel, &kernel, &mut scratch).unwrap();
        prop_assert_eq!(&fast, &reference);
    }

    #[test]
    fn nan_poisoned_images_do_not_panic_and_stay_bit_identical(
        img in arb_poisoned_image(),
        algo in arb_algorithm(),
        window in 1usize..4,
        sigma in 0.5f64..2.0,
    ) {
        // No fast path may panic on (or silently diverge over) non-finite
        // samples; the engine quarantines such inputs, but the kernels
        // beneath it must stay total.
        let dst = Size::new(img.width().div_ceil(2), img.height().div_ceil(2));
        let _ = Scaler::new(img.size(), dst, algo).unwrap().apply(&img).unwrap();
        let _ = rank_filter(&img, window, RankKind::Median).unwrap();
        let _ = minimum_filter(&img, window).unwrap();
        let _ = maximum_filter(&img, window).unwrap();

        let kernel = gaussian_kernel(sigma, None).unwrap();
        let reference = convolve_separable(&img, &kernel, &kernel).unwrap();
        let mut scratch = ConvScratch::default();
        let fast =
            convolve_separable_with_scratch(&img, &kernel, &kernel, &mut scratch).unwrap();
        for (&a, &b) in fast.planes().iter().flatten().zip(reference.planes().iter().flatten()) {
            prop_assert!(bits_match(a, b), "conv: {a:?} vs {b:?}");
        }
    }
}
