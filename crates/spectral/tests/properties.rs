//! Property-based tests (proptest) for the spectral substrate.

use decamouflage_imaging::{Channels, Image};
use decamouflage_spectral::components::{count_components, label_components, Connectivity};
use decamouflage_spectral::csp::{
    count_csp, count_csp_in_spectrum_with_mags, CspConfig, CspReport,
};
use decamouflage_spectral::dft2d::{centered_spectrum, dft2_planned, idft2};
use decamouflage_spectral::fft::{dft_naive, fft, ifft};
use decamouflage_spectral::mixed_radix::{is_smooth, MixedRadixPlan, MAX_SMALL_PRIME};
use decamouflage_spectral::radial::radial_profile;
use decamouflage_spectral::spectrum::{binarize, fill_ratio, low_pass_mask};
use decamouflage_spectral::Complex64;
use proptest::prelude::*;

/// The engine's fused CSP pass on a freshly planned spectrum — compared
/// against the staged [`count_csp`] oracle.
fn fused_csp(img: &Image, config: &CspConfig) -> CspReport {
    let spec = dft2_planned(img);
    count_csp_in_spectrum_with_mags(&spec, &spec.log_magnitudes(), config)
}

fn arb_signal(max_len: usize) -> impl Strategy<Value = Vec<Complex64>> {
    (1usize..=max_len).prop_flat_map(|n| {
        proptest::collection::vec((-100.0f64..100.0, -100.0f64..100.0), n)
            .prop_map(|pairs| pairs.into_iter().map(|(re, im)| Complex64::new(re, im)).collect())
    })
}

fn arb_image() -> impl Strategy<Value = Image> {
    (2usize..=16, 2usize..=16).prop_flat_map(|(w, h)| {
        proptest::collection::vec(0u8..=255, w * h)
            .prop_map(move |data| Image::from_u8(w, h, Channels::Gray, &data).unwrap())
    })
}

fn arb_binary_image() -> impl Strategy<Value = Image> {
    (2usize..=12, 2usize..=12).prop_flat_map(|(w, h)| {
        proptest::collection::vec(0u8..=1, w * h).prop_map(move |data| {
            Image::from_gray_plane(w, h, data.into_iter().map(f64::from).collect()).unwrap()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn fft_matches_naive_dft(signal in arb_signal(40)) {
        let mut fast = signal.clone();
        fft(&mut fast);
        let naive = dft_naive(&signal);
        for (a, b) in fast.iter().zip(naive.iter()) {
            prop_assert!((*a - *b).norm() < 1e-6 * signal.len() as f64);
        }
    }

    #[test]
    fn ifft_inverts_fft(signal in arb_signal(48)) {
        let mut data = signal.clone();
        fft(&mut data);
        ifft(&mut data);
        for (a, b) in data.iter().zip(signal.iter()) {
            prop_assert!((*a - *b).norm() < 1e-8 * signal.len() as f64);
        }
    }

    #[test]
    fn parseval_holds(signal in arb_signal(36)) {
        let time: f64 = signal.iter().map(|v| v.norm_sqr()).sum();
        let mut freq = signal.clone();
        fft(&mut freq);
        let spec: f64 = freq.iter().map(|v| v.norm_sqr()).sum::<f64>() / signal.len() as f64;
        prop_assert!((time - spec).abs() < 1e-6 * time.max(1.0));
    }

    #[test]
    fn mixed_radix_matches_naive_on_smooth_lengths(seed in 0u64..1000) {
        let smooth_lengths = [6usize, 10, 12, 14, 15, 18, 20, 21, 24, 28, 30];
        let n = smooth_lengths[(seed % smooth_lengths.len() as u64) as usize];
        prop_assert!(is_smooth(n));
        let signal: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new(((seed + i as u64) % 97) as f64, (i as f64 * 0.3).sin()))
            .collect();
        let mut fast = signal.clone();
        MixedRadixPlan::new(n).forward(&mut fast, &mut Vec::new());
        let naive = dft_naive(&signal);
        for (a, b) in fast.iter().zip(naive.iter()) {
            prop_assert!((*a - *b).norm() < 1e-7 * n as f64);
        }
    }

    #[test]
    fn dft2_roundtrip(img in arb_image()) {
        let back = idft2(&dft2_planned(&img));
        prop_assert!(back.approx_eq(&img, 1e-6));
    }

    #[test]
    fn centered_spectrum_is_normalised(img in arb_image()) {
        let spec = centered_spectrum(&img);
        prop_assert!(spec.min_sample() >= 0.0);
        prop_assert!(spec.max_sample() <= 1.0 + 1e-12);
    }

    #[test]
    fn component_count_bounded_by_set_pixels(img in arb_binary_image()) {
        let set = img.plane(0).iter().filter(|&&v| v != 0.0).count();
        let count = count_components(&img, Connectivity::Eight, 1);
        prop_assert!(count <= set);
        // Eight-connectivity merges at least as much as four.
        let four = count_components(&img, Connectivity::Four, 1);
        prop_assert!(count <= four);
    }

    #[test]
    fn component_areas_sum_to_set_pixels(img in arb_binary_image()) {
        let set = img.plane(0).iter().filter(|&&v| v != 0.0).count();
        let total: usize = label_components(&img, Connectivity::Eight)
            .iter()
            .map(|c| c.area)
            .sum();
        prop_assert_eq!(total, set);
    }

    #[test]
    fn low_pass_mask_only_removes(img in arb_image(), radius in 0.0f64..20.0) {
        let spec = centered_spectrum(&img);
        let masked = low_pass_mask(&spec, radius);
        for (m, s) in masked.plane(0).iter().zip(spec.plane(0)) {
            prop_assert!(*m == 0.0 || (*m - *s).abs() < 1e-12);
        }
    }

    #[test]
    fn binarize_fill_ratio_is_monotone_in_threshold(img in arb_image()) {
        let spec = centered_spectrum(&img);
        let low = fill_ratio(&binarize(&spec, 0.2));
        let high = fill_ratio(&binarize(&spec, 0.8));
        prop_assert!(high <= low);
    }

    #[test]
    fn planned_csp_matches_staged_pipeline(img in arb_image(), threshold in 0.3f64..0.95) {
        let config = CspConfig { binarize_threshold: threshold, ..CspConfig::default() };
        let staged = count_csp(&img, &config);
        let fused = fused_csp(&img, &config);
        prop_assert_eq!(fused.count, staged.count);
        prop_assert_eq!(fused.components, staged.components);
    }

    #[test]
    fn radial_profile_accounts_for_every_pixel(img in arb_image()) {
        let profile = radial_profile(&img);
        let total: usize = profile.count.iter().sum();
        prop_assert_eq!(total, img.width() * img.height());
        for r in 0..profile.len() {
            if profile.count[r] > 0 {
                prop_assert!(profile.max[r] >= profile.mean[r] - 1e-12);
            }
        }
    }
}

#[test]
fn planned_paths_match_on_large_bluestein_sizes() {
    // 97 and 31 are primes well past the small mixed-radix factors, so both
    // axes go through the Bluestein fallback.
    let img = Image::from_fn_gray(97, 31, |x, y| ((x * 13 + y * 29) % 251) as f64);
    let config = CspConfig::default();
    assert_eq!(fused_csp(&img, &config).count, count_csp(&img, &config).count);
}

// ---------------------------------------------------------------------------
// Vectorized-kernel equivalence suite (ISSUE 6): the dispatching radix-2
// implementation (twiddle plans + optional AVX butterflies) against the
// historical scalar loop, including NaN/inf-poisoned signals, and the fused
// CSP pass on poisoned images.
// ---------------------------------------------------------------------------

use std::f64::consts::PI;

/// The historical scalar radix-2 loop, kept verbatim as the bit-identity
/// reference for the dispatching implementation (same copy as the unit test
/// inside `fft.rs`, duplicated here because that one is crate-private).
fn radix2_scalar_reference(data: &mut [Complex64]) {
    let n = data.len();
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if j > i {
            data.swap(i, j);
        }
    }
    let mut len = 2;
    while len <= n {
        let theta = -2.0 * PI / len as f64;
        let w_len = Complex64::from_polar_unit(theta);
        for chunk in data.chunks_exact_mut(len) {
            let (lo, hi) = chunk.split_at_mut(len / 2);
            let mut w = Complex64::ONE;
            for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
                let t = *b * w;
                let av = *a;
                *a = av + t;
                *b = av - t;
                w *= w_len;
            }
        }
        len <<= 1;
    }
}

/// Bit equality modulo NaN payloads (see `imaging/src/simd.rs` module docs:
/// IEEE NaN propagation through commutable `fadd`/`fmul` is not pinned by
/// the compiler, so when two distinct NaNs meet, either payload may win).
fn bits_match(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

fn arb_poisoned_component() -> impl Strategy<Value = f64> {
    prop_oneof![
        -100.0f64..100.0,
        -100.0f64..100.0,
        -100.0f64..100.0,
        -100.0f64..100.0,
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(-0.0f64),
    ]
}

fn arb_poisoned_pow2_signal() -> impl Strategy<Value = Vec<Complex64>> {
    (1u32..=7).prop_flat_map(|bits| {
        proptest::collection::vec((arb_poisoned_component(), arb_poisoned_component()), 1 << bits)
            .prop_map(|pairs| pairs.into_iter().map(|(re, im)| Complex64::new(re, im)).collect())
    })
}

fn arb_poisoned_image() -> impl Strategy<Value = Image> {
    (3usize..=12, 3usize..=12).prop_flat_map(|(w, h)| {
        proptest::collection::vec(arb_poisoned_component(), w * h)
            .prop_map(move |data| Image::from_gray_plane(w, h, data).unwrap())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn radix2_matches_scalar_reference_on_poisoned_signals(
        input in arb_poisoned_pow2_signal(),
    ) {
        let mut reference = input.clone();
        radix2_scalar_reference(&mut reference);
        let mut fast = input;
        fft(&mut fast);
        for (i, (a, b)) in fast.iter().zip(&reference).enumerate() {
            prop_assert!(
                bits_match(a.re, b.re) && bits_match(a.im, b.im),
                "element {}: {:?} vs {:?}",
                i,
                a,
                b
            );
        }
    }

    #[test]
    fn csp_on_poisoned_images_never_panics(img in arb_poisoned_image()) {
        // NaN magnitudes fail every `>= threshold` comparison, so both the
        // staged and the fused pass must agree and return a sane report.
        let config = CspConfig::default();
        let staged = count_csp(&img, &config);
        let fused = fused_csp(&img, &config);
        prop_assert_eq!(fused.count, staged.count);
        prop_assert_eq!(fused.components, staged.components);
        prop_assert!(staged.count <= img.width() * img.height());
    }
}

// ---------------------------------------------------------------------------
// Mixed-radix bit-identity suite: the iterative in-place plan behind `fft`
// (scalar or AVX butterflies) against the historical recursive plan, on
// every smooth length up to 1200, on poisoned signals, and through the
// 2-D row-pair/column sequence at the paper's Table 7 sizes.
// ---------------------------------------------------------------------------

/// The historical recursive mixed-radix plan, kept verbatim (minus its
/// unused inverse) as the bit-identity reference for the iterative plan.
#[derive(Debug)]
struct RecursiveMixedRadixPlan {
    n: usize,
    /// Prime factors in recursion order.
    factors: Vec<usize>,
    /// Twiddle table: e^{-2πi k / N} for k in 0..N (forward direction).
    twiddles: Vec<Complex64>,
}

/// Returns the smallest prime factor of `n` (n >= 2).
fn smallest_prime_factor(n: usize) -> usize {
    if n.is_multiple_of(2) {
        return 2;
    }
    let mut p = 3;
    while p * p <= n {
        if n.is_multiple_of(p) {
            return p;
        }
        p += 2;
    }
    n
}

impl RecursiveMixedRadixPlan {
    fn new(n: usize) -> Self {
        assert!(n > 0, "length must be non-zero");
        assert!(is_smooth(n), "length {n} has a prime factor > {MAX_SMALL_PRIME}");
        let mut factors = Vec::new();
        let mut m = n;
        while m > 1 {
            let p = smallest_prime_factor(m);
            factors.push(p);
            m /= p;
        }
        let twiddles =
            (0..n).map(|k| Complex64::from_polar_unit(-2.0 * PI * k as f64 / n as f64)).collect();
        Self { n, factors, twiddles }
    }

    /// Twiddle `e^{-2πi k / N}` (forward) or its conjugate (inverse).
    #[inline]
    fn twiddle(&self, k: usize, forward: bool) -> Complex64 {
        let t = self.twiddles[k % self.n];
        if forward {
            t
        } else {
            t.conj()
        }
    }

    /// Forward transform (no normalisation), out of place.
    fn forward(&self, input: &[Complex64]) -> Vec<Complex64> {
        self.transform(input, true)
    }

    /// Shared transform body: allocates the output and one scratch buffer
    /// up front; the recursion ping-pongs between them instead of building
    /// per-level subsequence vectors.
    fn transform(&self, input: &[Complex64], forward: bool) -> Vec<Complex64> {
        assert_eq!(input.len(), self.n, "input length mismatch");
        let mut out = vec![Complex64::ZERO; self.n];
        let mut scratch = vec![Complex64::ZERO; self.n];
        self.recurse(input, 0, 1, &mut out, &mut scratch, self.n, 0, forward);
        out
    }

    /// Recursive decimation-in-time over the subsequence
    /// `input[offset + i*stride]` of logical length `len`, writing the
    /// spectrum contiguously into `out[..len]` with `scratch[..len]` as
    /// workspace; `depth` indexes into the factor list.
    #[allow(clippy::too_many_arguments)]
    fn recurse(
        &self,
        input: &[Complex64],
        offset: usize,
        stride: usize,
        out: &mut [Complex64],
        scratch: &mut [Complex64],
        len: usize,
        depth: usize,
        forward: bool,
    ) {
        if len == 1 {
            out[0] = input[offset];
            return;
        }
        let r = self.factors[depth];
        let m = len / r;

        // Transform each of the r decimated subsequences of length m.
        for n1 in 0..r {
            self.recurse(
                input,
                offset + n1 * stride,
                stride * r,
                &mut scratch[n1 * m..(n1 + 1) * m],
                &mut out[n1 * m..(n1 + 1) * m],
                m,
                depth + 1,
                forward,
            );
        }

        // Combine: X[k1 + m*j] = Σ_{n1} W_N^{n1 (k1 + m j)} · S_{n1}[k1].
        // Twiddle index scaled by the global stride of this recursion level:
        // this level's W_N uses N = len, so global k = index * (self.n/len).
        let unit = self.n / len;
        for k1 in 0..m {
            for j in 0..r {
                let k = k1 + m * j;
                let mut acc = Complex64::ZERO;
                for n1 in 0..r {
                    let tw = self.twiddle(n1 * k * unit, forward);
                    acc += scratch[n1 * m + k1] * tw;
                }
                out[k] = acc;
            }
        }
    }
}

/// The forward DFT of `input` through the historical recursion.
fn mixed_radix_recursive_reference(input: &[Complex64]) -> Vec<Complex64> {
    RecursiveMixedRadixPlan::new(input.len()).forward(input)
}

/// Smooth lengths up to `max` that are not powers of two: every length
/// `fft` sends down the mixed-radix path.
fn smooth_non_pow2_lengths(max: usize) -> Vec<usize> {
    (3..=max).filter(|&n| is_smooth(n) && !n.is_power_of_two()).collect()
}

fn assert_bits_identical(fast: &[Complex64], reference: &[Complex64], what: &str) {
    assert_eq!(fast.len(), reference.len(), "{what}: length");
    for (i, (a, b)) in fast.iter().zip(reference).enumerate() {
        assert!(
            a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
            "{what} bin {i}: {a:?} vs {b:?}"
        );
    }
}

#[test]
fn mixed_radix_is_bit_identical_to_the_recursion_on_every_smooth_length() {
    let lengths = smooth_non_pow2_lengths(1200);
    assert_eq!(lengths.len(), 256);
    for n in lengths {
        let signals: [Vec<Complex64>; 3] = [
            // Smooth complex tones.
            (0..n)
                .map(|i| Complex64::new((i as f64 * 0.61).sin() * 5.0, (i as f64 * 1.7).cos()))
                .collect(),
            // Pixel-like real samples: zero imaginary parts exercise the
            // signed-zero arithmetic of the `acc = 0` start.
            (0..n).map(|i| Complex64::from_real(((i * 7919 + n * 31) % 256) as f64)).collect(),
            // Wide dynamic range with sign changes.
            (0..n)
                .map(|i| {
                    let t = (i as f64 + 0.5) / n as f64;
                    Complex64::new((t * 40.0).tan(), -1e-3 / t)
                })
                .collect(),
        ];
        for (s, signal) in signals.iter().enumerate() {
            let mut fast = signal.clone();
            fft(&mut fast);
            assert_bits_identical(
                &fast,
                &mixed_radix_recursive_reference(signal),
                &format!("n={n} signal {s}"),
            );
        }
    }
}

/// `dft2_planned`'s row-pair and column sequence, with every 1-D transform
/// taken by the recursive reference.
fn dft2_through_the_recursion(img: &Image) -> Vec<Complex64> {
    let (w, h) = (img.width(), img.height());
    let mut grid: Vec<Complex64> = img.luma().iter().map(|&v| Complex64::from_real(v)).collect();
    let mut pair = 0;
    while pair + 1 < h {
        let (ya, yb) = (pair, pair + 1);
        let packed: Vec<Complex64> =
            (0..w).map(|x| Complex64::new(grid[ya * w + x].re, grid[yb * w + x].re)).collect();
        let packed = mixed_radix_recursive_reference(&packed);
        for k in 0..w {
            let z_k = packed[k];
            let z_nk = packed[(w - k) % w].conj();
            let a = (z_k + z_nk) * 0.5;
            let b = Complex64::new(0.5 * (z_k.im - z_nk.im), 0.5 * (z_nk.re - z_k.re));
            grid[ya * w + k] = a;
            grid[yb * w + k] = b;
        }
        pair += 2;
    }
    if pair < h {
        let row = mixed_radix_recursive_reference(&grid[pair * w..(pair + 1) * w]);
        grid[pair * w..(pair + 1) * w].copy_from_slice(&row);
    }
    for x in 0..w {
        let col: Vec<Complex64> = (0..h).map(|y| grid[y * w + x]).collect();
        for (y, v) in mixed_radix_recursive_reference(&col).into_iter().enumerate() {
            grid[y * w + x] = v;
        }
    }
    grid
}

#[test]
fn dft2_is_bit_identical_to_the_recursion_at_paper_sizes() {
    for (w, h) in [(336usize, 336usize), (448, 448), (560, 560), (336, 560)] {
        let img = Image::from_fn_gray(w, h, |x, y| ((x * 131 + y * 71 + x * y) % 256) as f64);
        assert_bits_identical(
            dft2_planned(&img).as_slice(),
            &dft2_through_the_recursion(&img),
            &format!("{w}x{h}"),
        );
    }
}

#[test]
fn ifft_round_trips_at_paper_sizes() {
    for n in [336usize, 448, 560] {
        let signal: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new(((i * 37) % 256) as f64, (i as f64 * 0.3).sin()))
            .collect();
        let mut data = signal.clone();
        fft(&mut data);
        ifft(&mut data);
        for (i, (a, b)) in data.iter().zip(&signal).enumerate() {
            assert!((*a - *b).norm() < 1e-9 * n as f64, "n={n} sample {i}: {a} vs {b}");
        }
    }
}

fn arb_poisoned_smooth_signal() -> impl Strategy<Value = Vec<Complex64>> {
    const LENGTHS: [usize; 12] = [3, 6, 7, 12, 15, 21, 35, 45, 77, 143, 169, 336];
    (0usize..LENGTHS.len()).prop_flat_map(|i| {
        proptest::collection::vec((arb_poisoned_component(), arb_poisoned_component()), LENGTHS[i])
            .prop_map(|pairs| pairs.into_iter().map(|(re, im)| Complex64::new(re, im)).collect())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mixed_radix_matches_the_recursion_on_poisoned_signals(
        input in arb_poisoned_smooth_signal(),
    ) {
        let reference = mixed_radix_recursive_reference(&input);
        let mut fast = input;
        fft(&mut fast);
        for (i, (a, b)) in fast.iter().zip(&reference).enumerate() {
            prop_assert!(
                bits_match(a.re, b.re) && bits_match(a.im, b.im),
                "element {}: {:?} vs {:?}",
                i,
                a,
                b
            );
        }
    }
}
