//! Mixed-radix Cooley–Tukey FFT for composite lengths.
//!
//! The image sizes this framework meets in practice (336, 392, 448, 504,
//! 560, 616, …) are highly composite: products of 2, 3, 5 and 7. The
//! Cooley–Tukey decomposition `N = r * m` reduces such lengths to tiny
//! prime-length DFTs plus twiddle multiplications in `O(N log N)`, avoiding
//! the ~3x padded-transform overhead of Bluestein's algorithm. Lengths with
//! a large prime factor still fall back to Bluestein (handled by
//! [`crate::fft`]).
//!
//! Each decimation-in-time level splits a block of length `len = r * m`
//! into `r` interleaved subsequences and combines their spectra:
//!
//! ```text
//! X[k1 + m*j] = Σ_{n1=0}^{r-1} e^{-2πi n1 (k1 + m j)/len}
//!               · (DFT_m of the n1-th decimated subsequence)[k1]
//! ```
//!
//! The plan runs that decomposition iteratively and in place. A
//! mixed-radix digit-reversal permutation puts every input sample where the
//! length-1 leaves of the recursion would put it; then one stage per prime
//! factor runs, deepest (smallest blocks) first. For a fixed `k1` the
//! combine reads the `r` slots `n1*m + k1` and writes the same `r` slots
//! `k1 + m*j`, so each butterfly loads its inputs before storing its
//! outputs and no second buffer is needed. Every output is the sum
//! `acc = 0; acc += x[n1] * w` in ascending `n1`, with `w` read from a
//! per-stage table holding exactly the twiddle the recursion used, so the
//! results are bit-identical to the textbook recursion (kept as the oracle
//! in the property suite).

use crate::Complex64;
use std::f64::consts::PI;

/// Largest prime factor that the mixed-radix path handles before the
/// caller should fall back to Bluestein.
pub const MAX_SMALL_PRIME: usize = 13;

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

/// Whether `n` is a product of primes `<= MAX_SMALL_PRIME` (such lengths
/// take the fast mixed-radix path).
pub fn is_smooth(n: usize) -> bool {
    if n == 0 {
        return false;
    }
    let mut m = n;
    for p in [2usize, 3, 5, 7, 11, 13] {
        while m.is_multiple_of(p) {
            m /= p;
        }
    }
    m == 1
}

/// One butterfly stage: every block of `radix * span` samples combines
/// `radix` sub-spectra of length `span`.
#[derive(Debug)]
struct Stage {
    radix: usize,
    /// Sub-spectrum length `m`: the distance between a butterfly's inputs.
    span: usize,
    /// `twiddles[(n1 * radix + j) * span + k1]` multiplies input `n1` of
    /// butterfly `k1` into output `j`. Consecutive `k1` (and, at span 1,
    /// consecutive `j`) sit side by side, as the AVX lanes read them.
    twiddles: Vec<Complex64>,
}

/// Precomputed iterative plan for one length.
#[derive(Debug)]
pub struct MixedRadixPlan {
    n: usize,
    /// `gather[p]` is the input index the digit reversal places at `p`.
    gather: Vec<usize>,
    /// Butterfly stages, deepest first.
    stages: Vec<Stage>,
}

impl MixedRadixPlan {
    /// Builds a plan for length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or not smooth (check [`is_smooth`] first).
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "length must be non-zero");
        assert!(is_smooth(n), "length {n} has a prime factor > {MAX_SMALL_PRIME}");
        // Prime factors in decimation order: level 0 splits by the first.
        let mut factors = Vec::new();
        let mut m = n;
        while m > 1 {
            let p = smallest_prime_factor(m);
            factors.push(p);
            m /= p;
        }
        let roots: Vec<Complex64> =
            (0..n).map(|k| Complex64::from_polar_unit(-2.0 * PI * k as f64 / n as f64)).collect();

        // The level splitting blocks of `len` reads W_len^{n1 k}, which is
        // entry `n1 * k * (n / len) mod n` of the length-`n` root table.
        let mut stages = Vec::with_capacity(factors.len());
        let mut len = n;
        for &radix in &factors {
            let span = len / radix;
            let unit = n / len;
            let mut twiddles = Vec::with_capacity(radix * radix * span);
            for n1 in 0..radix {
                for j in 0..radix {
                    for k1 in 0..span {
                        twiddles.push(roots[(n1 * (k1 + span * j) * unit) % n]);
                    }
                }
            }
            stages.push(Stage { radix, span, twiddles });
            len = span;
        }
        stages.reverse();

        // A leaf reached through digits (n1_0, n1_1, …) sits at
        // Σ n1_d · (n / (r_0 ⋯ r_d)) and reads input Σ n1_d · (r_0 ⋯ r_{d-1}).
        let gather = (0..n)
            .map(|position| {
                let (mut rest, mut len, mut stride, mut source) = (position, n, 1, 0);
                for &radix in &factors {
                    len /= radix;
                    source += rest / len * stride;
                    rest %= len;
                    stride *= radix;
                }
                source
            })
            .collect();
        Self { n, gather, stages }
    }

    /// The transform length.
    pub const fn len(&self) -> usize {
        self.n
    }

    /// Whether the plan is for the trivial length 1.
    pub fn is_empty(&self) -> bool {
        self.n <= 1
    }

    /// Forward transform (no normalisation) of `data`, in place. `scratch`
    /// is resized as needed; passing the same buffer to every call keeps
    /// repeated transforms allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the plan length.
    pub fn forward(&self, data: &mut [Complex64], scratch: &mut Vec<Complex64>) {
        assert_eq!(data.len(), self.n, "input length mismatch");
        scratch.clear();
        scratch.extend_from_slice(data);
        for (slot, &source) in data.iter_mut().zip(&self.gather) {
            *slot = scratch[source];
        }
        for stage in &self.stages {
            match stage.radix {
                2 => run_stage::<2>(data, stage),
                3 => run_stage::<3>(data, stage),
                5 => run_stage::<5>(data, stage),
                7 => run_stage::<7>(data, stage),
                11 => run_stage::<11>(data, stage),
                13 => run_stage::<13>(data, stage),
                radix => unreachable!("radix {radix} is not a prime <= {MAX_SMALL_PRIME}"),
            }
        }
    }
}

/// Runs every radix-`R` butterfly of one stage over `data`, in place.
fn run_stage<const R: usize>(data: &mut [Complex64], stage: &Stage) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    #[allow(unsafe_code)]
    if std::arch::is_x86_feature_detected!("avx") {
        // SAFETY: AVX support was just verified at runtime.
        unsafe {
            if stage.span == 1 {
                avx::butterflies_across_outputs::<R>(data, &stage.twiddles);
            } else {
                avx::butterflies_across_k1::<R>(data, stage.span, &stage.twiddles);
            }
        }
        return;
    }
    for block in data.chunks_exact_mut(R * stage.span) {
        for k1 in 0..stage.span {
            butterfly::<R>(block, stage.span, &stage.twiddles, k1);
        }
    }
}

/// Butterfly `k1` of one `R * span` block, in place: loads the inputs
/// `block[n1 * span + k1]`, then writes output `j` to `block[k1 + span * j]`
/// as `acc = 0; acc += x[n1] * w` in ascending `n1` — the exact operation
/// sequence of the recursive combine step.
fn butterfly<const R: usize>(
    block: &mut [Complex64],
    span: usize,
    twiddles: &[Complex64],
    k1: usize,
) {
    let x: [Complex64; R] = std::array::from_fn(|n1| block[n1 * span + k1]);
    for j in 0..R {
        let mut acc = Complex64::ZERO;
        for (n1, &v) in x.iter().enumerate() {
            acc += v * twiddles[(n1 * R + j) * span + k1];
        }
        block[k1 + span * j] = acc;
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[allow(unsafe_code)]
mod avx {
    //! Explicit AVX butterflies for [`super::run_stage`].
    //!
    //! Two complex numbers per 256-bit register as interleaved
    //! `[re0, im0, re1, im1]` lanes (`Complex64` is `#[repr(C)]`). The
    //! complex product is the radix-2 path's mul/mul/addsub sequence: each
    //! lane computes `re·wr − im·wi` and `im·wr + re·wi`, two multiplies
    //! then one add/subtract and never an FMA, so it equals the scalar
    //! `Mul` bit for bit. Accumulators start at `+0.0` and add products in
    //! ascending `n1`, as the scalar loop does. Every load and store is
    //! unaligned (`Complex64` is only 8-byte aligned).

    use super::Complex64;
    use std::arch::x86_64::{
        __m256d, _mm256_add_pd, _mm256_addsub_pd, _mm256_castpd128_pd256, _mm256_insertf128_pd,
        _mm256_loadu_pd, _mm256_movedup_pd, _mm256_mul_pd, _mm256_permute_pd, _mm256_setzero_pd,
        _mm256_storeu_pd, _mm_loadu_pd,
    };

    /// `x · w` per lane, with `x_swap` the re/im swap of `x`.
    #[inline]
    #[target_feature(enable = "avx")]
    fn cmul(x: __m256d, x_swap: __m256d, w: __m256d) -> __m256d {
        let w_re = _mm256_movedup_pd(w);
        let w_im = _mm256_permute_pd::<0xF>(w);
        _mm256_addsub_pd(_mm256_mul_pd(x, w_re), _mm256_mul_pd(x_swap, w_im))
    }

    /// A span ≥ 2 stage with lanes across consecutive butterflies `k1`; an
    /// odd `span` leaves its last butterfly to the scalar loop.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX.
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn butterflies_across_k1<const R: usize>(
        data: &mut [Complex64],
        span: usize,
        twiddles: &[Complex64],
    ) {
        assert!(span >= 2 && twiddles.len() == R * R * span, "stage table shape");
        let pairs = span / 2 * 2;
        let t = twiddles.as_ptr() as *const f64;
        for block in data.chunks_exact_mut(R * span) {
            let p = block.as_mut_ptr() as *mut f64;
            let mut k1 = 0;
            while k1 < pairs {
                let mut x = [_mm256_setzero_pd(); R];
                let mut x_swap = [_mm256_setzero_pd(); R];
                for n1 in 0..R {
                    // SAFETY: `n1 * span + k1 + 1 < R * span == block.len()`.
                    x[n1] = unsafe { _mm256_loadu_pd(p.add(2 * (n1 * span + k1))) };
                    x_swap[n1] = _mm256_permute_pd::<0x5>(x[n1]);
                }
                for j in 0..R {
                    let mut acc = _mm256_setzero_pd();
                    for n1 in 0..R {
                        // SAFETY: `(n1 * R + j) * span + k1 + 1 < R * R * span`,
                        // the table length asserted above.
                        let w = unsafe { _mm256_loadu_pd(t.add(2 * ((n1 * R + j) * span + k1))) };
                        acc = _mm256_add_pd(acc, cmul(x[n1], x_swap[n1], w));
                    }
                    // SAFETY: `k1 + span * j + 1 < R * span`; every input of
                    // this butterfly pair is already in `x`.
                    unsafe { _mm256_storeu_pd(p.add(2 * (k1 + span * j)), acc) };
                }
                k1 += 2;
            }
            if pairs < span {
                super::butterfly::<R>(block, span, twiddles, pairs);
            }
        }
    }

    /// A span-1 stage (one `R`-point DFT per block) with lanes across
    /// consecutive outputs `j`; an odd `R` computes its last output in
    /// scalar.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX.
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn butterflies_across_outputs<const R: usize>(
        data: &mut [Complex64],
        twiddles: &[Complex64],
    ) {
        assert_eq!(twiddles.len(), R * R, "stage table shape");
        let pairs = R / 2 * 2;
        let t = twiddles.as_ptr() as *const f64;
        for block in data.chunks_exact_mut(R) {
            let inputs: [Complex64; R] = std::array::from_fn(|n1| block[n1]);
            let src = inputs.as_ptr() as *const f64;
            let mut x = [_mm256_setzero_pd(); R];
            let mut x_swap = [_mm256_setzero_pd(); R];
            for n1 in 0..R {
                // SAFETY: `n1 < R == inputs.len()`.
                let v = unsafe { _mm_loadu_pd(src.add(2 * n1)) };
                x[n1] = _mm256_insertf128_pd::<1>(_mm256_castpd128_pd256(v), v);
                x_swap[n1] = _mm256_permute_pd::<0x5>(x[n1]);
            }
            let p = block.as_mut_ptr() as *mut f64;
            let mut j = 0;
            while j < pairs {
                let mut acc = _mm256_setzero_pd();
                for n1 in 0..R {
                    // SAFETY: `n1 * R + j + 1 < R * R`, the asserted length.
                    let w = unsafe { _mm256_loadu_pd(t.add(2 * (n1 * R + j))) };
                    acc = _mm256_add_pd(acc, cmul(x[n1], x_swap[n1], w));
                }
                // SAFETY: `j + 1 < R == block.len()`.
                unsafe { _mm256_storeu_pd(p.add(2 * j), acc) };
                j += 2;
            }
            if pairs < R {
                let mut acc = Complex64::ZERO;
                for (n1, &v) in inputs.iter().enumerate() {
                    acc += v * twiddles[n1 * R + pairs];
                }
                block[pairs] = acc;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::dft_naive;

    fn signal(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| Complex64::new((i as f64 * 0.61).sin() * 5.0, (i as f64 * 1.7).cos()))
            .collect()
    }

    fn forward(plan: &MixedRadixPlan, input: &[Complex64]) -> Vec<Complex64> {
        let mut data = input.to_vec();
        plan.forward(&mut data, &mut Vec::new());
        data
    }

    fn assert_close(a: &[Complex64], b: &[Complex64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert!((*x - *y).norm() < tol, "bin {i}: {x} vs {y}");
        }
    }

    #[test]
    fn smoothness_detection() {
        for n in [1usize, 2, 6, 336, 392, 448, 504, 560, 616, 1024] {
            assert!(is_smooth(n), "{n} should be smooth");
        }
        for n in [17usize, 34, 226, 997] {
            assert!(!is_smooth(n), "{n} should not be smooth");
        }
        assert!(!is_smooth(0));
    }

    #[test]
    fn matches_naive_dft_for_smooth_lengths() {
        for n in [2usize, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 15, 21, 35, 36, 60, 112, 143, 169] {
            let plan = MixedRadixPlan::new(n);
            let input = signal(n);
            assert_close(&forward(&plan, &input), &dft_naive(&input), 1e-8 * n as f64);
        }
    }

    #[test]
    fn matches_naive_for_profile_sizes() {
        for n in [336usize, 448] {
            let plan = MixedRadixPlan::new(n);
            let input = signal(n);
            assert_close(&forward(&plan, &input), &dft_naive(&input), 1e-7 * n as f64);
        }
    }

    #[test]
    fn scratch_is_reused_across_transforms() {
        let plan = MixedRadixPlan::new(60);
        let mut scratch = Vec::new();
        let input = signal(60);
        let mut first = input.clone();
        plan.forward(&mut first, &mut scratch);
        let capacity = scratch.capacity();
        let mut second = input;
        plan.forward(&mut second, &mut scratch);
        assert_eq!(first, second);
        assert_eq!(scratch.capacity(), capacity);
    }

    #[test]
    fn length_one_is_identity() {
        let plan = MixedRadixPlan::new(1);
        let input = vec![Complex64::new(3.0, -4.0)];
        assert_eq!(forward(&plan, &input), input);
        assert!(plan.is_empty());
        assert_eq!(plan.len(), 1);
    }

    #[test]
    #[should_panic(expected = "prime factor")]
    fn rejects_rough_lengths() {
        let _ = MixedRadixPlan::new(34); // 2 * 17
    }

    #[test]
    fn plan_covers_every_factor_and_sample() {
        let plan = MixedRadixPlan::new(360);
        let product: usize = plan.stages.iter().map(|s| s.radix).product();
        assert_eq!(product, 360);
        for stage in &plan.stages {
            assert!(stage.radix <= MAX_SMALL_PRIME);
            assert_eq!(stage.twiddles.len(), stage.radix * stage.radix * stage.span);
        }
        assert_eq!(plan.stages[0].span, 1, "the deepest stage runs first");
        let mut sources = plan.gather.clone();
        sources.sort_unstable();
        assert!(sources.iter().copied().eq(0..360), "the gather is a permutation");
    }

    #[test]
    fn linearity_holds() {
        let n = 105; // 3 * 5 * 7
        let plan = MixedRadixPlan::new(n);
        let a = signal(n);
        let b: Vec<Complex64> = (0..n).map(|i| Complex64::new(i as f64, 1.0)).collect();
        let combined: Vec<Complex64> = a.iter().zip(&b).map(|(x, y)| *x * 2.0 + *y * 0.5).collect();
        let fa = forward(&plan, &a);
        let fb = forward(&plan, &b);
        let fc = forward(&plan, &combined);
        for i in 0..n {
            let expected = fa[i] * 2.0 + fb[i] * 0.5;
            assert!((fc[i] - expected).norm() < 1e-8);
        }
    }
}
