//! 1-D fast Fourier transforms.
//!
//! * Power-of-two lengths use an iterative radix-2 Cooley–Tukey FFT.
//! * Smooth composite lengths (products of primes <= 13 — every image size
//!   the framework meets in practice) use the cached iterative
//!   [`crate::mixed_radix::MixedRadixPlan`], in place with per-thread
//!   scratch.
//! * Remaining lengths use Bluestein's chirp-z transform, which re-expresses
//!   an N-point DFT as a convolution computed with a padded power-of-two FFT
//!   (chirps and kernel FFTs are plan-cached per thread).
//!
//! The forward transform computes `X[k] = Σ_n x[n] e^{-2πi nk/N}` (no
//! normalisation); the inverse divides by `N`, so `ifft(fft(x)) == x`.

use crate::Complex64;
use std::f64::consts::PI;

/// In-place forward DFT of `data` (any length).
///
/// # Example
///
/// ```
/// use decamouflage_spectral::{fft, Complex64};
///
/// let mut data = vec![Complex64::ONE; 4];
/// fft::fft(&mut data);
/// // DFT of a constant signal is an impulse at DC.
/// assert!((data[0].re - 4.0).abs() < 1e-12);
/// assert!(data[1].norm() < 1e-12);
/// ```
pub fn fft(data: &mut [Complex64]) {
    transform(data, Direction::Forward);
}

/// In-place inverse DFT of `data` (any length), normalised by `1/N`.
pub fn ifft(data: &mut [Complex64]) {
    transform(data, Direction::Inverse);
    let n = data.len() as f64;
    for v in data.iter_mut() {
        *v = *v / n;
    }
}

/// Direct O(N²) DFT — the reference implementation used by tests to verify
/// the fast paths.
pub fn dft_naive(input: &[Complex64]) -> Vec<Complex64> {
    let n = input.len();
    let mut out = vec![Complex64::ZERO; n];
    for (k, o) in out.iter_mut().enumerate() {
        let mut acc = Complex64::ZERO;
        for (i, &x) in input.iter().enumerate() {
            let theta = -2.0 * PI * (k * i) as f64 / n as f64;
            acc += x * Complex64::from_polar_unit(theta);
        }
        *o = acc;
    }
    out
}

#[derive(Clone, Copy, PartialEq)]
enum Direction {
    Forward,
    Inverse,
}

impl Direction {
    fn sign(self) -> f64 {
        match self {
            Direction::Forward => -1.0,
            Direction::Inverse => 1.0,
        }
    }
}

fn transform(data: &mut [Complex64], dir: Direction) {
    let n = data.len();
    if n <= 1 {
        return;
    }
    if n.is_power_of_two() {
        radix2(data, dir);
    } else if crate::mixed_radix::is_smooth(n) {
        mixed_radix_cached(data, dir);
    } else {
        bluestein(data, dir);
    }
}

thread_local! {
    static MIXED_PLANS: std::cell::RefCell<
        std::collections::HashMap<usize, std::rc::Rc<crate::mixed_radix::MixedRadixPlan>>,
    > = std::cell::RefCell::new(std::collections::HashMap::new());
    /// The permutation buffer every mixed-radix transform on this thread
    /// shares.
    static MIXED_SCRATCH: std::cell::RefCell<Vec<Complex64>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// This thread's cached [`MixedRadixPlan`] for length `n`, if [`fft`]
/// transforms that length through one: `n > 1`, smooth and not a power of
/// two.
///
/// [`MixedRadixPlan`]: crate::mixed_radix::MixedRadixPlan
pub(crate) fn mixed_radix_plan(
    n: usize,
) -> Option<std::rc::Rc<crate::mixed_radix::MixedRadixPlan>> {
    if n <= 1 || n.is_power_of_two() || !crate::mixed_radix::is_smooth(n) {
        return None;
    }
    Some(MIXED_PLANS.with(|cache| {
        cache
            .borrow_mut()
            .entry(n)
            .or_insert_with(|| std::rc::Rc::new(crate::mixed_radix::MixedRadixPlan::new(n)))
            .clone()
    }))
}

/// Smooth-length transform of `data`, in place, through a cached
/// [`MixedRadixPlan`]. The unnormalised inverse is the forward transform
/// of the conjugate, conjugated back (`ifft` applies the `1/N` itself).
///
/// [`MixedRadixPlan`]: crate::mixed_radix::MixedRadixPlan
fn mixed_radix_cached(data: &mut [Complex64], dir: Direction) {
    let plan = mixed_radix_plan(data.len()).expect("a smooth length that is not a power of two");
    let conjugate = |data: &mut [Complex64]| data.iter_mut().for_each(|v| *v = v.conj());
    if dir == Direction::Inverse {
        conjugate(data);
    }
    MIXED_SCRATCH.with(|scratch| plan.forward(data, &mut scratch.borrow_mut()));
    if dir == Direction::Inverse {
        conjugate(data);
    }
}

/// Per-stage twiddle tables of one `(length, direction)` radix-2 transform.
///
/// Each stage's sequence comes from the exact recurrence the historical
/// per-chunk loop used (`w` starting at 1, `w *= w_len`), so the values and
/// therefore the results are bit-identical to that loop. Every FFT of the
/// same length replays identical tables, so they are built once and cached
/// per thread — image transforms call the same lengths for every row.
struct Radix2Plan {
    /// `stages[s]` holds the `len / 2` twiddles for stage `len = 2^(s+1)`.
    stages: Vec<Vec<Complex64>>,
}

impl Radix2Plan {
    fn new(n: usize, dir: Direction) -> Self {
        let mut stages = Vec::new();
        let mut len = 2;
        while len <= n {
            let theta = dir.sign() * 2.0 * PI / len as f64;
            let w_len = Complex64::from_polar_unit(theta);
            let mut twiddles = Vec::with_capacity(len / 2);
            let mut w = Complex64::ONE;
            for _ in 0..len / 2 {
                twiddles.push(w);
                w *= w_len;
            }
            stages.push(twiddles);
            len <<= 1;
        }
        Self { stages }
    }
}

thread_local! {
    static RADIX2_PLANS: std::cell::RefCell<
        std::collections::HashMap<(usize, bool), std::rc::Rc<Radix2Plan>>,
    > = std::cell::RefCell::new(std::collections::HashMap::new());
}

fn radix2_plan(n: usize, dir: Direction) -> std::rc::Rc<Radix2Plan> {
    RADIX2_PLANS.with(|cache| {
        cache
            .borrow_mut()
            .entry((n, dir == Direction::Forward))
            .or_insert_with(|| std::rc::Rc::new(Radix2Plan::new(n, dir)))
            .clone()
    })
}

/// Iterative radix-2 Cooley–Tukey with bit-reversal permutation.
///
/// Stage twiddles come from the cached [`Radix2Plan`] (bit-identical to the
/// historical per-chunk recurrence), and the butterflies are stride-1 zips
/// over `split_at_mut` halves with no index arithmetic or bounds checks in
/// the hot loop.
fn radix2(data: &mut [Complex64], dir: Direction) {
    let n = data.len();
    debug_assert!(n.is_power_of_two());
    let plan = radix2_plan(n, dir);
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if j > i {
            data.swap(i, j);
        }
    }
    // Butterfly stages.
    let mut len = 2;
    for twiddles in &plan.stages {
        #[cfg(target_arch = "x86_64")]
        #[allow(unsafe_code)]
        if len == 2 && n >= 4 && crate::use_avx() {
            // SAFETY: AVX support was just verified at runtime and the
            // length is a power of two >= 4.
            unsafe { avx::butterflies_len2(data) };
            len <<= 1;
            continue;
        }
        #[cfg(target_arch = "x86_64")]
        #[allow(unsafe_code)]
        if len >= 4 && crate::use_avx() {
            for chunk in data.chunks_exact_mut(len) {
                // SAFETY: AVX support was just verified at runtime, and
                // `twiddles.len() == len / 2` matches the chunk halves.
                unsafe { avx::butterflies(chunk, twiddles) };
            }
            len <<= 1;
            continue;
        }
        for chunk in data.chunks_exact_mut(len) {
            let (lo, hi) = chunk.split_at_mut(len / 2);
            for ((a, b), &wk) in lo.iter_mut().zip(hi.iter_mut()).zip(twiddles) {
                let t = *b * wk;
                let av = *a;
                *a = av + t;
                *b = av - t;
            }
        }
        len <<= 1;
    }
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx {
    //! Explicit AVX butterfly pass for [`super::radix2`].
    //!
    //! Two complex numbers per 256-bit register, laid out as interleaved
    //! `[re0, im0, re1, im1]` lanes — guaranteed by `Complex64`'s
    //! `#[repr(C)]`. The complex multiply is decomposed so every lane
    //! performs exactly the scalar `Mul` operation sequence
    //! (`re·re − im·im`, `re·im + im·re`: two multiplies then one
    //! add/subtract, never an FMA), keeping results bit-identical to the
    //! scalar butterfly loop.

    use super::Complex64;
    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_addsub_pd, _mm256_loadu_pd, _mm256_movedup_pd, _mm256_mul_pd,
        _mm256_permute2f128_pd, _mm256_permute_pd, _mm256_set1_pd, _mm256_storeu_pd, _mm256_sub_pd,
    };

    /// Runs every butterfly of one stage chunk: `chunk` has even length
    /// `>= 4` with twiddles for the lower half.
    ///
    /// # Safety
    ///
    /// Caller must ensure the CPU supports AVX and
    /// `twiddles.len() == chunk.len() / 2`.
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn butterflies(chunk: &mut [Complex64], twiddles: &[Complex64]) {
        let half = chunk.len() / 2;
        debug_assert_eq!(twiddles.len(), half);
        let (lo, hi) = chunk.split_at_mut(half);
        let lo_p = lo.as_mut_ptr() as *mut f64;
        let hi_p = hi.as_mut_ptr() as *mut f64;
        let tw_p = twiddles.as_ptr() as *const f64;
        let pairs = half / 2 * 2;
        let mut k = 0;
        while k < pairs {
            let a = _mm256_loadu_pd(lo_p.add(2 * k));
            let b = _mm256_loadu_pd(hi_p.add(2 * k));
            let w = _mm256_loadu_pd(tw_p.add(2 * k));
            // w_re = [wr, wr, ...], w_im = [wi, wi, ...],
            // b_swap = [im, re, ...]; addsub computes
            // [re·wr − im·wi, im·wr + re·wi] — the scalar complex Mul.
            let w_re = _mm256_movedup_pd(w);
            let w_im = _mm256_permute_pd::<0xF>(w);
            let b_swap = _mm256_permute_pd::<0x5>(b);
            let t = _mm256_addsub_pd(_mm256_mul_pd(b, w_re), _mm256_mul_pd(b_swap, w_im));
            _mm256_storeu_pd(lo_p.add(2 * k), _mm256_add_pd(a, t));
            _mm256_storeu_pd(hi_p.add(2 * k), _mm256_sub_pd(a, t));
            k += 2;
        }
        // `half` is a power of two, so a remainder only exists when
        // `half == 1` — and the dispatch requires `len >= 4`. Keep the
        // scalar tail anyway for local robustness.
        for k in pairs..half {
            let wk = twiddles[k];
            let t = hi[k] * wk;
            let av = lo[k];
            lo[k] = av + t;
            hi[k] = av - t;
        }
    }

    /// Runs the entire first stage (`len == 2`), where every chunk is a
    /// single butterfly with the constant twiddle `1 + 0i`. A chunk fits
    /// in one register as `[a.re, a.im, b.re, b.im]`, so two chunks are
    /// regrouped per iteration into an `a` vector and a `b` vector with
    /// 128-bit-lane permutes.
    ///
    /// # Safety
    ///
    /// Caller must ensure the CPU supports AVX; `data.len()` must be even.
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn butterflies_len2(data: &mut [Complex64]) {
        let n = data.len();
        let p = data.as_mut_ptr() as *mut f64;
        // The twiddle multiply is kept in the computation (not folded
        // away) so NaN and signed-zero propagation match the scalar
        // `Mul` sequence exactly.
        let w_re = _mm256_set1_pd(1.0);
        let w_im = _mm256_set1_pd(0.0);
        let quads = n / 4 * 4;
        let mut i = 0;
        while i < quads {
            let x0 = _mm256_loadu_pd(p.add(2 * i));
            let x1 = _mm256_loadu_pd(p.add(2 * i + 4));
            let a = _mm256_permute2f128_pd::<0x20>(x0, x1);
            let b = _mm256_permute2f128_pd::<0x31>(x0, x1);
            let b_swap = _mm256_permute_pd::<0x5>(b);
            let t = _mm256_addsub_pd(_mm256_mul_pd(b, w_re), _mm256_mul_pd(b_swap, w_im));
            let s = _mm256_add_pd(a, t);
            let d = _mm256_sub_pd(a, t);
            _mm256_storeu_pd(p.add(2 * i), _mm256_permute2f128_pd::<0x20>(s, d));
            _mm256_storeu_pd(p.add(2 * i + 4), _mm256_permute2f128_pd::<0x31>(s, d));
            i += 4;
        }
        for chunk in data[quads..].chunks_exact_mut(2) {
            let t = chunk[1] * Complex64::ONE;
            let av = chunk[0];
            chunk[0] = av + t;
            chunk[1] = av - t;
        }
    }
}

/// Precomputed Bluestein machinery for one `(length, direction)` pair:
/// the chirp sequence and the forward FFT of the circular kernel `b`.
/// Recomputing these dominated the cost of repeated transforms (every row
/// and column of an image shares a length), so plans are cached
/// per thread.
struct BluesteinPlan {
    m: usize,
    chirp: Vec<Complex64>,
    b_fft: Vec<Complex64>,
}

impl BluesteinPlan {
    fn new(n: usize, dir: Direction) -> Self {
        let m = (2 * n - 1).next_power_of_two();
        // Chirp: c[k] = e^{i * sign * π k² / N}. Using k² mod 2N avoids
        // catastrophic angle growth for large k.
        let chirp: Vec<Complex64> = (0..n)
            .map(|k| {
                let k2 = (k as u128 * k as u128) % (2 * n as u128);
                Complex64::from_polar_unit(dir.sign() * PI * k2 as f64 / n as f64)
            })
            .collect();
        // b[k] = conj(c[|k|]) arranged circularly, transformed once.
        let mut b = vec![Complex64::ZERO; m];
        b[0] = chirp[0].conj();
        for k in 1..n {
            b[k] = chirp[k].conj();
            b[m - k] = chirp[k].conj();
        }
        radix2(&mut b, Direction::Forward);
        Self { m, chirp, b_fft: b }
    }
}

thread_local! {
    static BLUESTEIN_PLANS: std::cell::RefCell<
        std::collections::HashMap<(usize, bool), std::rc::Rc<BluesteinPlan>>,
    > = std::cell::RefCell::new(std::collections::HashMap::new());
}

fn bluestein_plan(n: usize, dir: Direction) -> std::rc::Rc<BluesteinPlan> {
    BLUESTEIN_PLANS.with(|cache| {
        cache
            .borrow_mut()
            .entry((n, dir == Direction::Forward))
            .or_insert_with(|| std::rc::Rc::new(BluesteinPlan::new(n, dir)))
            .clone()
    })
}

/// Bluestein's algorithm: express the N-point DFT as a circular convolution
/// of chirped sequences, evaluated with a power-of-two FFT of length
/// `>= 2N - 1` (chirp and kernel FFT come from the per-thread plan cache).
fn bluestein(data: &mut [Complex64], dir: Direction) {
    let n = data.len();
    let plan = bluestein_plan(n, dir);
    let m = plan.m;

    // a[k] = x[k] * c[k], zero-padded to m.
    let mut a = vec![Complex64::ZERO; m];
    for k in 0..n {
        a[k] = data[k] * plan.chirp[k];
    }
    radix2(&mut a, Direction::Forward);
    for (x, y) in a.iter_mut().zip(plan.b_fft.iter()) {
        *x *= *y;
    }
    radix2(&mut a, Direction::Inverse);
    let scale = 1.0 / m as f64;
    for (k, out) in data.iter_mut().enumerate() {
        *out = a[k] * plan.chirp[k] * scale;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[Complex64], b: &[Complex64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert!((*x - *y).norm() < tol, "element {i}: {x} vs {y} (diff {})", (*x - *y).norm());
        }
    }

    fn signal(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| Complex64::new((i as f64 * 0.7).sin() * 3.0, (i as f64 * 1.3).cos()))
            .collect()
    }

    /// The historical scalar radix-2 loop, kept verbatim as the
    /// bit-identity reference for the dispatching implementation.
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

    #[test]
    fn radix2_is_bit_identical_to_scalar_reference() {
        // Pins the dispatching transform (the AVX butterflies on a CPU with
        // AVX; n = 2 always takes the scalar loop) to the exact historical
        // results.
        for n in [2usize, 4, 8, 16, 64, 128, 512, 1024] {
            let input = signal(n);
            let mut reference = input.clone();
            radix2_scalar_reference(&mut reference);
            let mut fast = input.clone();
            fft(&mut fast);
            for (i, (a, b)) in fast.iter().zip(&reference).enumerate() {
                assert!(
                    a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                    "n={n} bin {i}: {a} vs {b}"
                );
            }
        }
    }

    /// Both radix-2 dispatch sites, the length-2 stage and the length ≥ 4
    /// stages: every power-of-two length that reaches them, forward and
    /// inverse, scalar loops against AVX kernels.
    #[test]
    fn radix2_stage_lanes_agree() {
        for n in (2..=10).map(|bits| 1usize << bits) {
            let input = signal(n);
            for inverse in [false, true] {
                let (scalar, avx) = crate::lanes::scalar_and_avx(|| {
                    let mut data = input.clone();
                    if inverse {
                        ifft(&mut data);
                    } else {
                        fft(&mut data);
                    }
                    data
                });
                let case = format!("radix-2 n={n} inverse={inverse}");
                crate::lanes::assert_agree(&scalar, avx.as_deref(), &case);
            }
        }
    }

    #[test]
    fn fft_matches_naive_for_powers_of_two() {
        for n in [1usize, 2, 4, 8, 16, 64, 256] {
            let input = signal(n);
            let mut fast = input.clone();
            fft(&mut fast);
            assert_close(&fast, &dft_naive(&input), 1e-8 * n as f64);
        }
    }

    #[test]
    fn fft_matches_naive_for_arbitrary_lengths() {
        for n in [3usize, 5, 6, 7, 9, 12, 15, 17, 50, 97, 100] {
            let input = signal(n);
            let mut fast = input.clone();
            fft(&mut fast);
            assert_close(&fast, &dft_naive(&input), 1e-7 * n as f64);
        }
    }

    #[test]
    fn ifft_inverts_fft() {
        for n in [4usize, 7, 16, 33, 100, 128] {
            let input = signal(n);
            let mut data = input.clone();
            fft(&mut data);
            ifft(&mut data);
            assert_close(&data, &input, 1e-9 * n as f64);
        }
    }

    #[test]
    fn impulse_transforms_to_flat_spectrum() {
        let mut data = vec![Complex64::ZERO; 8];
        data[0] = Complex64::ONE;
        fft(&mut data);
        for v in &data {
            assert!((*v - Complex64::ONE).norm() < 1e-12);
        }
    }

    #[test]
    fn single_tone_peaks_at_its_bin() {
        let n = 32;
        let f = 5;
        let mut data: Vec<Complex64> = (0..n)
            .map(|i| Complex64::from_polar_unit(2.0 * PI * (f * i) as f64 / n as f64))
            .collect();
        fft(&mut data);
        for (k, v) in data.iter().enumerate() {
            if k == f {
                assert!((v.norm() - n as f64).abs() < 1e-9);
            } else {
                assert!(v.norm() < 1e-9, "leakage at bin {k}: {}", v.norm());
            }
        }
    }

    #[test]
    fn parseval_energy_is_preserved() {
        for n in [16usize, 21, 64] {
            let input = signal(n);
            let time_energy: f64 = input.iter().map(|v| v.norm_sqr()).sum();
            let mut freq = input.clone();
            fft(&mut freq);
            let freq_energy: f64 = freq.iter().map(|v| v.norm_sqr()).sum::<f64>() / n as f64;
            assert!((time_energy - freq_energy).abs() < 1e-8 * time_energy.max(1.0));
        }
    }

    #[test]
    fn linearity() {
        let n = 24;
        let a = signal(n);
        let b: Vec<Complex64> = (0..n).map(|i| Complex64::new(i as f64, -(i as f64))).collect();
        let combined: Vec<Complex64> =
            a.iter().zip(b.iter()).map(|(x, y)| *x * 2.0 + *y * 3.0).collect();
        let mut fa = a.clone();
        let mut fb = b.clone();
        let mut fc = combined.clone();
        fft(&mut fa);
        fft(&mut fb);
        fft(&mut fc);
        for i in 0..n {
            let expected = fa[i] * 2.0 + fb[i] * 3.0;
            assert!((fc[i] - expected).norm() < 1e-8);
        }
    }

    #[test]
    fn empty_and_singleton_are_noops() {
        let mut empty: Vec<Complex64> = vec![];
        fft(&mut empty);
        assert!(empty.is_empty());
        let mut one = vec![Complex64::new(5.0, 2.0)];
        fft(&mut one);
        assert_eq!(one[0], Complex64::new(5.0, 2.0));
        ifft(&mut one);
        assert_eq!(one[0], Complex64::new(5.0, 2.0));
    }

    #[test]
    fn real_signal_spectrum_is_conjugate_symmetric() {
        let n = 20;
        let mut data: Vec<Complex64> =
            (0..n).map(|i| Complex64::from_real((i as f64 * 0.9).sin())).collect();
        fft(&mut data);
        for k in 1..n {
            let diff = (data[k] - data[n - k].conj()).norm();
            assert!(diff < 1e-9, "bin {k}: asymmetry {diff}");
        }
    }
}
