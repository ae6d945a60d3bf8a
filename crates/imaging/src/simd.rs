//! Vectorized slice primitives shared by the hot kernels.
//!
//! The convolution, resampling and rank-filter inner loops all reduce to a
//! handful of flat, stride-1 slice operations. Centralising them here gives
//! the autovectorizer one obvious target and one home for the explicit
//! `core::arch` AVX kernels.
//!
//! # Bit-identity contract
//!
//! Every operation in this module produces **bit-identical** results on its
//! scalar loop and on its AVX kernel. The AVX path performs the same scalar
//! operation sequence per lane — separate multiply and add instructions,
//! never FMA (a fused multiply-add rounds once instead of twice and would
//! change the low bits) — so each output element sees exactly the
//! arithmetic of the scalar loop. Scores, artifacts and benches therefore
//! do not move by a ULP between a CPU with AVX and one without.
//!
//! One asterisk: the contract is exact for every non-`NaN` output, and
//! `NaN`-for-`NaN` otherwise — `NaN` *payload bits* are not pinned. IEEE 754
//! leaves payload propagation implementation-defined and LLVM freely
//! commutes `fadd`/`fmul` operands, so when two different `NaN`s meet (e.g.
//! an input `NaN` added to the fresh quiet `NaN` from `0.0 × ∞`), which
//! payload survives depends on instruction scheduling — two compilations of
//! the *same scalar loop* can already disagree. The engine never hits this:
//! input validation quarantines non-finite pixels and all kernel weights
//! are finite, so scored outputs carry no `NaN`s at all.
//!
//! # Runtime dispatch
//!
//! There is one build. On x86-64 the AVX kernels compile into it, and every
//! operation here asks one predicate, [`std::arch::is_x86_feature_detected!`]
//! for `avx` (a cached atomic load), and falls back to its scalar loop on
//! CPUs without AVX. Off x86-64 only the scalar loops are compiled. The unit
//! tests run both lanes on the same inputs in one test binary and compare
//! them bit for bit.

/// `dst[i] += w * src[i]` over two equal-length slices.
///
/// This is the SAXPY step of every tap-outer convolution and resampling
/// pass. The scalar loop is written so LLVM unrolls and vectorizes it at
/// the SSE2 baseline; CPUs with AVX take a 4-lane AVX path.
///
/// # Panics
///
/// Panics if the slice lengths differ.
#[inline]
pub fn axpy(dst: &mut [f64], src: &[f64], w: f64) {
    assert_eq!(dst.len(), src.len(), "axpy slice length mismatch");
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    if use_avx() {
        // SAFETY: AVX support was just verified at runtime.
        unsafe { avx::axpy(dst, src, w) };
        return;
    }
    axpy_scalar(dst, src, w);
}

#[inline]
fn axpy_scalar(dst: &mut [f64], src: &[f64], w: f64) {
    for (d, &s) in dst.iter_mut().zip(src.iter()) {
        *d += w * s;
    }
}

/// `dst[i] = dst[i].min(src[i])` over two equal-length slices.
///
/// Used by the row-fold vertical pass of the separable extremum filter.
/// [`f64::min`] semantics: a `NaN` lane yields the other operand, so
/// `NaN`-poisoned inputs propagate exactly as in the naive reference
/// (up to payload bits when both operands are `NaN` — see module docs).
///
/// # Panics
///
/// Panics if the slice lengths differ.
#[inline]
pub fn fold_min(dst: &mut [f64], src: &[f64]) {
    assert_eq!(dst.len(), src.len(), "fold_min slice length mismatch");
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    if use_avx() {
        // SAFETY: AVX support was just verified at runtime.
        unsafe { avx::fold_min(dst, src) };
        return;
    }
    for (d, &s) in dst.iter_mut().zip(src.iter()) {
        *d = d.min(s);
    }
}

/// `dst[i] = dst[i].max(src[i])` over two equal-length slices.
///
/// Counterpart of [`fold_min`] for dilation.
///
/// # Panics
///
/// Panics if the slice lengths differ.
#[inline]
pub fn fold_max(dst: &mut [f64], src: &[f64]) {
    assert_eq!(dst.len(), src.len(), "fold_max slice length mismatch");
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    if use_avx() {
        // SAFETY: AVX support was just verified at runtime.
        unsafe { avx::fold_max(dst, src) };
        return;
    }
    for (d, &s) in dst.iter_mut().zip(src.iter()) {
        *d = d.max(s);
    }
}

/// Maximum number of source rows one [`weighted_sum_rows`] call accepts.
///
/// Callers with more taps than this split them into groups and chain calls
/// with `accumulate = true`; the per-element add order stays ascending
/// across the groups, so the grouping never changes a result bit.
pub const WEIGHTED_SUM_MAX_ROWS: usize = 16;

/// `dst[i] = Σ_k weights[k] * srcs[k][i]`, or `dst[i] += …` when
/// `accumulate` is true — the fused form of one `fill(0.0)` plus one
/// [`axpy`] per tap.
///
/// Each element accumulates over ascending `k` starting from `0.0` (or the
/// existing `dst` value), exactly like the chain of `axpy` calls it
/// replaces, so results are bit-identical; the win is one call and one
/// store per element instead of `k` of each. The AVX path keeps the
/// accumulator in a register with separate mul and add per tap (no FMA).
///
/// # Panics
///
/// Panics if any source length differs from `dst` or if more than
/// [`WEIGHTED_SUM_MAX_ROWS`] rows are passed.
#[inline]
pub fn weighted_sum_rows(dst: &mut [f64], srcs: &[&[f64]], weights: &[f64], accumulate: bool) {
    assert!(srcs.len() <= WEIGHTED_SUM_MAX_ROWS, "weighted_sum_rows row cap exceeded");
    assert_eq!(srcs.len(), weights.len(), "weighted_sum_rows row/weight length mismatch");
    for s in srcs {
        assert_eq!(dst.len(), s.len(), "weighted_sum_rows slice length mismatch");
    }
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    if use_avx() {
        // SAFETY: AVX support was just verified at runtime; lengths were
        // just checked.
        unsafe { avx::weighted_sum_rows(dst, srcs, weights, accumulate) };
        return;
    }
    if !accumulate {
        dst.fill(0.0);
    }
    for (s, &w) in srcs.iter().zip(weights) {
        axpy_scalar(dst, s, w);
    }
}

/// Fuses the per-pixel SSIM formula over five flat single-channel blurred
/// planes:
///
/// ```text
/// va  = a_sq[i] - µa²          vb = b_sq[i] - µb²        cov = ab[i] - µa·µb
/// dst[i] = ((2·µa·µb + c1)(2·cov + c2)) / ((µa² + µb² + c1)(va + vb + c2))
/// ```
///
/// Every lane replays the exact scalar operation sequence of the historical
/// per-pixel loop — left-associated adds, `(2.0 * µa) * µb` grouping, a
/// single IEEE division (`vdivpd` is correctly rounded per lane), then the
/// loop's `0.0 + q` accumulator seed and `/ 1.0` channel average — so the
/// output is bit-identical on the scalar loop and the AVX kernel, including
/// signed zeros and `NaN` propagation.
///
/// # Panics
///
/// Panics if any plane length differs from `dst`.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn ssim_combine(
    dst: &mut [f64],
    mu_a: &[f64],
    mu_b: &[f64],
    a_sq: &[f64],
    b_sq: &[f64],
    ab: &[f64],
    c1: f64,
    c2: f64,
) {
    for p in [&mu_a, &mu_b, &a_sq, &b_sq, &ab] {
        assert_eq!(dst.len(), p.len(), "ssim_combine slice length mismatch");
    }
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    if use_avx() {
        // SAFETY: AVX support was just verified at runtime; lengths were
        // just checked.
        unsafe { avx::ssim_combine(dst, mu_a, mu_b, a_sq, b_sq, ab, c1, c2) };
        return;
    }
    ssim_combine_scalar(dst, mu_a, mu_b, a_sq, b_sq, ab, c1, c2);
}

#[allow(clippy::too_many_arguments)]
#[inline]
fn ssim_combine_scalar(
    dst: &mut [f64],
    mu_a: &[f64],
    mu_b: &[f64],
    a_sq: &[f64],
    b_sq: &[f64],
    ab: &[f64],
    c1: f64,
    c2: f64,
) {
    for (i, d) in dst.iter_mut().enumerate() {
        let ma = mu_a[i];
        let mb = mu_b[i];
        let va = a_sq[i] - ma * ma;
        let vb = b_sq[i] - mb * mb;
        let cov = ab[i] - ma * mb;
        let numerator = (2.0 * ma * mb + c1) * (2.0 * cov + c2);
        let denominator = (ma * ma + mb * mb + c1) * (va + vb + c2);
        // The historical loop seeds `acc = 0.0`, adds the quotient and
        // divides by the channel count (1): keep both steps so even a
        // `-0.0` quotient lands identically.
        let mut acc = 0.0;
        acc += numerator / denominator;
        *d = acc / 1.0;
    }
}

/// Whether the AVX kernels run on this CPU: the one run-time choice every
/// operation in this module makes.
#[cfg(target_arch = "x86_64")]
#[inline]
fn use_avx() -> bool {
    #[cfg(test)]
    if lanes::SCALAR_ONLY.get() {
        return false;
    }
    std::arch::is_x86_feature_detected!("avx")
}

/// Test support: runs one computation on each lane of the dispatch.
#[cfg(test)]
mod lanes {
    use std::cell::Cell;

    thread_local! {
        /// Set while [`scalar_and_avx`] runs its scalar pass: every
        /// dispatch on this thread then takes its scalar loop.
        pub(super) static SCALAR_ONLY: Cell<bool> = const { Cell::new(false) };
    }

    /// Runs `run` with every operation on its scalar loop, then again on
    /// the AVX kernels, and returns both results. The AVX result is `None`,
    /// with a note on stderr, on a CPU without AVX.
    pub(super) fn scalar_and_avx<T>(mut run: impl FnMut() -> T) -> (T, Option<T>) {
        SCALAR_ONLY.set(true);
        let scalar = run();
        SCALAR_ONLY.set(false);
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx") {
            return (scalar, Some(run()));
        }
        eprintln!("no AVX on this CPU: the AVX side was skipped, only the scalar loops ran");
        (scalar, None)
    }
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx {
    use std::arch::x86_64::{
        __m256d, _mm256_add_pd, _mm256_blendv_pd, _mm256_cmp_pd, _mm256_loadu_pd, _mm256_max_pd,
        _mm256_min_pd, _mm256_mul_pd, _mm256_set1_pd, _mm256_setzero_pd, _mm256_storeu_pd,
        _CMP_UNORD_Q,
    };

    /// # Safety
    ///
    /// Caller must ensure the CPU supports AVX and every source length
    /// equals `dst.len()`.
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn weighted_sum_rows(
        dst: &mut [f64],
        srcs: &[&[f64]],
        weights: &[f64],
        accumulate: bool,
    ) {
        let n = dst.len();
        let mut wv = [_mm256_setzero_pd(); super::WEIGHTED_SUM_MAX_ROWS];
        for (v, &w) in wv.iter_mut().zip(weights) {
            *v = _mm256_set1_pd(w);
        }
        let mut i = 0;
        // 16-element blocks: four independent accumulator chains overlap
        // the add latency of the tap loop. Each *element* still sums its
        // taps in ascending order (mul then add, never fmadd), so results
        // are bit-identical to the scalar chain; only elements of
        // different chains proceed in parallel.
        while i + 16 <= n {
            let p = dst.as_ptr().add(i);
            let (mut a0, mut a1, mut a2, mut a3) = if accumulate {
                (
                    _mm256_loadu_pd(p),
                    _mm256_loadu_pd(p.add(4)),
                    _mm256_loadu_pd(p.add(8)),
                    _mm256_loadu_pd(p.add(12)),
                )
            } else {
                let z = _mm256_setzero_pd();
                (z, z, z, z)
            };
            for (s, v) in srcs.iter().zip(&wv) {
                let sp = s.as_ptr().add(i);
                a0 = _mm256_add_pd(a0, _mm256_mul_pd(*v, _mm256_loadu_pd(sp)));
                a1 = _mm256_add_pd(a1, _mm256_mul_pd(*v, _mm256_loadu_pd(sp.add(4))));
                a2 = _mm256_add_pd(a2, _mm256_mul_pd(*v, _mm256_loadu_pd(sp.add(8))));
                a3 = _mm256_add_pd(a3, _mm256_mul_pd(*v, _mm256_loadu_pd(sp.add(12))));
            }
            let d = dst.as_mut_ptr().add(i);
            _mm256_storeu_pd(d, a0);
            _mm256_storeu_pd(d.add(4), a1);
            _mm256_storeu_pd(d.add(8), a2);
            _mm256_storeu_pd(d.add(12), a3);
            i += 16;
        }
        while i + 4 <= n {
            let mut acc =
                if accumulate { _mm256_loadu_pd(dst.as_ptr().add(i)) } else { _mm256_setzero_pd() };
            for (s, v) in srcs.iter().zip(&wv) {
                acc = _mm256_add_pd(acc, _mm256_mul_pd(*v, _mm256_loadu_pd(s.as_ptr().add(i))));
            }
            _mm256_storeu_pd(dst.as_mut_ptr().add(i), acc);
            i += 4;
        }
        for j in i..n {
            let mut acc = if accumulate { dst[j] } else { 0.0 };
            for (s, &w) in srcs.iter().zip(weights) {
                acc += w * s[j];
            }
            dst[j] = acc;
        }
    }

    /// # Safety
    ///
    /// Caller must ensure the CPU supports AVX and `dst.len() == src.len()`.
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn axpy(dst: &mut [f64], src: &[f64], w: f64) {
        let n = dst.len();
        let lanes = n / 4 * 4;
        let wv = _mm256_set1_pd(w);
        let mut i = 0;
        while i < lanes {
            let d = _mm256_loadu_pd(dst.as_ptr().add(i));
            let s = _mm256_loadu_pd(src.as_ptr().add(i));
            // mul then add — NOT fmadd — to keep scalar rounding.
            let r = _mm256_add_pd(d, _mm256_mul_pd(wv, s));
            _mm256_storeu_pd(dst.as_mut_ptr().add(i), r);
            i += 4;
        }
        for j in lanes..n {
            dst[j] += w * src[j];
        }
    }

    /// # Safety
    ///
    /// Caller must ensure the CPU supports AVX and every plane length
    /// equals `dst.len()`.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn ssim_combine(
        dst: &mut [f64],
        mu_a: &[f64],
        mu_b: &[f64],
        a_sq: &[f64],
        b_sq: &[f64],
        ab: &[f64],
        c1: f64,
        c2: f64,
    ) {
        use std::arch::x86_64::{_mm256_div_pd, _mm256_sub_pd};
        let n = dst.len();
        let lanes = n / 4 * 4;
        let c1v = _mm256_set1_pd(c1);
        let c2v = _mm256_set1_pd(c2);
        let two = _mm256_set1_pd(2.0);
        let one = _mm256_set1_pd(1.0);
        let zero = _mm256_setzero_pd();
        let mut i = 0;
        while i < lanes {
            let ma = _mm256_loadu_pd(mu_a.as_ptr().add(i));
            let mb = _mm256_loadu_pd(mu_b.as_ptr().add(i));
            let sa = _mm256_loadu_pd(a_sq.as_ptr().add(i));
            let sb = _mm256_loadu_pd(b_sq.as_ptr().add(i));
            let sab = _mm256_loadu_pd(ab.as_ptr().add(i));
            let ma_ma = _mm256_mul_pd(ma, ma);
            let mb_mb = _mm256_mul_pd(mb, mb);
            let ma_mb = _mm256_mul_pd(ma, mb);
            let va = _mm256_sub_pd(sa, ma_ma);
            let vb = _mm256_sub_pd(sb, mb_mb);
            let cov = _mm256_sub_pd(sab, ma_mb);
            // `(2.0 * ma) * mb` — the scalar grouping, not `2 * (ma*mb)`.
            let lum = _mm256_add_pd(_mm256_mul_pd(_mm256_mul_pd(two, ma), mb), c1v);
            let cross = _mm256_add_pd(_mm256_mul_pd(two, cov), c2v);
            let numerator = _mm256_mul_pd(lum, cross);
            let denominator = _mm256_mul_pd(
                _mm256_add_pd(_mm256_add_pd(ma_ma, mb_mb), c1v),
                _mm256_add_pd(_mm256_add_pd(va, vb), c2v),
            );
            // Replay the scalar accumulator seed and channel average —
            // `0.0 + q` then `/ 1.0` — so `-0.0` lanes land identically.
            let q = _mm256_div_pd(numerator, denominator);
            let out = _mm256_div_pd(_mm256_add_pd(zero, q), one);
            _mm256_storeu_pd(dst.as_mut_ptr().add(i), out);
            i += 4;
        }
        if lanes < n {
            super::ssim_combine_scalar(
                &mut dst[lanes..],
                &mu_a[lanes..],
                &mu_b[lanes..],
                &a_sq[lanes..],
                &b_sq[lanes..],
                &ab[lanes..],
                c1,
                c2,
            );
        }
    }

    /// `f64::min(d, s)` per lane. Raw `vminpd` returns its second operand
    /// whenever either input is NaN; `vminpd(s, d)` is therefore correct
    /// except when `d` is NaN (where IEEE `minNum` wants `s`), which the
    /// blend on `d != d` patches — including the both-NaN lane, where the
    /// blend selects `s = NaN` as required.
    #[inline]
    #[target_feature(enable = "avx")]
    unsafe fn min_lanes(d: __m256d, s: __m256d) -> __m256d {
        let m = _mm256_min_pd(s, d);
        let d_nan = _mm256_cmp_pd::<_CMP_UNORD_Q>(d, d);
        _mm256_blendv_pd(m, s, d_nan)
    }

    /// `f64::max(d, s)` per lane; mirror of [`min_lanes`].
    #[inline]
    #[target_feature(enable = "avx")]
    unsafe fn max_lanes(d: __m256d, s: __m256d) -> __m256d {
        let m = _mm256_max_pd(s, d);
        let d_nan = _mm256_cmp_pd::<_CMP_UNORD_Q>(d, d);
        _mm256_blendv_pd(m, s, d_nan)
    }

    /// # Safety
    ///
    /// Caller must ensure the CPU supports AVX and `dst.len() == src.len()`.
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn fold_min(dst: &mut [f64], src: &[f64]) {
        let n = dst.len();
        let lanes = n / 4 * 4;
        let mut i = 0;
        while i < lanes {
            let d = _mm256_loadu_pd(dst.as_ptr().add(i));
            let s = _mm256_loadu_pd(src.as_ptr().add(i));
            _mm256_storeu_pd(dst.as_mut_ptr().add(i), min_lanes(d, s));
            i += 4;
        }
        for j in lanes..n {
            dst[j] = dst[j].min(src[j]);
        }
    }

    /// # Safety
    ///
    /// Caller must ensure the CPU supports AVX and `dst.len() == src.len()`.
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn fold_max(dst: &mut [f64], src: &[f64]) {
        let n = dst.len();
        let lanes = n / 4 * 4;
        let mut i = 0;
        while i < lanes {
            let d = _mm256_loadu_pd(dst.as_ptr().add(i));
            let s = _mm256_loadu_pd(src.as_ptr().add(i));
            _mm256_storeu_pd(dst.as_mut_ptr().add(i), max_lanes(d, s));
            i += 4;
        }
        for j in lanes..n {
            dst[j] = dst[j].max(src[j]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axpy_matches_scalar_loop() {
        let src: Vec<f64> = (0..37).map(|i| (i as f64 * 0.7).sin() * 50.0).collect();
        let mut dst: Vec<f64> = (0..37).map(|i| (i as f64 * 1.3).cos()).collect();
        let mut expected = dst.clone();
        for (d, &s) in expected.iter_mut().zip(src.iter()) {
            *d += 0.37 * s;
        }
        axpy(&mut dst, &src, 0.37);
        assert_eq!(dst, expected);
    }

    #[test]
    fn fold_min_max_match_scalar_semantics() {
        let a: Vec<f64> = vec![1.0, 5.0, f64::NAN, 2.0, -3.0, 9.0, 0.0, 4.5, 1.25];
        let b: Vec<f64> = vec![2.0, f64::NAN, 4.0, 2.0, -4.0, 1.0, f64::NAN, 4.5, -1.0];
        let mut mn = a.clone();
        fold_min(&mut mn, &b);
        let mut mx = a.clone();
        fold_max(&mut mx, &b);
        for i in 0..a.len() {
            let expect_min = a[i].min(b[i]);
            let expect_max = a[i].max(b[i]);
            assert!(
                mn[i] == expect_min || (mn[i].is_nan() && expect_min.is_nan()),
                "min lane {i}: {} vs {}",
                mn[i],
                expect_min
            );
            assert!(
                mx[i] == expect_max || (mx[i].is_nan() && expect_max.is_nan()),
                "max lane {i}: {} vs {}",
                mx[i],
                expect_max
            );
        }
    }

    #[test]
    fn weighted_sum_rows_matches_axpy_chain() {
        let rows: Vec<Vec<f64>> = (0..5)
            .map(|r| (0..23).map(|i| ((r * 23 + i) as f64 * 0.41).sin() * 30.0).collect())
            .collect();
        let weights = [0.1, -0.7, 1.3, 0.02, -0.9];
        let srcs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();

        let mut expected = vec![0.0; 23];
        for (s, &w) in srcs.iter().zip(&weights) {
            for (d, &v) in expected.iter_mut().zip(*s) {
                *d += w * v;
            }
        }
        let mut dst = vec![f64::NAN; 23];
        weighted_sum_rows(&mut dst, &srcs, &weights, false);
        assert_eq!(dst, expected);

        // Chained groups accumulate bit-identically to one flat call.
        let mut grouped = vec![0.0; 23];
        weighted_sum_rows(&mut grouped, &srcs[..2], &weights[..2], false);
        weighted_sum_rows(&mut grouped, &srcs[2..], &weights[2..], true);
        assert_eq!(grouped, expected);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn weighted_sum_rows_rejects_mismatched_lengths() {
        let mut d = [0.0; 3];
        weighted_sum_rows(&mut d, &[&[1.0; 4]], &[1.0], false);
    }

    #[test]
    fn ssim_combine_matches_scalar_formula() {
        // 19 elements exercises the 4-lane body plus a 3-element tail; the
        // last entries poison the planes with NaN and huge/zero stats.
        let n = 19;
        let mu_a: Vec<f64> = (0..n).map(|i| 100.0 + (i as f64 * 0.7).sin() * 80.0).collect();
        let mu_b: Vec<f64> = (0..n).map(|i| 90.0 + (i as f64 * 1.1).cos() * 70.0).collect();
        let mut a_sq: Vec<f64> = mu_a.iter().map(|m| m * m + 25.0).collect();
        let mut b_sq: Vec<f64> = mu_b.iter().map(|m| m * m + 16.0).collect();
        let mut ab: Vec<f64> = mu_a.iter().zip(&mu_b).map(|(a, b)| a * b + 5.0).collect();
        a_sq[n - 1] = f64::NAN;
        b_sq[n - 2] = 1e300;
        ab[n - 3] = 0.0;
        let (c1, c2) = (6.5025, 58.5225);

        let mut expected = vec![0.0; n];
        for i in 0..n {
            let (ma, mb) = (mu_a[i], mu_b[i]);
            let va = a_sq[i] - ma * ma;
            let vb = b_sq[i] - mb * mb;
            let cov = ab[i] - ma * mb;
            let numerator = (2.0 * ma * mb + c1) * (2.0 * cov + c2);
            let denominator = (ma * ma + mb * mb + c1) * (va + vb + c2);
            let mut acc = 0.0;
            acc += numerator / denominator;
            expected[i] = acc / 1.0;
        }
        let mut dst = vec![f64::NAN; n];
        ssim_combine(&mut dst, &mu_a, &mu_b, &a_sq, &b_sq, &ab, c1, c2);
        for i in 0..n {
            assert!(
                dst[i].to_bits() == expected[i].to_bits(),
                "lane {i}: {} vs {}",
                dst[i],
                expected[i]
            );
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn ssim_combine_rejects_mismatched_lengths() {
        let mut d = [0.0; 3];
        let p = [0.0; 4];
        ssim_combine(&mut d, &p, &p, &p, &p, &p, 1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn axpy_rejects_mismatched_lengths() {
        let mut d = [0.0; 3];
        axpy(&mut d, &[1.0; 4], 1.0);
    }

    /// Bit equality modulo `NaN` payloads, which the contract leaves open
    /// (see the module docs).
    fn assert_lanes_agree(scalar: &[f64], avx: Option<&[f64]>, case: &str) {
        let Some(avx) = avx else { return };
        assert_eq!(scalar.len(), avx.len(), "{case}");
        for (i, (&s, &a)) in scalar.iter().zip(avx).enumerate() {
            assert!(
                s.to_bits() == a.to_bits() || (s.is_nan() && a.is_nan()),
                "{case} element {i}: scalar {s:?} vs avx {a:?}"
            );
        }
    }

    /// Every slice length the lane tests run: each 4- and 16-element AVX
    /// block meets every tail length.
    const LENGTHS: std::ops::RangeInclusive<usize> = 0..=37;

    /// Finite samples with a few signed zeros and a `NaN` mixed in.
    fn samples(n: usize, seed: usize) -> Vec<f64> {
        (0..n)
            .map(|i| match (i * 7 + seed * 3) % 17 {
                0 => -0.0,
                5 => 0.0,
                11 if seed % 2 == 1 => f64::NAN,
                k => ((i + seed * 13) as f64 * 0.7).sin() * 50.0 + k as f64,
            })
            .collect()
    }

    /// Runs a two-slice operation over every length on both lanes.
    fn slice_op_lanes_agree(name: &str, op: impl Fn(&mut [f64], &[f64])) {
        for n in LENGTHS {
            for seed in 0..3 {
                let (src, dst) = (samples(n, seed), samples(n, seed + 1));
                let (scalar, avx) = lanes::scalar_and_avx(|| {
                    let mut out = dst.clone();
                    op(&mut out, &src);
                    out
                });
                let case = format!("{name} n={n} seed={seed}");
                assert_lanes_agree(&scalar, avx.as_deref(), &case);
            }
        }
    }

    #[test]
    fn axpy_lanes_agree() {
        for w in [0.37, -1.5, -0.0] {
            slice_op_lanes_agree(&format!("axpy w={w}"), |dst, src| axpy(dst, src, w));
        }
    }

    #[test]
    fn fold_min_lanes_agree() {
        slice_op_lanes_agree("fold_min", fold_min);
    }

    #[test]
    fn fold_max_lanes_agree() {
        slice_op_lanes_agree("fold_max", fold_max);
    }

    #[test]
    fn weighted_sum_rows_lanes_agree() {
        for n in LENGTHS {
            for rows in 1..=WEIGHTED_SUM_MAX_ROWS {
                let srcs: Vec<Vec<f64>> = (0..rows).map(|k| samples(n, 2 * k)).collect();
                let srcs: Vec<&[f64]> = srcs.iter().map(Vec::as_slice).collect();
                let weights: Vec<f64> = (0..rows).map(|k| (k as f64 * 0.9).cos() * 1.7).collect();
                let dst = samples(n, 1);
                for accumulate in [false, true] {
                    let (scalar, avx) = lanes::scalar_and_avx(|| {
                        let mut out = dst.clone();
                        weighted_sum_rows(&mut out, &srcs, &weights, accumulate);
                        out
                    });
                    let case = format!("weighted_sum_rows n={n} rows={rows} acc={accumulate}");
                    assert_lanes_agree(&scalar, avx.as_deref(), &case);
                }
            }
        }
    }

    #[test]
    fn ssim_combine_lanes_agree() {
        // Signed zeros and the ends of the finite range, so products
        // overflow, underflow to (signed) zero and turn `0 / 0` into `NaN`.
        const EXTREMES: [f64; 12] = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            255.0,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            5e-324,
            1e154,
            -1e154,
        ];
        for n in LENGTHS {
            let plane = |k: usize| -> Vec<f64> {
                (0..n).map(|i| EXTREMES[(i * (k + 3) + k * 5) % EXTREMES.len()]).collect()
            };
            let (mu_a, mu_b, a_sq, b_sq, ab) = (plane(0), plane(1), plane(2), plane(3), plane(4));
            for (c1, c2) in [(6.5025, 58.5225), (0.0, 0.0), (-0.0, 0.0), (f64::MAX, 5e-324)] {
                let (scalar, avx) = lanes::scalar_and_avx(|| {
                    let mut out = vec![f64::NAN; n];
                    ssim_combine(&mut out, &mu_a, &mu_b, &a_sq, &b_sq, &ab, c1, c2);
                    out
                });
                let case = format!("ssim_combine n={n} c1={c1} c2={c2}");
                assert_lanes_agree(&scalar, avx.as_deref(), &case);
            }
        }
    }
}
