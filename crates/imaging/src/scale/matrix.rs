//! Sparse 1-D scaling coefficient matrices.
//!
//! Every separable scaler can be written as `D = L · I · R` where `L`
//! (`dst_h x src_h`) mixes rows and `R` (`src_w x dst_w`) mixes columns.
//! This module builds the 1-D operator for one axis: a [`CoeffMatrix`] maps a
//! source signal of length `src_len` to a destination signal of length
//! `dst_len`, storing for each output element the small set of source
//! indices and weights that contribute to it.
//!
//! The image-scaling attack consumes these matrices directly: the sparsity
//! pattern tells the attacker exactly which source pixels the scaler reads.

use crate::scale::kernels::{bilinear_weight, cubic_weight, lanczos3_weight};
use crate::scale::ScaleAlgorithm;
use crate::ImagingError;

/// One output element's taps: `(source index, weight)` pairs sorted by index.
pub type Taps = Vec<(usize, f64)>;

/// A sparse `dst_len x src_len` linear operator for one scaling axis.
///
/// # Example
///
/// ```
/// use decamouflage_imaging::scale::{CoeffMatrix, ScaleAlgorithm};
///
/// # fn main() -> Result<(), decamouflage_imaging::ImagingError> {
/// let m = CoeffMatrix::build(ScaleAlgorithm::Bilinear, 8, 4)?;
/// assert_eq!((m.src_len(), m.dst_len()), (8, 4));
/// // Every row of a linear interpolating scaler sums to 1.
/// for i in 0..4 {
///     let sum: f64 = m.row(i).iter().map(|&(_, w)| w).sum();
///     assert!((sum - 1.0).abs() < 1e-12);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CoeffMatrix {
    src_len: usize,
    dst_len: usize,
    rows: Vec<Taps>,
}

impl CoeffMatrix {
    /// Builds the 1-D coefficient matrix of `algo` for scaling a signal of
    /// length `src_len` to length `dst_len`.
    ///
    /// `Area` degrades to `Bilinear` when enlarging (`dst_len > src_len`),
    /// mirroring OpenCV's `INTER_AREA` behaviour.
    ///
    /// # Errors
    ///
    /// Returns [`ImagingError::InvalidDimensions`] if either length is zero.
    pub fn build(
        algo: ScaleAlgorithm,
        src_len: usize,
        dst_len: usize,
    ) -> Result<Self, ImagingError> {
        if src_len == 0 || dst_len == 0 {
            return Err(ImagingError::InvalidDimensions { width: src_len, height: dst_len });
        }
        let rows = match algo {
            ScaleAlgorithm::Nearest => build_nearest(src_len, dst_len),
            ScaleAlgorithm::Bilinear => build_interp(src_len, dst_len, 1, bilinear_weight),
            ScaleAlgorithm::Bicubic => build_interp(src_len, dst_len, 2, cubic_weight),
            ScaleAlgorithm::Lanczos3 => {
                let mut rows = build_interp(src_len, dst_len, 3, lanczos3_weight);
                // Lanczos weights do not form a partition of unity; OpenCV
                // normalises each tap set so flat signals stay flat.
                for taps in rows.iter_mut() {
                    normalize(taps);
                }
                rows
            }
            ScaleAlgorithm::Area => {
                if dst_len >= src_len {
                    build_interp(src_len, dst_len, 1, bilinear_weight)
                } else {
                    build_area(src_len, dst_len)
                }
            }
        };
        Ok(Self { src_len, dst_len, rows })
    }

    /// Builds an identity operator (useful in tests and as a neutral element).
    pub fn identity(len: usize) -> Self {
        Self { src_len: len, dst_len: len, rows: (0..len).map(|i| vec![(i, 1.0)]).collect() }
    }

    /// Source signal length (number of matrix columns).
    pub const fn src_len(&self) -> usize {
        self.src_len
    }

    /// Destination signal length (number of matrix rows).
    pub const fn dst_len(&self) -> usize {
        self.dst_len
    }

    /// Taps of output element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= dst_len()`.
    pub fn row(&self, i: usize) -> &[(usize, f64)] {
        &self.rows[i]
    }

    /// Iterates over all rows in output order.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[(usize, f64)]> {
        self.rows.iter().map(|r| r.as_slice())
    }

    /// Applies the operator to a source signal.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != src_len()`.
    pub fn apply(&self, input: &[f64]) -> Vec<f64> {
        assert_eq!(input.len(), self.src_len, "input length mismatch");
        let mut out = vec![0.0; self.dst_len];
        self.apply_into(input, &mut out);
        out
    }

    /// Applies the operator writing into a caller-provided buffer.
    ///
    /// # Panics
    ///
    /// Panics if the buffer lengths do not match the operator shape.
    pub fn apply_into(&self, input: &[f64], output: &mut [f64]) {
        assert_eq!(input.len(), self.src_len, "input length mismatch");
        assert_eq!(output.len(), self.dst_len, "output length mismatch");
        for (o, taps) in output.iter_mut().zip(self.rows.iter()) {
            let mut acc = 0.0;
            for &(j, w) in taps {
                acc += w * input[j];
            }
            *o = acc;
        }
    }

    /// Applies the transposed operator (`src_len` outputs from `dst_len`
    /// inputs). Used by gradient computations in the attack solver.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != dst_len()`.
    pub fn apply_transpose(&self, input: &[f64]) -> Vec<f64> {
        assert_eq!(input.len(), self.dst_len, "input length mismatch");
        let mut out = vec![0.0; self.src_len];
        for (i, taps) in self.rows.iter().enumerate() {
            for &(j, w) in taps {
                out[j] += w * input[i];
            }
        }
        out
    }

    /// Densifies into a row-major `dst_len x src_len` matrix.
    pub fn to_dense(&self) -> Vec<f64> {
        let mut dense = vec![0.0; self.dst_len * self.src_len];
        for (i, taps) in self.rows.iter().enumerate() {
            for &(j, w) in taps {
                dense[i * self.src_len + j] = w;
            }
        }
        dense
    }

    /// Set of source indices with a non-zero weight in any row — i.e. the
    /// pixels the scaler actually reads. The attack perturbs only these.
    pub fn touched_sources(&self) -> Vec<usize> {
        let mut touched = vec![false; self.src_len];
        for taps in &self.rows {
            for &(j, w) in taps {
                if w != 0.0 {
                    touched[j] = true;
                }
            }
        }
        touched.iter().enumerate().filter_map(|(j, &t)| t.then_some(j)).collect()
    }

    /// Largest absolute column sum — an upper bound on how much one source
    /// pixel can influence the output (used to reason about attack budgets).
    pub fn max_column_influence(&self) -> f64 {
        let mut col = vec![0.0; self.src_len];
        for taps in &self.rows {
            for &(j, w) in taps {
                col[j] += w.abs();
            }
        }
        col.into_iter().fold(0.0, f64::max)
    }
}

/// OpenCV `INTER_NEAREST`: source index `floor(i * scale)`, clamped.
fn build_nearest(src_len: usize, dst_len: usize) -> Vec<Taps> {
    let scale = src_len as f64 / dst_len as f64;
    (0..dst_len)
        .map(|i| {
            let j = ((i as f64 * scale).floor() as usize).min(src_len - 1);
            vec![(j, 1.0)]
        })
        .collect()
}

/// Generic interpolating scaler with half-pixel-center mapping
/// `sx = (i + 0.5) * scale - 0.5` and a fixed kernel `radius` (no
/// anti-aliasing when downscaling — the OpenCV behaviour the attack relies
/// on). Out-of-range taps are clamped to the border, merging weights.
fn build_interp(
    src_len: usize,
    dst_len: usize,
    radius: isize,
    weight: impl Fn(f64) -> f64,
) -> Vec<Taps> {
    let scale = src_len as f64 / dst_len as f64;
    (0..dst_len)
        .map(|i| {
            let sx = (i as f64 + 0.5) * scale - 0.5;
            let base = sx.floor() as isize;
            let mut taps: Taps = Vec::with_capacity((2 * radius) as usize);
            for k in (base - radius + 1)..=(base + radius) {
                let w = weight(sx - k as f64);
                if w == 0.0 {
                    continue;
                }
                let j = k.clamp(0, src_len as isize - 1) as usize;
                merge_tap(&mut taps, j, w);
            }
            taps.sort_by_key(|&(j, _)| j);
            taps
        })
        .collect()
}

/// OpenCV `INTER_AREA` for shrinking: each output is the exact average of
/// the source interval `[i * scale, (i + 1) * scale)` with fractional edge
/// weights.
fn build_area(src_len: usize, dst_len: usize) -> Vec<Taps> {
    let scale = src_len as f64 / dst_len as f64;
    (0..dst_len)
        .map(|i| {
            let start = i as f64 * scale;
            let end = (i as f64 + 1.0) * scale;
            let mut taps: Taps = Vec::new();
            let first = start.floor() as usize;
            let last = (end.ceil() as usize).min(src_len);
            for j in first..last {
                let cell_start = j as f64;
                let cell_end = j as f64 + 1.0;
                let overlap = (end.min(cell_end) - start.max(cell_start)).max(0.0);
                if overlap > 0.0 {
                    taps.push((j, overlap / scale));
                }
            }
            normalize(&mut taps);
            taps
        })
        .collect()
}

fn merge_tap(taps: &mut Taps, j: usize, w: f64) {
    if let Some(entry) = taps.iter_mut().find(|(idx, _)| *idx == j) {
        entry.1 += w;
    } else {
        taps.push((j, w));
    }
}

fn normalize(taps: &mut Taps) {
    let sum: f64 = taps.iter().map(|&(_, w)| w).sum();
    if sum != 0.0 {
        for tap in taps.iter_mut() {
            tap.1 /= sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [ScaleAlgorithm; 5] = [
        ScaleAlgorithm::Nearest,
        ScaleAlgorithm::Bilinear,
        ScaleAlgorithm::Bicubic,
        ScaleAlgorithm::Area,
        ScaleAlgorithm::Lanczos3,
    ];

    #[test]
    fn rejects_zero_lengths() {
        assert!(CoeffMatrix::build(ScaleAlgorithm::Bilinear, 0, 4).is_err());
        assert!(CoeffMatrix::build(ScaleAlgorithm::Bilinear, 4, 0).is_err());
    }

    #[test]
    fn rows_sum_to_one_for_all_algorithms() {
        for algo in ALL {
            for &(src, dst) in &[(16usize, 4usize), (7, 3), (4, 16), (5, 5), (100, 7)] {
                let m = CoeffMatrix::build(algo, src, dst).unwrap();
                for i in 0..dst {
                    let sum: f64 = m.row(i).iter().map(|&(_, w)| w).sum();
                    assert!(
                        (sum - 1.0).abs() < 1e-9,
                        "{algo:?} {src}->{dst} row {i} sums to {sum}"
                    );
                }
            }
        }
    }

    #[test]
    fn flat_signal_stays_flat() {
        for algo in ALL {
            let m = CoeffMatrix::build(algo, 23, 7).unwrap();
            let out = m.apply(&[42.0; 23]);
            for v in out {
                assert!((v - 42.0).abs() < 1e-9, "{algo:?} produced {v}");
            }
        }
    }

    #[test]
    fn identity_matrix_is_identity() {
        let m = CoeffMatrix::identity(5);
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(m.apply(&x), x.to_vec());
    }

    #[test]
    fn same_length_interp_is_identity() {
        // With the half-pixel convention, scale factor 1 lands exactly on
        // source samples for interpolating kernels.
        for algo in [ScaleAlgorithm::Nearest, ScaleAlgorithm::Bilinear, ScaleAlgorithm::Bicubic] {
            let m = CoeffMatrix::build(algo, 9, 9).unwrap();
            let x: Vec<f64> = (0..9).map(|i| (i * i) as f64).collect();
            let out = m.apply(&x);
            for (a, b) in out.iter().zip(x.iter()) {
                assert!((a - b).abs() < 1e-9, "{algo:?}: {a} != {b}");
            }
        }
    }

    #[test]
    fn nearest_matches_opencv_indexing() {
        // 8 -> 4, scale 2: source index floor(i * 2) = 0, 2, 4, 6.
        let m = CoeffMatrix::build(ScaleAlgorithm::Nearest, 8, 4).unwrap();
        let expected = [0usize, 2, 4, 6];
        for (i, &e) in expected.iter().enumerate() {
            assert_eq!(m.row(i), &[(e, 1.0)]);
        }
    }

    #[test]
    fn bilinear_downscale_by_two_averages_pairs() {
        // 8 -> 4, scale 2: sx = 2i + 0.5, taps (2i, 0.5), (2i + 1, 0.5).
        let m = CoeffMatrix::build(ScaleAlgorithm::Bilinear, 8, 4).unwrap();
        for i in 0..4 {
            let taps = m.row(i);
            assert_eq!(taps.len(), 2);
            assert_eq!(taps[0].0, 2 * i);
            assert_eq!(taps[1].0, 2 * i + 1);
            assert!((taps[0].1 - 0.5).abs() < 1e-12);
            assert!((taps[1].1 - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn bilinear_downscale_by_four_touches_two_of_four() {
        // This is the sparsity the attack exploits: at scale 4 only 2 of
        // every 4 source pixels are read.
        let m = CoeffMatrix::build(ScaleAlgorithm::Bilinear, 16, 4).unwrap();
        let touched = m.touched_sources();
        assert_eq!(touched.len(), 8, "touched: {touched:?}");
    }

    #[test]
    fn area_downscale_is_full_average() {
        let m = CoeffMatrix::build(ScaleAlgorithm::Area, 8, 2).unwrap();
        // Every source pixel participates: area scaling is attack-resistant.
        assert_eq!(m.touched_sources().len(), 8);
        let x: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let out = m.apply(&x);
        assert!((out[0] - 1.5).abs() < 1e-12);
        assert!((out[1] - 5.5).abs() < 1e-12);
    }

    #[test]
    fn area_handles_fractional_ratio() {
        let m = CoeffMatrix::build(ScaleAlgorithm::Area, 5, 2).unwrap();
        let x = [10.0, 20.0, 30.0, 40.0, 50.0];
        let out = m.apply(&x);
        // First output averages [0, 2.5): pixels 0, 1 fully, pixel 2 at half.
        let expected0 = (10.0 + 20.0 + 0.5 * 30.0) / 2.5;
        let expected1 = (0.5 * 30.0 + 40.0 + 50.0) / 2.5;
        assert!((out[0] - expected0).abs() < 1e-12);
        assert!((out[1] - expected1).abs() < 1e-12);
    }

    #[test]
    fn area_upscale_falls_back_to_bilinear() {
        let a = CoeffMatrix::build(ScaleAlgorithm::Area, 4, 8).unwrap();
        let b = CoeffMatrix::build(ScaleAlgorithm::Bilinear, 4, 8).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn bicubic_has_four_interior_taps() {
        let m = CoeffMatrix::build(ScaleAlgorithm::Bicubic, 32, 8).unwrap();
        // Interior rows should reference 4 distinct source pixels.
        let taps = m.row(4);
        assert_eq!(taps.len(), 4, "taps: {taps:?}");
    }

    #[test]
    fn lanczos_has_six_interior_taps() {
        let m = CoeffMatrix::build(ScaleAlgorithm::Lanczos3, 64, 8).unwrap();
        let taps = m.row(4);
        assert_eq!(taps.len(), 6, "taps: {taps:?}");
    }

    #[test]
    fn taps_are_sorted_and_unique() {
        for algo in ALL {
            let m = CoeffMatrix::build(algo, 17, 5).unwrap();
            for taps in m.iter_rows() {
                for pair in taps.windows(2) {
                    assert!(pair[0].0 < pair[1].0, "{algo:?} taps not sorted: {taps:?}");
                }
            }
        }
    }

    #[test]
    fn apply_transpose_matches_dense_transpose() {
        let m = CoeffMatrix::build(ScaleAlgorithm::Bicubic, 10, 4).unwrap();
        let dense = m.to_dense();
        let y = [1.0, -2.0, 3.0, 0.5];
        let via_sparse = m.apply_transpose(&y);
        let mut via_dense = [0.0; 10];
        for i in 0..4 {
            for j in 0..10 {
                via_dense[j] += dense[i * 10 + j] * y[i];
            }
        }
        for (a, b) in via_sparse.iter().zip(via_dense.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn dense_apply_matches_sparse_apply() {
        let m = CoeffMatrix::build(ScaleAlgorithm::Bilinear, 12, 5).unwrap();
        let dense = m.to_dense();
        let x: Vec<f64> = (0..12).map(|i| (i as f64).sin() * 100.0).collect();
        let sparse_out = m.apply(&x);
        for i in 0..5 {
            let dense_out: f64 = (0..12).map(|j| dense[i * 12 + j] * x[j]).sum();
            assert!((sparse_out[i] - dense_out).abs() < 1e-9);
        }
    }

    #[test]
    fn max_column_influence_positive() {
        let m = CoeffMatrix::build(ScaleAlgorithm::Bilinear, 8, 4).unwrap();
        assert!(m.max_column_influence() > 0.0);
    }

    #[test]
    fn apply_into_writes_buffer() {
        let m = CoeffMatrix::build(ScaleAlgorithm::Nearest, 4, 2).unwrap();
        let mut out = vec![0.0; 2];
        m.apply_into(&[9.0, 8.0, 7.0, 6.0], &mut out);
        assert_eq!(out, vec![9.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "input length mismatch")]
    fn apply_panics_on_wrong_length() {
        let m = CoeffMatrix::build(ScaleAlgorithm::Nearest, 4, 2).unwrap();
        let _ = m.apply(&[1.0, 2.0]);
    }
}
