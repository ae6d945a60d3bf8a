//! The host-speed probe, which takes the machine's own speed swings out of
//! the end-to-end timings.
//!
//! The benchmark runs on a shared two-core virtual machine whose speed
//! moves with its neighbours' load: the same instructions run up to half
//! again as long for seconds at a time, and the user CPU time grows with
//! them, so no stolen-time accounting removes it. The probe is a fixed
//! computation owned by this benchmark — a 2-D FFT and box-filter sweeps
//! over a 256 × 256 grid, the strided and streaming access patterns that
//! dominate scoring. It is timed between units of measured work, while the
//! program under test is idle, and every end-to-end timing is divided by
//! the probe's slowdown around its unit: the probe's time then over
//! [`REFERENCE_MS`]. A change to the program cannot move the probe, whose
//! code lives only here.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// Grid side: a power of two, so the FFT is a plain radix-2 one.
const SIDE: usize = 256;
/// Box-filter sweeps per probe run; with two FFTs, the sweeps and the
/// FFTs take about equal shares of a run.
const SWEEPS: usize = 12;
/// Probe runs per mark; a mark is their median.
const RUNS_PER_MARK: usize = 5;

/// A typical probe time on the 2-core Intel Xeon (Sapphire Rapids)
/// virtual machine the benchmark was written on. At this speed normalised
/// timings equal measured ones.
pub const REFERENCE_MS: f64 = 10.0;

/// The fixed computation.
#[derive(Debug)]
struct Probe {
    grid: Vec<(f64, f64)>,
    line: Vec<(f64, f64)>,
    twiddles: Vec<(f64, f64)>,
    plane: Vec<f64>,
    blurred: Vec<f64>,
}

impl Probe {
    fn new() -> Self {
        let n = SIDE;
        let angle = -2.0 * std::f64::consts::PI / n as f64;
        Self {
            grid: (0..n * n).map(|i| ((i % 251) as f64, 0.0)).collect(),
            line: vec![(0.0, 0.0); n],
            twiddles: (0..n / 2)
                .map(|k| (angle * k as f64).sin_cos())
                .map(|(s, c)| (c, s))
                .collect(),
            plane: (0..n * n).map(|i| (i % 253) as f64).collect(),
            blurred: vec![0.0; n * n],
        }
    }

    /// One in-place radix-2 FFT of `line`.
    fn fft(line: &mut [(f64, f64)], twiddles: &[(f64, f64)]) {
        let n = line.len();
        let mut j = 0;
        for i in 1..n {
            let mut bit = n >> 1;
            while j & bit != 0 {
                j ^= bit;
                bit >>= 1;
            }
            j |= bit;
            if i < j {
                line.swap(i, j);
            }
        }
        let mut len = 2;
        while len <= n {
            let step = n / len;
            for start in (0..n).step_by(len) {
                for k in 0..len / 2 {
                    let (wr, wi) = twiddles[k * step];
                    let (a, b) = (start + k, start + k + len / 2);
                    let (br, bi) = line[b];
                    let (tr, ti) = (br * wr - bi * wi, br * wi + bi * wr);
                    let (ar, ai) = line[a];
                    line[b] = (ar - tr, ai - ti);
                    line[a] = (ar + tr, ai + ti);
                }
            }
            len <<= 1;
        }
    }

    /// A 2-D FFT of the grid: rows, then columns gathered through a line
    /// buffer, scaled by `1/n` so repeated runs stay finite.
    fn fft2(&mut self) {
        let n = SIDE;
        for row in self.grid.chunks_exact_mut(n) {
            Self::fft(row, &self.twiddles);
        }
        let scale = 1.0 / n as f64;
        for c in 0..n {
            for r in 0..n {
                self.line[r] = self.grid[r * n + c];
            }
            Self::fft(&mut self.line, &self.twiddles);
            for r in 0..n {
                let (x, y) = self.line[r];
                self.grid[r * n + c] = (x * scale, y * scale);
            }
        }
    }

    /// 3 × 3 box-filter sweeps, each written back transposed.
    fn sweep(&mut self) {
        let n = SIDE;
        for _ in 0..SWEEPS {
            let (s, d) = (&self.plane, &mut self.blurred);
            for y in 1..n - 1 {
                for x in 1..n - 1 {
                    let i = y * n + x;
                    d[i] = (s[i - n - 1]
                        + s[i - n]
                        + s[i - n + 1]
                        + s[i - 1]
                        + s[i]
                        + s[i + 1]
                        + s[i + n - 1]
                        + s[i + n]
                        + s[i + n + 1])
                        * (1.0 / 9.0);
                }
            }
            for y in 0..n {
                for x in 0..n {
                    self.plane[x * n + y] = self.blurred[y * n + x] + 1.0;
                }
            }
        }
    }

    /// One timed run, in ms.
    fn run_ms(&mut self) -> f64 {
        let started = Instant::now();
        self.fft2();
        self.fft2();
        self.sweep();
        black_box((self.grid[1], self.plane[SIDE + 1]));
        started.elapsed().as_secs_f64() * 1e3
    }
}

/// Probe marks taken between units of work, in order.
#[derive(Debug)]
pub struct HostSpeed {
    probe: Probe,
    marks: Vec<f64>,
}

impl HostSpeed {
    pub fn new() -> Self {
        let mut probe = Probe::new();
        probe.run_ms();
        Self { probe, marks: Vec::new() }
    }

    /// Times the probe now; returns the mark's index.
    pub fn mark(&mut self) -> usize {
        let runs: Vec<f64> = (0..RUNS_PER_MARK).map(|_| self.probe.run_ms()).collect();
        self.marks.push(median(&runs));
        self.marks.len() - 1
    }

    /// How much slower than the reference the machine ran around a unit
    /// of work between marks `before` and `after`: the mean of the two
    /// marks over [`REFERENCE_MS`]. Divide a time by it, or multiply a
    /// rate.
    pub fn slowdown(&self, before: usize, after: usize) -> f64 {
        (self.marks[before] + self.marks[after]) / (2.0 * REFERENCE_MS)
    }

    /// Every mark so far, in ms.
    pub fn marks(&self) -> &[f64] {
        &self.marks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_fft_matches_a_direct_dft() {
        let n = 16;
        let angle = -2.0 * std::f64::consts::PI / n as f64;
        let twiddles: Vec<(f64, f64)> =
            (0..n / 2).map(|k| (angle * k as f64).sin_cos()).map(|(s, c)| (c, s)).collect();
        let input: Vec<(f64, f64)> = (0..n).map(|i| ((i * i % 7) as f64, (i % 3) as f64)).collect();
        let mut line = input.clone();
        Probe::fft(&mut line, &twiddles);
        for (k, &(re, im)) in line.iter().enumerate() {
            let (mut want_re, mut want_im) = (0.0, 0.0);
            for (t, &(x, y)) in input.iter().enumerate() {
                let (s, c) = (angle * (k * t) as f64).sin_cos();
                want_re += x * c - y * s;
                want_im += x * s + y * c;
            }
            assert!((re - want_re).abs() < 1e-9 && (im - want_im).abs() < 1e-9, "bin {k}");
        }
    }

    #[test]
    fn slowdown_is_the_mean_of_the_bracketing_marks_over_the_reference() {
        let mut host = HostSpeed::new();
        assert_eq!((host.mark(), host.mark()), (0, 1));
        assert!(host.marks().iter().all(|&ms| ms > 0.0 && ms.is_finite()));
        host.marks = vec![REFERENCE_MS, 2.0 * REFERENCE_MS];
        assert!((host.slowdown(0, 1) - 1.5).abs() < 1e-12);
    }
}
