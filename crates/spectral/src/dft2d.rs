//! 2-D discrete Fourier transforms and the centered log-magnitude spectrum.

use crate::fft::{fft, ifft};
use crate::Complex64;
use decamouflage_imaging::{Channels, Image};

/// A complex-valued 2-D frequency grid produced by [`dft2`].
#[derive(Debug, Clone, PartialEq)]
pub struct Spectrum2D {
    width: usize,
    height: usize,
    data: Vec<Complex64>,
}

impl Spectrum2D {
    /// Grid width (same as the source image width).
    pub const fn width(&self) -> usize {
        self.width
    }

    /// Grid height.
    pub const fn height(&self) -> usize {
        self.height
    }

    /// Coefficient at frequency `(u, v)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, u: usize, v: usize) -> Complex64 {
        assert!(u < self.width && v < self.height);
        self.data[v * self.width + u]
    }

    /// Borrows the raw coefficient buffer (row-major).
    pub fn as_slice(&self) -> &[Complex64] {
        &self.data
    }

    /// Applies `fftshift`: swaps quadrants so the DC component moves to the
    /// grid centre. Returns a new spectrum.
    ///
    /// The per-pixel index arithmetic `nu = (u + half_w) % w` partitions
    /// each row into exactly two contiguous runs, so every output row is
    /// assembled from two flat `copy_from_slice` segments.
    pub fn shifted(&self) -> Spectrum2D {
        let (w, h) = (self.width, self.height);
        let mut out = vec![Complex64::ZERO; w * h];
        let half_w = w / 2;
        let half_h = h / 2;
        let split = w - half_w;
        for (v, src_row) in self.data.chunks_exact(w).enumerate() {
            let nv = (v + half_h) % h;
            let out_row = &mut out[nv * w..(nv + 1) * w];
            // u in [0, split) lands at u + half_w; u in [split, w) wraps.
            out_row[half_w..].copy_from_slice(&src_row[..split]);
            out_row[..half_w].copy_from_slice(&src_row[split..]);
        }
        Spectrum2D { width: w, height: h, data: out }
    }

    /// Log-magnitude image `log(1 + |F|)` normalised to `[0, 1]`.
    ///
    /// This is the paper's "centered spectrum" visualisation when called on
    /// a [`Spectrum2D::shifted`] spectrum.
    pub fn log_magnitude(&self) -> Image {
        let mut mags: Vec<f64> = self.data.iter().map(|c| (1.0 + c.norm()).ln()).collect();
        let scale = normalisation_scale(&mags);
        for m in mags.iter_mut() {
            *m *= scale;
        }
        Image::from_gray_plane(self.width, self.height, mags)
            .expect("buffer sized w*h by construction")
    }

    /// The raw log-magnitudes `log(1 + |F|)` of every coefficient, flat on
    /// the *unshifted* grid.
    ///
    /// This is the shared front half of [`Spectrum2D::centered_log_magnitude`]
    /// and the fused CSP pass ([`crate::csp::count_csp_in_spectrum`]): an
    /// engine scoring both methods computes these transcendentals once and
    /// hands the buffer to each consumer.
    pub fn log_magnitudes(&self) -> Vec<f64> {
        self.data.iter().map(|c| (1.0 + c.norm()).ln()).collect()
    }

    /// Fused `shifted().log_magnitude()` without materialising the shifted
    /// complex grid.
    ///
    /// Magnitudes are computed flat on the *unshifted* grid, the maximum is
    /// folded there (`f64::max` never rounds, so the fold is exact under
    /// any traversal order), and the normalised values are placed through
    /// the same two-contiguous-segment row mapping as [`Spectrum2D::shifted`].
    /// Output is bit-identical to the staged pipeline; it just skips one
    /// full-grid `Complex64` clone and the per-pixel scatter.
    pub fn centered_log_magnitude(&self) -> Image {
        self.centered_log_magnitude_from(&self.log_magnitudes())
    }

    /// [`Spectrum2D::centered_log_magnitude`] given the precomputed
    /// [`Spectrum2D::log_magnitudes`] buffer of this spectrum.
    ///
    /// # Panics
    ///
    /// Panics if `mags` does not have one entry per coefficient.
    pub fn centered_log_magnitude_from(&self, mags: &[f64]) -> Image {
        let (w, h) = (self.width, self.height);
        assert_eq!(mags.len(), w * h, "log-magnitude buffer shape mismatch");
        let scale = normalisation_scale(mags);
        let half_w = w / 2;
        let half_h = h / 2;
        let split = w - half_w;
        let mut out = vec![0.0f64; w * h];
        for (y, out_row) in out.chunks_exact_mut(w).enumerate() {
            // Inverse of `nv = (v + half_h) % h`: this output row reads
            // source row `sv`.
            let sv = (y + h - half_h) % h;
            let mags_row = &mags[sv * w..(sv + 1) * w];
            let (out_lo, out_hi) = out_row.split_at_mut(half_w);
            for (o, &m) in out_lo.iter_mut().zip(&mags_row[split..]) {
                *o = m * scale;
            }
            for (o, &m) in out_hi.iter_mut().zip(&mags_row[..split]) {
                *o = m * scale;
            }
        }
        Image::from_gray_plane(w, h, out).expect("buffer sized w*h by construction")
    }
}

/// `1/max` normalisation factor of the historical `log_magnitude` loop:
/// a plain `f64::max` fold seeded with `f64::MIN`, zero when nothing is
/// positive. Order-independent because `max` selects, never rounds.
fn normalisation_scale(mags: &[f64]) -> f64 {
    let mut max = f64::MIN;
    for &m in mags {
        max = max.max(m);
    }
    if max > 0.0 {
        1.0 / max
    } else {
        0.0
    }
}

/// Forward 2-D DFT of a grayscale image (RGB inputs are converted to
/// luminance first): the transform [`dft2_planned`] computes.
pub fn dft2(img: &Image) -> Spectrum2D {
    dft2_planned(img)
}

thread_local! {
    /// Reusable row/column buffers for [`dft2_planned`]. The FFT *plans*
    /// are already cached per-length inside [`crate::fft`]; this adds the
    /// per-call packing buffers on top so a corpus run stops allocating
    /// them once per row pair.
    static DFT2_SCRATCH: std::cell::RefCell<Dft2Scratch> =
        std::cell::RefCell::new(Dft2Scratch::default());
}

#[derive(Debug, Default)]
struct Dft2Scratch {
    packed: Vec<Complex64>,
    col: Vec<Complex64>,
}

/// Forward 2-D DFT of a grayscale image (RGB inputs are converted to
/// luminance first). Row transforms run first, then column transforms.
///
/// Because the input rows are real-valued, two rows are packed into one
/// complex transform (`z = a + i b`) and separated afterwards using the
/// conjugate symmetry `A[k] = (Z[k] + conj(Z[N-k]))/2`,
/// `B[k] = (Z[k] - conj(Z[N-k]))/(2i)` — halving the row-pass cost. The
/// row-packing and column buffers are thread-local and persist across
/// calls, and every 1-D transform runs in place in them.
pub fn dft2_planned(img: &Image) -> Spectrum2D {
    DFT2_SCRATCH.with(|scratch| {
        let scratch = &mut *scratch.borrow_mut();
        // Borrow the luma plane: for Gray inputs this is the stored plane
        // itself — no copy between the image and the transform.
        let luma = img.luma();
        let (w, h) = (img.width(), img.height());
        let mut grid: Vec<Complex64> = luma.iter().map(|&v| Complex64::from_real(v)).collect();

        // Rows: two real rows per complex FFT.
        let packed = &mut scratch.packed;
        let mut pair = 0;
        while pair + 1 < h {
            let (ya, yb) = (pair, pair + 1);
            packed.clear();
            packed.extend((0..w).map(|x| Complex64::new(grid[ya * w + x].re, grid[yb * w + x].re)));
            fft(packed);
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
            // Odd row count: transform the last row alone.
            fft(&mut grid[pair * w..(pair + 1) * w]);
        }
        // Columns.
        let col = &mut scratch.col;
        for x in 0..w {
            col.clear();
            col.extend((0..h).map(|y| grid[y * w + x]));
            fft(col);
            for (y, &v) in col.iter().enumerate() {
                grid[y * w + x] = v;
            }
        }
        Spectrum2D { width: w, height: h, data: grid }
    })
}

/// Inverse 2-D DFT back to a real image (the imaginary residue is dropped).
pub fn idft2(spec: &Spectrum2D) -> Image {
    let (w, h) = (spec.width, spec.height);
    let mut grid = spec.data.clone();
    // Columns.
    let mut col = vec![Complex64::ZERO; h];
    for x in 0..w {
        for (y, c) in col.iter_mut().enumerate() {
            *c = grid[y * w + x];
        }
        ifft(&mut col);
        for (y, &v) in col.iter().enumerate() {
            grid[y * w + x] = v;
        }
    }
    // Rows.
    for row in grid.chunks_exact_mut(w) {
        ifft(row);
    }
    let mut img = Image::zeros(w, h, Channels::Gray);
    for y in 0..h {
        for x in 0..w {
            img.set(x, y, 0, grid[y * w + x].re);
        }
    }
    img
}

/// The paper's *centered spectrum*: `fftshift` of the 2-D DFT followed by
/// `log(1 + |F|)` normalised to `[0, 1]` (Equation 4 of the paper).
pub fn centered_spectrum(img: &Image) -> Image {
    dft2(img).centered_log_magnitude()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dc_coefficient_is_sample_sum() {
        let img = Image::from_fn_gray(4, 3, |x, y| (x + y) as f64);
        let spec = dft2(&img);
        let sum: f64 = img.plane(0).iter().sum();
        assert!((spec.get(0, 0).re - sum).abs() < 1e-9);
        assert!(spec.get(0, 0).im.abs() < 1e-9);
    }

    #[test]
    fn packed_row_pass_matches_unpacked_reference() {
        // Reference: transform rows one at a time, then columns.
        for (w, h) in [(8usize, 6usize), (7, 5), (9, 9)] {
            let img = Image::from_fn_gray(w, h, |x, y| ((x * 7 + y * 13) % 53) as f64);
            let fast = dft2(&img);
            let mut grid: Vec<crate::Complex64> =
                img.plane(0).iter().map(|&v| crate::Complex64::from_real(v)).collect();
            for y in 0..h {
                let mut row: Vec<crate::Complex64> = grid[y * w..(y + 1) * w].to_vec();
                crate::fft::fft(&mut row);
                grid[y * w..(y + 1) * w].copy_from_slice(&row);
            }
            let mut col = vec![crate::Complex64::ZERO; h];
            for x in 0..w {
                for y in 0..h {
                    col[y] = grid[y * w + x];
                }
                let mut c = col.clone();
                crate::fft::fft(&mut c);
                for (y, &v) in c.iter().enumerate() {
                    grid[y * w + x] = v;
                }
            }
            for (i, (a, b)) in fast.as_slice().iter().zip(grid.iter()).enumerate() {
                assert!((*a - *b).norm() < 1e-6, "{w}x{h} bin {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn idft2_inverts_dft2() {
        for (w, h) in [(8usize, 8usize), (7, 5), (16, 9)] {
            let img = Image::from_fn_gray(w, h, |x, y| ((x * 31 + y * 17) % 97) as f64);
            let back = idft2(&dft2(&img));
            assert!(back.approx_eq(&img, 1e-6), "{w}x{h} roundtrip failed");
        }
    }

    #[test]
    fn shift_moves_dc_to_center() {
        let img = Image::filled(8, 8, Channels::Gray, 10.0);
        let spec = dft2(&img).shifted();
        // For a constant image everything but DC is 0; DC lands at (4, 4).
        assert!(spec.get(4, 4).norm() > 1.0);
        assert!(spec.get(0, 0).norm() < 1e-9);
    }

    #[test]
    fn shift_is_involution_for_even_sizes() {
        let img = Image::from_fn_gray(8, 6, |x, y| (x * y) as f64);
        let spec = dft2(&img);
        let twice = spec.shifted().shifted();
        for (a, b) in spec.as_slice().iter().zip(twice.as_slice()) {
            assert!((*a - *b).norm() < 1e-12);
        }
    }

    #[test]
    fn log_magnitude_is_normalised() {
        let img = Image::from_fn_gray(16, 16, |x, y| ((x ^ y) * 16) as f64);
        let mag = dft2(&img).shifted().log_magnitude();
        assert!(mag.min_sample() >= 0.0);
        assert!((mag.max_sample() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fused_centered_log_magnitude_is_bit_identical_to_staged() {
        // Even/odd dimensions exercise both segment splits of the shift.
        for (w, h) in [(8usize, 8usize), (7, 5), (12, 9), (9, 12), (1, 4), (5, 1)] {
            let img = Image::from_fn_gray(w, h, |x, y| ((x * 13 + y * 7) % 31) as f64 - 4.0);
            let spec = dft2(&img);
            let staged = spec.shifted().log_magnitude();
            let fused = spec.centered_log_magnitude();
            assert_eq!(staged, fused, "{w}x{h}");
        }
    }

    #[test]
    fn centered_spectrum_of_smooth_image_peaks_at_center() {
        let img = Image::from_fn_gray(32, 32, |x, y| {
            100.0 + 50.0 * ((x as f64) * 0.1).sin() + 30.0 * ((y as f64) * 0.08).cos()
        });
        let spec = centered_spectrum(&img);
        let (cx, cy) = (16, 16);
        assert!((spec.get(cx, cy, 0) - 1.0).abs() < 1e-9, "peak must be at center");
        // Far corners carry much less energy.
        assert!(spec.get(0, 0, 0) < 0.8);
    }

    #[test]
    fn periodic_pattern_creates_off_center_peaks() {
        // A strong period-4 comb produces energy away from DC — the
        // signature the steganalysis detector looks for.
        let img =
            Image::from_fn_gray(32, 32, |x, y| if x % 4 == 0 && y % 4 == 0 { 255.0 } else { 20.0 });
        let spec = centered_spectrum(&img);
        // Peak at spatial frequency 32/4 = 8 bins from DC: position (24, 16).
        assert!(spec.get(24, 16, 0) > 0.85, "side peak too weak: {}", spec.get(24, 16, 0));
    }

    #[test]
    fn rgb_input_is_converted_to_luma() {
        let rgb = Image::from_fn_rgb(8, 8, |x, y| [(x * y) as f64, 0.0, 0.0]);
        let gray = rgb.to_gray();
        let a = dft2(&rgb);
        let b = dft2(&gray);
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((*x - *y).norm() < 1e-9);
        }
    }

    #[test]
    fn spectrum_accessors() {
        let img = Image::zeros(6, 4, Channels::Gray);
        let spec = dft2(&img);
        assert_eq!(spec.width(), 6);
        assert_eq!(spec.height(), 4);
        assert_eq!(spec.as_slice().len(), 24);
    }
}
