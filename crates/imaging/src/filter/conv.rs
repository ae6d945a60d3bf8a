//! Separable convolution with border replication.
//!
//! Two implementations are kept deliberately:
//!
//! * [`convolve_separable`] — the scalar reference: per-pixel clamped reads,
//!   easy to audit, used by tests as ground truth.
//! * [`convolve_planes_by_row`] — the production path: flat, contiguous,
//!   row-major passes over `&[f64]` buffers with the per-pixel bounds
//!   checks hoisted out of the inner loops, emitting each output row of
//!   every plane as soon as its vertical window is complete, and
//!   **bit-identical** to the reference (each output sample accumulates the
//!   same taps in the same ascending order starting from `0.0`, with border
//!   clamping applied to exactly the same reads).
//!   [`convolve_planes_with_scratch`] and
//!   [`convolve_separable_with_scratch`] collect its rows into planes.
//!
//! Both passes run tap-outer over whole rows, border pixels included (the
//! horizontal pass reads a source row padded with copies of its edge
//! samples): one register-accumulating sweep per group of taps
//! ([`crate::simd::weighted_sum_rows`]), which the autovectorizer turns
//! into packed mul/add at the SSE2 baseline and widens to AVX on CPUs that
//! have it.

use crate::simd::{weighted_sum_rows, WEIGHTED_SUM_MAX_ROWS};
use crate::{Image, ImagingError};

/// A 1-D convolution kernel with an explicit anchor (centre) position.
///
/// # Example
///
/// ```
/// use decamouflage_imaging::filter::Kernel1D;
///
/// # fn main() -> Result<(), decamouflage_imaging::ImagingError> {
/// let box3 = Kernel1D::centered(vec![1.0 / 3.0; 3])?;
/// assert_eq!(box3.len(), 3);
/// assert_eq!(box3.anchor(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel1D {
    weights: Vec<f64>,
    anchor: usize,
}

impl Kernel1D {
    /// Creates a kernel with an explicit anchor index.
    ///
    /// # Errors
    ///
    /// Returns [`ImagingError::InvalidParameter`] if `weights` is empty or
    /// `anchor` is out of range.
    pub fn new(weights: Vec<f64>, anchor: usize) -> Result<Self, ImagingError> {
        if weights.is_empty() {
            return Err(ImagingError::InvalidParameter {
                message: "kernel must be non-empty".into(),
            });
        }
        if anchor >= weights.len() {
            return Err(ImagingError::InvalidParameter {
                message: format!(
                    "anchor {anchor} out of range for kernel of length {}",
                    weights.len()
                ),
            });
        }
        Ok(Self { weights, anchor })
    }

    /// Creates a kernel anchored at its centre (requires odd length).
    ///
    /// # Errors
    ///
    /// Returns [`ImagingError::InvalidParameter`] for empty or even-length
    /// kernels.
    pub fn centered(weights: Vec<f64>) -> Result<Self, ImagingError> {
        if weights.len().is_multiple_of(2) {
            return Err(ImagingError::InvalidParameter {
                message: format!("centered kernel needs odd length, got {}", weights.len()),
            });
        }
        let anchor = weights.len() / 2;
        Self::new(weights, anchor)
    }

    /// Number of taps.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether the kernel has zero taps (never true for constructed kernels).
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Anchor (the tap aligned with the output pixel).
    pub const fn anchor(&self) -> usize {
        self.anchor
    }

    /// Borrows the weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Sum of the weights (1.0 for smoothing kernels).
    pub fn sum(&self) -> f64 {
        self.weights.iter().sum()
    }
}

/// Convolves an image with `horizontal` along x and `vertical` along y,
/// replicating border pixels. Channels are processed independently.
///
/// # Errors
///
/// This function itself cannot fail once the kernels exist; the `Result` is
/// reserved for future border modes. (It currently always returns `Ok`.)
pub fn convolve_separable(
    img: &Image,
    horizontal: &Kernel1D,
    vertical: &Kernel1D,
) -> Result<Image, ImagingError> {
    let mut mid = img.clone();
    // Horizontal pass.
    for c in 0..img.channel_count() {
        for y in 0..img.height() {
            for x in 0..img.width() {
                let mut acc = 0.0;
                for (k, &w) in horizontal.weights().iter().enumerate() {
                    let sx = x as isize + k as isize - horizontal.anchor() as isize;
                    acc += w * img.get_clamped(sx, y as isize, c);
                }
                mid.set(x, y, c, acc);
            }
        }
    }
    // Vertical pass.
    let mut out = img.clone();
    for c in 0..img.channel_count() {
        for y in 0..img.height() {
            for x in 0..img.width() {
                let mut acc = 0.0;
                for (k, &w) in vertical.weights().iter().enumerate() {
                    let sy = y as isize + k as isize - vertical.anchor() as isize;
                    acc += w * mid.get_clamped(x as isize, sy, c);
                }
                out.set(x, y, c, acc);
            }
        }
    }
    Ok(out)
}

/// Reusable buffers for [`convolve_separable_with_scratch`],
/// [`convolve_planes_with_scratch`] and [`convolve_planes_by_row`].
///
/// Holding one of these across calls avoids every allocation of the
/// convolution; buffers grow to the widest image and the most planes seen,
/// and none of them is a full image plane.
#[derive(Debug, Default)]
pub struct ConvScratch {
    /// One ring of horizontally convolved rows per plane, feeding the
    /// vertical pass: a block of output rows' windows tall (or the image's
    /// height, if smaller), so the intermediate is a few rows instead of a
    /// full image plane.
    rings: Vec<f64>,
    /// The source row being convolved, its border samples replicated on
    /// each side by the horizontal kernel's reach.
    row: Vec<f64>,
    /// The current block of output rows: per row, every plane's, plane-major.
    out_rows: Vec<f64>,
    /// Ring offsets of the vertical taps of each output row in the block.
    offsets: Vec<usize>,
}

impl ConvScratch {
    /// Creates empty scratch space.
    pub fn new() -> Self {
        Self::default()
    }
}

/// One input plane of a fused multi-plane convolution.
///
/// A plane is a contiguous row-major `width * height` buffer — exactly
/// what [`Image::plane`] lends. The SSIM pipeline blurs five maps per
/// image pair — `a`, `b`, `a·a`, `b·b` and `a·b`. Materialising the three
/// product planes costs three full-size allocations and passes over memory
/// per score; [`PlaneSource::Product`] instead forms each product row on
/// the fly in a single staging row while the horizontal sweep consumes it.
/// Because border handling clamps the *index* before reading, the product
/// of clamped reads equals the clamped read of the product — the result is
/// bit-identical to convolving a materialised product plane.
#[derive(Debug, Clone, Copy)]
pub enum PlaneSource<'a> {
    /// A plane's own samples.
    Plane(&'a [f64]),
    /// The elementwise product of two equally long planes.
    Product(&'a [f64], &'a [f64]),
}

impl PlaneSource<'_> {
    fn len(&self) -> Result<usize, ImagingError> {
        match self {
            PlaneSource::Plane(p) => Ok(p.len()),
            PlaneSource::Product(a, b) => {
                if a.len() != b.len() {
                    return Err(ImagingError::BufferSizeMismatch {
                        expected: a.len(),
                        actual: b.len(),
                    });
                }
                Ok(a.len())
            }
        }
    }
}

/// `out = Σ_k taps[k] · row(k)`: one register-accumulating sweep per group
/// of [`WEIGHTED_SUM_MAX_ROWS`] taps, groups chained with
/// `accumulate = true`, so each output adds its taps in ascending order from
/// 0.0 — the order of the reference's sample-outer loop, bit for bit. Both
/// passes use it: the horizontal one over shifted windows of a padded
/// source row, the vertical one over ring rows.
fn tap_sum<'r>(out: &mut [f64], taps: &[f64], row: impl Fn(usize) -> &'r [f64]) {
    let mut srcs: [&[f64]; WEIGHTED_SUM_MAX_ROWS] = [&[]; WEIGHTED_SUM_MAX_ROWS];
    for (k0, group) in
        (0..taps.len()).step_by(WEIGHTED_SUM_MAX_ROWS).zip(taps.chunks(WEIGHTED_SUM_MAX_ROWS))
    {
        for (s, k) in srcs.iter_mut().zip(k0..k0 + group.len()) {
            *s = row(k);
        }
        weighted_sum_rows(out, &srcs[..group.len()], group, k0 > 0);
    }
}

/// Output rows each plane's vertical pass produces per visit. A block
/// reads each of the plane's ring rows once from a cache level the other
/// planes have pushed them to, instead of once per output row.
const ROW_BLOCK: usize = 4;

/// Row-emitting fused separable convolution of several equally shaped
/// `width * height` planes: calls `emit(y, rows)` once row `y` of every
/// blurred plane is complete, for `y` ascending. `rows` holds those rows
/// back to back, plane-major: row `y` of `planes[p]` blurred is
/// `rows[p * width..(p + 1) * width]`.
///
/// Nothing full-size is allocated or written. Each plane keeps a ring of
/// horizontally convolved rows, as tall as the vertical window plus a
/// block of four output rows, filled just ahead of the window, so
/// a caller that reduces each row as it arrives (the SSIM sweep of
/// `decamouflage-metrics`) never holds a blurred plane.
///
/// Every value is **bit-identical** to [`convolve_separable`] on that plane
/// (with products materialised via `zip_map`): the horizontal pass reads a
/// source row padded with copies of its edge samples, where each tap reads
/// exactly the reference's clamped sample, and the vertical pass reads the
/// (clamped) ring rows; both reduce each output as one register-accumulating
/// weighted sum of all taps, grouped by [`WEIGHTED_SUM_MAX_ROWS`] — the same
/// taps in the same ascending order from `0.0`.
///
/// # Errors
///
/// Returns [`ImagingError::BufferSizeMismatch`] if any plane's length
/// differs from `width * height` (including the two factors of a
/// [`PlaneSource::Product`]); `emit` is then never called.
pub fn convolve_planes_by_row(
    planes: &[PlaneSource<'_>],
    width: usize,
    height: usize,
    horizontal: &Kernel1D,
    vertical: &Kernel1D,
    scratch: &mut ConvScratch,
    mut emit: impl FnMut(usize, &[f64]),
) -> Result<(), ImagingError> {
    let (w, h) = (width, height);
    for plane in planes {
        let len = plane.len()?;
        if len != w * h {
            return Err(ImagingError::BufferSizeMismatch { expected: w * h, actual: len });
        }
    }
    if planes.is_empty() || w == 0 || h == 0 {
        return Ok(());
    }
    let taps_h = horizontal.weights();
    let anchor_h = horizontal.anchor();

    let taps_v = vertical.weights();
    let anchor_v = vertical.anchor();
    // A block of output rows reads at most `block + taps_v.len() - 1`
    // distinct source rows (`h` in a shorter image). With slot
    // `sy % ring_rows`, filling a block's new rows overwrites only rows
    // below its window.
    let block = ROW_BLOCK.min(h);
    let ring_rows = (block + taps_v.len() - 1).min(h);
    let (n, ring_len, slab) = (planes.len(), ring_rows * w, planes.len() * w);

    let ConvScratch { rings, row, out_rows, offsets } = scratch;
    rings.resize(n * ring_len, 0.0);
    row.resize(w + taps_h.len() - 1, 0.0);
    out_rows.resize(block * slab, 0.0);
    offsets.resize(block * taps_v.len(), 0);

    // First source row not yet h-convolved into the rings.
    let mut next_mid = 0usize;
    for y0 in (0..h).step_by(block) {
        let rows_in_block = block.min(h - y0);
        // Highest source row the block's vertical windows touch.
        let hi = (y0 + rows_in_block - 1 + taps_v.len() - 1).saturating_sub(anchor_v).min(h - 1);
        // Ring offset of every tap of every output row, shared by the
        // planes.
        for (r, row_offsets) in
            offsets.chunks_exact_mut(taps_v.len()).take(rows_in_block).enumerate()
        {
            for (k, offset) in row_offsets.iter_mut().enumerate() {
                let sy = ((y0 + r + k) as isize - anchor_v as isize).clamp(0, h as isize - 1);
                *offset = (sy as usize % ring_rows) * w;
            }
        }
        for (p, plane) in planes.iter().enumerate() {
            let ring = &mut rings[p * ring_len..(p + 1) * ring_len];
            for sy in next_mid..=hi {
                let lo = sy * w;
                let middle = &mut row[anchor_h..anchor_h + w];
                match plane {
                    PlaneSource::Plane(src) => middle.copy_from_slice(&src[lo..lo + w]),
                    PlaneSource::Product(a, b) => {
                        for ((r, &av), &bv) in
                            middle.iter_mut().zip(&a[lo..lo + w]).zip(&b[lo..lo + w])
                        {
                            *r = av * bv;
                        }
                    }
                }
                // Replicate the edge samples over the kernel's reach, so
                // `row[x + k]` is the reference's clamped read of tap `k` at
                // pixel `x` and border pixels take the interior's sweep.
                let (first, last) = (row[anchor_h], row[anchor_h + w - 1]);
                row[..anchor_h].fill(first);
                row[anchor_h + w..].fill(last);
                let slot = sy % ring_rows;
                tap_sum(&mut ring[slot * w..(slot + 1) * w], taps_h, |k| &row[k..k + w]);
            }
            for (r, row_offsets) in
                offsets.chunks_exact(taps_v.len()).take(rows_in_block).enumerate()
            {
                let out_row = &mut out_rows[r * slab + p * w..r * slab + (p + 1) * w];
                tap_sum(out_row, taps_v, |k| &ring[row_offsets[k]..row_offsets[k] + w]);
            }
        }
        next_mid = next_mid.max(hi + 1);
        for (r, rows) in out_rows.chunks_exact(slab).take(rows_in_block).enumerate() {
            emit(y0 + r, rows);
        }
    }
    Ok(())
}

/// Fused separable convolution of several equally shaped `width * height`
/// planes in one call: each `planes[i]` is blurred into `outputs[i]`
/// (resized to `width * height`, row-major — the layout of
/// [`Image::plane`]). This is [`convolve_planes_by_row`] with every emitted
/// row copied into its plane.
///
/// Results are **bit-identical** to calling [`convolve_separable`] on each
/// plane (with products materialised via `zip_map`); what the fusion buys
/// is memory: the horizontal intermediate is a ring of `O(kernel)` rows per
/// plane instead of a full image plane, the products are formed one
/// staging row at a time, and the outputs are caller-reused buffers.
///
/// # Errors
///
/// Returns [`ImagingError::BufferSizeMismatch`] if any plane's length
/// differs from `width * height` (including the two factors of a
/// [`PlaneSource::Product`]) and [`ImagingError::InvalidParameter`] if
/// `planes` and `outputs` have different lengths.
pub fn convolve_planes_with_scratch(
    planes: &[PlaneSource<'_>],
    width: usize,
    height: usize,
    horizontal: &Kernel1D,
    vertical: &Kernel1D,
    scratch: &mut ConvScratch,
    outputs: &mut [&mut Vec<f64>],
) -> Result<(), ImagingError> {
    if planes.len() != outputs.len() {
        return Err(ImagingError::InvalidParameter {
            message: format!("{} planes but {} outputs", planes.len(), outputs.len()),
        });
    }
    for out in outputs.iter_mut() {
        out.clear();
        out.reserve(width * height);
    }
    convolve_planes_by_row(planes, width, height, horizontal, vertical, scratch, |_, rows| {
        for (p, out) in outputs.iter_mut().enumerate() {
            out.extend_from_slice(&rows[p * width..(p + 1) * width]);
        }
    })
}

/// [`convolve_separable`] with reusable scratch buffers and a fast interior
/// path.
///
/// The result is **bit-identical** to [`convolve_separable`]: every output
/// sample is accumulated over the same taps in the same order, with border
/// clamping applied to exactly the same reads — only the per-tap bounds
/// checks and the two intermediate image allocations are gone. The unit and
/// property tests assert exact (`==`) equality against the reference
/// implementation.
///
/// # Errors
///
/// Like [`convolve_separable`], currently always returns `Ok`.
pub fn convolve_separable_with_scratch(
    img: &Image,
    horizontal: &Kernel1D,
    vertical: &Kernel1D,
    scratch: &mut ConvScratch,
) -> Result<Image, ImagingError> {
    let sources: Vec<PlaneSource<'_>> =
        img.planes().iter().map(|p| PlaneSource::Plane(p)).collect();
    let mut outs: Vec<Vec<f64>> = vec![Vec::new(); img.channel_count()];
    let mut out_refs: Vec<&mut Vec<f64>> = outs.iter_mut().collect();
    convolve_planes_with_scratch(
        &sources,
        img.width(),
        img.height(),
        horizontal,
        vertical,
        scratch,
        &mut out_refs,
    )?;
    Image::from_planes(img.width(), img.height(), img.channels(), outs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Channels;

    #[test]
    fn kernel_validation() {
        assert!(Kernel1D::new(vec![], 0).is_err());
        assert!(Kernel1D::new(vec![1.0], 1).is_err());
        assert!(Kernel1D::new(vec![1.0], 0).is_ok());
        assert!(Kernel1D::centered(vec![1.0, 1.0]).is_err());
        assert!(Kernel1D::centered(vec![0.25, 0.5, 0.25]).is_ok());
    }

    #[test]
    fn identity_kernel_is_identity() {
        let id = Kernel1D::centered(vec![1.0]).unwrap();
        let img = Image::from_fn_gray(5, 4, |x, y| (x * y) as f64);
        let out = convolve_separable(&img, &id, &id).unwrap();
        assert_eq!(out, img);
    }

    #[test]
    fn box_blur_averages_neighbours() {
        let b = Kernel1D::centered(vec![1.0 / 3.0; 3]).unwrap();
        let id = Kernel1D::centered(vec![1.0]).unwrap();
        let img = Image::from_fn_gray(5, 1, |x, _| (x as f64) * 3.0);
        let out = convolve_separable(&img, &b, &id).unwrap();
        // Interior: mean of {3(x-1), 3x, 3(x+1)} = 3x.
        assert!((out.get(2, 0, 0) - 6.0).abs() < 1e-12);
        // Border replicates: mean of {0, 0, 3} = 1.
        assert!((out.get(0, 0, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn smoothing_preserves_constant_images() {
        let b = Kernel1D::centered(vec![0.25, 0.5, 0.25]).unwrap();
        let img = Image::filled(6, 6, Channels::Rgb, 200.0);
        let out = convolve_separable(&img, &b, &b).unwrap();
        assert!(out.approx_eq(&img, 1e-12));
    }

    #[test]
    fn shifted_anchor_translates_image() {
        // Kernel [1, 0] anchored at 1 reads the pixel to the left.
        let shift = Kernel1D::new(vec![1.0, 0.0], 1).unwrap();
        let id = Kernel1D::centered(vec![1.0]).unwrap();
        let img = Image::from_fn_gray(4, 1, |x, _| x as f64);
        let out = convolve_separable(&img, &shift, &id).unwrap();
        assert_eq!(out.plane(0), &[0.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn kernel_accessors() {
        let k = Kernel1D::centered(vec![0.25, 0.5, 0.25]).unwrap();
        assert_eq!(k.len(), 3);
        assert!(!k.is_empty());
        assert_eq!(k.anchor(), 1);
        assert!((k.sum() - 1.0).abs() < 1e-12);
        assert_eq!(k.weights().len(), 3);
    }

    #[test]
    fn scratch_path_is_bit_identical_to_reference() {
        let mut scratch = ConvScratch::new();
        let images = [
            Image::from_fn_gray(13, 9, |x, y| ((x * 31 + y * 17) % 64) as f64 - 12.5),
            Image::from_fn_rgb(7, 11, |x, y| {
                let v = (x * 5 + y * 3) as f64;
                [v, v * 0.5 - 7.0, 255.0 - v]
            }),
            Image::from_fn_gray(2, 2, |x, y| (x + 2 * y) as f64),
            Image::from_fn_gray(1, 6, |_, y| y as f64 * 1.7),
        ];
        let kernels = [
            Kernel1D::centered(vec![1.0]).unwrap(),
            Kernel1D::centered(vec![0.25, 0.5, 0.25]).unwrap(),
            Kernel1D::centered(vec![0.09, 0.11, 0.2, 0.2, 0.2, 0.11, 0.09]).unwrap(),
            Kernel1D::new(vec![1.0, 0.0], 1).unwrap(),
            Kernel1D::new(vec![0.3, 0.3, 0.4], 0).unwrap(),
            Kernel1D::centered(vec![1.0 / 11.0; 11]).unwrap(),
        ];
        for img in &images {
            for kh in &kernels {
                for kv in &kernels {
                    let reference = convolve_separable(img, kh, kv).unwrap();
                    let fast = convolve_separable_with_scratch(img, kh, kv, &mut scratch).unwrap();
                    assert_eq!(
                        reference,
                        fast,
                        "{}x{} kernels {}/{}",
                        img.width(),
                        img.height(),
                        kh.len(),
                        kv.len()
                    );
                }
            }
        }
    }

    #[test]
    fn scratch_reuse_across_sizes_is_safe() {
        let mut scratch = ConvScratch::new();
        let k = Kernel1D::centered(vec![0.25, 0.5, 0.25]).unwrap();
        for side in [9usize, 3, 17, 5] {
            let img = Image::from_fn_gray(side, side, |x, y| (x * y) as f64);
            let reference = convolve_separable(&img, &k, &k).unwrap();
            let fast = convolve_separable_with_scratch(&img, &k, &k, &mut scratch).unwrap();
            assert_eq!(reference, fast, "side {side}");
        }
    }

    /// The row kernel, and the planes collected from it, against the
    /// reference: Gray and RGB planes with their products, windows wider
    /// than the image, 1-row and 1-column images, and heights below the
    /// ring.
    #[test]
    fn fused_planes_are_bit_identical_to_staged_reference() {
        let mut scratch = ConvScratch::new();
        let texture = |x: usize, y: usize| ((x * 31 + y * 17) % 64) as f64 - 12.5;
        let rgb = |x, y| {
            let v = texture(x, y);
            [v, v * 0.5 - 7.0, 255.0 - v]
        };
        let images = [
            Image::from_fn_rgb(13, 9, rgb),
            Image::from_fn_gray(13, 9, texture),
            Image::from_fn_rgb(7, 11, rgb),
            Image::from_fn_gray(1, 6, texture),
            Image::from_fn_gray(9, 1, texture),
            Image::from_fn_gray(1, 1, texture),
            Image::from_fn_rgb(12, 3, |x, y| [texture(x, y), texture(y, x), 1.5]),
        ];
        let kernels = [
            Kernel1D::centered(vec![0.25, 0.5, 0.25]).unwrap(),
            Kernel1D::centered(vec![1.0 / 11.0; 11]).unwrap(),
            Kernel1D::centered((1..=23).map(|k| k as f64 / 276.0).collect()).unwrap(),
            Kernel1D::new(vec![0.3, 0.3, 0.4], 0).unwrap(),
        ];
        for a in &images {
            let b = a.map(|v| (v * 0.9 + 4.0).min(255.0));
            let (w, h) = (a.width(), a.height());
            let mut sources = Vec::new();
            for c in 0..a.channel_count() {
                sources.push(PlaneSource::Plane(a.plane(c)));
                sources.push(PlaneSource::Product(a.plane(c), a.plane(c)));
                sources.push(PlaneSource::Product(a.plane(c), b.plane(c)));
            }
            let aa = a.zip_map(a, |x, y| x * y).unwrap();
            let ab = a.zip_map(&b, |x, y| x * y).unwrap();
            for kh in &kernels {
                for kv in &kernels {
                    let label = format!("{w}x{h}, kernels {}/{}", kh.len(), kv.len());
                    let staged = [a, &aa, &ab].map(|img| convolve_separable(img, kh, kv).unwrap());
                    let expected = |p: usize| staged[p % 3].plane(p / 3);
                    let mut next = 0;
                    convolve_planes_by_row(&sources, w, h, kh, kv, &mut scratch, |y, rows| {
                        assert_eq!((y, rows.len()), (next, sources.len() * w), "{label}");
                        for (p, row) in rows.chunks_exact(w).enumerate() {
                            assert_eq!(row, &expected(p)[y * w..(y + 1) * w], "{label} plane {p}");
                        }
                        next += 1;
                    })
                    .unwrap();
                    assert_eq!(next, h, "{label}: every row emitted once");
                    let mut outs: Vec<Vec<f64>> = vec![Vec::new(); sources.len()];
                    let mut out_refs: Vec<&mut Vec<f64>> = outs.iter_mut().collect();
                    convolve_planes_with_scratch(
                        &sources,
                        w,
                        h,
                        kh,
                        kv,
                        &mut scratch,
                        &mut out_refs,
                    )
                    .unwrap();
                    for (p, out) in outs.iter().enumerate() {
                        assert_eq!(out, expected(p), "{label} plane {p}, collected");
                    }
                }
            }
        }
    }

    #[test]
    fn fused_planes_reject_shape_mismatch_and_arity_mismatch() {
        let mut scratch = ConvScratch::new();
        let k = Kernel1D::centered(vec![1.0]).unwrap();
        let a = Image::zeros(4, 4, Channels::Gray);
        let b = Image::zeros(4, 5, Channels::Gray);
        let mut out = Vec::new();
        assert!(convolve_planes_with_scratch(
            &[PlaneSource::Product(a.plane(0), b.plane(0))],
            4,
            4,
            &k,
            &k,
            &mut scratch,
            &mut [&mut out],
        )
        .is_err());
        assert!(convolve_planes_with_scratch(
            &[PlaneSource::Plane(a.plane(0)), PlaneSource::Plane(b.plane(0))],
            4,
            4,
            &k,
            &k,
            &mut scratch,
            &mut [&mut out],
        )
        .is_err());
        assert!(convolve_planes_with_scratch(
            &[PlaneSource::Plane(a.plane(0))],
            4,
            4,
            &k,
            &k,
            &mut scratch,
            &mut [],
        )
        .is_err());
        // Empty call is a no-op.
        assert!(convolve_planes_with_scratch(&[], 4, 4, &k, &k, &mut scratch, &mut []).is_ok());
    }

    #[test]
    fn kernel_wider_than_image_stays_bit_identical() {
        // radius >= width/2: the interior range is empty, every pixel is a
        // border pixel.
        let mut scratch = ConvScratch::new();
        let img = Image::from_fn_gray(3, 5, |x, y| (x * 7 + y * 3) as f64);
        let k = Kernel1D::centered(vec![1.0 / 9.0; 9]).unwrap();
        let reference = convolve_separable(&img, &k, &k).unwrap();
        let fast = convolve_separable_with_scratch(&img, &k, &k, &mut scratch).unwrap();
        assert_eq!(reference, fast);
    }

    #[test]
    fn separable_convolution_is_commutative_in_axes() {
        let kx = Kernel1D::centered(vec![0.25, 0.5, 0.25]).unwrap();
        let ky = Kernel1D::centered(vec![1.0 / 3.0; 3]).unwrap();
        let img = Image::from_fn_gray(7, 7, |x, y| ((x * 13 + y * 7) % 31) as f64);
        let a = convolve_separable(&img, &kx, &ky).unwrap();
        // Convolving with (id, ky) then (kx, id) must match.
        let id = Kernel1D::centered(vec![1.0]).unwrap();
        let tmp = convolve_separable(&img, &id, &ky).unwrap();
        let b = convolve_separable(&tmp, &kx, &id).unwrap();
        assert!(a.approx_eq(&b, 1e-9));
    }
}
