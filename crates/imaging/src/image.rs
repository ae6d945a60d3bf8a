use crate::{ImagingError, Rect, Size};
use std::borrow::Cow;

/// Channel layout of an [`Image`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Channels {
    /// Single luminance channel.
    Gray,
    /// Red, green, blue — three separate planes.
    Rgb,
}

impl Channels {
    /// Number of samples per pixel (= number of planes).
    pub const fn count(&self) -> usize {
        match self {
            Channels::Gray => 1,
            Channels::Rgb => 3,
        }
    }
}

/// An owned raster image with `f64` samples in **planar** storage: one
/// contiguous row-major `width * height` buffer per channel.
///
/// Samples follow the 8-bit convention: the nominal range is `[0, 255]`,
/// although intermediate computations (attack crafting, filtering) may
/// temporarily step outside it; [`Image::clamped`] restores the invariant.
///
/// Every kernel in the workspace (scaler, separable convolution, rank
/// filters, FFT) walks stride-1 sample rows, so planes are the native
/// layout; the interleaved wire order of the 8-bit codecs only exists at
/// the codec boundary ([`Image::from_u8`] / [`Image::to_u8_vec`] and the
/// explicit [`Image::from_interleaved`] / [`Image::to_interleaved`]
/// converters).
///
/// # Example
///
/// ```
/// use decamouflage_imaging::{Channels, Image};
///
/// let mut img = Image::zeros(4, 3, Channels::Gray);
/// img.set(1, 2, 0, 128.0);
/// assert_eq!(img.get(1, 2, 0), 128.0);
/// assert_eq!(img.plane(0)[2 * 4 + 1], 128.0);
/// assert_eq!(img.size().area(), 12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Image {
    width: usize,
    height: usize,
    channels: Channels,
    planes: Vec<Vec<f64>>,
}

impl Image {
    /// Creates an image filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is zero; use [`Image::try_new`] for a
    /// fallible variant.
    pub fn zeros(width: usize, height: usize, channels: Channels) -> Self {
        Self::try_new(width, height, channels).expect("image dimensions must be non-zero")
    }

    /// Creates an image filled with zeros, or an error for empty dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`ImagingError::InvalidDimensions`] if either dimension is 0.
    pub fn try_new(width: usize, height: usize, channels: Channels) -> Result<Self, ImagingError> {
        if width == 0 || height == 0 {
            return Err(ImagingError::InvalidDimensions { width, height });
        }
        let planes = (0..channels.count()).map(|_| vec![0.0; width * height]).collect();
        Ok(Self { width, height, channels, planes })
    }

    /// Creates an image filled with a constant value.
    pub fn filled(width: usize, height: usize, channels: Channels, value: f64) -> Self {
        let mut img = Self::zeros(width, height, channels);
        for plane in img.planes.iter_mut() {
            plane.fill(value);
        }
        img
    }

    /// Wraps per-channel plane buffers (row-major, `width * height` each).
    ///
    /// This is the zero-copy constructor: the vectors become the image's
    /// planes, so pooled buffers keep their allocations.
    ///
    /// # Errors
    ///
    /// Returns [`ImagingError::InvalidDimensions`] for empty dimensions,
    /// [`ImagingError::ChannelMismatch`] if the number of planes does not
    /// match `channels`, and [`ImagingError::BufferSizeMismatch`] if any
    /// plane's length differs from `width * height`.
    pub fn from_planes(
        width: usize,
        height: usize,
        channels: Channels,
        planes: Vec<Vec<f64>>,
    ) -> Result<Self, ImagingError> {
        if width == 0 || height == 0 {
            return Err(ImagingError::InvalidDimensions { width, height });
        }
        if planes.len() != channels.count() {
            return Err(ImagingError::ChannelMismatch { expected: "one plane per channel" });
        }
        let expected = width * height;
        for plane in planes.iter() {
            if plane.len() != expected {
                return Err(ImagingError::BufferSizeMismatch { expected, actual: plane.len() });
            }
        }
        Ok(Self { width, height, channels, planes })
    }

    /// Wraps a single plane as a grayscale image (zero-copy).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Image::from_planes`].
    pub fn from_gray_plane(
        width: usize,
        height: usize,
        plane: Vec<f64>,
    ) -> Result<Self, ImagingError> {
        Self::from_planes(width, height, Channels::Gray, vec![plane])
    }

    /// Converts a row-major channel-interleaved sample buffer (the 8-bit
    /// codec wire order: `r0 g0 b0 r1 g1 b1 …`) into planes. Grayscale
    /// input is zero-copy.
    ///
    /// # Errors
    ///
    /// Returns [`ImagingError::InvalidDimensions`] for empty dimensions and
    /// [`ImagingError::BufferSizeMismatch`] if `data.len()` differs from
    /// `width * height * channels.count()`.
    pub fn from_interleaved(
        width: usize,
        height: usize,
        channels: Channels,
        data: Vec<f64>,
    ) -> Result<Self, ImagingError> {
        if width == 0 || height == 0 {
            return Err(ImagingError::InvalidDimensions { width, height });
        }
        let expected = width * height * channels.count();
        if data.len() != expected {
            return Err(ImagingError::BufferSizeMismatch { expected, actual: data.len() });
        }
        match channels {
            Channels::Gray => Self::from_gray_plane(width, height, data),
            Channels::Rgb => {
                let n = width * height;
                let mut planes =
                    vec![Vec::with_capacity(n), Vec::with_capacity(n), Vec::with_capacity(n)];
                for px in data.chunks_exact(3) {
                    planes[0].push(px[0]);
                    planes[1].push(px[1]);
                    planes[2].push(px[2]);
                }
                Self::from_planes(width, height, channels, planes)
            }
        }
    }

    /// Gathers the planes back into a row-major channel-interleaved buffer
    /// (the inverse of [`Image::from_interleaved`]).
    pub fn to_interleaved(&self) -> Vec<f64> {
        match self.channels {
            Channels::Gray => self.planes[0].clone(),
            Channels::Rgb => {
                let (r, g, b) = (&self.planes[0], &self.planes[1], &self.planes[2]);
                let mut out = Vec::with_capacity(r.len() * 3);
                for i in 0..r.len() {
                    out.push(r[i]);
                    out.push(g[i]);
                    out.push(b[i]);
                }
                out
            }
        }
    }

    /// Builds a grayscale image by evaluating `f(x, y)` at every pixel.
    pub fn from_fn_gray(
        width: usize,
        height: usize,
        mut f: impl FnMut(usize, usize) -> f64,
    ) -> Self {
        let mut img = Self::zeros(width, height, Channels::Gray);
        for y in 0..height {
            for x in 0..width {
                let v = f(x, y);
                img.planes[0][y * width + x] = v;
            }
        }
        img
    }

    /// Builds an RGB image by evaluating `f(x, y) -> [r, g, b]` at every pixel.
    pub fn from_fn_rgb(
        width: usize,
        height: usize,
        mut f: impl FnMut(usize, usize) -> [f64; 3],
    ) -> Self {
        let mut img = Self::zeros(width, height, Channels::Rgb);
        for y in 0..height {
            for x in 0..width {
                let [r, g, b] = f(x, y);
                let i = y * width + x;
                img.planes[0][i] = r;
                img.planes[1][i] = g;
                img.planes[2][i] = b;
            }
        }
        img
    }

    /// Converts an 8-bit channel-interleaved sample buffer into an image.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Image::from_interleaved`].
    pub fn from_u8(
        width: usize,
        height: usize,
        channels: Channels,
        data: &[u8],
    ) -> Result<Self, ImagingError> {
        Self::from_interleaved(
            width,
            height,
            channels,
            data.iter().map(|&b| f64::from(b)).collect(),
        )
    }

    /// Width in pixels.
    pub const fn width(&self) -> usize {
        self.width
    }

    /// Height in pixels.
    pub const fn height(&self) -> usize {
        self.height
    }

    /// Channel layout.
    pub const fn channels(&self) -> Channels {
        self.channels
    }

    /// Number of samples per pixel (1 or 3).
    pub const fn channel_count(&self) -> usize {
        self.channels.count()
    }

    /// Size in pixels.
    pub const fn size(&self) -> Size {
        Size::new(self.width, self.height)
    }

    /// Shape as `(width, height, channels)`.
    pub const fn shape(&self) -> (usize, usize, usize) {
        (self.width, self.height, self.channels.count())
    }

    /// Number of samples in one plane (`width * height`).
    pub const fn plane_len(&self) -> usize {
        self.width * self.height
    }

    /// Borrows channel `c` as a contiguous row-major plane.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range for the channel layout.
    #[inline]
    pub fn plane(&self, c: usize) -> &[f64] {
        &self.planes[c]
    }

    /// Mutably borrows channel `c` as a contiguous row-major plane.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range for the channel layout.
    #[inline]
    pub fn plane_mut(&mut self, c: usize) -> &mut [f64] {
        &mut self.planes[c]
    }

    /// Borrows all planes in channel order.
    #[inline]
    pub fn planes(&self) -> &[Vec<f64>] {
        &self.planes
    }

    /// Consumes the image and returns its plane buffers (for recycling
    /// into a pool).
    pub fn into_planes(self) -> Vec<Vec<f64>> {
        self.planes
    }

    #[inline]
    fn index(&self, x: usize, y: usize) -> usize {
        debug_assert!(x < self.width && y < self.height);
        y * self.width + x
    }

    /// Sample at `(x, y)` in channel `c`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates or channel are out of bounds.
    #[inline]
    pub fn get(&self, x: usize, y: usize, c: usize) -> f64 {
        self.planes[c][self.index(x, y)]
    }

    /// Writes a sample at `(x, y)` in channel `c`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates or channel are out of bounds.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, c: usize, value: f64) {
        let i = self.index(x, y);
        self.planes[c][i] = value;
    }

    /// Sample at `(x, y)` with coordinates clamped into bounds (border
    /// replication). Useful for filters near the edges.
    #[inline]
    pub fn get_clamped(&self, x: isize, y: isize, c: usize) -> f64 {
        let xi = x.clamp(0, self.width as isize - 1) as usize;
        let yi = y.clamp(0, self.height as isize - 1) as usize;
        self.get(xi, yi, c)
    }

    /// Extracts one channel as a grayscale image (copying the plane).
    ///
    /// # Errors
    ///
    /// Returns [`ImagingError::InvalidParameter`] if `c` is out of range.
    pub fn channel_image(&self, c: usize) -> Result<Image, ImagingError> {
        if c >= self.channel_count() {
            return Err(ImagingError::InvalidParameter {
                message: format!("channel {c} out of range for {:?}", self.channels),
            });
        }
        Self::from_gray_plane(self.width, self.height, self.planes[c].clone())
    }

    /// The luminance plane, borrow-free where possible: a `Gray` image
    /// lends its only plane; an RGB image runs one fused ITU-R BT.601
    /// pass (`0.299 r + 0.587 g + 0.114 b`).
    pub fn luma(&self) -> Cow<'_, [f64]> {
        match self.channels {
            Channels::Gray => Cow::Borrowed(self.planes[0].as_slice()),
            Channels::Rgb => {
                let (r, g, b) = (&self.planes[0], &self.planes[1], &self.planes[2]);
                let mut out = Vec::with_capacity(r.len());
                for i in 0..r.len() {
                    out.push(0.299 * r[i] + 0.587 * g[i] + 0.114 * b[i]);
                }
                Cow::Owned(out)
            }
        }
    }

    /// Converts to grayscale using the ITU-R BT.601 luma weights. A grayscale
    /// input is returned unchanged (cloned); prefer [`Image::luma`] when a
    /// borrowed plane suffices.
    pub fn to_gray(&self) -> Image {
        match self.channels {
            Channels::Gray => self.clone(),
            Channels::Rgb => {
                Self::from_gray_plane(self.width, self.height, self.luma().into_owned())
                    .expect("luma plane has matching length")
            }
        }
    }

    /// Expands a grayscale image to RGB by replicating the channel. An RGB
    /// input is returned unchanged (cloned).
    pub fn to_rgb(&self) -> Image {
        match self.channels {
            Channels::Rgb => self.clone(),
            Channels::Gray => {
                let p = &self.planes[0];
                Self::from_planes(
                    self.width,
                    self.height,
                    Channels::Rgb,
                    vec![p.clone(), p.clone(), p.clone()],
                )
                .expect("replicated planes have matching length")
            }
        }
    }

    /// Returns a copy with every sample transformed by `f`.
    pub fn map(&self, mut f: impl FnMut(f64) -> f64) -> Image {
        let mut out = self.clone();
        for plane in out.planes.iter_mut() {
            for v in plane.iter_mut() {
                *v = f(*v);
            }
        }
        out
    }

    /// Combines two images of identical shape sample-by-sample.
    ///
    /// # Errors
    ///
    /// Returns [`ImagingError::ShapeMismatch`] when the shapes differ.
    pub fn zip_map(
        &self,
        other: &Image,
        mut f: impl FnMut(f64, f64) -> f64,
    ) -> Result<Image, ImagingError> {
        if self.shape() != other.shape() {
            return Err(ImagingError::ShapeMismatch { left: self.shape(), right: other.shape() });
        }
        let mut out = self.clone();
        for (plane, oplane) in out.planes.iter_mut().zip(other.planes.iter()) {
            for (v, &o) in plane.iter_mut().zip(oplane.iter()) {
                *v = f(*v, o);
            }
        }
        Ok(out)
    }

    /// Returns a copy with all samples clamped to `[0, 255]`.
    pub fn clamped(&self) -> Image {
        self.map(|v| v.clamp(0.0, 255.0))
    }

    /// Returns a copy with all samples rounded to the nearest integer and
    /// clamped to `[0, 255]`, i.e. quantised to the 8-bit grid.
    pub fn quantized(&self) -> Image {
        self.map(|v| v.round().clamp(0.0, 255.0))
    }

    /// Converts the image to an 8-bit channel-interleaved buffer (round +
    /// clamp) — the codec wire order.
    pub fn to_u8_vec(&self) -> Vec<u8> {
        let quantize = |v: f64| v.round().clamp(0.0, 255.0) as u8;
        match self.channels {
            Channels::Gray => self.planes[0].iter().map(|&v| quantize(v)).collect(),
            Channels::Rgb => {
                let (r, g, b) = (&self.planes[0], &self.planes[1], &self.planes[2]);
                let mut out = Vec::with_capacity(r.len() * 3);
                for i in 0..r.len() {
                    out.push(quantize(r[i]));
                    out.push(quantize(g[i]));
                    out.push(quantize(b[i]));
                }
                out
            }
        }
    }

    /// Crops a rectangular region.
    ///
    /// # Errors
    ///
    /// Returns [`ImagingError::InvalidParameter`] when the rectangle does not
    /// fit inside the image.
    pub fn crop(&self, rect: Rect) -> Result<Image, ImagingError> {
        if rect.area() == 0 || rect.right() > self.width || rect.bottom() > self.height {
            return Err(ImagingError::InvalidParameter {
                message: format!("crop {rect} outside image {}", self.size()),
            });
        }
        let mut out = Image::zeros(rect.width, rect.height, self.channels);
        for (src, dst) in self.planes.iter().zip(out.planes.iter_mut()) {
            for y in 0..rect.height {
                let src_row = (rect.y + y) * self.width + rect.x;
                dst[y * rect.width..(y + 1) * rect.width]
                    .copy_from_slice(&src[src_row..src_row + rect.width]);
            }
        }
        Ok(out)
    }

    /// Smallest sample value in the image.
    pub fn min_sample(&self) -> f64 {
        self.planes.iter().flat_map(|p| p.iter().copied()).fold(f64::INFINITY, f64::min)
    }

    /// Largest sample value in the image.
    pub fn max_sample(&self) -> f64 {
        self.planes.iter().flat_map(|p| p.iter().copied()).fold(f64::NEG_INFINITY, f64::max)
    }

    /// Mean of all samples. The accumulation runs pixel-major across
    /// channels (`r0 + g0 + b0 + r1 + …`), matching the historical
    /// interleaved order bit-for-bit.
    pub fn mean_sample(&self) -> f64 {
        let n = self.plane_len();
        let sum = match self.channels {
            Channels::Gray => self.planes[0].iter().sum::<f64>(),
            Channels::Rgb => {
                let (r, g, b) = (&self.planes[0], &self.planes[1], &self.planes[2]);
                let mut acc = 0.0;
                for i in 0..n {
                    acc += r[i];
                    acc += g[i];
                    acc += b[i];
                }
                acc
            }
        };
        sum / (n * self.channel_count()) as f64
    }

    /// Whether every sample of `self` is within `tol` of the corresponding
    /// sample of `other`. Images of different shapes are never approximately
    /// equal.
    pub fn approx_eq(&self, other: &Image, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .planes
                .iter()
                .zip(other.planes.iter())
                .all(|(a, b)| a.iter().zip(b.iter()).all(|(x, y)| (x - y).abs() <= tol))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_accessors() {
        let img = Image::zeros(5, 4, Channels::Rgb);
        assert_eq!(img.width(), 5);
        assert_eq!(img.height(), 4);
        assert_eq!(img.channel_count(), 3);
        assert_eq!(img.planes().len(), 3);
        assert_eq!(img.plane(0).len(), 20);
        assert_eq!(img.plane_len(), 20);
        assert_eq!(img.shape(), (5, 4, 3));
    }

    #[test]
    fn try_new_rejects_empty() {
        assert!(Image::try_new(0, 4, Channels::Gray).is_err());
        assert!(Image::try_new(4, 0, Channels::Gray).is_err());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zeros_panics_on_empty() {
        let _ = Image::zeros(0, 1, Channels::Gray);
    }

    #[test]
    fn from_planes_checks_shape() {
        assert!(Image::from_gray_plane(2, 2, vec![0.0; 4]).is_ok());
        assert!(matches!(
            Image::from_gray_plane(2, 2, vec![0.0; 5]),
            Err(ImagingError::BufferSizeMismatch { expected: 4, actual: 5 })
        ));
        assert!(Image::from_planes(2, 2, Channels::Rgb, vec![vec![0.0; 4]; 3]).is_ok());
        assert!(matches!(
            Image::from_planes(2, 2, Channels::Rgb, vec![vec![0.0; 4]; 2]),
            Err(ImagingError::ChannelMismatch { .. })
        ));
    }

    #[test]
    fn interleaved_roundtrip_is_exact() {
        let data: Vec<f64> = (0..24).map(|i| i as f64 * 0.5 - 3.0).collect();
        let img = Image::from_interleaved(4, 2, Channels::Rgb, data.clone()).unwrap();
        assert_eq!(img.to_interleaved(), data);
        assert_eq!(img.plane(0), &[0.0, 1.5, 3.0, 4.5, 6.0, 7.5, 9.0, 10.5].map(|v| v - 3.0));
        let gray: Vec<f64> = (0..6).map(|i| i as f64).collect();
        let gimg = Image::from_interleaved(3, 2, Channels::Gray, gray.clone()).unwrap();
        assert_eq!(gimg.to_interleaved(), gray);
        assert_eq!(gimg.plane(0), gray.as_slice());
    }

    #[test]
    fn from_interleaved_checks_length() {
        assert!(Image::from_interleaved(2, 2, Channels::Gray, vec![0.0; 4]).is_ok());
        assert!(matches!(
            Image::from_interleaved(2, 2, Channels::Gray, vec![0.0; 5]),
            Err(ImagingError::BufferSizeMismatch { expected: 4, actual: 5 })
        ));
        assert!(Image::from_interleaved(2, 2, Channels::Rgb, vec![0.0; 12]).is_ok());
    }

    #[test]
    fn get_set_roundtrip() {
        let mut img = Image::zeros(3, 3, Channels::Rgb);
        img.set(2, 1, 2, 42.5);
        assert_eq!(img.get(2, 1, 2), 42.5);
        assert_eq!(img.get(2, 1, 0), 0.0);
        // Row 1 of a 3-wide plane, column 2.
        assert_eq!(img.plane(2)[3 + 2], 42.5);
    }

    #[test]
    fn from_fn_gray_plane_is_row_major() {
        let img = Image::from_fn_gray(3, 2, |x, y| (10 * y + x) as f64);
        assert_eq!(img.plane(0), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    fn from_fn_rgb_fills_separate_planes() {
        let img = Image::from_fn_rgb(2, 1, |x, _| [x as f64, 10.0, 20.0]);
        assert_eq!(img.plane(0), &[0.0, 1.0]);
        assert_eq!(img.plane(1), &[10.0, 10.0]);
        assert_eq!(img.plane(2), &[20.0, 20.0]);
        assert_eq!(img.to_interleaved(), vec![0.0, 10.0, 20.0, 1.0, 10.0, 20.0]);
    }

    #[test]
    fn get_clamped_replicates_border() {
        let img = Image::from_fn_gray(2, 2, |x, y| (y * 2 + x) as f64);
        assert_eq!(img.get_clamped(-5, 0, 0), 0.0);
        assert_eq!(img.get_clamped(7, 1, 0), 3.0);
        assert_eq!(img.get_clamped(0, -1, 0), 0.0);
        assert_eq!(img.get_clamped(1, 9, 0), 3.0);
    }

    #[test]
    fn channel_image_and_planes_roundtrip() {
        let img =
            Image::from_fn_rgb(3, 2, |x, y| [(x + y) as f64, (x * y) as f64, (x + 2 * y) as f64]);
        let planes: Vec<Vec<f64>> = (0..3).map(|c| img.plane(c).to_vec()).collect();
        let back = Image::from_planes(3, 2, Channels::Rgb, planes).unwrap();
        assert_eq!(back, img);
        let red = img.channel_image(0).unwrap();
        assert_eq!(red.channels(), Channels::Gray);
        assert_eq!(red.plane(0), img.plane(0));
    }

    #[test]
    fn channel_image_rejects_bad_channel() {
        let img = Image::zeros(2, 2, Channels::Gray);
        assert!(img.channel_image(1).is_err());
    }

    #[test]
    fn to_gray_uses_bt601_weights() {
        let img = Image::from_fn_rgb(1, 1, |_, _| [255.0, 0.0, 0.0]);
        let gray = img.to_gray();
        assert!((gray.get(0, 0, 0) - 0.299 * 255.0).abs() < 1e-9);
    }

    #[test]
    fn to_gray_of_gray_is_identity() {
        let img = Image::from_fn_gray(2, 2, |x, _| x as f64);
        assert_eq!(img.to_gray(), img);
    }

    #[test]
    fn luma_borrows_gray_and_computes_rgb() {
        let gray = Image::from_fn_gray(3, 2, |x, y| (x + y) as f64);
        match gray.luma() {
            Cow::Borrowed(p) => assert_eq!(p, gray.plane(0)),
            Cow::Owned(_) => panic!("gray luma must borrow, not copy"),
        }
        let rgb = Image::from_fn_rgb(2, 2, |x, y| [x as f64, y as f64, (x * y) as f64]);
        let luma = rgb.luma();
        assert!(matches!(luma, Cow::Owned(_)));
        assert_eq!(luma.as_ref(), rgb.to_gray().plane(0));
    }

    #[test]
    fn to_rgb_replicates_channel() {
        let img = Image::from_fn_gray(1, 1, |_, _| 7.0);
        let rgb = img.to_rgb();
        assert_eq!(rgb.to_interleaved(), vec![7.0, 7.0, 7.0]);
    }

    #[test]
    fn map_and_zip_map() {
        let a = Image::from_fn_gray(2, 2, |x, y| (x + y) as f64);
        let doubled = a.map(|v| v * 2.0);
        assert_eq!(doubled.get(1, 1, 0), 4.0);
        let sum = a.zip_map(&doubled, |u, v| u + v).unwrap();
        assert_eq!(sum.get(1, 1, 0), 6.0);
    }

    #[test]
    fn zip_map_rejects_shape_mismatch() {
        let a = Image::zeros(2, 2, Channels::Gray);
        let b = Image::zeros(3, 2, Channels::Gray);
        assert!(a.zip_map(&b, |u, _| u).is_err());
        let c = Image::zeros(2, 2, Channels::Rgb);
        assert!(a.zip_map(&c, |u, _| u).is_err());
    }

    #[test]
    fn clamp_and_quantize() {
        let img = Image::from_gray_plane(2, 1, vec![-4.0, 260.7]).unwrap();
        assert_eq!(img.clamped().plane(0), &[0.0, 255.0]);
        let q = Image::from_gray_plane(2, 1, vec![10.4, 10.6]).unwrap().quantized();
        assert_eq!(q.plane(0), &[10.0, 11.0]);
    }

    #[test]
    fn u8_roundtrip() {
        let bytes: Vec<u8> = (0..12).collect();
        let img = Image::from_u8(2, 2, Channels::Rgb, &bytes).unwrap();
        assert_eq!(img.to_u8_vec(), bytes);
    }

    #[test]
    fn crop_extracts_region() {
        let img = Image::from_fn_gray(4, 4, |x, y| (y * 4 + x) as f64);
        let c = img.crop(Rect::new(1, 2, 2, 2)).unwrap();
        assert_eq!(c.plane(0), &[9.0, 10.0, 13.0, 14.0]);
        assert!(img.crop(Rect::new(3, 3, 2, 2)).is_err());
        assert!(img.crop(Rect::new(0, 0, 0, 2)).is_err());
    }

    #[test]
    fn crop_rgb_keeps_planes_aligned() {
        let img = Image::from_fn_rgb(4, 3, |x, y| [x as f64, y as f64, (x + y) as f64]);
        let c = img.crop(Rect::new(1, 1, 2, 2)).unwrap();
        assert_eq!(c.plane(0), &[1.0, 2.0, 1.0, 2.0]);
        assert_eq!(c.plane(1), &[1.0, 1.0, 2.0, 2.0]);
        assert_eq!(c.plane(2), &[2.0, 3.0, 3.0, 4.0]);
    }

    #[test]
    fn sample_statistics() {
        let img = Image::from_gray_plane(3, 1, vec![1.0, 5.0, 3.0]).unwrap();
        assert_eq!(img.min_sample(), 1.0);
        assert_eq!(img.max_sample(), 5.0);
        assert_eq!(img.mean_sample(), 3.0);
        let rgb = Image::from_fn_rgb(2, 1, |x, _| [x as f64, 10.0, 20.0]);
        assert_eq!(rgb.min_sample(), 0.0);
        assert_eq!(rgb.max_sample(), 20.0);
        assert_eq!(rgb.mean_sample(), (0.0 + 10.0 + 20.0 + 1.0 + 10.0 + 20.0) / 6.0);
    }

    #[test]
    fn approx_eq_tolerance_and_shape() {
        let a = Image::filled(2, 2, Channels::Gray, 1.0);
        let b = Image::filled(2, 2, Channels::Gray, 1.05);
        assert!(a.approx_eq(&b, 0.1));
        assert!(!a.approx_eq(&b, 0.01));
        let c = Image::filled(2, 3, Channels::Gray, 1.0);
        assert!(!a.approx_eq(&c, 10.0));
    }

    #[test]
    fn into_planes_returns_buffers() {
        let img = Image::filled(2, 1, Channels::Gray, 9.0);
        assert_eq!(img.into_planes(), vec![vec![9.0, 9.0]]);
        let rgb = Image::filled(2, 1, Channels::Rgb, 3.0);
        let planes = rgb.into_planes();
        assert_eq!(planes.len(), 3);
        assert!(planes.iter().all(|p| p == &vec![3.0, 3.0]));
    }
}
