//! Image substrate for the Decamouflage reproduction.
//!
//! This crate provides everything the detection framework and the
//! image-scaling attack need from an imaging library, implemented from
//! scratch:
//!
//! * [`Image`] — an owned raster of `f64` samples (gray or RGB) with the
//!   `[0, 255]` convention of 8-bit imagery,
//! * [`scale`] — resampling kernels (nearest, bilinear, bicubic, area,
//!   Lanczos) with OpenCV-compatible half-pixel-center sampling, exposed both
//!   as direct resize operations and as sparse row/column coefficient
//!   matrices (the form the image-scaling attack consumes),
//! * [`filter`] — rank filters (minimum / median / maximum), separable
//!   convolution and Gaussian blur,
//! * [`codec`] — image containers: PGM/PPM and 24-bit BMP for artefacts,
//!   plus from-scratch PNG (full DEFLATE/zlib inflater underneath) and
//!   baseline JPEG for real-world corpora, with magic-byte sniffing and
//!   `decode_into` variants that fill recycled buffers,
//! * [`draw`] — simple shape rasterisation used by the synthetic dataset
//!   generator,
//! * [`simd`] — the slice primitives the hot kernels share. There is one
//!   build: on x86-64 their AVX kernels compile into it and each call picks
//!   AVX or the scalar loop per CPU, with the same bits either way.
//!
//! # Example
//!
//! ```
//! use decamouflage_imaging::{Image, scale::{resize, ScaleAlgorithm}};
//!
//! # fn main() -> Result<(), decamouflage_imaging::ImagingError> {
//! let img = Image::from_fn_gray(8, 8, |x, y| (x + y) as f64 * 10.0);
//! let small = resize(&img, 4, 4, ScaleAlgorithm::Bilinear)?;
//! assert_eq!((small.width(), small.height()), (4, 4));
//! # Ok(())
//! # }
//! ```

// The crate is unsafe-free except for the AVX kernels, whose `core::arch`
// intrinsics live behind `#[allow(unsafe_code)]` in `simd.rs` (`forbid`
// cannot be locally overridden, hence `deny`).
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod geometry;
mod image;

pub mod codec;
pub mod draw;
pub mod filter;
pub mod scale;
pub mod simd;

pub use error::ImagingError;
pub use geometry::{Rect, Size};
pub use image::{Channels, Image};
