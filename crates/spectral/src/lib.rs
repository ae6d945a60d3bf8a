//! Frequency-domain substrate for the Decamouflage reproduction.
//!
//! Implements, from scratch, everything the paper's *steganalysis detection*
//! method needs:
//!
//! * [`Complex64`] — minimal complex arithmetic,
//! * [`fft`] — iterative radix-2 Cooley–Tukey, [`mixed_radix`] Cooley–Tukey
//!   for smooth composite lengths, and Bluestein's chirp-z transform for the
//!   rest, all behind per-length plan caches,
//! * [`dft2d`] — 2-D forward/inverse transforms (two real rows packed per
//!   complex FFT; mixed-radix columns transformed in place, four at a
//!   time), `fftshift` and the log-magnitude *centered spectrum*,
//! * [`spectrum`] — low-pass masking and binarisation of centred spectra,
//! * [`components`] — connected-component labelling (the contour counting of
//!   the paper),
//! * [`csp`] — the end-to-end *centered spectrum points* counter, and the
//!   ln-free one the detection engine runs on a planned spectrum,
//! * [`window`] / [`radial`] — apodisation and radially averaged profiles
//!   for the sensitivity ablations and the peak-excess extension detector.
//!
//! # Example
//!
//! ```
//! use decamouflage_imaging::Image;
//! use decamouflage_spectral::csp::{count_csp, CspConfig};
//!
//! // A smooth benign image concentrates spectral energy at the centre:
//! // exactly one centered spectrum point.
//! let img = Image::from_fn_gray(64, 64, |x, y| {
//!     128.0 + 80.0 * ((x as f64) * 0.05).sin() * ((y as f64) * 0.05).cos()
//! });
//! let report = count_csp(&img, &CspConfig::default());
//! assert_eq!(report.count, 1);
//! ```

// Without the `simd` feature the crate is entirely safe code. With it, the
// explicit AVX butterfly path needs `core::arch` intrinsics; `deny` (not
// `forbid`) lets exactly those audited blocks opt in via `#[allow]`.
#![cfg_attr(not(feature = "simd"), forbid(unsafe_code))]
#![cfg_attr(feature = "simd", deny(unsafe_code))]
#![warn(missing_docs)]

mod complex;

pub mod components;
pub mod csp;
pub mod dft2d;
pub mod fft;
pub mod mixed_radix;
pub mod radial;
pub mod spectrum;
pub mod window;

pub use complex::Complex64;
