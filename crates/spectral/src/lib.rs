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
//! The radix-2 and mixed-radix butterflies have AVX kernels. There is one
//! build: on x86-64 they compile into it and run when the CPU has AVX, with
//! the scalar loops as the fallback, and both give the same bits.
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

// The crate is safe code except for the AVX butterflies, which need
// `core::arch` intrinsics; `deny` (not `forbid`) lets exactly those audited
// blocks opt in via `#[allow]`.
#![deny(unsafe_code)]
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

/// Whether the AVX butterflies run on this CPU: the one run-time choice
/// every dispatch site in this crate makes.
#[cfg(target_arch = "x86_64")]
#[inline]
pub(crate) fn use_avx() -> bool {
    #[cfg(test)]
    if lanes::SCALAR_ONLY.get() {
        return false;
    }
    std::arch::is_x86_feature_detected!("avx")
}

/// Test support: runs one computation on each lane of the dispatch.
#[cfg(test)]
pub(crate) mod lanes {
    use crate::Complex64;
    use std::cell::Cell;

    thread_local! {
        /// Set while [`scalar_and_avx`] runs its scalar pass: every
        /// dispatch on this thread then takes its scalar loop.
        pub(crate) static SCALAR_ONLY: Cell<bool> = const { Cell::new(false) };
    }

    /// Runs `run` with every butterfly on its scalar loop, then again on
    /// the AVX kernels, and returns both results. The AVX result is `None`,
    /// with a note on stderr, on a CPU without AVX.
    pub(crate) fn scalar_and_avx<T>(mut run: impl FnMut() -> T) -> (T, Option<T>) {
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

    /// Asserts the two lanes' outputs equal bit for bit.
    pub(crate) fn assert_agree(scalar: &[Complex64], avx: Option<&[Complex64]>, case: &str) {
        let Some(avx) = avx else { return };
        assert_eq!(scalar.len(), avx.len(), "{case}");
        for (i, (s, a)) in scalar.iter().zip(avx).enumerate() {
            assert!(
                s.re.to_bits() == a.re.to_bits() && s.im.to_bits() == a.im.to_bits(),
                "{case} element {i}: scalar {s} vs avx {a}"
            );
        }
    }
}
