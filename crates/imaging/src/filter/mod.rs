//! Spatial filtering.
//!
//! * rank filters ([`minimum_filter`] / [`median_filter`] /
//!   [`maximum_filter`]) — the *minimum filter* is the workhorse of the
//!   paper's filtering-detection method: the embedded target pixels are
//!   local outliers that survive (or dominate) rank filtering, so
//!   comparing the filtered image to the input exposes them.
//! * [`convolve_separable`] — separable convolution with border
//!   replication.
//! * [`gaussian_blur`] — Gaussian blur built on the separable convolution,
//!   used by SSIM and the synthetic dataset generator.

mod conv;
mod gaussian;
mod rank;

pub use conv::{
    convolve_planes_by_row, convolve_planes_with_scratch, convolve_separable,
    convolve_separable_with_scratch, ConvScratch, Kernel1D, PlaneSource,
};
pub use gaussian::{gaussian_blur, gaussian_kernel};
pub use rank::{maximum_filter, median_filter, minimum_filter, rank_filter, RankKind};
