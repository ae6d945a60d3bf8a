//! Image-similarity metrics and summary statistics for the Decamouflage
//! reproduction.
//!
//! The paper identifies **MSE** and **SSIM** as the metrics that separate
//! benign from attack images in the scaling- and filtering-detection
//! methods, shows that **PSNR** does *not* separate them (Appendix A), and
//! notes that the colour-histogram similarity originally proposed by Xiao
//! et al. is not a valid detection metric either (§3.1). All four are
//! implemented here so the framework can both use the good metrics and
//! reproduce the negative results.
//!
//! # Example
//!
//! ```
//! use decamouflage_imaging::Image;
//! use decamouflage_metrics::{mse, ssim, SsimConfig};
//!
//! # fn main() -> Result<(), decamouflage_metrics::MetricError> {
//! let a = Image::from_fn_gray(16, 16, |x, y| (x * y) as f64);
//! assert_eq!(mse(&a, &a)?, 0.0);
//! assert!((ssim(&a, &a, &SsimConfig::default())? - 1.0).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod colorhist;
mod error;
mod histogram;
mod mse;
mod ssim;
mod stats;

pub use colorhist::{color_histogram, histogram_intersection, ColorHistogram};
pub use error::MetricError;
pub use histogram::{Histogram, HistogramBin};
pub use mse::{mae, max_abs_diff, mse, psnr};
pub use ssim::{ssim, ssim_map, SsimConfig, SsimReference};
pub use stats::{percentile, OnlineStats, SampleSummary};
