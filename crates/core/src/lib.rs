//! **Decamouflage** — detection of image-scaling (camouflage) attacks on
//! CNN preprocessing pipelines. Reproduction of Kim et al., *"Decamouflage:
//! A Framework to Detect Image-Scaling Attacks on Convolutional Neural
//! Networks"* (DSN 2021).
//!
//! The framework offers the paper's three independent detection methods,
//! a fourth frequency-domain score and an ensemble. Each `(method, metric)`
//! pair is one [`MethodId`]:
//!
//! | [`MethodId`] | Signal | Score | Attack indication |
//! |---|---|---|---|
//! | [`ScalingMse`](MethodId::ScalingMse), [`ScalingSsim`](MethodId::ScalingSsim) | downscale→upscale round trip | MSE / SSIM | large MSE / small SSIM |
//! | [`FilteringMse`](MethodId::FilteringMse), [`FilteringSsim`](MethodId::FilteringSsim) | minimum-filter residual | MSE / SSIM | large MSE / small SSIM |
//! | [`Csp`](MethodId::Csp) | centered spectrum points | CSP count | `>= 2` points |
//! | [`PeakExcess`](MethodId::PeakExcess) | radial spectrum peak excess | log-magnitude excess | large excess |
//! | [`Ensemble`] | majority vote of the above | — | majority of members vote attack |
//!
//! Each method is registered once in the typed [`MethodId`] registry
//! ([`method`] module); scores travel as a dense, id-indexed
//! [`ScoreVector`] and every layer (calibration, persistence, evaluation,
//! reports) enumerates [`MethodId::ALL`] instead of hardcoded lists.
//!
//! One scoring path serves every layer: [`DetectionEngine`] scores an
//! image with all enabled methods in one pass over shared intermediates.
//! The engine also holds every method's configuration (target, scaler,
//! SSIM window, rank filter, CSP pipeline), and
//! [`DetectionEngine::reference_score`] computes each method naively from
//! that same configuration, the oracle the pass is tested against.
//! [`SteganalysisDetector`] supplies the target-tuned CSP configuration
//! and the universal CSP threshold.
//!
//! Thresholds come from two calibration modes mirroring the paper's threat
//! model: **white-box** ([`threshold::search_whitebox`], labelled
//! benign+attack training scores) and **black-box**
//! ([`threshold::percentile_blackbox`], benign-only percentile;
//! steganalysis needs no calibration at all — `CSP_T = 2` is universal).
//!
//! A labelled corpus is judged one way: each class is scored into
//! per-method columns ([`calibrate::score_class`], streamed), each method
//! is judged by [`evaluate_threshold`] on its columns, and the
//! majority-vote ensemble by [`Ensemble::vote`] on each image's
//! [`ScoreVector`].
//!
//! # Example
//!
//! ```
//! use decamouflage_core::{DetectionEngine, Direction, MethodId, Threshold};
//! use decamouflage_imaging::{Image, Size};
//!
//! # fn main() -> Result<(), decamouflage_core::DetectError> {
//! let engine = DetectionEngine::new(Size::square(16));
//! let benign = Image::from_fn_gray(64, 64, |x, y| (((x + y) * 2) % 200) as f64 + 20.0);
//! let score = engine.score(&benign)?.get(MethodId::ScalingMse);
//! let threshold = Threshold::new(1500.0, Direction::AboveIsAttack);
//! assert!(!threshold.is_attack(score));
//! # Ok(())
//! # }
//! ```

// `deny` rather than `forbid`: the worker pool's fork-join in `parallel`
// carries the documented `#[allow(unsafe_code)]` sites of its scoped-job
// lifetime erasure.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod error;

pub mod calibrate;
pub mod config;
pub mod engine;
pub mod ensemble;
pub mod eval;
pub mod faults;
pub mod method;
pub mod monitor;
pub mod parallel;
pub mod persist;
pub mod prevention;
pub mod report;
pub mod roc;
pub mod scan;
pub mod steganalysis;
pub mod stream;
pub mod threshold;

pub use config::ModelInputSize;
pub use engine::DetectionEngine;
pub use ensemble::{DegradePolicy, Ensemble};
pub use error::{DetectError, ScoreError, ScoreFault};
pub use eval::{evaluate_decisions, evaluate_threshold, ConfusionCounts, EvalMetrics};
pub use method::{MethodId, MethodSet, MetricKind, ScoreColumns, ScoreVector};
pub use persist::checkpoint::{CorpusFingerprint, QuarantineRecord, ScanCheckpoint};
pub use scan::{scan_shard, ScanReport};
pub use steganalysis::SteganalysisDetector;
pub use stream::{
    stable_key_hash, BufferPool, CancelToken, DirectorySource, FnSource, ImageDecoder, ImageSource,
    Pulled, ShardSpec, SliceSource, StreamConfig, StreamSummary,
};
pub use threshold::{Direction, Threshold};
