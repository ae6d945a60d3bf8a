//! # Decamouflage
//!
//! A from-scratch Rust reproduction of *"Decamouflage: A Framework to
//! Detect Image-Scaling Attacks on Convolutional Neural Networks"*
//! (Kim et al., DSN 2021).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`imaging`] — image buffers, OpenCV-compatible scalers, rank filters,
//!   codecs, drawing,
//! * [`spectral`] — FFT, centred spectra, connected components, CSP,
//! * [`metrics`] — MSE, SSIM, PSNR, colour histograms, statistics,
//! * [`attack`] — the Xiao et al. image-scaling attack (QP crafting,
//!   verification, adaptive variants),
//! * [`datasets`] — seeded synthetic corpora standing in for the paper's
//!   datasets,
//! * [`detection`] — the Decamouflage framework itself: the detection
//!   engine scoring all three methods in one pass, threshold calibration,
//!   the majority-vote ensemble, per-method evaluation
//!   ([`detection::evaluate_threshold`]),
//! * [`telemetry`] — dependency-free metrics: counters, gauges, latency
//!   histograms, RAII stage timers, deterministic Prometheus/JSON export,
//! * [`serve`] — detection-as-a-service: an overload-safe,
//!   deadline-bounded HTTP server over the engine.
//!
//! # Quickstart
//!
//! ```
//! use decamouflage::detection::ensemble::{DegradePolicy, Ensemble};
//! use decamouflage::detection::persist::ThresholdSet;
//! use decamouflage::detection::{Direction, MethodId, SteganalysisDetector, Threshold};
//! use decamouflage::imaging::{Image, Size};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Calibrated thresholds for the paper's three methods; the
//! // steganalysis threshold is universal and needs no calibration.
//! let thresholds: ThresholdSet = [
//!     (MethodId::ScalingMse, Threshold::new(400.0, Direction::AboveIsAttack)),
//!     (MethodId::FilteringSsim, Threshold::new(0.55, Direction::BelowIsAttack)),
//!     (MethodId::Csp, SteganalysisDetector::universal_threshold()),
//! ]
//! .into_iter()
//! .collect();
//! // The majority-vote ensemble for a 16x16 CNN input: one engine pass
//! // scores all three methods, then the members vote.
//! let ensemble = Ensemble::paper(Size::square(16), &thresholds, DegradePolicy::Strict)?;
//! let image = Image::from_fn_gray(64, 64, |x, y| ((x + y) % 200) as f64 + 20.0);
//! let decision = ensemble.decide(&image)?;
//! assert_eq!(decision.votes.len(), 3);
//! assert!(ensemble.engine().score(&image)?.csp() >= 1.0);
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for end-to-end scenarios (attack crafting, online
//! detection, data-poisoning triage, adaptive attacks) and the
//! `decamouflage-bench` crate for the per-table reproduction harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use decamouflage_attack as attack;
pub use decamouflage_core as detection;
pub use decamouflage_datasets as datasets;
pub use decamouflage_imaging as imaging;
pub use decamouflage_metrics as metrics;
pub use decamouflage_serve as serve;
pub use decamouflage_spectral as spectral;
pub use decamouflage_telemetry as telemetry;
