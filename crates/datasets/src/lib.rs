//! Synthetic datasets for the Decamouflage reproduction.
//!
//! The paper calibrates thresholds on the NeurIPS-2017 adversarial
//! competition images and evaluates on Caltech-256. Neither corpus can be
//! redistributed here, so this crate generates *seeded synthetic natural
//! images* with the two statistical properties the detectors rely on:
//! spatial smoothness (benign images survive scaling round trips and rank
//! filtering) and spectral energy concentrated at DC (a single centered
//! spectrum point). Two distinct [`DatasetProfile`]s stand in for the two
//! corpora — different seeds, size mixes and content statistics — so the
//! paper's calibrate-on-A / evaluate-on-B protocol is preserved.
//!
//! Images are generated *on demand* from `(profile seed, sample index)` so
//! thousand-image corpora never need to be resident in memory, and every
//! experiment is reproducible bit-for-bit.
//!
//! # Example
//!
//! ```
//! use decamouflage_datasets::{DatasetProfile, SampleGenerator};
//! use decamouflage_imaging::scale::ScaleAlgorithm;
//!
//! let profile = DatasetProfile::tiny();
//! let gen = SampleGenerator::new(profile, ScaleAlgorithm::Bilinear);
//! let benign = gen.benign(0);
//! let same = gen.benign(0);
//! assert_eq!(benign, same); // deterministic
//! let attack = gen.attack(0).unwrap();
//! assert_eq!(attack.image.size(), benign.size());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod profile;
mod synth;

pub mod backdoor;
pub mod export;

pub use builder::SampleGenerator;
pub use profile::DatasetProfile;
pub use synth::{synthesize, SynthesisParams};
