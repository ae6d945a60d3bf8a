//! Reproduction harness for the Decamouflage paper.
//!
//! Everything needed to regenerate the paper's tables and figures lives
//! here, behind the `repro` binary (one subcommand per artefact; `table7`
//! is the run-time overhead table). The crate's other programs are the
//! perf ledger `stage_profile` and the service load test `loadgen`.
//!
//! The harness scores each corpus **once** per detector — all experiments
//! (white-box, black-box percentiles, ensemble, figures) reuse the cached
//! score vectors, mirroring the paper's offline calibration.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod experiments;
pub mod runtime;

pub use corpus::{ExperimentContext, HarnessConfig, MixedAttackGenerator, ScoreSet};
