//! High-level calibration: stream sample images through the engine and
//! turn every enabled method's score column into a calibrated threshold,
//! without touching score vectors by hand.
//!
//! Two entry points, one per threat model: [`calibrate_whitebox`]
//! (labelled benign + attack samples, optimal threshold search) and
//! [`calibrate_blackbox`] (benign samples only, percentile threshold).
//! Both score through [`score_class`], which streams an arbitrary
//! [`ImageSource`] chunk by chunk, quarantines unusable samples into a
//! ledger instead of aborting, and scores each image once for all methods.
//!
//! ```
//! use decamouflage_core::calibrate::calibrate_whitebox;
//! use decamouflage_core::{DetectionEngine, MethodId, MethodSet, SliceSource, StreamConfig};
//! use decamouflage_imaging::{Image, Size};
//!
//! # fn main() -> Result<(), decamouflage_core::DetectError> {
//! let engine =
//!     DetectionEngine::new(Size::square(8)).with_methods(MethodSet::of(&[MethodId::ScalingMse]));
//! let benign: Vec<Image> =
//!     (0..4).map(|i| Image::from_fn_gray(32, 32, |x, y| ((x + y + i) % 200) as f64)).collect();
//! let attacks: Vec<Image> =
//!     (0..4).map(|i| Image::from_fn_gray(32, 32, |x, y| ((x * y + i * 7) % 256) as f64)).collect();
//! let calibration = calibrate_whitebox(
//!     &engine,
//!     &mut SliceSource::new(&benign),
//!     &mut SliceSource::new(&attacks),
//!     &StreamConfig::default(),
//! )?;
//! assert!(calibration.get(MethodId::ScalingMse).unwrap().train_accuracy > 0.5);
//! # Ok(())
//! # }
//! ```

use crate::engine::DetectionEngine;
use crate::method::{MethodId, ScoreColumns};
use crate::persist::ThresholdSet;
use crate::stream::{ImageSource, StreamConfig};
use crate::threshold::{percentile_blackbox, search_whitebox, Threshold};
use crate::{DetectError, ScoreError};
use std::ops::ControlFlow;

/// One method's calibrated threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MethodCalibration {
    /// The calibrated method.
    pub method: MethodId,
    /// The selected threshold.
    pub threshold: Threshold,
    /// Accuracy over the calibration samples at that threshold (for
    /// black-box calibration: the benign pass rate, `1 - FRR`).
    pub train_accuracy: f64,
}

/// Result of a calibration run: per-method thresholds, the score columns
/// they came from, and the quarantine ledger of the samples that could
/// not be scored.
#[derive(Debug)]
pub struct Calibration {
    /// One entry per enabled engine method, in canonical method order.
    pub methods: Vec<MethodCalibration>,
    /// Scores of the surviving benign samples, per method.
    pub benign_scores: ScoreColumns,
    /// Scores of the surviving attack samples, per method (empty for
    /// black-box calibration).
    pub attack_scores: ScoreColumns,
    /// The quarantine errors of the benign samples, `(sample index, error)`.
    pub benign_quarantined: Vec<(usize, ScoreError)>,
    /// The quarantine errors of the attack samples, `(sample index, error)`.
    pub attack_quarantined: Vec<(usize, ScoreError)>,
}

impl Calibration {
    /// The calibration of one method, if the engine enabled it.
    pub fn get(&self, id: MethodId) -> Option<&MethodCalibration> {
        self.methods.iter().find(|m| m.method == id)
    }

    /// The thresholds as a persistable [`ThresholdSet`].
    pub fn thresholds(&self) -> ThresholdSet {
        self.methods.iter().map(|m| (m.method, m.threshold)).collect()
    }

    /// Total number of quarantined calibration samples. Inspect it before
    /// trusting the thresholds: a heavily quarantined corpus is itself a
    /// signal.
    pub fn quarantined(&self) -> usize {
        self.benign_quarantined.len() + self.attack_quarantined.len()
    }
}

/// Scores one class of a labelled corpus: streams `source` through the
/// engine resiliently ([`DetectionEngine::score_stream`]), survivors
/// accumulate into one-pass per-method score columns, quarantined
/// positions land in the ledger with their stream index. Both calibration
/// modes score through it, and evaluation feeds its columns
/// ([`ScoreColumns::column`]) to
/// [`evaluate_threshold`](crate::eval::evaluate_threshold). `class` names
/// the class in the error message.
///
/// # Errors
///
/// [`DetectError::InvalidCalibration`] when no `class` sample survived.
pub fn score_class(
    engine: &DetectionEngine,
    source: &mut dyn ImageSource,
    config: &StreamConfig,
    class: &str,
) -> Result<(ScoreColumns, Vec<(usize, ScoreError)>), DetectError> {
    let mut columns = ScoreColumns::new(engine.methods());
    let mut quarantined = Vec::new();
    engine.score_stream(source, config, |index, result| {
        match result {
            Ok(scores) => columns.push(&scores),
            Err(err) => quarantined.push((index, err)),
        }
        ControlFlow::Continue(())
    });
    if columns.is_empty() {
        return Err(DetectError::InvalidCalibration {
            message: format!("no {class} sample survived scoring"),
        });
    }
    Ok((columns, quarantined))
}

/// White-box calibration of **every enabled engine method**: both sample
/// streams are scored once per image (chunk by chunk, with bounded
/// memory), the per-method columns accumulate in a single pass, and each
/// method's threshold comes from the accuracy-maximising search over its
/// own columns under its registry direction ([`MethodId::direction`]).
/// Eager callers pass a [`SliceSource`](crate::stream::SliceSource),
/// directories stream through
/// [`DirectorySource`](crate::stream::DirectorySource).
///
/// # Errors
///
/// Returns [`DetectError::InvalidCalibration`] when either class has no
/// surviving samples; propagates threshold-search errors.
pub fn calibrate_whitebox(
    engine: &DetectionEngine,
    benign: &mut dyn ImageSource,
    attacks: &mut dyn ImageSource,
    config: &StreamConfig,
) -> Result<Calibration, DetectError> {
    let (benign_scores, benign_quarantined) = score_class(engine, benign, config, "benign")?;
    let (attack_scores, attack_quarantined) = score_class(engine, attacks, config, "attack")?;
    let methods = engine
        .methods()
        .iter()
        .map(|id| {
            let search = search_whitebox(
                benign_scores.column(id),
                attack_scores.column(id),
                id.direction(),
            )?;
            Ok(MethodCalibration {
                method: id,
                threshold: search.threshold,
                train_accuracy: search.train_accuracy,
            })
        })
        .collect::<Result<_, DetectError>>()?;
    Ok(Calibration {
        methods,
        benign_scores,
        attack_scores,
        benign_quarantined,
        attack_quarantined,
    })
}

/// Black-box calibration of every enabled engine method from benign
/// samples only. Methods carrying a universal threshold
/// ([`MethodId::fixed_blackbox_threshold`] — the paper's `CSP_T = 2`) keep
/// it; every other method gets the `tail_percent` benign percentile under
/// its registry direction. Streams and quarantines like
/// [`calibrate_whitebox`].
///
/// # Errors
///
/// Returns [`DetectError::InvalidCalibration`] when no benign sample
/// survives; propagates percentile errors.
pub fn calibrate_blackbox(
    engine: &DetectionEngine,
    benign: &mut dyn ImageSource,
    tail_percent: f64,
    config: &StreamConfig,
) -> Result<Calibration, DetectError> {
    let (benign_scores, benign_quarantined) = score_class(engine, benign, config, "benign")?;
    let methods = engine
        .methods()
        .iter()
        .map(|id| {
            let column = benign_scores.column(id);
            let threshold = match id.fixed_blackbox_threshold() {
                Some(fixed) => fixed,
                None => percentile_blackbox(column, tail_percent, id.direction())?,
            };
            let rejected = column.iter().filter(|&&s| threshold.is_attack(s)).count();
            let train_accuracy = 1.0 - rejected as f64 / column.len() as f64;
            Ok(MethodCalibration { method: id, threshold, train_accuracy })
        })
        .collect::<Result<_, DetectError>>()?;
    Ok(Calibration {
        methods,
        attack_scores: ScoreColumns::new(engine.methods()),
        benign_scores,
        benign_quarantined,
        attack_quarantined: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::MethodSet;
    use crate::steganalysis::SteganalysisDetector;
    use crate::stream::SliceSource;
    use crate::threshold::Direction;
    use decamouflage_imaging::{Channels, Image, Size};

    fn flats(levels: &[f64]) -> Vec<Image> {
        levels.iter().map(|&v| Image::filled(2, 2, Channels::Gray, v)).collect()
    }

    /// An engine scoring only the test-only mean-intensity method.
    fn mean_engine() -> DetectionEngine {
        DetectionEngine::new(Size::square(2)).with_methods(MethodSet::of(&[MethodId::DummyMean]))
    }

    fn whitebox(
        engine: &DetectionEngine,
        benign: &[Image],
        attacks: &[Image],
    ) -> Result<Calibration, DetectError> {
        calibrate_whitebox(
            engine,
            &mut SliceSource::new(benign),
            &mut SliceSource::new(attacks),
            &StreamConfig::default(),
        )
    }

    fn blackbox(
        engine: &DetectionEngine,
        benign: &[Image],
        tail_percent: f64,
    ) -> Result<Calibration, DetectError> {
        let config = StreamConfig::default();
        calibrate_blackbox(engine, &mut SliceSource::new(benign), tail_percent, &config)
    }

    #[test]
    fn whitebox_separates_flat_levels() {
        let benign = flats(&[10.0, 20.0, 30.0]);
        let attacks = flats(&[200.0, 210.0]);
        let c = whitebox(&mean_engine(), &benign, &attacks).unwrap();
        let mean = c.get(MethodId::DummyMean).unwrap();
        assert_eq!(mean.train_accuracy, 1.0);
        assert!(mean.threshold.value() > 30.0 && mean.threshold.value() <= 200.0);
        assert_eq!(c.benign_scores.column(MethodId::DummyMean), [10.0, 20.0, 30.0]);
        assert_eq!(c.attack_scores.len(), 2);
        assert_eq!(c.thresholds().get(MethodId::DummyMean), Some(mean.threshold));
    }

    #[test]
    fn blackbox_uses_percentile_of_benign() {
        let benign = flats(&(1..=100).map(f64::from).collect::<Vec<_>>());
        let c = blackbox(&mean_engine(), &benign, 2.0).unwrap();
        assert!(c.attack_scores.is_empty());
        let mean = c.get(MethodId::DummyMean).unwrap();
        assert!(mean.threshold.value() > 97.0);
        assert!(mean.train_accuracy >= 0.97);
    }

    #[test]
    fn empty_sets_are_rejected() {
        assert!(whitebox(&mean_engine(), &[], &flats(&[1.0])).is_err());
        assert!(blackbox(&mean_engine(), &[], 1.0).is_err());
        // Even with only a fixed threshold to hand out, no survivors is an
        // error.
        let csp =
            DetectionEngine::new(Size::square(8)).with_methods(MethodSet::of(&[MethodId::Csp]));
        assert!(blackbox(&csp, &[], 1.0).is_err());
    }

    fn scenes(shift: f64, count: usize) -> Vec<Image> {
        (0..count)
            .map(|i| {
                Image::from_fn_gray(24, 24, move |x, y| {
                    (90.0
                        + shift
                        + 50.0 * ((x as f64 + i as f64) * 0.07).sin()
                        + 30.0 * ((y as f64) * 0.05).cos())
                    .round()
                })
            })
            .collect()
    }

    #[test]
    fn engine_whitebox_covers_every_enabled_method() {
        let engine = DetectionEngine::new(Size::square(8));
        let benign = scenes(0.0, 3);
        let attacks: Vec<Image> = scenes(40.0, 3).iter().map(|i| i.map(|v| 255.0 - v)).collect();
        let set = whitebox(&engine, &benign, &attacks).unwrap().thresholds();
        assert_eq!(set.len(), engine.methods().len());
        for id in engine.methods().iter() {
            let t = set.get(id).expect("every enabled method is calibrated");
            assert_eq!(t.direction(), id.direction());
        }
        // The registry's test-only dummy method calibrated too — no
        // calibrate-layer change was needed to include it.
        assert!(set.get(MethodId::DummyMean).is_some());
    }

    #[test]
    fn engine_blackbox_keeps_fixed_csp_threshold() {
        let engine = DetectionEngine::new(Size::square(8));
        let benign = scenes(0.0, 4);
        let set = blackbox(&engine, &benign, 5.0).unwrap().thresholds();
        assert_eq!(set.len(), engine.methods().len());
        assert_eq!(set.get(MethodId::Csp), Some(SteganalysisDetector::universal_threshold()));
        let peak = set.get(MethodId::PeakExcess).unwrap();
        assert_eq!(peak.direction(), Direction::AboveIsAttack);
        assert!(peak.value().is_finite());
    }

    #[test]
    fn whitebox_skips_quarantined_samples() {
        let engine = DetectionEngine::new(Size::square(8));
        let mut benign = scenes(0.0, 3);
        // Poison one benign sample with a NaN pixel.
        benign[1].set(2, 2, 0, f64::NAN);
        let attacks: Vec<Image> = scenes(40.0, 3).iter().map(|i| i.map(|v| 255.0 - v)).collect();

        let resilient = whitebox(&engine, &benign, &attacks).unwrap();
        assert_eq!(resilient.quarantined(), 1);
        assert_eq!(resilient.benign_quarantined[0].0, 1, "sample index is reported");
        assert!(resilient.attack_quarantined.is_empty());

        // The thresholds match a calibration on the clean subset.
        let clean: Vec<Image> = vec![benign[0].clone(), benign[2].clone()];
        let reference = whitebox(&engine, &clean, &attacks).unwrap();
        assert_eq!(resilient.methods, reference.methods);

        // A class with no survivors fails the calibration.
        let mut all_bad = scenes(0.0, 2);
        for image in &mut all_bad {
            image.set(0, 0, 0, f64::NAN);
        }
        let err = whitebox(&engine, &all_bad, &attacks).unwrap_err();
        assert!(err.to_string().contains("no benign sample survived"), "{err}");
        assert!(blackbox(&engine, &all_bad, 5.0).is_err());
    }
}
