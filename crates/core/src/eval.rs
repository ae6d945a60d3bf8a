//! Detection-quality evaluation: the five measures reported in every table
//! of the paper (accuracy, precision, recall, FAR, FRR).

use crate::threshold::Threshold;
use crate::DetectError;

/// Confusion-matrix counts with the paper's orientation: *positive* =
/// attack image.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConfusionCounts {
    /// Attack images classified as attacks.
    pub true_positives: usize,
    /// Benign images classified as attacks.
    pub false_positives: usize,
    /// Benign images classified as benign.
    pub true_negatives: usize,
    /// Attack images classified as benign.
    pub false_negatives: usize,
}

impl ConfusionCounts {
    /// Accumulates one decision.
    pub fn record(&mut self, is_attack_truth: bool, flagged_as_attack: bool) {
        match (is_attack_truth, flagged_as_attack) {
            (true, true) => self.true_positives += 1,
            (true, false) => self.false_negatives += 1,
            (false, true) => self.false_positives += 1,
            (false, false) => self.true_negatives += 1,
        }
    }

    /// Total number of recorded decisions.
    pub const fn total(&self) -> usize {
        self.true_positives + self.false_positives + self.true_negatives + self.false_negatives
    }

    /// Derives the five quality measures.
    ///
    /// # Errors
    ///
    /// Returns [`DetectError::InvalidCalibration`] when no decisions were
    /// recorded.
    pub fn metrics(&self) -> Result<EvalMetrics, DetectError> {
        let total = self.total();
        if total == 0 {
            return Err(DetectError::InvalidCalibration {
                message: "no decisions recorded".into(),
            });
        }
        let tp = self.true_positives as f64;
        let fp = self.false_positives as f64;
        let tn = self.true_negatives as f64;
        let fn_ = self.false_negatives as f64;
        let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
        Ok(EvalMetrics {
            accuracy: (tp + tn) / total as f64,
            precision: ratio(tp, tp + fp),
            recall: ratio(tp, tp + fn_),
            far: ratio(fn_, tp + fn_),
            frr: ratio(fp, fp + tn),
        })
    }
}

/// The paper's five detection-quality measures, each in `[0, 1]`.
///
/// * `FAR` (false acceptance rate) — fraction of **attack** images that
///   were accepted as benign (a security failure),
/// * `FRR` (false rejection rate) — fraction of **benign** images that were
///   rejected as attacks (a reliability cost).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalMetrics {
    /// Fraction of correctly classified images.
    pub accuracy: f64,
    /// Of the images flagged as attacks, the fraction that really were.
    pub precision: f64,
    /// Fraction of attack images that were flagged.
    pub recall: f64,
    /// False acceptance rate (missed attacks / all attacks).
    pub far: f64,
    /// False rejection rate (flagged benign / all benign).
    pub frr: f64,
}

/// Evaluates a batch of `(truth, decision)` pairs.
///
/// # Errors
///
/// Returns [`DetectError::InvalidCalibration`] for an empty batch.
pub fn evaluate_decisions(
    decisions: impl IntoIterator<Item = (bool, bool)>,
) -> Result<EvalMetrics, DetectError> {
    let mut counts = ConfusionCounts::default();
    for (truth, flagged) in decisions {
        counts.record(truth, flagged);
    }
    counts.metrics()
}

/// Evaluates a fixed threshold against one method's labelled score
/// columns: every benign score is a negative, every attack score a
/// positive. Borrowed slices let cached experiment columns and calibration
/// [`ScoreColumns`](crate::method::ScoreColumns) feed it without copies.
///
/// # Errors
///
/// Returns [`DetectError::InvalidCalibration`] when both columns are
/// empty.
pub fn evaluate_threshold(
    benign: &[f64],
    attack: &[f64],
    threshold: Threshold,
) -> Result<EvalMetrics, DetectError> {
    let benign = benign.iter().map(|&s| (false, threshold.is_attack(s)));
    let attack = attack.iter().map(|&s| (true, threshold.is_attack(s)));
    evaluate_decisions(benign.chain(attack))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_classifier() {
        let m = evaluate_decisions([(true, true), (false, false), (true, true)]).unwrap();
        assert_eq!(m.accuracy, 1.0);
        assert_eq!(m.precision, 1.0);
        assert_eq!(m.recall, 1.0);
        assert_eq!(m.far, 0.0);
        assert_eq!(m.frr, 0.0);
    }

    #[test]
    fn always_benign_classifier() {
        // 2 attacks + 2 benign, everything accepted.
        let m = evaluate_decisions([(true, false), (true, false), (false, false), (false, false)])
            .unwrap();
        assert_eq!(m.accuracy, 0.5);
        assert_eq!(m.precision, 0.0);
        assert_eq!(m.recall, 0.0);
        assert_eq!(m.far, 1.0);
        assert_eq!(m.frr, 0.0);
    }

    #[test]
    fn always_attack_classifier() {
        let m = evaluate_decisions([(true, true), (false, true)]).unwrap();
        assert_eq!(m.recall, 1.0);
        assert_eq!(m.far, 0.0);
        assert_eq!(m.frr, 1.0);
        assert_eq!(m.precision, 0.5);
    }

    #[test]
    fn mixed_counts() {
        let mut c = ConfusionCounts::default();
        // 8 attacks: 7 caught; 12 benign: 11 accepted.
        for _ in 0..7 {
            c.record(true, true);
        }
        c.record(true, false);
        for _ in 0..11 {
            c.record(false, false);
        }
        c.record(false, true);
        assert_eq!(c.total(), 20);
        let m = c.metrics().unwrap();
        assert!((m.accuracy - 18.0 / 20.0).abs() < 1e-12);
        assert!((m.far - 1.0 / 8.0).abs() < 1e-12);
        assert!((m.frr - 1.0 / 12.0).abs() < 1e-12);
        assert!((m.precision - 7.0 / 8.0).abs() < 1e-12);
        assert!((m.recall - 7.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn empty_batch_is_rejected() {
        assert!(evaluate_decisions(std::iter::empty()).is_err());
        assert!(ConfusionCounts::default().metrics().is_err());
    }

    #[test]
    fn evaluate_threshold_counts_both_sides() {
        use crate::threshold::Direction;
        let t = Threshold::new(7.0, Direction::AboveIsAttack);
        let m = evaluate_threshold(&[1.0, 9.0], &[8.0, 12.0], t).unwrap();
        // benign 9 is flagged (FRR 1/2), attacks both flagged.
        assert!((m.frr - 0.5).abs() < 1e-12);
        assert_eq!(m.far, 0.0);
        assert!(evaluate_threshold(&[], &[], t).is_err());
    }

    #[test]
    fn degenerate_single_class_batches() {
        // Only benign images: precision/recall/FAR degenerate to 0.
        let m = evaluate_decisions([(false, false), (false, false)]).unwrap();
        assert_eq!(m.accuracy, 1.0);
        assert_eq!(m.precision, 0.0);
        assert_eq!(m.recall, 0.0);
        assert_eq!(m.far, 0.0);
    }
}
