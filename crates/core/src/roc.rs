//! ROC analysis: sweep every threshold and compute the TPR/FPR curve and
//! the area under it.
//!
//! The paper reports point metrics at selected thresholds; the ROC exposes
//! the whole trade-off and gives a threshold-free summary (AUC) used by
//! the sensitivity ablations.

use crate::threshold::Direction;
use crate::DetectError;

/// One operating point of a ROC curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RocPoint {
    /// Decision threshold producing this point.
    pub threshold: f64,
    /// True-positive rate (recall): flagged attacks / all attacks.
    pub tpr: f64,
    /// False-positive rate (FRR): flagged benign / all benign.
    pub fpr: f64,
}

/// A full ROC curve in ascending-FPR order.
#[derive(Debug, Clone, PartialEq)]
pub struct RocCurve {
    /// Operating points including the trivial `(0, 0)` and `(1, 1)` ends.
    pub points: Vec<RocPoint>,
}

impl RocCurve {
    /// Area under the curve via the trapezoid rule, in `[0, 1]`
    /// (1 = perfect separation, 0.5 = chance).
    pub fn auc(&self) -> f64 {
        let mut area = 0.0;
        for pair in self.points.windows(2) {
            let dx = pair[1].fpr - pair[0].fpr;
            area += dx * 0.5 * (pair[0].tpr + pair[1].tpr);
        }
        area
    }
}

/// Computes the ROC curve of a scored corpus.
///
/// # Errors
///
/// Returns [`DetectError::InvalidCalibration`] for empty or NaN-bearing
/// score sets.
pub fn roc_curve(
    benign: &[f64],
    attack: &[f64],
    direction: Direction,
) -> Result<RocCurve, DetectError> {
    if benign.is_empty() || attack.is_empty() {
        return Err(DetectError::InvalidCalibration {
            message: "roc needs both benign and attack scores".into(),
        });
    }
    if benign.iter().chain(attack.iter()).any(|s| s.is_nan()) {
        return Err(DetectError::InvalidCalibration { message: "NaN score".into() });
    }

    // Orient so larger oriented-score = more attack-like.
    let orient = |s: f64| match direction {
        Direction::AboveIsAttack => s,
        Direction::BelowIsAttack => -s,
    };
    let mut all: Vec<f64> = benign.iter().chain(attack.iter()).map(|&s| orient(s)).collect();
    all.sort_by(|a, b| a.partial_cmp(b).expect("validated"));
    all.dedup();

    let b: Vec<f64> = benign.iter().map(|&s| orient(s)).collect();
    let a: Vec<f64> = attack.iter().map(|&s| orient(s)).collect();
    let rate = |scores: &[f64], t: f64| {
        scores.iter().filter(|&&s| s >= t).count() as f64 / scores.len() as f64
    };

    let mut points = Vec::with_capacity(all.len() + 2);
    // Threshold above every score: nothing flagged.
    points.push(RocPoint { threshold: all[all.len() - 1] + 1.0, tpr: 0.0, fpr: 0.0 });
    for &t in all.iter().rev() {
        points.push(RocPoint { threshold: t, tpr: rate(&a, t), fpr: rate(&b, t) });
    }
    // Threshold below every score: everything flagged.
    points.push(RocPoint { threshold: all[0] - 1.0, tpr: 1.0, fpr: 1.0 });
    Ok(RocCurve { points })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn separable_scores_have_auc_one() {
        let curve = roc_curve(&[1.0, 2.0, 3.0], &[10.0, 11.0], Direction::AboveIsAttack).unwrap();
        assert!((curve.auc() - 1.0).abs() < 1e-12, "auc {}", curve.auc());
    }

    #[test]
    fn identical_distributions_have_auc_half() {
        let scores = [1.0, 2.0, 3.0, 4.0];
        let curve = roc_curve(&scores, &scores, Direction::AboveIsAttack).unwrap();
        assert!((curve.auc() - 0.5).abs() < 0.13, "auc {}", curve.auc());
    }

    #[test]
    fn inverted_direction_mirrors_curve() {
        // SSIM-style: benign high, attack low.
        let curve = roc_curve(&[0.9, 0.95, 0.99], &[0.1, 0.2], Direction::BelowIsAttack).unwrap();
        assert!((curve.auc() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn curve_is_monotone_in_fpr_and_tpr() {
        let benign = [1.0, 4.0, 2.0, 8.0, 3.0];
        let attack = [5.0, 9.0, 3.5, 12.0];
        let curve = roc_curve(&benign, &attack, Direction::AboveIsAttack).unwrap();
        for pair in curve.points.windows(2) {
            assert!(pair[1].fpr >= pair[0].fpr - 1e-12);
            assert!(pair[1].tpr >= pair[0].tpr - 1e-12);
        }
    }

    #[test]
    fn endpoints_are_trivial_classifiers() {
        let curve = roc_curve(&[1.0], &[2.0], Direction::AboveIsAttack).unwrap();
        let first = curve.points.first().unwrap();
        let last = curve.points.last().unwrap();
        assert_eq!((first.tpr, first.fpr), (0.0, 0.0));
        assert_eq!((last.tpr, last.fpr), (1.0, 1.0));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(roc_curve(&[], &[1.0], Direction::AboveIsAttack).is_err());
        assert!(roc_curve(&[1.0], &[], Direction::AboveIsAttack).is_err());
        assert!(roc_curve(&[f64::NAN], &[1.0], Direction::AboveIsAttack).is_err());
    }

    #[test]
    fn overlapping_distributions_have_intermediate_auc() {
        let benign = [1.0, 2.0, 3.0, 4.0, 5.0];
        let attack = [3.0, 4.0, 5.0, 6.0, 7.0];
        let auc = roc_curve(&benign, &attack, Direction::AboveIsAttack).unwrap().auc();
        assert!(auc > 0.5 && auc < 1.0, "auc {auc}");
    }
}
