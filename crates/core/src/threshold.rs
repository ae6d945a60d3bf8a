//! Threshold types and the two calibration modes of the paper.
//!
//! * **White-box** ([`search_whitebox`]): with labelled benign and attack
//!   scores available, scan every decision boundary between adjacent sorted
//!   scores and keep the accuracy-maximising one. This finds the exact
//!   optimum that the paper's iterative "gradient descent" search converges
//!   to, and exposes the full accuracy-vs-threshold trace for Figure 7.
//! * **Black-box** ([`percentile_blackbox`]): with only benign scores
//!   available, place the threshold at a tail percentile of the benign
//!   distribution (the paper evaluates 1%, 2% and 3%).

use crate::DetectError;
use decamouflage_metrics::percentile;

/// Which side of the threshold is classified as an attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Scores `>=` the threshold are attacks (MSE-like metrics, CSP).
    AboveIsAttack,
    /// Scores `<=` the threshold are attacks (SSIM-like similarities).
    BelowIsAttack,
}

/// A calibrated decision threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Threshold {
    value: f64,
    direction: Direction,
}

impl Threshold {
    /// Creates a threshold.
    pub const fn new(value: f64, direction: Direction) -> Self {
        Self { value, direction }
    }

    /// The numeric boundary.
    pub const fn value(&self) -> f64 {
        self.value
    }

    /// The decision direction.
    pub const fn direction(&self) -> Direction {
        self.direction
    }

    /// Classifies a score.
    pub fn is_attack(&self, score: f64) -> bool {
        match self.direction {
            Direction::AboveIsAttack => score >= self.value,
            Direction::BelowIsAttack => score <= self.value,
        }
    }
}

/// One point of the white-box threshold-search trace (Figure 7).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchPoint {
    /// Candidate threshold value.
    pub threshold: f64,
    /// Classification accuracy over the training scores at this candidate.
    pub accuracy: f64,
}

/// Outcome of a white-box threshold search.
#[derive(Debug, Clone, PartialEq)]
pub struct WhiteboxSearch {
    /// The accuracy-maximising threshold.
    pub threshold: Threshold,
    /// Training accuracy achieved at [`WhiteboxSearch::threshold`].
    pub train_accuracy: f64,
    /// The full candidate trace in ascending threshold order.
    pub trace: Vec<SearchPoint>,
}

/// White-box calibration: exhaustively evaluates every boundary between
/// adjacent scores (benign ∪ attack, sorted) and returns the
/// accuracy-maximising midpoint.
///
/// # Errors
///
/// Returns [`DetectError::InvalidCalibration`] when either score set is
/// empty or contains NaN.
pub fn search_whitebox(
    benign_scores: &[f64],
    attack_scores: &[f64],
    direction: Direction,
) -> Result<WhiteboxSearch, DetectError> {
    validate_scores(benign_scores, "benign")?;
    validate_scores(attack_scores, "attack")?;

    let mut all: Vec<f64> = benign_scores.iter().chain(attack_scores.iter()).copied().collect();
    all.sort_by(|a, b| a.partial_cmp(b).expect("validated non-NaN"));
    all.dedup();

    // Candidate boundaries: midpoints of adjacent distinct scores, plus one
    // candidate below the minimum and one above the maximum.
    let mut candidates = Vec::with_capacity(all.len() + 1);
    candidates.push(all[0] - 1.0);
    for pair in all.windows(2) {
        candidates.push(0.5 * (pair[0] + pair[1]));
    }
    candidates.push(all[all.len() - 1] + 1.0);

    let total = (benign_scores.len() + attack_scores.len()) as f64;
    let mut trace = Vec::with_capacity(candidates.len());
    let mut best = SearchPoint { threshold: candidates[0], accuracy: -1.0 };
    for &c in &candidates {
        let t = Threshold::new(c, direction);
        let correct = attack_scores.iter().filter(|&&s| t.is_attack(s)).count()
            + benign_scores.iter().filter(|&&s| !t.is_attack(s)).count();
        let accuracy = correct as f64 / total;
        trace.push(SearchPoint { threshold: c, accuracy });
        if accuracy > best.accuracy {
            best = SearchPoint { threshold: c, accuracy };
        }
    }

    Ok(WhiteboxSearch {
        threshold: Threshold::new(best.threshold, direction),
        train_accuracy: best.accuracy,
        trace,
    })
}

/// Black-box calibration: the threshold is the `tail_percent` tail of the
/// *benign* score distribution on the attack side.
///
/// For [`Direction::AboveIsAttack`] the threshold is the
/// `(100 − tail_percent)`-th percentile; for
/// [`Direction::BelowIsAttack`] the `tail_percent`-th percentile. By
/// construction roughly `tail_percent` percent of benign training images
/// fall on the attack side (the FRR the paper trades for a usable FAR).
///
/// # Errors
///
/// Returns [`DetectError::InvalidCalibration`] for an empty or NaN-bearing
/// score set or a `tail_percent` outside `(0, 50]`.
pub fn percentile_blackbox(
    benign_scores: &[f64],
    tail_percent: f64,
    direction: Direction,
) -> Result<Threshold, DetectError> {
    validate_scores(benign_scores, "benign")?;
    if !(tail_percent > 0.0 && tail_percent <= 50.0) {
        return Err(DetectError::InvalidCalibration {
            message: format!("tail percent must be in (0, 50], got {tail_percent}"),
        });
    }
    let p = match direction {
        Direction::AboveIsAttack => 100.0 - tail_percent,
        Direction::BelowIsAttack => tail_percent,
    };
    let value = percentile(benign_scores, p)?;
    Ok(Threshold::new(value, direction))
}

fn validate_scores(scores: &[f64], label: &str) -> Result<(), DetectError> {
    if scores.is_empty() {
        return Err(DetectError::InvalidCalibration {
            message: format!("{label} score set is empty"),
        });
    }
    if scores.iter().any(|s| s.is_nan()) {
        return Err(DetectError::InvalidCalibration {
            message: format!("{label} score set contains NaN"),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_decisions_above() {
        let t = Threshold::new(10.0, Direction::AboveIsAttack);
        assert!(t.is_attack(10.0));
        assert!(t.is_attack(11.0));
        assert!(!t.is_attack(9.9));
    }

    #[test]
    fn threshold_decisions_below() {
        let t = Threshold::new(0.5, Direction::BelowIsAttack);
        assert!(t.is_attack(0.5));
        assert!(t.is_attack(0.1));
        assert!(!t.is_attack(0.6));
        assert_eq!(t.value(), 0.5);
        assert_eq!(t.direction(), Direction::BelowIsAttack);
    }

    #[test]
    fn whitebox_separable_scores_reach_perfect_accuracy() {
        let benign = [1.0, 2.0, 3.0];
        let attack = [10.0, 11.0, 12.0];
        let result = search_whitebox(&benign, &attack, Direction::AboveIsAttack).unwrap();
        assert_eq!(result.train_accuracy, 1.0);
        let t = result.threshold.value();
        assert!(t > 3.0 && t <= 10.0, "threshold {t}");
    }

    #[test]
    fn whitebox_below_direction() {
        let benign = [0.9, 0.95, 0.99]; // SSIM-like: benign high
        let attack = [0.1, 0.2, 0.3];
        let result = search_whitebox(&benign, &attack, Direction::BelowIsAttack).unwrap();
        assert_eq!(result.train_accuracy, 1.0);
        let t = result.threshold.value();
        assert!((0.3..0.9).contains(&t), "threshold {t}");
    }

    #[test]
    fn whitebox_overlapping_scores_maximise_accuracy() {
        let benign = [1.0, 2.0, 3.0, 8.0]; // one benign outlier
        let attack = [5.0, 6.0, 7.0, 9.0];
        let result = search_whitebox(&benign, &attack, Direction::AboveIsAttack).unwrap();
        // Best split at 3.5..5: 7 of 8 correct.
        assert!((result.train_accuracy - 7.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn whitebox_trace_is_ascending_and_covers_extremes() {
        let benign = [1.0, 2.0];
        let attack = [4.0, 5.0];
        let result = search_whitebox(&benign, &attack, Direction::AboveIsAttack).unwrap();
        for pair in result.trace.windows(2) {
            assert!(pair[0].threshold < pair[1].threshold);
        }
        // Extreme candidates classify everything one way: accuracy 0.5.
        assert_eq!(result.trace.first().unwrap().accuracy, 0.5);
        assert_eq!(result.trace.last().unwrap().accuracy, 0.5);
    }

    #[test]
    fn whitebox_rejects_bad_input() {
        assert!(search_whitebox(&[], &[1.0], Direction::AboveIsAttack).is_err());
        assert!(search_whitebox(&[1.0], &[], Direction::AboveIsAttack).is_err());
        assert!(search_whitebox(&[f64::NAN], &[1.0], Direction::AboveIsAttack).is_err());
    }

    #[test]
    fn blackbox_above_uses_upper_tail() {
        let benign: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = percentile_blackbox(&benign, 1.0, Direction::AboveIsAttack).unwrap();
        // 99th percentile of 1..=100 ~ 99.01.
        assert!(t.value() > 98.9 && t.value() < 99.2, "{}", t.value());
        // Roughly 1% of benign scores land on the attack side.
        let frr = benign.iter().filter(|&&s| t.is_attack(s)).count();
        assert!(frr <= 2);
    }

    #[test]
    fn blackbox_below_uses_lower_tail() {
        let benign: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = percentile_blackbox(&benign, 2.0, Direction::BelowIsAttack).unwrap();
        assert!(t.value() > 2.5 && t.value() < 3.5, "{}", t.value());
    }

    #[test]
    fn blackbox_rejects_bad_percent() {
        let benign = [1.0, 2.0];
        assert!(percentile_blackbox(&benign, 0.0, Direction::AboveIsAttack).is_err());
        assert!(percentile_blackbox(&benign, 51.0, Direction::AboveIsAttack).is_err());
        assert!(percentile_blackbox(&[], 1.0, Direction::AboveIsAttack).is_err());
    }

    #[test]
    fn larger_tail_percent_moves_threshold_inward() {
        let benign: Vec<f64> = (1..=1000).map(|i| i as f64 / 10.0).collect();
        let t1 = percentile_blackbox(&benign, 1.0, Direction::AboveIsAttack).unwrap();
        let t3 = percentile_blackbox(&benign, 3.0, Direction::AboveIsAttack).unwrap();
        assert!(t3.value() < t1.value());
    }
}
