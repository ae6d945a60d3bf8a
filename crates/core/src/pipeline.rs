//! Experiment pipeline: calibrate and evaluate already-scored corpora in
//! the white-box and black-box modes.
//!
//! Scores come from one engine pass per image
//! ([`DetectionEngine::score_corpus`](crate::DetectionEngine::score_corpus)
//! or [`DetectionEngine::score_stream`](crate::DetectionEngine::score_stream))
//! and are reused here across threshold modes, percentiles and the
//! ensemble — mirroring how the paper's offline calibration amortises
//! work.

use crate::eval::{ConfusionCounts, EvalMetrics};
use crate::threshold::{percentile_blackbox, search_whitebox, Direction, SearchPoint, Threshold};
use crate::DetectError;
use decamouflage_metrics::SampleSummary;

/// Detection scores of one corpus: parallel benign and attack score
/// vectors, aligned by sample index.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredCorpus {
    /// Scores of benign images, by index.
    pub benign: Vec<f64>,
    /// Scores of attack images, by index.
    pub attack: Vec<f64>,
}

impl ScoredCorpus {
    /// Number of `(benign, attack)` pairs.
    pub fn len(&self) -> usize {
        self.benign.len().min(self.attack.len())
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.benign.is_empty() && self.attack.is_empty()
    }

    /// Summary statistics of the benign scores (mean/std columns of the
    /// paper's black-box tables).
    ///
    /// # Errors
    ///
    /// Returns [`DetectError::InvalidCalibration`] for an empty benign set.
    pub fn benign_summary(&self) -> Result<SampleSummary, DetectError> {
        SampleSummary::from_samples(&self.benign)
            .map_err(|e| DetectError::InvalidCalibration { message: e.to_string() })
    }
}

/// Evaluates a fixed threshold against a scored corpus.
///
/// # Errors
///
/// Returns [`DetectError::InvalidCalibration`] for an empty corpus.
pub fn evaluate_threshold(
    corpus: &ScoredCorpus,
    threshold: Threshold,
) -> Result<EvalMetrics, DetectError> {
    let mut counts = ConfusionCounts::default();
    for &s in &corpus.benign {
        counts.record(false, threshold.is_attack(s));
    }
    for &s in &corpus.attack {
        counts.record(true, threshold.is_attack(s));
    }
    counts.metrics()
}

/// Outcome of a white-box experiment: threshold searched on the training
/// corpus, quality measured on the evaluation corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct WhiteboxOutcome {
    /// The selected threshold.
    pub threshold: Threshold,
    /// Accuracy on the training corpus at the selected threshold.
    pub train_accuracy: f64,
    /// Quality on the (unseen) evaluation corpus.
    pub eval: EvalMetrics,
    /// Full accuracy-vs-threshold trace (Figure 7).
    pub trace: Vec<SearchPoint>,
}

/// Runs the white-box protocol: search the optimal threshold on `train`,
/// evaluate on `eval`.
///
/// # Errors
///
/// Propagates calibration failures (empty or NaN score sets).
pub fn run_whitebox(
    train: &ScoredCorpus,
    eval: &ScoredCorpus,
    direction: Direction,
) -> Result<WhiteboxOutcome, DetectError> {
    let search = search_whitebox(&train.benign, &train.attack, direction)?;
    let metrics = evaluate_threshold(eval, search.threshold)?;
    Ok(WhiteboxOutcome {
        threshold: search.threshold,
        train_accuracy: search.train_accuracy,
        eval: metrics,
        trace: search.trace,
    })
}

/// Outcome of a black-box experiment at one percentile.
#[derive(Debug, Clone, PartialEq)]
pub struct BlackboxOutcome {
    /// The tail percentile used (1, 2 or 3 in the paper).
    pub tail_percent: f64,
    /// The percentile threshold derived from benign training scores.
    pub threshold: Threshold,
    /// Quality on the evaluation corpus.
    pub eval: EvalMetrics,
}

/// Runs the black-box protocol: derive a percentile threshold from the
/// *benign* training scores only, evaluate on `eval`.
///
/// # Errors
///
/// Propagates calibration failures.
pub fn run_blackbox(
    train_benign: &[f64],
    eval: &ScoredCorpus,
    tail_percent: f64,
    direction: Direction,
) -> Result<BlackboxOutcome, DetectError> {
    let threshold = percentile_blackbox(train_benign, tail_percent, direction)?;
    let metrics = evaluate_threshold(eval, threshold)?;
    Ok(BlackboxOutcome { tail_percent, threshold, eval: metrics })
}

/// Evaluates a majority-vote ensemble from per-detector scored corpora and
/// their calibrated thresholds. All corpora must be index-aligned (sample
/// `i` is the same image in every member's corpus).
///
/// # Errors
///
/// Returns [`DetectError::InvalidConfig`] for an empty member list or
/// misaligned corpora.
pub fn evaluate_ensemble(
    members: &[(&ScoredCorpus, Threshold)],
) -> Result<EvalMetrics, DetectError> {
    if members.is_empty() {
        return Err(DetectError::InvalidConfig { message: "ensemble has no members".into() });
    }
    let n_benign = members[0].0.benign.len();
    let n_attack = members[0].0.attack.len();
    for (corpus, _) in members {
        if corpus.benign.len() != n_benign || corpus.attack.len() != n_attack {
            return Err(DetectError::InvalidConfig {
                message: "ensemble member corpora are misaligned".into(),
            });
        }
    }
    let majority = |index: usize, attack_side: bool| {
        let votes = members
            .iter()
            .filter(|(corpus, threshold)| {
                let s = if attack_side { corpus.attack[index] } else { corpus.benign[index] };
                threshold.is_attack(s)
            })
            .count();
        2 * votes > members.len()
    };
    let mut counts = ConfusionCounts::default();
    for i in 0..n_benign {
        counts.record(false, majority(i, false));
    }
    for i in 0..n_attack {
        counts.record(true, majority(i, true));
    }
    counts.metrics()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus(benign: &[f64], attack: &[f64]) -> ScoredCorpus {
        ScoredCorpus { benign: benign.to_vec(), attack: attack.to_vec() }
    }

    #[test]
    fn whitebox_transfers_threshold_to_eval() {
        let train = corpus(&[1.0, 2.0, 3.0], &[10.0, 11.0, 12.0]);
        let eval = corpus(&[1.5, 2.5], &[9.5, 13.0]);
        let out = run_whitebox(&train, &eval, Direction::AboveIsAttack).unwrap();
        assert_eq!(out.train_accuracy, 1.0);
        assert_eq!(out.eval.accuracy, 1.0);
        assert!(!out.trace.is_empty());
    }

    #[test]
    fn whitebox_reports_imperfect_eval() {
        let train = corpus(&[1.0, 2.0], &[10.0, 11.0]);
        // One eval attack sits below the threshold: FAR 50%.
        let eval = corpus(&[1.0], &[2.0, 12.0]);
        let out = run_whitebox(&train, &eval, Direction::AboveIsAttack).unwrap();
        assert!((out.eval.far - 0.5).abs() < 1e-12);
    }

    #[test]
    fn blackbox_uses_benign_tail() {
        let train_benign: Vec<f64> = (1..=100).map(f64::from).collect();
        let eval = corpus(&[50.0, 98.0], &[150.0, 200.0]);
        let out = run_blackbox(&train_benign, &eval, 1.0, Direction::AboveIsAttack).unwrap();
        assert_eq!(out.eval.accuracy, 1.0);
        assert!((out.tail_percent - 1.0).abs() < 1e-12);
    }

    #[test]
    fn evaluate_threshold_counts_both_sides() {
        let c = corpus(&[1.0, 9.0], &[8.0, 12.0]);
        let m = evaluate_threshold(&c, Threshold::new(7.0, Direction::AboveIsAttack)).unwrap();
        // benign 9 is flagged (FRR 1/2), attacks both flagged.
        assert!((m.frr - 0.5).abs() < 1e-12);
        assert_eq!(m.far, 0.0);
    }

    #[test]
    fn ensemble_majority_beats_single_bad_member() {
        let good1 = corpus(&[1.0, 1.0], &[10.0, 10.0]);
        let good2 = corpus(&[2.0, 2.0], &[9.0, 9.0]);
        let bad = corpus(&[8.0, 8.0], &[1.0, 1.0]); // inverted detector
        let t = Threshold::new(5.0, Direction::AboveIsAttack);
        let m = evaluate_ensemble(&[(&good1, t), (&good2, t), (&bad, t)]).unwrap();
        assert_eq!(m.accuracy, 1.0);
    }

    #[test]
    fn ensemble_validates_members() {
        assert!(evaluate_ensemble(&[]).is_err());
        let a = corpus(&[1.0], &[2.0]);
        let b = corpus(&[1.0, 2.0], &[2.0]);
        let t = Threshold::new(5.0, Direction::AboveIsAttack);
        assert!(evaluate_ensemble(&[(&a, t), (&b, t)]).is_err());
    }

    #[test]
    fn benign_summary_reports_mean_and_std() {
        let c = corpus(&[1.0, 2.0, 3.0], &[]);
        let s = c.benign_summary().unwrap();
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.count, 3);
    }
}
