//! Order statistics for run summaries and latency samples.

/// Quartiles `[q1, median, q3]`, computed exactly like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so a summary printed here matches one computed from the same numbers
/// elsewhere. A single value is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len();
    if len == 1 {
        return [sorted[0]; 3];
    }
    let m = len + 1;
    std::array::from_fn(|k| {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        // Negative for tiny samples, where Python extrapolates too.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    })
}

/// The median (the middle quartile).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// The arithmetic mean; `0.0` for no values.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Candidate tail percentiles, highest first.
const TAIL_PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// A reported tail percentile: which one, its value, and the sample count
/// it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `95.0`.
    pub percentile: f64,
    /// The nearest-rank value at that percentile.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

impl Tail {
    /// `p95 of 212 samples`.
    pub fn describe(&self) -> String {
        format!("p{} of {} samples", self.percentile, self.samples)
    }
}

/// The highest percentile that has at least ten samples beyond it
/// (nearest rank), so a reported tail always rests on ten observations.
/// With fewer than 20 samples no percentile qualifies and the median is
/// returned. `None` for no samples.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = |p: f64| nearest_rank(p, n);
    let percentile = TAIL_PERCENTILES.into_iter().find(|&p| n - rank(p) >= 10).unwrap_or(50.0);
    Some(Tail { percentile, value: sorted[rank(percentile) - 1], samples: n })
}

/// The nearest-rank `p`-th percentile; `0.0` for no values.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n => sorted[nearest_rank(p, n) - 1],
    }
}

/// The 1-based nearest rank of the `p`-th percentile of `n` values; the
/// epsilon keeps e.g. `99.9% of 10000` at exactly rank 9990.
fn nearest_rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), [1.25, 2.5, 3.75]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=200).map(f64::from).collect();
        let tail200 = tail(&values).unwrap();
        assert_eq!((tail200.percentile, tail200.value, tail200.samples), (95.0, 190.0, 200));
        assert_eq!(tail200.describe(), "p95 of 200 samples");

        // One sample fewer leaves only nine beyond p95: fall back to p90.
        let tail199 = tail(&values[..199]).unwrap();
        assert_eq!((tail199.percentile, tail199.value), (90.0, 180.0));

        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&values).unwrap().percentile, 99.0);
        let values: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&values).unwrap().percentile, 99.9);

        // Too few samples for any tail: the median, with its count.
        let small = tail(&[5.0, 1.0, 3.0]).unwrap();
        assert_eq!((small.percentile, small.value, small.samples), (50.0, 3.0, 3));
        assert!(tail(&[]).is_none());
    }

    #[test]
    fn nearest_rank_percentile() {
        let values: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&values, 95.0), 19.0);
        assert_eq!(percentile(&values, 100.0), 20.0);
        assert_eq!(percentile(&[], 95.0), 0.0);
    }
}
