//! Fixed-width histograms, used to reproduce the paper's distribution
//! figures (Figures 8–12, 15, 16) as printable series.

use decamouflage_metrics::MetricError;

/// One histogram bin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramBin {
    /// Inclusive lower edge.
    pub lo: f64,
    /// Exclusive upper edge (inclusive for the last bin).
    pub hi: f64,
    /// Number of samples in the bin.
    pub count: usize,
}

impl HistogramBin {
    /// Midpoint of the bin.
    pub fn center(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }
}

/// A fixed-width histogram over a closed range.
///
/// # Example
///
/// ```
/// use decamouflage_bench::histogram::Histogram;
///
/// # fn main() -> Result<(), decamouflage_metrics::MetricError> {
/// let h = Histogram::from_samples(&[0.0, 0.2, 0.4, 0.9, 1.0], 5, Some((0.0, 1.0)))?;
/// assert_eq!(h.bins().len(), 5);
/// assert_eq!(h.total(), 5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<usize>,
}

impl Histogram {
    /// Builds a histogram of `samples` with `bins` equal-width bins.
    ///
    /// When `range` is `None` the sample min/max define the range (widened
    /// infinitesimally for a degenerate single-value set).
    ///
    /// # Errors
    ///
    /// Returns [`MetricError::InvalidParameter`] for zero bins, an empty
    /// sample set, NaN samples or an inverted explicit range.
    pub fn from_samples(
        samples: &[f64],
        bins: usize,
        range: Option<(f64, f64)>,
    ) -> Result<Self, MetricError> {
        if bins == 0 {
            return Err(MetricError::InvalidParameter { message: "zero histogram bins".into() });
        }
        if samples.is_empty() {
            return Err(MetricError::InvalidParameter { message: "empty sample set".into() });
        }
        if samples.iter().any(|v| v.is_nan()) {
            return Err(MetricError::InvalidParameter { message: "NaN sample".into() });
        }
        let (lo, mut hi) = range.unwrap_or_else(|| {
            (
                samples.iter().copied().fold(f64::INFINITY, f64::min),
                samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            )
        });
        if lo > hi {
            return Err(MetricError::InvalidParameter {
                message: format!("inverted range [{lo}, {hi}]"),
            });
        }
        if lo == hi {
            // Degenerate range: widen so every sample falls into bin 0.
            hi = lo + 1.0;
        }
        let mut counts = vec![0usize; bins];
        let width = (hi - lo) / bins as f64;
        for &v in samples {
            if v < lo || v > hi {
                continue; // out-of-range samples are dropped
            }
            let idx = (((v - lo) / width) as usize).min(bins - 1);
            counts[idx] += 1;
        }
        Ok(Self { lo, hi, counts })
    }

    /// The bins in ascending order.
    pub fn bins(&self) -> Vec<HistogramBin> {
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &count)| HistogramBin {
                lo: self.lo + i as f64 * width,
                hi: self.lo + (i + 1) as f64 * width,
                count,
            })
            .collect()
    }

    /// Total number of binned samples.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }

    /// The histogram range `(lo, hi)`.
    pub fn range(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }

    /// Renders a fixed-width ASCII bar chart, one bin per line — how the
    /// repro harness prints the paper's distribution figures.
    pub fn render_ascii(&self, bar_width: usize) -> String {
        let max = self.counts.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::new();
        for bin in self.bins() {
            let bar_len = bin.count * bar_width / max;
            out.push_str(&format!(
                "{:>12.4} .. {:>12.4} | {:<width$} {}\n",
                bin.lo,
                bin.hi,
                "#".repeat(bar_len),
                bin.count,
                width = bar_width
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn basic_binning() {
        let h = Histogram::from_samples(&[0.1, 0.1, 0.5, 0.9], 2, Some((0.0, 1.0))).unwrap();
        let bins = h.bins();
        assert_eq!(bins[0].count, 2);
        assert_eq!(bins[1].count, 2);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn upper_edge_lands_in_last_bin() {
        let h = Histogram::from_samples(&[1.0], 4, Some((0.0, 1.0))).unwrap();
        assert_eq!(h.bins()[3].count, 1);
    }

    #[test]
    fn out_of_range_samples_dropped() {
        let h = Histogram::from_samples(&[-5.0, 0.5, 99.0], 2, Some((0.0, 1.0))).unwrap();
        assert_eq!(h.total(), 1);
    }

    #[test]
    fn auto_range_covers_min_max() {
        let h = Histogram::from_samples(&[2.0, 8.0, 5.0], 3, None).unwrap();
        assert_eq!(h.range(), (2.0, 8.0));
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn degenerate_single_value_set() {
        let h = Histogram::from_samples(&[4.0, 4.0], 3, None).unwrap();
        assert_eq!(h.total(), 2);
        assert_eq!(h.bins()[0].count, 2);
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(Histogram::from_samples(&[], 3, None).is_err());
        assert!(Histogram::from_samples(&[1.0], 0, None).is_err());
        assert!(Histogram::from_samples(&[f64::NAN], 3, None).is_err());
        assert!(Histogram::from_samples(&[1.0], 3, Some((5.0, 2.0))).is_err());
    }

    #[test]
    fn bin_centers() {
        let h = Histogram::from_samples(&[0.5], 2, Some((0.0, 1.0))).unwrap();
        let bins = h.bins();
        assert_eq!(bins[0].center(), 0.25);
        assert_eq!(bins[1].center(), 0.75);
    }

    #[test]
    fn ascii_render_contains_counts() {
        let h = Histogram::from_samples(&[0.1, 0.6, 0.7], 2, Some((0.0, 1.0))).unwrap();
        let s = h.render_ascii(10);
        assert!(s.lines().count() == 2);
        assert!(s.contains('#'));
    }

    proptest! {
        #[test]
        fn histogram_bins_all_in_range_samples(
            samples in proptest::collection::vec(0.0f64..100.0, 1..60),
            bins in 1usize..20,
        ) {
            let h = Histogram::from_samples(&samples, bins, Some((0.0, 100.0))).unwrap();
            prop_assert_eq!(h.total(), samples.len());
            prop_assert_eq!(h.bins().len(), bins);
        }
    }
}
