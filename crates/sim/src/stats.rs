//! Summary statistics, histograms and confidence intervals.

use serde::{Deserialize, Serialize};

/// Mean / standard deviation / extrema of a sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (population form, as the paper reports).
    pub std_dev: f64,
    /// Minimum sample.
    pub min: f64,
    /// Maximum sample.
    pub max: f64,
}

impl Summary {
    /// Computes the summary of a sample; returns an all-zero summary for an
    /// empty sample.
    ///
    /// Non-finite samples (NaN, ±∞) are ignored — they are measurement
    /// artifacts, and a single one would otherwise poison every statistic
    /// (`NaN` propagates through sums and comparisons).  `count` reflects
    /// only the samples actually summarized, so a sample set that is
    /// entirely non-finite yields the same all-zero summary as an empty
    /// one.  Every field of the result is finite by construction.
    #[must_use]
    pub fn of(samples: &[f64]) -> Summary {
        Summary::of_runs(samples.iter().map(|&s| (s, 1)))
    }

    /// Computes the summary of a sample given as `(value, count)` runs, each
    /// value counted `count` times ([`SampleCounts::runs`]), with the
    /// conventions of [`Summary::of`].
    #[must_use]
    pub fn of_runs<I>(runs: I) -> Summary
    where
        I: IntoIterator<Item = (f64, usize)>,
        I::IntoIter: Clone,
    {
        let runs = runs.into_iter().filter(|&(s, n)| s.is_finite() && n > 0);
        let mut count = 0usize;
        let mut sum = 0.0f64;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for (s, n) in runs.clone() {
            count += n;
            sum += s * n as f64;
            min = min.min(s);
            max = max.max(s);
        }
        if count == 0 {
            return Summary {
                count: 0,
                mean: 0.0,
                std_dev: 0.0,
                min: 0.0,
                max: 0.0,
            };
        }
        let mean = sum / count as f64;
        let variance = runs
            .map(|(x, n)| (x - mean) * (x - mean) * n as f64)
            .sum::<f64>()
            / count as f64;
        Summary {
            count,
            mean,
            std_dev: variance.sqrt(),
            min,
            max,
        }
    }
}

/// A multiset of samples held as ascending `(value, count)` runs, one per
/// distinct value: a sample's storage is its value's count, so a run of
/// any number of trials over a bounded set of values takes bounded memory.
/// [`SampleCounts::iter`] yields every sample, ascending.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SampleCounts<T> {
    runs: Vec<(T, usize)>,
}

impl<T> Default for SampleCounts<T> {
    fn default() -> Self {
        SampleCounts { runs: Vec::new() }
    }
}

impl<T: Copy + PartialOrd> SampleCounts<T> {
    /// The multiset of `runs`, each value counted `count` times, in any
    /// order: they are sorted, equal values merged and empty runs dropped
    /// in place, so the result allocates nothing beyond `runs`.
    ///
    /// # Panics
    ///
    /// Panics if two values are unordered (a NaN).
    #[must_use]
    pub fn from_runs(mut runs: Vec<(T, usize)>) -> Self {
        runs.retain(|&(_, count)| count > 0);
        runs.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).expect("samples are ordered"));
        runs.dedup_by(|later, kept| {
            let equal = later.0 == kept.0;
            if equal {
                kept.1 += later.1;
            }
            equal
        });
        SampleCounts { runs }
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &SampleCounts<T>) {
        let mut runs = std::mem::take(&mut self.runs);
        runs.extend_from_slice(&other.runs);
        *self = SampleCounts::from_runs(runs);
    }
}

impl<T> SampleCounts<T> {
    /// The ascending `(value, count)` runs, one per distinct value.
    #[must_use]
    pub fn runs(&self) -> &[(T, usize)] {
        &self.runs
    }

    /// The number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.runs.iter().map(|&(_, count)| count).sum()
    }

    /// Whether there are no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Every sample, ascending: each value as many times as it was counted.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.runs
            .iter()
            .flat_map(|(value, count)| std::iter::repeat(value).take(*count))
    }
}

/// A fixed-width histogram over `[0, max)` with `bins` bins, of a sample
/// given as `(value, count)` runs, each value counted `count` times.
///
/// Returns `(bin_edges, densities)` where densities are normalised so they
/// sum to 1 (an estimated probability mass per bin), matching the truncated
/// probability-density plots of Figure 10(c).
#[must_use]
pub fn histogram(
    runs: impl IntoIterator<Item = (f64, usize)>,
    bins: usize,
    max: f64,
) -> (Vec<f64>, Vec<f64>) {
    assert!(bins > 0, "histogram needs at least one bin");
    assert!(max > 0.0, "histogram range must be positive");
    let width = max / bins as f64;
    let edges: Vec<f64> = (0..=bins).map(|i| i as f64 * width).collect();
    let mut counts = vec![0usize; bins];
    let mut total = 0usize;
    for (s, n) in runs {
        if s >= 0.0 && s < max {
            let bin = ((s / width) as usize).min(bins - 1);
            counts[bin] += n;
            total += n;
        }
    }
    let densities = counts
        .iter()
        .map(|&c| {
            if total == 0 {
                0.0
            } else {
                c as f64 / total as f64
            }
        })
        .collect();
    (edges, densities)
}

/// The `q`-quantile (`0.0..=1.0`) of an ascending-sorted sample, by linear
/// interpolation between the two nearest order statistics (the convention
/// numpy calls "linear", R calls type 7).  Returns 0.0 for an empty sample,
/// so the result is always finite on finite input.
#[must_use]
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let h = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = h.floor() as usize;
            let hi = h.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (h - lo as f64)
        }
    }
}

/// The 95% Wilson score interval for a binomial proportion.
#[must_use]
pub fn wilson_interval(successes: usize, trials: usize) -> (f64, f64) {
    if trials == 0 {
        return (0.0, 1.0);
    }
    let n = trials as f64;
    let p = successes as f64 / n;
    let z = 1.96_f64;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = (z / denom) * ((p * (1.0 - p) / n) + z2 / (4.0 * n * n)).sqrt();
    ((center - half).max(0.0), (center + half).min(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_simple_sample() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.std_dev - (1.25f64).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
    }

    #[test]
    fn summary_of_empty_sample_is_zero() {
        let s = Summary::of(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn summary_ignores_non_finite_samples() {
        let s = Summary::of(&[f64::NAN, 1.0, f64::INFINITY, 3.0, f64::NEG_INFINITY]);
        assert_eq!(s.count, 2);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!(s.std_dev.is_finite());
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        // An entirely non-finite sample set degrades to the empty summary.
        let s = Summary::of(&[f64::NAN, f64::NAN]);
        assert_eq!(s.count, 0);
        assert_eq!(s, Summary::of(&[]));
    }

    #[test]
    fn quantile_sorted_interpolates_between_order_statistics() {
        let sorted = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile_sorted(&sorted, 0.0), 10.0);
        assert_eq!(quantile_sorted(&sorted, 1.0), 40.0);
        assert!((quantile_sorted(&sorted, 0.5) - 25.0).abs() < 1e-12);
        assert_eq!(quantile_sorted(&[], 0.5), 0.0);
        assert_eq!(quantile_sorted(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn sample_counts_sort_merge_and_yield_every_sample() {
        let mut counts = SampleCounts::from_runs(vec![(3, 1), (1, 2), (3, 2), (2, 0)]);
        assert_eq!(counts.runs(), &[(1, 2), (3, 3)]);
        assert_eq!(counts.len(), 5);
        assert_eq!(counts.iter().copied().collect::<Vec<_>>(), [1, 1, 3, 3, 3]);
        counts.merge(&SampleCounts::from_runs(vec![(3, 1), (2, 1)]));
        assert_eq!(counts.runs(), &[(1, 2), (2, 1), (3, 4)]);
        let empty = SampleCounts::<f64>::from_runs(vec![(1.5, 0)]);
        assert!(empty.is_empty() && empty == SampleCounts::default());
    }

    #[test]
    fn histogram_densities_sum_to_one() {
        let samples: Vec<f64> = (0..100).map(|i| i as f64 / 10.0).collect();
        let (edges, dens) = histogram(samples.iter().map(|&s| (s, 1)), 5, 10.0);
        assert_eq!(edges.len(), 6);
        assert_eq!(dens.len(), 5);
        let sum: f64 = dens.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        // Uniform data -> roughly uniform bins.
        for &d in &dens {
            assert!((d - 0.2).abs() < 0.05);
        }
    }

    #[test]
    fn histogram_ignores_out_of_range_samples() {
        let (_, dens) = histogram([(1.0, 1), (2.0, 1), (100.0, 1), (-5.0, 1)], 2, 10.0);
        let sum: f64 = dens.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn histogram_rejects_zero_bins() {
        let _ = histogram([(1.0, 1)], 0, 10.0);
    }

    #[test]
    fn wilson_interval_behaviour() {
        let (lo, hi) = wilson_interval(0, 100);
        assert_eq!(lo, 0.0);
        assert!(hi < 0.05);
        let (lo, hi) = wilson_interval(100, 100);
        assert!(lo > 0.95);
        assert!(hi > 0.999);
        let (lo, hi) = wilson_interval(0, 0);
        assert_eq!((lo, hi), (0.0, 1.0));
        let (lo, hi) = wilson_interval(50, 100);
        assert!(lo < 0.5 && hi > 0.5);
    }
}
