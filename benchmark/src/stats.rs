//! Medians, quantiles and quartiles of repeated measurements.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), because that is the formula the spread of a
//! metric is judged with: `(q3 - q1) / median`.

/// The median of `values` (the mean of the two middle values for an even
/// count).
///
/// # Panics
///
/// Panics if `values` is empty or holds a NaN.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The value below which the share `share` of `values` lies, interpolating
/// linearly between the two nearest ranks (`share` 0 is the smallest value,
/// 1 the largest, 0.5 the median).
///
/// # Panics
///
/// Panics if `values` is empty or holds a NaN, or `share` is outside
/// `[0, 1]`.
#[must_use]
pub fn quantile(values: &[f64], share: f64) -> f64 {
    assert!((0.0..=1.0).contains(&share), "share {share} outside [0, 1]");
    let sorted = sorted(values);
    let rank = share * (sorted.len() - 1) as f64;
    let below = rank.floor() as usize;
    let above = (below + 1).min(sorted.len() - 1);
    sorted[below] + (sorted[above] - sorted[below]) * (rank - below as f64)
}

/// First and third quartile of `values`; `None` below two values, where a
/// spread is undefined.
///
/// # Panics
///
/// Panics if `values` holds a NaN.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let sorted = sorted(values);
    let len = sorted.len();
    let cut = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        // May be negative or exceed 4 at the clamped ends: that is the
        // extrapolation Python performs too.
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// The inter-quartile distance as a share of the median (0 below two
/// values or for a zero median).
#[must_use]
pub fn spread(values: &[f64]) -> f64 {
    let med = median(values);
    match quartiles(values) {
        Some((q1, q3)) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "no values to summarise");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let five = [50.0, 10.0, 40.0, 20.0, 30.0];
        assert_eq!(quantile(&five, 0.0), 10.0);
        assert_eq!(quantile(&five, 1.0), 50.0);
        assert_eq!(quantile(&five, 0.5), median(&five));
        // Rank 0.4 of 0..=4: four tenths of the way from 10 to 20.
        assert!((quantile(&five, 0.1) - 14.0).abs() < 1e-12);
        assert!((quantile(&five, 0.9) - 46.0).abs() < 1e-12);
        assert_eq!(quantile(&[7.0], 0.1), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let five: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quartiles(&five), Some((1.5, 4.5)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some((7.5, 22.5)));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), Some((1.0, 4.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_the_interquartile_share_of_the_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
        assert_eq!(spread(&[5.0, 5.0, 5.0]), 0.0);
    }
}
