//! Order statistics and counter arithmetic.
//!
//! Everything here is pure so it can be unit-tested without a server:
//! the percentile routine with its "ten samples beyond" rule, the
//! quartile routine `repeat.sh` uses (it matches Python's
//! `statistics.quantiles(values, n=4)`, which is what the driver applies
//! to the ten-seed check), and the `STATS`-delta arithmetic that turns
//! two cumulative `{count, mean}` readings into the mean of the window
//! between them.

/// Samples a percentile must leave beyond itself to be reported: with
/// fewer, the value is set by a handful of outliers and does not repeat.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (nearest-rank on the sorted samples) or `None`
/// when fewer than [`MIN_BEYOND`] samples lie strictly beyond it —
/// p95 needs n >= 200, p99 n >= 1000. `p` is a fraction in `(0, 1)`.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    // nearest-rank: the smallest value with at least p*n samples at or
    // below it
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    if beyond < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The median (mean of the two middle samples when `n` is even).
/// `None` on an empty slice.
pub fn median(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// Arithmetic mean; 0 on an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Sort a sample vector ascending (NaN-free by construction: every
/// sample is a finite elapsed time).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    values
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them. Needs at least two values.
pub fn quartiles(sorted: &[f64]) -> Option<[f64; 3]> {
    let m = sorted.len();
    if m < 2 {
        return None;
    }
    let n = 4usize;
    let mut out = [0.0; 3];
    for i in 1..n {
        let j = (i * (m + 1) / n).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * n) as f64;
        out[i - 1] = (sorted[j - 1] * (n as f64 - delta) + sorted[j] * delta) / n as f64;
    }
    Some(out)
}

/// Inter-quartile distance as a share of the median — the spread the
/// driver compares with a metric's bound.
pub fn relative_spread(sorted: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(sorted)?;
    if q2 == 0.0 {
        return None;
    }
    Some((q3 - q1) / q2.abs())
}

/// One cumulative histogram reading off the `STATS` line: how many
/// observations so far and their exact mean.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CountMean {
    /// Observations since boot.
    pub count: u64,
    /// Their mean (the server tracks the exact sum).
    pub mean: f64,
}

impl CountMean {
    /// The window between two readings: observations that arrived in it
    /// and their mean, recovered as `(m2*c2 - m1*c1) / (c2 - c1)`.
    /// An empty (or backwards) window is `{0, 0.0}`.
    pub fn since(self, earlier: CountMean) -> CountMean {
        if self.count <= earlier.count {
            return CountMean::default();
        }
        let count = self.count - earlier.count;
        let sum = self.mean * self.count as f64 - earlier.mean * earlier.count as f64;
        CountMean { count, mean: (sum / count as f64).max(0.0) }
    }
}

/// Difference of two cumulative counters, saturating at zero (a server
/// restart between readings must not produce a huge unsigned wrap).
pub fn counter_delta(later: u64, earlier: u64) -> u64 {
    later.saturating_sub(earlier)
}

/// Per-request increase of a cumulative counter over each segment
/// between consecutive `(requests completed, reading)` marks. Marks that
/// complete no further request are skipped.
pub fn segment_rates(marks: &[(usize, u64)]) -> Vec<f64> {
    marks
        .windows(2)
        .filter(|w| w[1].0 > w[0].0)
        .map(|w| counter_delta(w[1].1, w[0].1) as f64 / (w[1].0 - w[0].0) as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn p95_needs_two_hundred_samples() {
        assert_eq!(percentile(&ramp(199), 0.95), None, "199 samples leave 9 beyond p95");
        assert_eq!(percentile(&ramp(200), 0.95), Some(190.0), "rank 190, ten beyond");
        assert_eq!(percentile(&ramp(1000), 0.95), Some(950.0));
    }

    #[test]
    fn p99_needs_a_thousand_and_p50_needs_twenty() {
        assert_eq!(percentile(&ramp(999), 0.99), None);
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        assert_eq!(percentile(&ramp(19), 0.50), None);
        assert_eq!(percentile(&ramp(20), 0.50), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[1.0, 3.0]), Some(2.0));
        assert_eq!(median(&[1.0, 2.0, 9.0]), Some(2.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&ramp(5)), Some([1.5, 3.0, 4.5]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        let spread = relative_spread(&ramp(10)).unwrap();
        assert!((spread - 1.0).abs() < 1e-12, "(8.25-2.75)/5.5");
    }

    #[test]
    fn stats_delta_recovers_the_window_mean() {
        // ten observations of mean 4 ms, then ten more of mean 8 ms:
        // cumulative mean is 6 ms, the window's is 8 ms.
        let before = CountMean { count: 10, mean: 4.0 };
        let after = CountMean { count: 20, mean: 6.0 };
        let window = after.since(before);
        assert_eq!(window.count, 10);
        assert!((window.mean - 8.0).abs() < 1e-12);
        // from boot
        assert_eq!(after.since(CountMean::default()), after);
    }

    #[test]
    fn segment_rates_divide_each_increase_by_its_requests() {
        let marks = [(0, 100), (10, 300), (20, 350), (20, 360), (25, 400)];
        assert_eq!(segment_rates(&marks), vec![20.0, 5.0, 8.0]);
        assert!(segment_rates(&marks[..1]).is_empty());
        assert!(segment_rates(&[]).is_empty());
    }

    #[test]
    fn stats_delta_of_an_empty_or_backwards_window_is_zero() {
        let a = CountMean { count: 7, mean: 3.0 };
        assert_eq!(a.since(a), CountMean::default());
        assert_eq!(CountMean { count: 2, mean: 1.0 }.since(a), CountMean::default());
        assert_eq!(counter_delta(5, 9), 0);
        assert_eq!(counter_delta(9, 5), 4);
    }
}
