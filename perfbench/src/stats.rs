//! Exact order statistics over raw samples.
//!
//! Every timing the benchmark reports is read off the sorted raw samples
//! (nearest-rank definition), never from a bucketed histogram, so a 1%
//! change in a quantile is a 1% change in the report.

/// Sorts samples ascending. NaNs cannot occur: every sample is a
/// non-negative duration.
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Nearest-rank index of quantile `q` in `n` sorted samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The nearest-rank quantile `q` (0 < q ≤ 1) of already sorted samples.
///
/// # Panics
///
/// Panics on an empty sample, which would be a harness bug.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    sorted[rank(sorted.len(), q)]
}

/// How many samples lie strictly beyond the nearest-rank quantile `q`.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q) - 1
    }
}

/// Median of an unsorted sample.
pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples.to_vec()), 0.5)
}

/// The smallest sample count whose p99 has at least ten samples beyond it.
pub const MIN_SAMPLES_FOR_P99: usize = 1000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), 50.0);
        assert_eq!(quantile(&s, 0.99), 99.0);
        assert_eq!(quantile(&s, 1.0), 100.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn p99_needs_a_thousand_samples_for_ten_beyond() {
        assert_eq!(beyond(MIN_SAMPLES_FOR_P99, 0.99), 10);
        assert_eq!(beyond(MIN_SAMPLES_FOR_P99 - 1, 0.99), 9);
    }
}
