//! Order statistics for timing samples.

/// Nearest-rank quantile of an ascending slice, `q` in `[0, 1]`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    sorted[rank]
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// The highest tail percentile worth reporting for `n` samples: the largest
/// of p99.9, p99, p95, p90 and p75 that leaves at least ten samples beyond
/// it. `None` below forty samples, where only the median means anything.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.95, 0.90, 0.75]
        .into_iter()
        .find(|&q| (n as f64) * (1.0 - q) >= 10.0 - 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(0.75));
        assert_eq!(tail_percentile(99), Some(0.75));
        assert_eq!(tail_percentile(100), Some(0.90));
        assert_eq!(tail_percentile(200), Some(0.95));
        assert_eq!(tail_percentile(999), Some(0.95));
        assert_eq!(tail_percentile(1_000), Some(0.99));
        assert_eq!(tail_percentile(1_024), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999));
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let sorted: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(quantile(&sorted, 0.0), 1.0);
        assert_eq!(quantile(&sorted, 0.5), 51.0);
        assert_eq!(quantile(&sorted, 0.99), 100.0);
        assert_eq!(quantile(&sorted, 1.0), 101.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
