//! Order statistics over timing samples: the median of a few repetitions
//! (set-ups, recoveries), and the nearest-rank percentiles of the per-call
//! latency distribution.

/// Median (the mean of the two middle samples for an even count).
///
/// # Panics
///
/// Panics on an empty slice — a metric with no samples is a driver bug.
pub fn median(samples: &[f64]) -> f64 {
    simkit::percentile(samples, 50.0)
}

/// A nearest-rank percentile and how many samples lie beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The sample at the percentile's rank.
    pub value: f64,
    /// Samples strictly above that rank. A tail percentile is only
    /// trustworthy with at least ten (choosing-metrics §1).
    pub beyond: usize,
}

/// Nearest-rank percentile `p` in `(0, 100]`.
pub fn percentile(samples: &[f64], p: f64) -> Percentile {
    assert!(!samples.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of (0, 100]");
    let mut v = samples.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    // The epsilon keeps 99.9% of 1000 at rank 999: the product is not exact.
    let rank = (p * v.len() as f64 / 100.0 - 1e-9).ceil() as usize;
    let rank = rank.clamp(1, v.len());
    Percentile { value: v[rank - 1], beyond: v.len() - rank }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // One wild repetition does not move the median.
        assert_eq!(median(&[10.0, 10.0, 900.0, 10.0, 10.0]), 10.0);
    }

    #[test]
    fn percentile_is_nearest_rank_and_counts_the_tail() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p50 = percentile(&samples, 50.0);
        assert_eq!(p50, Percentile { value: 500.0, beyond: 500 });
        let p99 = percentile(&samples, 99.0);
        assert_eq!(p99, Percentile { value: 990.0, beyond: 10 });
        let p999 = percentile(&samples, 99.9);
        assert_eq!(p999, Percentile { value: 999.0, beyond: 1 });
        assert_eq!(percentile(&samples, 100.0).value, 1000.0);
        assert_eq!(percentile(&[7.0], 99.9).value, 7.0);
    }
}
