//! Order statistics and the tail-percentile sample-count rule.
//!
//! The ledger keeps its own statistics rather than borrowing the
//! system's, so a change to the system under test cannot redefine how
//! the benchmark summarises it.

/// Samples a percentile must have beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The tail percentile the ledger reports, in per-mille.
pub const TAIL_PER_MILLE: usize = 950;

/// Smallest sample count for which p95 has [`MIN_BEYOND`] samples beyond
/// it; timed phases run until they have this many requests.
pub const TAIL_MIN_SAMPLES: usize = 200;

/// How many of `n` samples lie beyond the percentile given in per-mille
/// (950 = p95): those ranked after the first `ceil(n * per_mille / 1000)`.
/// Integer arithmetic, so the rule has no rounding edge cases.
pub fn samples_beyond(n: usize, per_mille: usize) -> usize {
    n - (n * per_mille).div_ceil(1000)
}

/// Whether `n` samples support reporting the per-mille percentile.
pub fn supports(n: usize, per_mille: usize) -> bool {
    samples_beyond(n, per_mille) >= MIN_BEYOND
}

/// The `p`-th percentile (0–100) of `samples`, linearly interpolated
/// between the nearest ranks; 0 for no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `samples`; 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// `a / b`, or 0 when `b` is 0: a rate over work that did not happen.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentiles_need_ten_samples_beyond() {
        assert!(supports(TAIL_MIN_SAMPLES, TAIL_PER_MILLE));
        assert!(!supports(TAIL_MIN_SAMPLES - 1, TAIL_PER_MILLE));
        assert_eq!(samples_beyond(1000, 990), 10);
        assert!(!supports(999, 990));
        assert_eq!(samples_beyond(100, 500), 50);
        // p50 needs only 20 samples; p99.9 needs ten thousand.
        assert!(supports(20, 500) && !supports(19, 500));
        assert!(supports(10_000, 999) && !supports(9_999, 999));
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), 2.5);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 4.0);
        assert!((percentile(&s, 99.0) - 3.97).abs() < 1e-12);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }
}
