//! The benchmark's own arithmetic: medians, quartiles and the
//! ten-samples-beyond percentile rule.

/// Median of `values` (mean of the two middle samples for even counts).
/// Returns NaN for an empty slice so a missing measurement fails the
/// finite-value audit instead of reading as zero.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method — the same numbers
/// Python's `statistics.quantiles(values, n=4)` returns, so the spread
/// printed here is the spread the acceptance check computes. Fewer than two
/// samples have no spread: both quartiles equal the sample.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (f64::NAN, f64::NAN),
        1 => (v[0], v[0]),
        n => {
            // Rank i·(n+1)/4 (1-based), its integer part clamped into the
            // data; the remainder is taken after clamping, so short samples
            // extrapolate exactly as Python does.
            let at = |i: usize| {
                let j = (i * (n + 1) / 4).clamp(1, n - 1);
                let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (at(1), at(3))
        }
    }
}

/// The highest percentile a sample of `n` supports: a percentile is
/// reported only if at least ten samples lie beyond it. Returns the
/// quantile in `(0, 1)`, or `None` when even the median is unsupported.
pub fn highest_supported_quantile(n: u64) -> Option<f64> {
    // (quantile, one sample in how many lies beyond it); integer
    // arithmetic, because 100 × (1 − 0.9) is 9.999… in floating point.
    [
        (0.9999, 10_000),
        (0.999, 1_000),
        (0.99, 100),
        (0.9, 10),
        (0.5, 2),
    ]
    .into_iter()
    .find(|&(_, one_in)| n / one_in >= 10)
    .map(|(q, _)| q)
}

/// Weighted quantile over `(value, weight)` samples: the value holding
/// rank `⌈q·total⌉`. `None` for an empty or zero-weight sample.
pub fn weighted_quantile(samples: &mut [(u64, u64)], q: f64) -> Option<u64> {
    samples.sort_unstable();
    let total: u64 = samples.iter().map(|s| s.1).sum();
    if total == 0 {
        return None;
    }
    let target = ((total as f64 * q).ceil() as u64).clamp(1, total);
    let mut acc = 0;
    for &(v, w) in samples.iter() {
        acc += w;
        if acc >= target {
            return Some(v);
        }
    }
    samples.last().map(|s| s.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 4.5));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 3.0));
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_quantile(19), None);
        assert_eq!(highest_supported_quantile(20), Some(0.5));
        assert_eq!(highest_supported_quantile(99), Some(0.5));
        assert_eq!(highest_supported_quantile(100), Some(0.9));
        assert_eq!(highest_supported_quantile(999), Some(0.9));
        assert_eq!(highest_supported_quantile(1_000), Some(0.99));
        assert_eq!(highest_supported_quantile(10_000), Some(0.999));
        assert_eq!(highest_supported_quantile(1_000_000), Some(0.9999));
    }

    #[test]
    fn weighted_quantile_ranks_by_weight() {
        let mut s = vec![(300, 1), (100, 98), (200, 1)];
        assert_eq!(weighted_quantile(&mut s, 0.5), Some(100));
        assert_eq!(weighted_quantile(&mut s, 0.99), Some(200));
        assert_eq!(weighted_quantile(&mut s, 1.0), Some(300));
        assert_eq!(weighted_quantile(&mut [], 0.5), None);
        assert_eq!(weighted_quantile(&mut [(5, 0)], 0.5), None);
    }
}
