//! Percentile and top-k statistics for link-usage time series.
//!
//! The paper's key cost-modeling observation (§4.2, Figure 5) is that the
//! average of the top 10% of usage samples (`z_e`) is linearly correlated
//! with — and slightly above — the 95th percentile (`y_e`), which makes it
//! a good *convexifiable* proxy for percentile billing.

/// Nearest-rank percentile: for `p` in `[0, 1]`, the value at ascending
/// rank `ceil(p·n)` (1-based), i.e. the smallest value such that at least
/// `p·n` samples are ≤ it. Returns 0 for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "percentile fraction must be in [0, 1]");
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = (p * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Mean of the largest `ceil(frac·n)` samples (`z_e` in the paper).
/// Returns 0 for an empty slice.
pub fn top_fraction_mean(samples: &[f64], frac: f64) -> f64 {
    assert!((0.0..=1.0).contains(&frac), "fraction must be in [0, 1]");
    if samples.is_empty() {
        return 0.0;
    }
    let k = top_k_count(samples.len(), frac);
    top_k_mean(samples, k)
}

/// Number of samples in the "top `frac`" set: `max(1, ceil(frac·n))`.
pub fn top_k_count(n: usize, frac: f64) -> usize {
    ((frac * n as f64).ceil() as usize).max(1).min(n)
}

/// Mean of the `k` largest samples.
pub fn top_k_mean(samples: &[f64], k: usize) -> f64 {
    assert!(k >= 1 && k <= samples.len(), "k must be in [1, n]");
    top_k_sum(samples, k) / k as f64
}

/// Sum of the `k` largest samples.
pub fn top_k_sum(samples: &[f64], k: usize) -> f64 {
    assert!(k >= 1 && k <= samples.len(), "k must be in [1, n]");
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a));
    sorted[..k].iter().sum()
}

/// Empirical CDF evaluation points: returns the sorted samples paired with
/// cumulative fractions, suitable for plotting (used by Figures 1 and 10).
pub fn cdf_points(samples: &[f64]) -> Vec<(f64, f64)> {
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    sorted.into_iter().enumerate().map(|(i, v)| (v, (i + 1) as f64 / n as f64)).collect()
}

/// Pearson correlation coefficient between two equal-length series (used to
/// reproduce the Figure 5 claim that `z_e` and `y_e` are linearly related).
pub fn pearson(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "series length mismatch");
    let n = a.len() as f64;
    if a.is_empty() {
        return 0.0;
    }
    let ma = a.iter().sum::<f64>() / n;
    let mb = b.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    if va == 0.0 || vb == 0.0 {
        return 0.0;
    }
    cov / (va.sqrt() * vb.sqrt())
}

/// Ordinary least squares fit `y ≈ slope·x + intercept`.
pub fn linear_fit(x: &[f64], y: &[f64]) -> (f64, f64) {
    assert_eq!(x.len(), y.len(), "series length mismatch");
    let n = x.len() as f64;
    assert!(n > 0.0, "empty series");
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut num = 0.0;
    let mut den = 0.0;
    for (&a, &b) in x.iter().zip(y) {
        num += (a - mx) * (b - my);
        den += (a - mx) * (a - mx);
    }
    let slope = if den == 0.0 { 0.0 } else { num / den };
    (slope, my - slope * mx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_simple_cases() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    #[test]
    fn percentile_single_sample() {
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert_eq!(percentile(&[7.0], 0.05), 7.0);
    }

    #[test]
    fn percentile_empty_is_zero() {
        assert_eq!(percentile(&[], 0.95), 0.0);
    }

    #[test]
    fn percentile_extreme_fractions() {
        // p = 0.0: rank ceil(0) = 0 clamps to 1 — the minimum, never an
        // out-of-bounds rank-0 read.
        let v: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        // p = 1.0: rank n exactly — the maximum, never past the end.
        assert_eq!(percentile(&v, 1.0), 10.0);
        // p just under 1.0: ceil keeps the rank at n (not n+1 via a float
        // round-up, not n-1 via truncation).
        assert_eq!(percentile(&v, 1.0 - 1e-12), 10.0);
        assert_eq!(percentile(&v, 1.0 - f64::EPSILON), 10.0);
        // p just above 0.0 rounds up to rank 1.
        assert_eq!(percentile(&v, 1e-12), 1.0);
        // All four extremes on a single-sample series hit the same element.
        for p in [0.0, 1e-12, 1.0 - 1e-12, 1.0] {
            assert_eq!(percentile(&[42.0], p), 42.0);
        }
    }

    #[test]
    #[should_panic(expected = "percentile fraction")]
    fn percentile_rejects_out_of_range_fraction() {
        percentile(&[1.0], 1.0 + 1e-9);
    }

    #[test]
    fn percentile_unsorted_input() {
        assert_eq!(percentile(&[5.0, 1.0, 3.0, 2.0, 4.0], 0.6), 3.0);
    }

    #[test]
    fn top_k_statistics() {
        let v = [1.0, 9.0, 5.0, 7.0, 3.0];
        assert_eq!(top_k_sum(&v, 2), 16.0);
        assert_eq!(top_k_mean(&v, 2), 8.0);
        assert_eq!(top_k_count(30, 0.10), 3);
        assert_eq!(top_k_count(5, 0.10), 1); // max(1, ceil(0.5))
        assert_eq!(top_fraction_mean(&v, 0.4), 8.0);
    }

    #[test]
    fn top_fraction_mean_dominates_percentile() {
        // z_e >= y_e when the tail is monotone above the percentile cutoff.
        let v: Vec<f64> = (1..=200).map(|i| (i as f64).powf(1.3)).collect();
        assert!(top_fraction_mean(&v, 0.10) >= percentile(&v, 0.95));
    }

    #[test]
    fn cdf_monotone_and_normalized() {
        let pts = cdf_points(&[3.0, 1.0, 2.0]);
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0], (1.0, 1.0 / 3.0));
        assert_eq!(pts[2], (3.0, 1.0));
    }

    #[test]
    fn pearson_perfect_correlation() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&x, &y) - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = y.iter().map(|v| -v).collect();
        assert!((pearson(&x, &neg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_constant_series_is_zero() {
        assert_eq!(pearson(&[1.0, 1.0], &[2.0, 3.0]), 0.0);
    }

    #[test]
    fn linear_fit_recovers_line() {
        let x = [0.0, 1.0, 2.0, 3.0];
        let y: Vec<f64> = x.iter().map(|v| 2.5 * v + 1.0).collect();
        let (slope, intercept) = linear_fit(&x, &y);
        assert!((slope - 2.5).abs() < 1e-12);
        assert!((intercept - 1.0).abs() < 1e-12);
    }
}
