//! Order statistics over one run's samples.

/// The nearest-rank `p`-quantile (`0 < p ≤ 1`) of `samples`, or `None`
/// when there are none.
pub fn quantile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// The smallest sample, or `None` when there are none.
pub fn fastest(samples: &[f64]) -> Option<f64> {
    samples.iter().copied().min_by(f64::total_cmp)
}

/// Samples strictly above the nearest-rank `p`-quantile's position.
pub fn beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).min(n)
}

/// The highest of p99 and p90 that has at least ten samples beyond it;
/// `None` when neither has. Returns `(percentile label, value)`.
pub fn tail(samples: &[f64]) -> Option<(&'static str, f64)> {
    [("p99", 0.99), ("p90", 0.90)]
        .into_iter()
        .find(|&(_, p)| beyond(samples.len(), p) >= 10)
        .and_then(|(label, p)| quantile(samples, p).map(|v| (label, v)))
}

/// Geometric mean of positive values, or `None` when there are none.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || !v.is_finite()) {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), Some(50.0));
        assert_eq!(quantile(&s, 0.9), Some(90.0));
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(tail(&s), Some(("p90", 90.0)));
        assert_eq!(tail(&s[..99]), None);
    }

    #[test]
    fn geomean_of_positive_values() {
        assert!((geomean(&[4.0, 4.0]).unwrap() - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]).unwrap() - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }
}
