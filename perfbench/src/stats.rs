//! Order statistics over measured samples.

/// Sorts a copy of `values` ascending (`total_cmp`, so infinities — the
/// rank a missed request takes — sort last).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank quantile `q` in `[0, 1]` of already sorted values; 0 for
/// an empty sample.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank quantile of unsorted values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    quantile_sorted(&sorted(values), q)
}

/// The median (nearest-rank, so always one of the samples).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The arithmetic mean; 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(mean(&v), 50.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn misses_rank_last() {
        let v = [3.0, f64::INFINITY, 1.0, 2.0];
        assert_eq!(quantile(&v, 0.75), 3.0);
        assert!(quantile(&v, 1.0).is_infinite());
    }
}
