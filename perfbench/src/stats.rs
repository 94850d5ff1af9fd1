//! Order statistics with the benchmark's reporting rule: a percentile is
//! reported only when at least [`MIN_TAIL`] samples lie beyond it, so a p95
//! never rests on a handful of outliers.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

/// Median of `values` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 { sorted[mid] } else { (sorted[mid - 1] + sorted[mid]) / 2.0 })
}

/// Smallest of `values`; `None` when empty.
pub fn min(values: &[f64]) -> Option<f64> {
    values.iter().copied().min_by(f64::total_cmp)
}

/// Nearest-rank percentile `p` (0 < p < 1) of `values`, or `None` when
/// fewer than [`MIN_TAIL`] samples rank above it.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let n = values.len();
    let rank = (p * n as f64).ceil() as usize;
    if rank == 0 || n.saturating_sub(rank) < MIN_TAIL {
        return None;
    }
    Some(sorted(values)[rank - 1])
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_min_handle_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(min(&[3.0, 1.0, 2.0]), Some(1.0));
        assert_eq!(min(&[]), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=20).map(f64::from).collect();
        // p50 of 20 samples is rank 10: exactly ten samples lie above it.
        assert_eq!(percentile(&values, 0.5), Some(10.0));
        // One sample fewer leaves only nine beyond the median.
        assert_eq!(percentile(&values[..19], 0.5), None);
        // p95 needs 200 samples: rank 190 leaves ten above it.
        let many: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&many, 0.95), Some(190.0));
        assert_eq!(percentile(&many[..199], 0.95), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut values: Vec<f64> = (1..=40).map(f64::from).collect();
        values.reverse();
        assert_eq!(percentile(&values, 0.5), Some(20.0));
        assert_eq!(percentile(&[], 0.5), None);
    }
}
