//! Order statistics over timing samples.

/// The `p`-th percentile (`0 ≤ p ≤ 100`) of `samples`, interpolating
/// linearly between the two closest ranks (the "linear" method of
/// NumPy and R's type 7). `None` for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    Some(sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64))
}

/// The median of `samples` (0 for an empty sample).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let samples = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&samples, 0.0), Some(15.0));
        assert_eq!(percentile(&samples, 50.0), Some(35.0));
        assert_eq!(percentile(&samples, 100.0), Some(50.0));
        // rank 0.4 * 4 = 1.6: 20 + 0.6 * (35 - 20).
        assert!((percentile(&samples, 40.0).unwrap() - 29.0).abs() < 1e-12);
        // rank 0.9 * 4 = 3.6: 40 + 0.6 * (50 - 40).
        assert!((percentile(&samples, 90.0).unwrap() - 46.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_ignores_input_order_and_handles_edges() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let ascending: Vec<f64> = (1..=100).map(f64::from).collect();
        let mut shuffled = ascending.clone();
        shuffled.reverse();
        shuffled.swap(3, 71);
        // rank 0.9 * 99 = 89.1: 90 + 0.1 * (91 - 90).
        let p90 = percentile(&shuffled, 90.0).unwrap();
        assert!((p90 - 90.1).abs() < 1e-9);
        assert_eq!(percentile(&ascending, 90.0), percentile(&shuffled, 90.0));
    }
}
