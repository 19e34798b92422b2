//! Order statistics over latency samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples` by linear interpolation
/// between closest ranks, the same rule as numpy's default. `None` when
/// there are no samples.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let xs: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(101.0));
        assert_eq!(quantile(&xs, 0.99), Some(100.0));
        assert_eq!(quantile(&xs, 0.9), Some(91.0));
        let q = quantile(&[10.0, 20.0], 0.25).unwrap();
        assert!((q - 12.5).abs() < 1e-12);
    }

    #[test]
    fn quantile_ignores_input_order() {
        let a = [5.0, 1.0, 4.0, 2.0, 3.0];
        let b = [1.0, 2.0, 3.0, 4.0, 5.0];
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(quantile(&a, q), quantile(&b, q));
        }
    }
}
