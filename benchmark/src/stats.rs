//! Order statistics over a run's samples.

/// Smallest value; `NaN` for an empty slice.
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NAN, f64::min)
}

/// The `q`-quantile (`0.0..=1.0`) by linear interpolation between the
/// two nearest order statistics; `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_and_quartiles_of_a_known_sample() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(min(&v), 1.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.75), 4.0);
    }

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(median(&v), 25.0);
        assert_eq!(quantile(&v, 0.25), 17.5);
        assert_eq!(quantile(&v, 1.0), 40.0);
    }

    #[test]
    fn empty_and_single_samples() {
        assert!(min(&[]).is_nan());
        assert!(median(&[]).is_nan());
        assert_eq!(quantile(&[7.0], 0.75), 7.0);
    }
}
