//! Order statistics for timing samples.

/// Samples beyond the tail percentile: the tail is the highest percentile
/// that still has this many samples above it.
pub const TAIL_BEYOND: usize = 10;

/// Median (mean of the two middle samples for an even count; 0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let v = sorted(samples);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The tail: the sample with exactly [`TAIL_BEYOND`] samples above it,
/// with the percentile it sits at. With fewer than `2 * TAIL_BEYOND + 1`
/// samples no percentile above the median has that many beyond it, and the
/// tail is the median (percentile 50).
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let n = samples.len();
    if n <= 2 * TAIL_BEYOND {
        return (median(samples), 50.0);
    }
    let idx = n - 1 - TAIL_BEYOND;
    (sorted(samples)[idx], 100.0 * (idx + 1) as f64 / n as f64)
}

/// Arithmetic mean (0 when empty).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 for an empty denominator.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let (t, pct) = tail(&v);
        assert_eq!(t, 30.0);
        assert_eq!(pct, 75.0);
        assert_eq!(v.iter().filter(|&&x| x > t).count(), TAIL_BEYOND);
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (2.0, 50.0));
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
