//! Order statistics and ratios used by every reported metric.

/// The high percentile a sample supports: the highest percentile that
/// still has at least [`TAIL_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Which percentile this is (e.g. 98.3 for 600 samples).
    pub pct: f64,
    /// The sample value at that percentile.
    pub value: f64,
    /// Samples the tail was taken from.
    pub n: usize,
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest percentile with [`TAIL_BEYOND`] samples above it. When
/// that would not even reach the median (fewer than `2 * TAIL_BEYOND + 1`
/// samples), the maximum is reported as the 100th percentile.
pub fn tail(xs: &[f64]) -> Tail {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= 2 * TAIL_BEYOND {
        return Tail {
            pct: 100.0,
            value: v.last().copied().unwrap_or(0.0),
            n,
        };
    }
    Tail {
        pct: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        value: v[n - TAIL_BEYOND - 1],
        n,
    }
}

/// The `p`-th percentile (0..=100) by nearest rank; 0 for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Mean of `xs`; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    ratio(xs.iter().sum(), xs.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.pct, 90.0);
        assert_eq!(xs.iter().filter(|x| **x > t.value).count(), 10);
        let xs: Vec<f64> = (1..=600).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 590.0);
        assert!((t.pct - 98.333).abs() < 1e-3);
    }

    #[test]
    fn tail_of_a_small_sample_is_its_maximum() {
        let t = tail(&[5.0, 9.0, 1.0]);
        assert_eq!((t.pct, t.value, t.n), (100.0, 9.0, 3));
        assert_eq!(tail(&[]).value, 0.0);
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&twenty).value, 20.0);
        let twenty_one: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(tail(&twenty_one).value, 11.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), 198.0);
        assert_eq!(percentile(&xs, 50.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }

    #[test]
    fn ratio_and_mean_guard_empty_denominators() {
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
