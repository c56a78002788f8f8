//! Quantiles from raw samples.
//!
//! Every quantile the benchmark reports is read off the sorted raw
//! samples, never off a bucketed histogram, and travels with the sample
//! count it came from.

/// A sorted sample set.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

/// The tail of a sample set: the highest percentile that still has at
/// least [`TAIL_BEYOND`] samples above it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
}

/// Samples that must lie beyond a reported tail.
pub const TAIL_BEYOND: usize = 10;

impl Samples {
    pub fn new(mut raw: Vec<f64>) -> Samples {
        raw.sort_by(f64::total_cmp);
        Samples { sorted: raw }
    }

    /// The median (mean of the two middle samples for an even count).
    pub fn median(&self) -> Option<f64> {
        let n = self.sorted.len();
        match n {
            0 => None,
            _ if n % 2 == 1 => Some(self.sorted[n / 2]),
            _ => Some((self.sorted[n / 2 - 1] + self.sorted[n / 2]) / 2.0),
        }
    }

    /// The sample with exactly [`TAIL_BEYOND`] samples above it, or
    /// `None` when the samples are too few for that sample to lie above
    /// the median.
    pub fn tail(&self) -> Option<Tail> {
        let n = self.sorted.len();
        if n < 2 * (TAIL_BEYOND + 1) {
            return None;
        }
        let idx = n - TAIL_BEYOND - 1;
        Some(Tail {
            value: self.sorted[idx],
            percentile: 100.0 * (idx + 1) as f64 / n as f64,
        })
    }
}

/// Median of a small set of values (set-up repetitions, per-run
/// medians); `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    Samples::new(values.to_vec()).median().unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(Samples::new(vec![3.0, 1.0, 2.0]).median(), Some(2.0));
        assert_eq!(Samples::new(vec![4.0, 1.0, 2.0, 3.0]).median(), Some(2.5));
        assert_eq!(Samples::new(Vec::new()).median(), None);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let s = Samples::new((1..=100).map(f64::from).collect());
        let t = s.tail().expect("100 samples have a tail");
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert!(Samples::new(vec![1.0; 21]).tail().is_none());
        let t = Samples::new((0..22).map(f64::from).collect())
            .tail()
            .unwrap();
        assert_eq!(t.value, 11.0);
    }
}
