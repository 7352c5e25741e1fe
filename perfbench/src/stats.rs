//! Order statistics shared by the metrics, `--runs` and `--compare`.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation
/// between the two nearest ranks of the sorted sample. `None` when the
/// sample is empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

/// [`quantile`] over an already ascending sample.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `values`.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// First quartile, median and third quartile of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Quartiles {
    pub fn of(values: &[f64]) -> Option<Self> {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Self {
            q1: quantile_sorted(&sorted, 0.25)?,
            median: quantile_sorted(&sorted, 0.5)?,
            q3: quantile_sorted(&sorted, 0.75)?,
        })
    }

    /// Interquartile range: the distance between the quartiles.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// A latency distribution summarised the way the metrics report it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    pub samples: usize,
    /// Samples strictly above the p90 value.
    pub beyond_p90: usize,
}

impl Latency {
    pub fn of(values: &[f64]) -> Option<Self> {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let p90 = quantile_sorted(&sorted, 0.90)?;
        Some(Self {
            p50: quantile_sorted(&sorted, 0.5)?,
            p90,
            p99: quantile_sorted(&sorted, 0.99)?,
            samples: sorted.len(),
            beyond_p90: sorted.iter().filter(|&&v| v > p90).count(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), Some(3.0));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(5.0));
        assert_eq!(quantile(&v, 0.25), Some(2.0));
        // Even count: halfway between the middle pair.
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), Some(2.5));
        assert_eq!(quantile(&[1.0, 2.0], 0.9), Some(1.9));
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[7.0]), Some(7.0));
    }

    #[test]
    fn interquartile_range_of_a_known_sample() {
        let q = Quartiles::of(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]).expect("non-empty");
        assert_eq!(q.q1, 3.0);
        assert_eq!(q.median, 5.0);
        assert_eq!(q.q3, 7.0);
        assert_eq!(q.iqr(), 4.0);
        let flat = Quartiles::of(&[2.0; 6]).expect("non-empty");
        assert_eq!(flat.iqr(), 0.0);
    }

    #[test]
    fn latency_counts_the_tail_beyond_p90() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let l = Latency::of(&v).expect("non-empty");
        assert_eq!(l.samples, 100);
        assert!((l.p50 - 50.5).abs() < 1e-9);
        assert!((l.p90 - 90.1).abs() < 1e-9);
        assert_eq!(l.beyond_p90, 10);
    }
}
