//! Order statistics for repeated measurements.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), because that is what the acceptance
//! check computes over the same numbers.

/// Median, quartiles and sample count of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Distance between the quartiles as a share of the median (0 when
    /// the median is 0, so exact all-zero counters read as steady).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The median (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: a metric without a sample is a harness bug.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median and quartiles; a single sample is its own quartiles.
pub fn summary(values: &[f64]) -> Summary {
    let med = median(values);
    let v = sorted(values);
    let m = v.len();
    if m == 1 {
        return Summary {
            median: med,
            q1: med,
            q3: med,
            n: 1,
        };
    }
    let quantile = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Summary {
        median: med,
        q1: quantile(1),
        q3: quantile(3),
        n: m,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_single() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        let s = summary(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (1.5, 3.0, 4.5, 5));
        // statistics.quantiles([1,2,3,4], n=4) == [1.25, 2.5, 3.75]
        let s = summary(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.25, 2.5, 3.75));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summary(&ten);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summary(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn single_sample_is_its_own_quartiles() {
        let s = summary(&[9.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (9.0, 9.0, 9.0, 1));
        assert_eq!(s.spread(), 0.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = summary(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.spread(), 1.0);
        assert_eq!(summary(&[0.0, 0.0, 0.0]).spread(), 0.0);
    }
}
