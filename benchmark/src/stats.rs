//! Order statistics for timing samples.
//!
//! Every timing the benchmark reports is a median with its quartiles and the
//! sample count; a tail percentile counts only while at least ten samples
//! lie beyond it (so a p90 needs n >= 100).

/// Median, quartiles and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// A metric measured once per run (no spread within the run).
    pub fn single(value: f64) -> Summary {
        Summary {
            n: 1,
            q1: value,
            median: value,
            q3: value,
        }
    }

    /// Summarises `values`; `None` when empty.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let (q1, median, q3) = quartiles(values);
        Some(Summary {
            n: values.len(),
            q1,
            median,
            q3,
        })
    }

    /// Inter-quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            return 0.0;
        }
        (self.q3 - self.q1) / self.median.abs()
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median of `values` (mean of the two middle samples when n is even).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `(q1, median, q3)` by the exclusive method — the same cut points Python's
/// `statistics.quantiles(values, n=4)` returns, which is what the harness
/// driving this benchmark computes spreads with. A single sample is its own
/// three quartiles (Python refuses n = 1; a once-per-run metric has no
/// spread within the run).
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "quartiles of no samples");
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let cut = |i: usize| {
        // Position i*(n+1)/4 on a 1-based axis; the bracketing pair is
        // clamped to the samples and the cut extrapolates beyond them, as
        // Python does for tiny n.
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

/// The `p`-th percentile (0..=100) by nearest rank.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// How many samples lie strictly beyond the nearest-rank `p`-th percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n - rank.clamp(1, n.max(1)).min(n)
}

/// Prints a value with four decimals, or none once it is in the thousands.
pub fn number(v: f64) -> String {
    if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((q2 - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let (q1, q2, q3) = quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!((q1, q2, q3), (1.5, 3.0, 4.5));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 15.0, 22.5));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.n, 5);
        assert!((s.spread() - 1.0).abs() < 1e-12);
        assert_eq!(Summary::single(2.0).spread(), 0.0);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 90.0), 90.0);
        assert_eq!(samples_beyond(100, 90.0), 10);
        // 99 samples leave only nine beyond p90; 108 (12 serve cycles) leave
        // ten; a dozen ops support no tail at all.
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert_eq!(samples_beyond(108, 90.0), 10);
        assert_eq!(samples_beyond(12, 90.0), 1);
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(percentile(&[5.0], 90.0), 5.0);
    }
}
