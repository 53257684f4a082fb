//! Descriptive statistics: the avg/SD/min/max/median summaries that back
//! every table in the paper.

use serde::{Deserialize, Serialize};

/// A five-number-style summary of a sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of observations.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n − 1 denominator); 0 for n < 2.
    pub sd: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Median (average of middle two for even n).
    pub median: f64,
}

impl Summary {
    /// Summarize a sample. Returns the all-zero summary for an empty
    /// sample (n = 0) so table rows can render without special-casing.
    pub fn of(values: &[f64]) -> Summary {
        if values.is_empty() {
            return Summary {
                n: 0,
                mean: 0.0,
                sd: 0.0,
                min: 0.0,
                max: 0.0,
                median: 0.0,
            };
        }
        let n = values.len();
        let mean = values.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let mut sorted: Vec<f64> = values.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        Summary {
            n,
            mean,
            sd: var.sqrt(),
            min: sorted[0],
            max: sorted[n - 1],
            median,
        }
    }
}

/// Streaming mean/SD/min/max accumulator (Welford), for passes over data
/// too large to buffer.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct Accumulator {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Accumulator {
    /// A fresh accumulator.
    pub fn new() -> Self {
        Accumulator {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Feed one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Merge another accumulator (parallel reduction).
    pub fn merge(&mut self, other: &Accumulator) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean so far (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample SD so far (0 for n < 2).
    pub fn sd(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }

    /// Minimum so far (0 when empty, matching `Summary::of`).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Maximum so far (0 when empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.n, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Sample SD of this classic dataset is sqrt(32/7).
        assert!((s.sd - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert!((s.median - 4.5).abs() < 1e-12);
    }

    #[test]
    fn summary_single_value() {
        let s = Summary::of(&[3.0]);
        assert_eq!(s.sd, 0.0);
        assert_eq!(s.median, 3.0);
    }

    #[test]
    fn summary_empty() {
        let s = Summary::of(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn summary_odd_median() {
        let s = Summary::of(&[5.0, 1.0, 3.0]);
        assert_eq!(s.median, 3.0);
    }

    #[test]
    fn accumulator_matches_summary() {
        let data = [1.5, 2.5, -3.0, 4.0, 0.0, 10.0];
        let mut acc = Accumulator::new();
        for &x in &data {
            acc.push(x);
        }
        let s = Summary::of(&data);
        assert_eq!(acc.count(), 6);
        assert!((acc.mean() - s.mean).abs() < 1e-12);
        assert!((acc.sd() - s.sd).abs() < 1e-12);
        assert_eq!(acc.min(), s.min);
        assert_eq!(acc.max(), s.max);
    }

    #[test]
    fn accumulator_merge_matches_sequential() {
        let a = [1.0, 2.0, 3.0];
        let b = [10.0, 20.0];
        let mut acc1 = Accumulator::new();
        a.iter().for_each(|&x| acc1.push(x));
        let mut acc2 = Accumulator::new();
        b.iter().for_each(|&x| acc2.push(x));
        acc1.merge(&acc2);

        let mut seq = Accumulator::new();
        a.iter().chain(b.iter()).for_each(|&x| seq.push(x));
        assert!((acc1.mean() - seq.mean()).abs() < 1e-12);
        assert!((acc1.sd() - seq.sd()).abs() < 1e-12);
        assert_eq!(acc1.count(), seq.count());
    }

    #[test]
    fn accumulator_merge_with_empty() {
        let mut acc = Accumulator::new();
        acc.push(5.0);
        let empty = Accumulator::new();
        acc.merge(&empty);
        assert_eq!(acc.count(), 1);
        let mut e2 = Accumulator::new();
        e2.merge(&acc);
        assert_eq!(e2.count(), 1);
        assert_eq!(e2.mean(), 5.0);
    }
}
