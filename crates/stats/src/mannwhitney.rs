//! Mann-Whitney U test for two independent samples.
//!
//! Used by the paper "to determine differences between two independent
//! variables" (§3.1), e.g. the effect of mimicked user interaction on the
//! depth of nodes (§4.4, p < 0.001).

use crate::dist::normal_two_sided_p;
use crate::ranks::{midranks, tie_correction_sum};
use crate::TestResult;

/// Error cases for the U test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MannWhitneyError {
    /// One of the samples is empty.
    EmptySample,
}

impl std::fmt::Display for MannWhitneyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("both samples must be non-empty")
    }
}

impl std::error::Error for MannWhitneyError {}

/// Two-sided Mann-Whitney U test with tie-corrected normal approximation
/// and continuity correction. Reports `U = min(U₁, U₂)`.
pub fn u_test(x: &[f64], y: &[f64]) -> Result<TestResult, MannWhitneyError> {
    if x.is_empty() || y.is_empty() {
        return Err(MannWhitneyError::EmptySample);
    }
    let mut combined: Vec<f64> = Vec::with_capacity(x.len() + y.len());
    combined.extend_from_slice(x);
    combined.extend_from_slice(y);
    let ranks = midranks(&combined);
    let r1: f64 = ranks[..x.len()].iter().sum();
    Ok(u_of_ranks(
        r1,
        x.len(),
        y.len(),
        tie_correction_sum(&combined),
    ))
}

/// [`u_test`] over two samples of small non-negative integers given as
/// counts: `x[v]` of the first sample's values equal `v`, and so for
/// `y`. In time linear in the largest value, it returns the very bits
/// `u_test` returns on the samples in any order: `x`'s rank sum adds
/// midranks, which are half-integers, so every order of adding them is
/// exact, and the tie-correction terms are summed in value order, as
/// `u_test`'s sort does.
pub fn u_test_counts(x: &[usize], y: &[usize]) -> Result<TestResult, MannWhitneyError> {
    let (n1, n2) = (x.iter().sum::<usize>(), y.iter().sum::<usize>());
    if n1 == 0 || n2 == 0 {
        return Err(MannWhitneyError::EmptySample);
    }
    let (mut r1, mut below) = (0.0, 0usize);
    let mut ties = Vec::new();
    for v in 0..x.len().max(y.len()) {
        let a = x.get(v).copied().unwrap_or(0);
        let t = a + y.get(v).copied().unwrap_or(0);
        if t == 0 {
            continue;
        }
        // Positions below..below + t share the mean of their 1-based ranks.
        let midrank = (2 * below + t + 1) as f64 / 2.0;
        r1 += a as f64 * midrank;
        if t > 1 {
            ties.push(t);
        }
        below += t;
    }
    let tie_sum = ties
        .into_iter()
        .map(|t| {
            let t = t as f64;
            t * t * t - t
        })
        .sum();
    Ok(u_of_ranks(r1, n1, n2, tie_sum))
}

/// The U statistic and its p-value from the first sample's rank sum
/// `r1`, the sample sizes and the tie-correction sum.
fn u_of_ranks(r1: f64, n1: usize, n2: usize, tie_sum: f64) -> TestResult {
    let n1 = n1 as f64;
    let n2 = n2 as f64;
    let u1 = r1 - n1 * (n1 + 1.0) / 2.0;
    let u2 = n1 * n2 - u1;
    let u = u1.min(u2);

    let n = n1 + n2;
    let var = n1 * n2 / 12.0 * ((n + 1.0) - tie_sum / (n * (n - 1.0)));
    if var <= 0.0 {
        return TestResult {
            statistic: u,
            p_value: 1.0,
        };
    }
    let mean = n1 * n2 / 2.0;
    let num = ((u - mean).abs() - 0.5).max(0.0);
    let z = num / var.sqrt();
    TestResult {
        statistic: u,
        p_value: normal_two_sided_p(z),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sample_errors() {
        assert!(u_test(&[], &[1.0]).is_err());
        assert!(u_test(&[1.0], &[]).is_err());
    }

    #[test]
    fn symmetric_in_arguments() {
        let x = [1.0, 4.0, 7.0, 2.0];
        let y = [3.0, 8.0, 9.0, 5.0, 6.0];
        let a = u_test(&x, &y).unwrap();
        let b = u_test(&y, &x).unwrap();
        assert!((a.statistic - b.statistic).abs() < 1e-12);
        assert!((a.p_value - b.p_value).abs() < 1e-12);
    }

    #[test]
    fn identical_distributions_u_is_central() {
        let x = [1.0, 3.0, 5.0, 7.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        let r = u_test(&x, &y).unwrap();
        assert!(r.p_value > 0.5);
        assert!(!r.significant());
    }

    #[test]
    fn disjoint_ranges_significant() {
        let x: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let y: Vec<f64> = (100..130).map(|i| i as f64).collect();
        let r = u_test(&x, &y).unwrap();
        assert_eq!(r.statistic, 0.0);
        assert!(r.p_value < 1e-6);
    }

    #[test]
    fn known_small_example() {
        // Samples: x = {19,22,16,29,24}, y = {20,11,17,12}. U = min(17, 3) = 3.
        let x = [19.0, 22.0, 16.0, 29.0, 24.0];
        let y = [20.0, 11.0, 17.0, 12.0];
        let r = u_test(&x, &y).unwrap();
        assert!((r.statistic - 3.0).abs() < 1e-12);
    }

    #[test]
    fn heavy_ties_still_valid() {
        let x = [1.0, 1.0, 1.0, 2.0, 2.0];
        let y = [1.0, 2.0, 2.0, 2.0, 2.0];
        let r = u_test(&x, &y).unwrap();
        assert!((0.0..=1.0).contains(&r.p_value));
    }

    #[test]
    fn all_equal_degenerate() {
        let x = [5.0, 5.0];
        let y = [5.0, 5.0];
        let r = u_test(&x, &y).unwrap();
        assert_eq!(r.p_value, 1.0);
    }
}
