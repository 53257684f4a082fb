//! Property tests for the statistics toolkit.

use proptest::prelude::*;
use std::collections::BTreeSet;
use wmtree_stats::descriptive::{Accumulator, Summary};
use wmtree_stats::jaccard::{jaccard, pairwise_mean_jaccard};
use wmtree_stats::kruskal::kruskal_wallis;
use wmtree_stats::mannwhitney::{u_test, u_test_counts};
use wmtree_stats::ranks::midranks;
use wmtree_stats::wilcoxon::signed_rank;

fn sample(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec((-1000i32..1000).prop_map(|v| v as f64 / 10.0), 1..max_len)
}

fn set() -> impl Strategy<Value = BTreeSet<u8>> {
    prop::collection::btree_set(any::<u8>(), 0..20)
}

/// The values `counts` describes (`counts[v]` copies of `v`), in an
/// order `seed` scrambles.
fn values_of(counts: &[usize], seed: u64) -> Vec<f64> {
    let mut values: Vec<f64> = counts
        .iter()
        .enumerate()
        .flat_map(|(v, &n)| std::iter::repeat_n(v as f64, n))
        .collect();
    let mut state = seed | 1;
    for i in (1..values.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        values.swap(i, (state >> 33) as usize % (i + 1));
    }
    values
}

proptest! {
    /// The counts form of the U test returns `u_test`'s bits on the
    /// same values in any order, ties and empty samples included.
    #[test]
    fn u_test_counts_is_u_test(
        x in prop::collection::vec(0usize..40, 0..12),
        y in prop::collection::vec(0usize..40, 0..12),
        seed in any::<u64>(),
    ) {
        let bits = |r: Result<wmtree_stats::TestResult, _>| {
            r.map(|t| (t.statistic.to_bits(), t.p_value.to_bits())).ok()
        };
        prop_assert_eq!(
            bits(u_test_counts(&x, &y)),
            bits(u_test(&values_of(&x, seed), &values_of(&y, !seed)))
        );
    }

    /// Jaccard is symmetric, bounded, and 1 exactly on equal sets.
    #[test]
    fn jaccard_axioms(a in set(), b in set()) {
        let j = jaccard(&a, &b);
        prop_assert!((0.0..=1.0).contains(&j));
        prop_assert_eq!(j, jaccard(&b, &a));
        prop_assert_eq!(jaccard(&a, &a), 1.0);
        if j == 1.0 {
            prop_assert_eq!(&a, &b);
        }
        // Monotone under intersection-preserving growth: adding a common
        // element never lowers the index below the disjoint case.
        if a.is_empty() != b.is_empty() {
            prop_assert_eq!(j, 0.0);
        }
    }

    /// Pairwise-mean Jaccard is invariant under permutation of the sets.
    #[test]
    fn pairwise_mean_permutation_invariant(sets in prop::collection::vec(set(), 2..5)) {
        let m1 = pairwise_mean_jaccard(&sets).unwrap();
        let mut rev = sets.clone();
        rev.reverse();
        let m2 = pairwise_mean_jaccard(&rev).unwrap();
        prop_assert!((m1 - m2).abs() < 1e-12);
    }

    /// Summary invariants: min ≤ median ≤ max, mean within [min, max],
    /// SD ≥ 0.
    #[test]
    fn summary_invariants(data in sample(60)) {
        let s = Summary::of(&data);
        prop_assert!(s.min <= s.median && s.median <= s.max);
        prop_assert!(s.min <= s.mean && s.mean <= s.max);
        prop_assert!(s.sd >= 0.0);
        prop_assert_eq!(s.n, data.len());
    }

    /// The streaming accumulator agrees with the batch summary.
    #[test]
    fn accumulator_agrees(data in sample(60)) {
        let mut acc = Accumulator::new();
        for &x in &data {
            acc.push(x);
        }
        let s = Summary::of(&data);
        prop_assert!((acc.mean() - s.mean).abs() < 1e-9);
        prop_assert!((acc.sd() - s.sd).abs() < 1e-9);
        prop_assert_eq!(acc.min(), s.min);
        prop_assert_eq!(acc.max(), s.max);
    }

    /// Midranks are a permutation-equivariant assignment summing to
    /// n(n+1)/2.
    #[test]
    fn midranks_sum(data in sample(40)) {
        let r = midranks(&data);
        let n = data.len() as f64;
        let total: f64 = r.iter().sum();
        prop_assert!((total - n * (n + 1.0) / 2.0).abs() < 1e-9);
        for &rank in &r {
            prop_assert!(rank >= 1.0 && rank <= n);
        }
    }

    /// All test p-values live in [0, 1]; tests are symmetric where the
    /// statistic demands it.
    #[test]
    fn p_values_bounded(a in sample(30), b in sample(30)) {
        if let Ok(r) = u_test(&a, &b) {
            prop_assert!((0.0..=1.0).contains(&r.p_value));
            let rev = u_test(&b, &a).unwrap();
            prop_assert!((r.p_value - rev.p_value).abs() < 1e-9);
        }
        if a.len() == b.len() {
            if let Ok(r) = signed_rank(&a, &b) {
                prop_assert!((0.0..=1.0).contains(&r.p_value));
            }
        }
        if let Ok(r) = kruskal_wallis(&[&a, &b]) {
            prop_assert!((0.0..=1.0).contains(&r.test.p_value));
            prop_assert!(r.epsilon_squared.is_finite());
        }
    }

    /// A pure location shift in one direction can only be "detected" —
    /// the U statistic must not exceed the unshifted case's central value.
    #[test]
    fn shift_reduces_u(data in sample(30), shift in 1i32..50) {
        let shifted: Vec<f64> = data.iter().map(|v| v + shift as f64 + 1000.0).collect();
        let r = u_test(&data, &shifted).unwrap();
        // Completely separated samples: U = 0.
        prop_assert_eq!(r.statistic, 0.0);
    }
}
