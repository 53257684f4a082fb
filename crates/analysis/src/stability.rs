//! Measurement-stability metrics — the paper's proposed future work.
//!
//! Takeaways (1) and (4) of §8: *"Future work should investigate how to
//! assess 'variances' in Web experiments"* and *"researchers should use
//! different profiles and execute multiple measurements to assess the
//! potential of 'randomized' findings."* §4.4 adds: *"developing a
//! metric to understand a measurement's potential error/variance is
//! vital to gauge the precision of a Web measurement study."*
//!
//! This module implements that metric suite on top of the cross-profile
//! data the pipeline already produces:
//!
//! * single-profile recall ([`StabilityReport::recall`]) — what
//!   fraction of the observable node population does a *single*
//!   measurement capture? (the paper's "a single measurement of a page
//!   will only capture a limited snapshot").
//! * the accumulation curve ([`StabilityReport::accumulation`]) — how
//!   does coverage grow with each additional profile (a
//!   species-accumulation curve over profiles)? Its saturation answers
//!   "how many measurements are enough".
//! * [`page_stability_index`] / [`experiment_stability`] — a composite
//!   0–1 score combining presence-, child-, and parent-stability, the
//!   "expected measurement fluctuation" figure a study could report.
//!
//! Recall and accumulation read each page's
//! `PageSummary`: its trees' node counts,
//! its record-key union and the keys its first `i + 1` trees cover.

use crate::node_similarity::PageNodeSimilarities;
use crate::ExperimentData;
use serde::{Deserialize, Serialize};
use wmtree_stats::descriptive::Summary;

/// Coverage of single-profile measurements against the union of all
/// profiles.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SingleProfileRecall {
    /// Per-profile mean recall over pages (profile order).
    pub per_profile: Vec<f64>,
    /// Summary over all (page, profile) recall values.
    pub overall: Summary,
}

/// Fraction of the page's observable nodes (union over all profiles)
/// each single profile captured. A tree's non-root key count is its
/// node count minus the root, because keys are unique within a tree.
fn single_profile_recall(data: &ExperimentData) -> SingleProfileRecall {
    let k = data.n_profiles();
    let mut per_profile_sum = vec![0.0f64; k];
    let mut per_profile_n = vec![0usize; k];
    let mut all = Vec::new();
    for summary in data.summaries() {
        let union = summary.key_depths.len();
        if union == 0 {
            continue;
        }
        for (p, tree) in summary.trees.iter().enumerate() {
            let recall = (tree.metrics().nodes - 1) as f64 / union as f64;
            per_profile_sum[p] += recall;
            per_profile_n[p] += 1;
            all.push(recall);
        }
    }
    SingleProfileRecall {
        per_profile: per_profile_sum
            .iter()
            .zip(&per_profile_n)
            .map(|(s, &n)| if n == 0 { 0.0 } else { s / n as f64 })
            .collect(),
        overall: Summary::of(&all),
    }
}

/// The accumulation curve: mean coverage of the node union after
/// combining the first `i+1` profiles, in profile order (the paper's
/// recommendation is order-free, but a fixed order keeps the metric
/// deterministic). A page with fewer trees covers nothing more past
/// its last.
fn accumulation_curve(data: &ExperimentData) -> Vec<f64> {
    let k = data.n_profiles();
    let mut sums = vec![0.0f64; k];
    let mut pages = 0usize;
    for summary in data.summaries() {
        let union = summary.key_depths.len();
        if union == 0 {
            continue;
        }
        pages += 1;
        for (i, sum) in sums.iter_mut().enumerate() {
            let covered = summary.coverage.get(i).or(summary.coverage.last());
            *sum += covered.copied().unwrap_or(0) as f64 / union as f64;
        }
    }
    sums.into_iter()
        .map(|s| if pages == 0 { 0.0 } else { s / pages as f64 })
        .collect()
}

/// The composite stability index of one page, in [0, 1].
///
/// Combines three signals with equal weight:
/// * presence stability — mean (present_in / k) over nodes,
/// * child stability — mean child similarity,
/// * parent stability — mean parent similarity.
pub fn page_stability_index(page: &PageNodeSimilarities) -> f64 {
    if page.nodes.is_empty() {
        return 1.0;
    }
    let k = page.n_trees as f64;
    let presence: f64 = page
        .nodes
        .iter()
        .map(|n| n.present_in as f64 / k)
        .sum::<f64>()
        / page.nodes.len() as f64;
    let child: Vec<f64> = page
        .nodes
        .iter()
        .filter_map(|n| n.child_similarity)
        .collect();
    let parent: Vec<f64> = page
        .nodes
        .iter()
        .filter_map(|n| n.parent_similarity)
        .collect();
    let mean = |v: &[f64]| {
        if v.is_empty() {
            1.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    (presence + mean(&child) + mean(&parent)) / 3.0
}

/// Experiment-level stability report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StabilityReport {
    /// Summary of per-page stability indices.
    pub page_index: Summary,
    /// Single-profile recall.
    pub recall: SingleProfileRecall,
    /// Accumulation curve in profile order.
    pub accumulation: Vec<f64>,
    /// The marginal gain of the last profile (how much the 5th profile
    /// still added — the "are more measurements needed?" signal).
    pub marginal_gain_last: f64,
}

/// Compute the full stability report.
pub fn experiment_stability(
    data: &ExperimentData,
    sims: &[PageNodeSimilarities],
) -> StabilityReport {
    let indices: Vec<f64> = sims.iter().map(page_stability_index).collect();
    let accumulation = accumulation_curve(data);
    let marginal_gain_last = match accumulation.len() {
        0 => 0.0,
        1 => accumulation[0],
        n => accumulation[n - 1] - accumulation[n - 2],
    };
    StabilityReport {
        page_index: Summary::of(&indices),
        recall: single_profile_recall(data),
        accumulation,
        marginal_gain_last,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::testutil::experiment;
    use crate::node_similarity::analyze_all;
    use std::collections::BTreeSet;

    /// The string-set derivation the index-based passes replaced: every
    /// tree's non-root keys as a `BTreeSet<&str>`. Kept as the oracle.
    fn oracle_recall(data: &ExperimentData) -> SingleProfileRecall {
        let k = data.n_profiles();
        let mut per_profile_sum = vec![0.0f64; k];
        let mut per_profile_n = vec![0usize; k];
        let mut all = Vec::new();
        for page in &data.pages {
            let mut union: BTreeSet<&str> = BTreeSet::new();
            let sets: Vec<BTreeSet<&str>> = page
                .trees
                .iter()
                .map(|t| {
                    let s: BTreeSet<&str> =
                        t.nodes().iter().skip(1).map(|n| n.key.as_str()).collect();
                    union.extend(&s);
                    s
                })
                .collect();
            if union.is_empty() {
                continue;
            }
            for (p, s) in sets.iter().enumerate() {
                let recall = s.len() as f64 / union.len() as f64;
                per_profile_sum[p] += recall;
                per_profile_n[p] += 1;
                all.push(recall);
            }
        }
        SingleProfileRecall {
            per_profile: per_profile_sum
                .iter()
                .zip(&per_profile_n)
                .map(|(s, &n)| if n == 0 { 0.0 } else { s / n as f64 })
                .collect(),
            overall: Summary::of(&all),
        }
    }

    /// The string-set accumulation curve, kept as the oracle.
    fn oracle_accumulation(data: &ExperimentData, order: &[usize]) -> Vec<f64> {
        let k = order.len();
        let mut sums = vec![0.0f64; k];
        let mut pages = 0usize;
        for page in &data.pages {
            let sets: Vec<BTreeSet<&str>> = page
                .trees
                .iter()
                .map(|t| t.nodes().iter().skip(1).map(|n| n.key.as_str()).collect())
                .collect();
            let union_all: BTreeSet<&str> = sets.iter().flatten().copied().collect();
            if union_all.is_empty() {
                continue;
            }
            pages += 1;
            let mut acc: BTreeSet<&str> = BTreeSet::new();
            for (i, &p) in order.iter().enumerate() {
                if let Some(s) = sets.get(p) {
                    acc.extend(s);
                }
                sums[i] += acc.len() as f64 / union_all.len() as f64;
            }
        }
        sums.into_iter()
            .map(|s| if pages == 0 { 0.0 } else { s / pages as f64 })
            .collect()
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    fn summary_bits(s: &Summary) -> (usize, [u64; 5]) {
        (
            s.n,
            [s.mean, s.sd, s.min, s.max, s.median].map(f64::to_bits),
        )
    }

    #[test]
    fn recall_matches_the_string_set_oracle_bit_for_bit() {
        let data = experiment();
        let got = single_profile_recall(data);
        let want = oracle_recall(data);
        assert_eq!(bits(&got.per_profile), bits(&want.per_profile));
        assert_eq!(summary_bits(&got.overall), summary_bits(&want.overall));
    }

    #[test]
    fn accumulation_matches_the_string_set_oracle_bit_for_bit() {
        let data = experiment();
        let got = accumulation_curve(data);
        let want = oracle_accumulation(data, &[0, 1, 2, 3, 4]);
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn recall_bounded_and_meaningful() {
        let data = experiment();
        let r = single_profile_recall(data);
        assert_eq!(r.per_profile.len(), 5);
        for &v in &r.per_profile {
            assert!((0.0..=1.0).contains(&v));
            // A single profile misses content but sees most of it.
            assert!(v > 0.5, "recall {v}");
            assert!(v < 1.0, "a single profile must not see everything");
        }
        // NoAction (index 3) has the lowest recall: it cannot see
        // interaction-gated content at all.
        let na = r.per_profile[3];
        for (i, &v) in r.per_profile.iter().enumerate() {
            if i != 3 {
                assert!(
                    na <= v + 1e-9,
                    "NoAction should have lowest recall: {:?}",
                    r.per_profile
                );
            }
        }
    }

    #[test]
    fn accumulation_is_monotone_to_one() {
        let data = experiment();
        let curve = accumulation_curve(data);
        assert_eq!(curve.len(), 5);
        for w in curve.windows(2) {
            assert!(w[1] >= w[0] - 1e-12, "curve must be monotone: {curve:?}");
        }
        assert!((curve[4] - 1.0).abs() < 1e-12, "all profiles = full union");
        // Diminishing returns: first profile adds more than the last.
        let first_gain = curve[0];
        let last_gain = curve[4] - curve[3];
        assert!(first_gain > last_gain);
    }

    #[test]
    fn stability_index_in_unit_interval() {
        let data = experiment();
        let sims = analyze_all(data);
        for page in &sims {
            let idx = page_stability_index(page);
            assert!((0.0..=1.0).contains(&idx), "{idx}");
        }
        let report = experiment_stability(data, &sims);
        assert!(report.page_index.mean > 0.4 && report.page_index.mean < 1.0);
        assert!(report.marginal_gain_last >= 0.0);
        assert!(report.marginal_gain_last < 0.2, "5th profile adds little");
    }

    #[test]
    fn empty_page_is_perfectly_stable() {
        let page = PageNodeSimilarities {
            url: "u".into(),
            site: "s".into(),
            n_trees: 5,
            nodes: vec![],
        };
        assert_eq!(page_stability_index(&page), 1.0);
    }
}
