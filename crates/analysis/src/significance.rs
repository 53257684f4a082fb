//! The significance tests quoted in §4 of the paper.

use crate::node_similarity::PageNodeSimilarities;
use crate::ExperimentData;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use wmtree_stats::kruskal::{kruskal_wallis, KruskalResult};
use wmtree_stats::mannwhitney::u_test_counts;
use wmtree_stats::spearman::{spearman, SpearmanResult};
use wmtree_stats::wilcoxon::signed_rank;
use wmtree_stats::TestResult;

/// The three §4 significance results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SignificanceReport {
    /// Wilcoxon signed-rank: number of children vs. child similarity,
    /// paired per node (paper §4.2: p < 0.001 — "nodes that have many
    /// children often load different children").
    pub children_vs_similarity: Option<TestResult>,
    /// Mann-Whitney U: node depths with vs. without user interaction
    /// (paper §4.4: p < 0.001 — interaction profiles reach deeper).
    pub interaction_vs_depth: Option<TestResult>,
    /// Kruskal-Wallis: child similarity across resource types
    /// (paper §4.2: significant effect of type on similarity).
    pub type_vs_similarity: Option<KruskalResult>,
    /// Spearman ρ between children count and child similarity — makes
    /// the §4.2 association's *direction* explicit (the paper's claim:
    /// "nodes that have many children often load different children",
    /// i.e. ρ < 0).
    pub children_similarity_rho: Option<SpearmanResult>,
}

/// Run the three tests.
///
/// `interaction_profiles` / `no_interaction_profiles` name the profile
/// indices on each side of the Mann-Whitney comparison.
pub fn significance(
    data: &ExperimentData,
    sims: &[PageNodeSimilarities],
    interaction_profiles: &[usize],
    no_interaction_profiles: &[usize],
) -> SignificanceReport {
    // --- Wilcoxon: children count vs child similarity ----------------
    // Pair per node: (normalized children count, similarity). The paper
    // pairs the two continuous variables over nodes; we test whether
    // the similarity ranks differ from the (rescaled) children-count
    // ranks, which detects the same monotone association.
    let mut counts = Vec::new();
    let mut simvals = Vec::new();
    for page in sims {
        for n in &page.nodes {
            if let Some(s) = n.child_similarity {
                counts.push(n.max_children as f64);
                simvals.push(s);
            }
        }
    }
    let children_similarity_rho = if counts.len() >= 10 {
        spearman(&counts, &simvals).ok()
    } else {
        None
    };
    let children_vs_similarity = if counts.len() >= 10 {
        // Rescale counts into [0, 1] so the paired test compares
        // comparable magnitudes.
        let max = counts.iter().cloned().fold(1.0f64, f64::max);
        let scaled: Vec<f64> = counts.iter().map(|c| c / max).collect();
        signed_rank(&scaled, &simvals).ok()
    } else {
        None
    };

    // --- Mann-Whitney: depth with vs without interaction --------------
    // Node depths as counts per depth, from the page summaries' tree
    // widths: the counts form of the test returns the bits the test
    // returns on the depths themselves.
    let mut with: Vec<usize> = Vec::new();
    let mut without: Vec<usize> = Vec::new();
    for summary in data.summaries() {
        for (profiles, counts) in [
            (interaction_profiles, &mut with),
            (no_interaction_profiles, &mut without),
        ] {
            for &p in profiles {
                let widths = &summary.trees[p].widths;
                if counts.len() < widths.len() {
                    counts.resize(widths.len(), 0);
                }
                // Depth 0 holds only the root.
                for (count, &width) in counts.iter_mut().zip(widths).skip(1) {
                    *count += width;
                }
            }
        }
    }
    let interaction_vs_depth = u_test_counts(&with, &without).ok();

    // --- Kruskal-Wallis: resource type vs child similarity ------------
    let mut by_type: BTreeMap<wmtree_net::ResourceType, Vec<f64>> = BTreeMap::new();
    for page in sims {
        for n in &page.nodes {
            if let Some(s) = n.child_similarity {
                by_type.entry(n.resource_type).or_default().push(s);
            }
        }
    }
    let groups: Vec<&[f64]> = by_type
        .values()
        .filter(|v| v.len() >= 5)
        .map(|v| v.as_slice())
        .collect();
    let type_vs_similarity = if groups.len() >= 2 {
        kruskal_wallis(&groups).ok()
    } else {
        None
    };

    SignificanceReport {
        children_vs_similarity,
        interaction_vs_depth,
        type_vs_similarity,
        children_similarity_rho,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::testutil::experiment;
    use crate::node_similarity::analyze_all;

    #[test]
    fn all_three_tests_run() {
        let data = experiment();
        let sims = analyze_all(data);
        // Standard order: interaction = Old, Sim1, Sim2, Headless;
        // no interaction = NoAction.
        let r = significance(data, &sims, &[0, 1, 2, 4], &[3]);
        let w = r.children_vs_similarity.expect("wilcoxon ran");
        assert!((0.0..=1.0).contains(&w.p_value));
        let u = r.interaction_vs_depth.expect("mann-whitney ran");
        assert!((0.0..=1.0).contains(&u.p_value));
        let k = r.type_vs_similarity.expect("kruskal ran");
        assert!((0.0..=1.0).contains(&k.test.p_value));
        let rho = r.children_similarity_rho.expect("spearman ran");
        // The paper's direction: many children ⇒ less similar children.
        assert!(rho.rho < 0.0, "rho {}", rho.rho);
        assert!(rho.p_value < 0.05);
    }

    #[test]
    fn interaction_affects_depth_distribution() {
        let data = experiment();
        let sims = analyze_all(data);
        let r = significance(data, &sims, &[1], &[3]);
        // With enough data the interaction effect is significant,
        // matching §4.4.
        let u = r.interaction_vs_depth.expect("test ran");
        assert!(u.p_value < 0.05, "p = {}", u.p_value);
    }
}
