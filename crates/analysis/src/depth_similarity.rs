//! Table 3 (similarity of nodes at different depths) and Fig. 4
//! (child/parent similarity by depth).

use crate::node_similarity::PageNodeSimilarities;
use crate::ExperimentData;
use serde::{Deserialize, Serialize};
use wmtree_stats::descriptive::Summary;
use wmtree_stats::jaccard::SimilarityCategory;

/// Which nodes a depth-similarity variant includes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DepthFilter {
    /// Every node.
    All,
    /// Only nodes that have at least one child in that tree.
    WithChildren,
    /// Only nodes present in all trees of the page.
    InAllTrees,
    /// Only first-party nodes.
    FirstParty,
    /// Only third-party nodes.
    ThirdParty,
}

impl DepthFilter {
    /// Label as printed in Table 3.
    pub fn label(self) -> &'static str {
        match self {
            DepthFilter::All => "across all depths (all nodes)",
            DepthFilter::WithChildren => "across all depths (only nodes with children)",
            DepthFilter::InAllTrees => "nodes in all trees",
            DepthFilter::FirstParty => "first-party nodes",
            DepthFilter::ThirdParty => "third-party nodes",
        }
    }
}

/// One row of Table 3.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DepthSimilarityRow {
    /// Variant.
    pub filter: DepthFilter,
    /// Similarity category of the mean.
    pub category: SimilarityCategory,
    /// Per-page per-depth Jaccard summary.
    pub sim: Summary,
}

impl DepthFilter {
    /// Every variant, in Table 3's row order.
    pub const ALL: [DepthFilter; 5] = [
        DepthFilter::All,
        DepthFilter::WithChildren,
        DepthFilter::InAllTrees,
        DepthFilter::FirstParty,
        DepthFilter::ThirdParty,
    ];
}

/// Compute all five rows of Table 3: per variant, the summary of the
/// pages' scores. A page's score averages its per-depth Jaccards
/// *within* the page first ("the arithmetic mean value to state the
/// similarity for a given page", §3.2), so each page contributes one
/// value, computed with its [`PageSummary`](crate::summary::PageSummary).
pub fn table3(data: &ExperimentData) -> Vec<DepthSimilarityRow> {
    let summaries: Vec<_> = data.summaries().collect();
    DepthFilter::ALL
        .into_iter()
        .enumerate()
        .map(|(i, filter)| {
            let scores: Vec<f64> = summaries.iter().filter_map(|s| s.depth_scores[i]).collect();
            let sim = Summary::of(&scores);
            DepthSimilarityRow {
                filter,
                category: SimilarityCategory::of(sim.mean),
                sim,
            }
        })
        .collect()
}

/// Fig. 4: mean child/parent similarity of nodes grouped by depth
/// (depths beyond `max_depth` fold into the last slot, like the paper's
/// "4+" group).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimilarityByDepth {
    /// Mean child similarity per depth (index = depth).
    pub children: Vec<f64>,
    /// Mean parent similarity per depth.
    pub parents: Vec<f64>,
    /// Node counts per depth backing each mean.
    pub counts: Vec<usize>,
}

/// Compute Fig. 4 data.
pub fn similarity_by_depth(sims: &[PageNodeSimilarities], max_depth: usize) -> SimilarityByDepth {
    let mut child_sum = vec![0.0; max_depth + 1];
    let mut child_cnt = vec![0usize; max_depth + 1];
    let mut parent_sum = vec![0.0; max_depth + 1];
    let mut parent_cnt = vec![0usize; max_depth + 1];
    let mut counts = vec![0usize; max_depth + 1];
    for page in sims {
        for n in &page.nodes {
            let d = n.depth().min(max_depth);
            counts[d] += 1;
            if let Some(s) = n.child_similarity {
                child_sum[d] += s;
                child_cnt[d] += 1;
            }
            if let Some(s) = n.parent_similarity {
                parent_sum[d] += s;
                parent_cnt[d] += 1;
            }
        }
    }
    let div = |s: &[f64], c: &[usize]| {
        s.iter()
            .zip(c)
            .map(|(x, &n)| if n == 0 { 0.0 } else { x / n as f64 })
            .collect::<Vec<f64>>()
    };
    SimilarityByDepth {
        children: div(&child_sum, &child_cnt),
        parents: div(&parent_sum, &parent_cnt),
        counts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::testutil::experiment;
    use crate::node_similarity::analyze_all;
    use wmtree_url::Party;

    #[test]
    fn table3_rows_have_paper_ordering() {
        let data = experiment();
        let rows = table3(data);
        assert_eq!(rows.len(), 5);
        let get = |f: DepthFilter| rows.iter().find(|r| r.filter == f).unwrap().sim.mean;

        let all = get(DepthFilter::All);
        let with_children = get(DepthFilter::WithChildren);
        let in_all = get(DepthFilter::InAllTrees);
        let fp = get(DepthFilter::FirstParty);
        let tp = get(DepthFilter::ThirdParty);

        // The paper's ordering: in-all ≥ first-party ≥ all ≥ with-children,
        // and third-party lowest of the party split.
        assert!(
            in_all > 0.9,
            "nodes in all trees should be ~.99, got {in_all}"
        );
        assert!(fp > tp, "first-party {fp} must exceed third-party {tp}");
        assert!(
            all >= with_children,
            "all {all} vs with-children {with_children}"
        );
        assert!(fp > 0.7, "first-party {fp}");
        assert!(tp < 0.95);
        for r in &rows {
            assert!((0.0..=1.0).contains(&r.sim.mean));
            assert!(!r.filter.label().is_empty());
        }
    }

    /// The pre-index `depth_scores`, kept verbatim as a test oracle.
    fn depth_scores_reference(data: &ExperimentData, filter: DepthFilter) -> Vec<f64> {
        use std::collections::BTreeSet;
        use wmtree_stats::jaccard::pairwise_mean_jaccard;
        let keys_at_depth = |tree: &wmtree_tree::DepTree,
                             depth: usize,
                             in_all: &BTreeSet<String>|
         -> BTreeSet<String> {
            tree.nodes_at_depth(depth)
                .filter(|n| match filter {
                    DepthFilter::All => true,
                    DepthFilter::WithChildren => !n.children.is_empty(),
                    DepthFilter::InAllTrees => in_all.contains(n.key.as_str()),
                    DepthFilter::FirstParty => n.party == Party::First,
                    DepthFilter::ThirdParty => n.party == Party::Third,
                })
                .map(|n| n.key.clone())
                .collect()
        };
        let mut scores = Vec::new();
        for page in &data.pages {
            let mut page_scores: Vec<f64> = Vec::new();
            let mut in_all: BTreeSet<String> = match page.trees.first() {
                Some(t) => t.nodes().iter().skip(1).map(|n| n.key.clone()).collect(),
                None => continue,
            };
            for t in page.trees.iter().skip(1) {
                let keys: BTreeSet<String> =
                    t.nodes().iter().skip(1).map(|n| n.key.clone()).collect();
                in_all = in_all.intersection(&keys).cloned().collect();
            }
            let max_depth = page
                .trees
                .iter()
                .map(|t| t.metrics().depth)
                .max()
                .unwrap_or(0);
            for depth in 1..=max_depth {
                let sets: Vec<BTreeSet<String>> = page
                    .trees
                    .iter()
                    .map(|t| keys_at_depth(t, depth, &in_all))
                    .collect();
                if sets.iter().all(|s| s.is_empty()) {
                    continue;
                }
                if let Some(score) = pairwise_mean_jaccard(&sets) {
                    page_scores.push(score);
                }
            }
            if !page_scores.is_empty() {
                scores.push(page_scores.iter().sum::<f64>() / page_scores.len() as f64);
            }
        }
        scores
    }

    #[test]
    fn summarized_depth_scores_match_reference() {
        let data = experiment();
        for (i, filter) in DepthFilter::ALL.into_iter().enumerate() {
            let new: Vec<u64> = data
                .summaries()
                .filter_map(|s| s.depth_scores[i])
                .map(f64::to_bits)
                .collect();
            let old: Vec<u64> = depth_scores_reference(data, filter)
                .into_iter()
                .map(f64::to_bits)
                .collect();
            assert_eq!(new, old, "bitwise divergence for {filter:?}");
        }
    }

    #[test]
    fn fig4_similarity_decays_with_depth() {
        let data = experiment();
        let sims = analyze_all(data);
        let by_depth = similarity_by_depth(&sims, 4);
        assert_eq!(by_depth.children.len(), 5);
        // Depth 1 nodes are more stable than the deep (4+) group.
        let d1 = by_depth.parents[1];
        let deep = by_depth.parents[4];
        assert!(d1 > deep, "parent sim should decay: d1={d1} deep={deep}");
        assert!(by_depth.counts[1] > by_depth.counts[4]);
    }
}

#[cfg(test)]
mod diag {
    use super::*;
    use crate::data::testutil::experiment;
    use std::collections::BTreeSet;
    use wmtree_stats::jaccard::pairwise_mean_jaccard;
    use wmtree_tree::DepTree;
    use wmtree_url::Party;

    /// The pre-index per-depth key extraction, kept as a readable
    /// reference for the diagnostics below.
    fn keys_at_depth<'a>(
        tree: &'a DepTree,
        depth: usize,
        filter: DepthFilter,
        in_all: &BTreeSet<&str>,
    ) -> BTreeSet<&'a str> {
        tree.nodes_at_depth(depth)
            .filter(|n| match filter {
                DepthFilter::All => true,
                DepthFilter::WithChildren => !n.children.is_empty(),
                DepthFilter::InAllTrees => in_all.contains(n.key.as_str()),
                DepthFilter::FirstParty => n.party == Party::First,
                DepthFilter::ThirdParty => n.party == Party::Third,
            })
            .map(|n| n.key.as_str())
            .collect()
    }

    /// Not an assertion — prints per-depth similarity diagnostics.
    #[test]
    #[ignore]
    fn print_depth_profile() {
        let data = experiment();
        for filter in [DepthFilter::All, DepthFilter::WithChildren] {
            // Reuse internals: group scores by depth.
            let mut by_depth: std::collections::BTreeMap<usize, (f64, usize)> = Default::default();
            for page in &data.pages {
                let mut in_all: BTreeSet<&str> = page.trees[0]
                    .nodes()
                    .iter()
                    .skip(1)
                    .map(|n| n.key.as_str())
                    .collect();
                for t in page.trees.iter().skip(1) {
                    let keys: BTreeSet<&str> =
                        t.nodes().iter().skip(1).map(|n| n.key.as_str()).collect();
                    in_all = in_all.intersection(&keys).copied().collect();
                }
                let max_depth = page
                    .trees
                    .iter()
                    .map(|t| t.metrics().depth)
                    .max()
                    .unwrap_or(0);
                for depth in 1..=max_depth {
                    let sets: Vec<BTreeSet<String>> = page
                        .trees
                        .iter()
                        .map(|t| {
                            keys_at_depth(t, depth, filter, &in_all)
                                .into_iter()
                                .map(String::from)
                                .collect()
                        })
                        .collect();
                    if sets.iter().all(|s| s.is_empty()) {
                        continue;
                    }
                    if let Some(score) = pairwise_mean_jaccard(&sets) {
                        let e = by_depth.entry(depth).or_insert((0.0, 0));
                        e.0 += score;
                        e.1 += 1;
                    }
                }
            }
            println!("== {filter:?}");
            for (d, (s, n)) in by_depth {
                println!("  depth {d}: mean {:.3} over {n} rows", s / n as f64);
            }
        }
    }
}
