//! Fig. 1 (depth×breadth heatmap), Fig. 2 (similarity distributions),
//! and Fig. 8 (children per depth).

use crate::node_similarity::PageNodeSimilarities;
use crate::ExperimentData;
use serde::{Deserialize, Serialize};
use wmtree_stats::histogram::{Histogram, Histogram2D};

/// Fig. 1: the joint distribution of tree depth (y) and breadth (x).
pub fn depth_breadth_grid(
    data: &ExperimentData,
    max_breadth: usize,
    max_depth: usize,
) -> Histogram2D {
    let mut grid = Histogram2D::new(max_breadth, max_depth);
    for summary in data.summaries() {
        for tree in &summary.trees {
            let m = tree.metrics();
            grid.push(m.breadth, m.depth);
        }
    }
    grid
}

/// Fig. 2: distributions of child- and parent-similarity over all nodes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimilarityDistributions {
    /// Histogram of per-node child similarity (10 bins over [0, 1]).
    pub children: Histogram,
    /// Histogram of per-node parent similarity.
    pub parents: Histogram,
}

/// Compute Fig. 2.
pub fn similarity_distributions(sims: &[PageNodeSimilarities]) -> SimilarityDistributions {
    let mut children = Histogram::new(0.0, 1.0, 10);
    let mut parents = Histogram::new(0.0, 1.0, 10);
    for page in sims {
        for n in &page.nodes {
            if let Some(s) = n.child_similarity {
                children.push(s);
            }
            if let Some(s) = n.parent_similarity {
                parents.push(s);
            }
        }
    }
    SimilarityDistributions { children, parents }
}

/// Fig. 8 / §4.2: number of children per node, grouped by depth.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChildrenByDepth {
    /// `mean_children[d]` — mean direct children of nodes at depth `d`
    /// (capped at `max_depth`; deeper levels fold into the last slot).
    pub mean_children: Vec<f64>,
    /// Same restricted to nodes with at least one child.
    pub mean_children_nonleaf: Vec<f64>,
    /// Overall mean children per node (paper: 0.9).
    pub overall_mean: f64,
    /// Mean children of the root, i.e. elements directly loaded by the
    /// page (paper: 31.7).
    pub root_mean: f64,
    /// Share of nodes at depth ≥ 1 with at most one child (paper: 92%
    /// have one or no direct children).
    pub share_leafish: f64,
}

/// Compute Fig. 8 data from the page summaries' per-depth counts.
/// Every count is an integer, so the per-depth sums come out as the
/// same floats whether they are added per node or per page.
pub fn children_by_depth(data: &ExperimentData, max_depth: usize) -> ChildrenByDepth {
    let mut sum = vec![0usize; max_depth + 1];
    let mut cnt = vec![0usize; max_depth + 1];
    let mut cnt_nl = vec![0usize; max_depth + 1];
    let mut total_children = 0usize;
    let mut total_nodes = 0usize;
    let mut root_children = 0usize;
    let mut root_count = 0usize;
    let mut leafish = 0usize;

    for summary in data.summaries() {
        for (depth, level) in summary.levels.iter().enumerate() {
            let d = depth.min(max_depth);
            sum[d] += level.children;
            cnt[d] += level.nodes;
            cnt_nl[d] += level.parents;
            if depth == 0 {
                root_children += level.children;
                root_count += level.nodes;
            } else {
                total_children += level.children;
                total_nodes += level.nodes;
            }
        }
        leafish += summary.leafish;
    }

    let div = |s: usize, n: usize| if n == 0 { 0.0 } else { s as f64 / n as f64 };
    ChildrenByDepth {
        mean_children: sum.iter().zip(&cnt).map(|(&s, &n)| div(s, n)).collect(),
        // Childless nodes add nothing, so non-leaf nodes hold every child.
        mean_children_nonleaf: sum.iter().zip(&cnt_nl).map(|(&s, &n)| div(s, n)).collect(),
        overall_mean: div(total_children, total_nodes),
        root_mean: div(root_children, root_count),
        share_leafish: div(leafish, total_nodes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::testutil::experiment;
    use crate::node_similarity::analyze_all;

    #[test]
    fn grid_counts_all_trees() {
        let data = experiment();
        let grid = depth_breadth_grid(data, 60, 30);
        assert_eq!(grid.total() as usize, data.tree_count());
        // Mass concentrated at shallow depth / moderate breadth.
        let shallow: u64 = (0..=8)
            .map(|d| (0..=60).map(|b| grid.get(b, d)).sum::<u64>())
            .sum();
        assert!(shallow as f64 / grid.total() as f64 > 0.8);
    }

    #[test]
    fn similarity_histograms_populated() {
        let data = experiment();
        let sims = analyze_all(data);
        let dist = similarity_distributions(&sims);
        assert!(dist.children.total() > 100);
        assert!(dist.parents.total() > 100);
        // Parents: mass at the top bin (stable) and some at the bottom —
        // the bimodal Fig. 2 shape.
        let rel = dist.parents.relative();
        assert!(rel[9] > 0.3, "top-bin parent mass {}", rel[9]);
        assert!(
            rel[0] + rel[1] + rel[2] > 0.05,
            "low-similarity tail missing"
        );
    }

    #[test]
    fn children_by_depth_shape() {
        let data = experiment();
        let c = children_by_depth(data, 20);
        // The page loads many elements directly...
        assert!(c.root_mean > 10.0, "root mean {}", c.root_mean);
        // ...while most deeper nodes are leaves.
        assert!(c.overall_mean < 3.0, "overall {}", c.overall_mean);
        assert!(c.share_leafish > 0.6, "leafish {}", c.share_leafish);
        // Non-leaf nodes have ≥1 children by definition.
        for (d, &m) in c.mean_children_nonleaf.iter().enumerate() {
            if m > 0.0 {
                assert!(m >= 1.0, "depth {d}: {m}");
            }
        }
    }
}
