//! Table 2: high-level overview of the measured trees and node presence
//! across profiles.

use crate::node_similarity::PageNodeSimilarities;
use crate::ExperimentData;
use serde::{Deserialize, Serialize};
use wmtree_stats::descriptive::Summary;

/// The reproduced Table 2.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TreeOverview {
    /// Summary of node counts per tree.
    pub nodes: Summary,
    /// Summary of tree depths.
    pub depth: Summary,
    /// Summary of tree breadths.
    pub breadth: Summary,
    /// Mean number of profiles each node is present in (paper: 3.6).
    pub avg_presence: f64,
    /// SD of the presence count (paper: 1.7).
    pub presence_sd: f64,
    /// Share of nodes present in all profiles (paper: 52%).
    pub share_in_all: f64,
    /// Share of nodes present in exactly one profile (paper: 24%).
    pub share_in_one: f64,
    /// Share of trees with depth < 6 **and** breadth < 21 (paper: 56%).
    pub share_small: f64,
}

/// Compute Table 2 from the page summaries' tree metrics and the
/// per-node similarities.
pub fn tree_overview(data: &ExperimentData, sims: &[PageNodeSimilarities]) -> TreeOverview {
    let mut nodes = Vec::new();
    let mut depths = Vec::new();
    let mut breadths = Vec::new();
    let mut small = 0usize;
    let mut total_trees = 0usize;
    for summary in data.summaries() {
        for tree in &summary.trees {
            let m = tree.metrics();
            nodes.push(m.nodes as f64);
            depths.push(m.depth as f64);
            breadths.push(m.breadth as f64);
            total_trees += 1;
            if m.depth < 6 && m.breadth < 21 {
                small += 1;
            }
        }
    }

    let mut presence_values = Vec::new();
    let mut in_all = 0usize;
    let mut in_one = 0usize;
    let mut total_nodes = 0usize;
    for page in sims {
        for n in &page.nodes {
            presence_values.push(n.present_in as f64);
            total_nodes += 1;
            if n.present_in == page.n_trees {
                in_all += 1;
            }
            if n.present_in == 1 {
                in_one += 1;
            }
        }
    }
    let presence = Summary::of(&presence_values);

    TreeOverview {
        nodes: Summary::of(&nodes),
        depth: Summary::of(&depths),
        breadth: Summary::of(&breadths),
        avg_presence: presence.mean,
        presence_sd: presence.sd,
        share_in_all: ratio(in_all, total_nodes),
        share_in_one: ratio(in_one, total_nodes),
        share_small: ratio(small, total_trees),
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::testutil::experiment;
    use crate::node_similarity::analyze_all;

    #[test]
    fn overview_shapes_match_paper() {
        let data = experiment();
        let sims = analyze_all(data);
        let t2 = tree_overview(data, &sims);

        // Trees are non-trivial.
        assert!(t2.nodes.mean > 20.0, "mean nodes {}", t2.nodes.mean);
        assert!(t2.depth.mean >= 2.0, "mean depth {}", t2.depth.mean);
        assert!(t2.breadth.mean > 5.0);
        assert!(t2.depth.max >= 5.0);

        // Node presence: between 1 and all 5; most nodes shared, a
        // noticeable share unique — the qualitative Table 2 shape.
        assert!(
            t2.avg_presence > 2.5 && t2.avg_presence < 5.0,
            "{}",
            t2.avg_presence
        );
        assert!(t2.share_in_all > 0.3, "in all: {}", t2.share_in_all);
        assert!(t2.share_in_one > 0.05, "in one: {}", t2.share_in_one);
        assert!(t2.share_in_all + t2.share_in_one < 1.0);
        assert!((0.0..=1.0).contains(&t2.share_small));
    }

    #[test]
    fn empty_experiment() {
        let data = ExperimentData {
            profile_names: vec!["a".into()],
            pages: vec![],
        };
        let t2 = tree_overview(&data, &[]);
        assert_eq!(t2.nodes.n, 0);
        assert_eq!(t2.share_in_all, 0.0);
    }
}
