//! §5.3 case study: tracking requests.

use crate::node_similarity::PageNodeSimilarities;
use crate::ExperimentData;
use serde::{Deserialize, Serialize};
use wmtree_stats::descriptive::Summary;
use wmtree_url::Party;

/// The §5.3 tracking-request statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrackingStats {
    /// Share of nodes used for tracking (paper: 22%).
    pub tracking_share: f64,
    /// Child similarity of tracking nodes (paper: mean .62).
    pub tracking_child_sim: Summary,
    /// Child similarity of non-tracking nodes (paper: mean .75).
    pub non_tracking_child_sim: Summary,
    /// Parent similarity of tracking nodes (paper: mean .53).
    pub tracking_parent_sim: Summary,
    /// Parent similarity of non-tracking nodes.
    pub non_tracking_parent_sim: Summary,
    /// Mean children of tracking nodes with children (paper: 1.7).
    pub tracking_mean_children: f64,
    /// Mean children of non-tracking nodes with children (paper: 3.7).
    pub non_tracking_mean_children: f64,
    /// Depth distribution of tracking nodes: shares at depth 1, 2, 3,
    /// and deeper (paper: 9% / 32% / 36% / 24%).
    pub depth_shares: [f64; 4],
    /// Share of tracking nodes whose parent is also a tracking node
    /// (paper: 65%).
    pub tracker_parent_share: f64,
    /// Share of tracking nodes loaded in third-party context (paper: 82%).
    pub third_party_share: f64,
    /// Of tracking nodes' parents: share that are scripts (paper: 46%),
    /// subframes (34%), main frames (15%), other.
    pub parent_type_shares: [f64; 4],
}

/// Compute §5.3 from the node similarities and the page summaries'
/// tree-side counts.
pub fn tracking_stats(data: &ExperimentData, sims: &[PageNodeSimilarities]) -> TrackingStats {
    let mut tracking_child = Vec::new();
    let mut non_tracking_child = Vec::new();
    let mut tracking_parent = Vec::new();
    let mut non_tracking_parent = Vec::new();
    let mut n_tracking = 0usize;
    let mut n_total = 0usize;
    let mut tp_context = 0usize;
    let mut depth_counts = [0usize; 4];

    for page in sims {
        for n in &page.nodes {
            n_total += 1;
            if n.tracking {
                n_tracking += 1;
                if n.party == Party::Third {
                    tp_context += 1;
                }
                let slot = match n.depth() {
                    1 => 0,
                    2 => 1,
                    3 => 2,
                    _ => 3,
                };
                depth_counts[slot] += 1;
                if let Some(s) = n.child_similarity {
                    tracking_child.push(s);
                }
                if let Some(s) = n.parent_similarity {
                    tracking_parent.push(s);
                }
            } else {
                if let Some(s) = n.child_similarity {
                    non_tracking_child.push(s);
                }
                if let Some(s) = n.parent_similarity {
                    non_tracking_parent.push(s);
                }
            }
        }
    }

    // Children counts and parent classification, from the page
    // summaries' integer counts.
    let mut counts = crate::summary::TrackingCounts::default();
    for summary in data.summaries() {
        let page = &summary.tracking;
        counts.tracking_children.0 += page.tracking_children.0;
        counts.tracking_children.1 += page.tracking_children.1;
        counts.other_children.0 += page.other_children.0;
        counts.other_children.1 += page.other_children.1;
        counts.parented += page.parented;
        counts.tracker_parent += page.tracker_parent;
        for (ours, theirs) in counts.parent_types.iter_mut().zip(page.parent_types) {
            *ours += theirs;
        }
    }

    let share = |n: usize, d: usize| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    let mean = |(s, n): (usize, usize)| if n == 0 { 0.0 } else { s as f64 / n as f64 };
    let depth_total: usize = depth_counts.iter().sum();

    TrackingStats {
        tracking_share: share(n_tracking, n_total),
        tracking_child_sim: Summary::of(&tracking_child),
        non_tracking_child_sim: Summary::of(&non_tracking_child),
        tracking_parent_sim: Summary::of(&tracking_parent),
        non_tracking_parent_sim: Summary::of(&non_tracking_parent),
        tracking_mean_children: mean(counts.tracking_children),
        non_tracking_mean_children: mean(counts.other_children),
        depth_shares: depth_counts.map(|c| share(c, depth_total)),
        tracker_parent_share: share(counts.tracker_parent, counts.parented),
        third_party_share: share(tp_context, n_tracking),
        parent_type_shares: counts.parent_types.map(|c| share(c, counts.parented)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::testutil::experiment;
    use crate::node_similarity::analyze_all;

    #[test]
    fn tracking_stats_paper_orderings() {
        let data = experiment();
        let sims = analyze_all(data);
        let s = tracking_stats(data, &sims);

        // Tracking is a meaningful minority of nodes.
        assert!(
            s.tracking_share > 0.05 && s.tracking_share < 0.6,
            "{}",
            s.tracking_share
        );
        // Trackers are less stable than non-trackers, in children and
        // parents alike.
        assert!(
            s.tracking_child_sim.mean < s.non_tracking_child_sim.mean + 0.02,
            "child: tracking {} vs non {}",
            s.tracking_child_sim.mean,
            s.non_tracking_child_sim.mean
        );
        assert!(
            s.tracking_parent_sim.mean < s.non_tracking_parent_sim.mean,
            "parent: tracking {} vs non {}",
            s.tracking_parent_sim.mean,
            s.non_tracking_parent_sim.mean
        );
        // Tracking requests overwhelmingly third-party (paper: 82%).
        assert!(s.third_party_share > 0.7, "{}", s.third_party_share);
        // Tracking nodes cluster beyond depth 1 (paper: 91% at ≥2).
        assert!(s.depth_shares[0] < 0.5, "{:?}", s.depth_shares);
        let sum: f64 = s.depth_shares.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9 || sum == 0.0);
        // Parents are mostly scripts/frames.
        let pt: f64 = s.parent_type_shares.iter().sum();
        assert!((pt - 1.0).abs() < 1e-9 || pt == 0.0);
        assert!(s.parent_type_shares[0] > 0.2, "{:?}", s.parent_type_shares);
        // Trackers triggered by other trackers a majority of the time.
        assert!(s.tracker_parent_share > 0.3, "{}", s.tracker_parent_share);
    }
}
