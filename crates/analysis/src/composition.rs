//! Fig. 3: volume of node types (first/third party, tracking/non) per
//! tree depth, plus the first-/third-party context statistics of §4.3.

use crate::node_similarity::PageNodeSimilarities;
use crate::ExperimentData;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use wmtree_url::Party;

/// Counts of node categories at one depth.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DepthComposition {
    /// First-party nodes.
    pub first_party: usize,
    /// Third-party nodes.
    pub third_party: usize,
    /// Tracking nodes.
    pub tracking: usize,
    /// Non-tracking nodes.
    pub non_tracking: usize,
}

impl DepthComposition {
    /// Total nodes at this depth.
    pub fn total(&self) -> usize {
        self.first_party + self.third_party
    }

    /// First-party share in [0, 1].
    pub fn first_party_share(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.first_party as f64 / self.total() as f64
        }
    }
}

/// Fig. 3 data: composition per depth (`levels[d]`; depths beyond the
/// cap fold into the last slot, the paper's "6+").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Composition {
    /// Per-depth category counts.
    pub levels: Vec<DepthComposition>,
    /// Overall first-party node share (paper: 32%).
    pub first_party_share: f64,
    /// Overall tracking node share (paper §5.3: 22%).
    pub tracking_share: f64,
    /// Number of distinct third-party sites observed (paper: 21,154).
    pub third_party_sites: usize,
}

/// Compute Fig. 3 / §4.3 composition over all trees, from the page
/// summaries' per-depth counts (integers, summed per page) and their
/// third-party sites, counted once each over all pages.
pub fn composition(data: &ExperimentData, max_depth: usize) -> Composition {
    let mut levels = vec![DepthComposition::default(); max_depth + 1];
    let mut tp_sites: HashSet<&str> = HashSet::new();
    for (page, summary) in data.pages.iter().zip(data.summaries()) {
        // The roots, the only nodes at depth 0, never count.
        for (depth, level) in summary.levels.iter().enumerate().skip(1) {
            let lvl = &mut levels[depth.min(max_depth)];
            lvl.first_party += level.first_party;
            lvl.third_party += level.nodes - level.first_party;
            lvl.tracking += level.tracking;
            lvl.non_tracking += level.nodes - level.tracking;
        }
        let idx = page.index();
        tp_sites.extend(summary.third_party_sites.iter().map(|&id| idx.site_of(id)));
    }
    let fp: usize = levels.iter().map(|l| l.first_party).sum();
    let tracking: usize = levels.iter().map(|l| l.tracking).sum();
    let total: usize = levels.iter().map(DepthComposition::total).sum();
    let share = |n: usize| {
        if total == 0 {
            0.0
        } else {
            n as f64 / total as f64
        }
    };
    Composition {
        levels,
        first_party_share: share(fp),
        tracking_share: share(tracking),
        third_party_sites: tp_sites.len(),
    }
}

/// §4.3: presence of first- vs third-party nodes across profiles, split
/// by depth-1 vs deeper.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PartyPresence {
    /// Mean profiles containing a first-party depth-1 node (paper: 4.5).
    pub fp_depth1_presence: f64,
    /// Mean profiles containing a first-party node at depth > 1.
    pub fp_deeper_presence: f64,
    /// Mean profiles containing a third-party depth-1 node (paper: 3.9).
    pub tp_depth1_presence: f64,
    /// Mean profiles containing a third-party node at depth > 2 (paper: 3.3).
    pub tp_deep_presence: f64,
    /// Mean child similarity of first-party nodes (paper: .86).
    pub fp_child_similarity: f64,
    /// Mean child similarity of third-party nodes (paper: .68).
    pub tp_child_similarity: f64,
}

/// Compute the §4.3 party-presence statistics.
pub fn party_presence(sims: &[PageNodeSimilarities]) -> PartyPresence {
    let mut acc = [(0.0f64, 0usize); 4]; // fp1, fp>1, tp1, tp>2
    let mut fp_child = (0.0f64, 0usize);
    let mut tp_child = (0.0f64, 0usize);
    for page in sims {
        for n in &page.nodes {
            let slot = match (n.party, n.depth()) {
                (Party::First, 1) => Some(0),
                (Party::First, d) if d > 1 => Some(1),
                (Party::Third, 1) => Some(2),
                (Party::Third, d) if d > 2 => Some(3),
                _ => None,
            };
            if let Some(s) = slot {
                acc[s].0 += n.present_in as f64;
                acc[s].1 += 1;
            }
            if let Some(cs) = n.child_similarity {
                match n.party {
                    Party::First => {
                        fp_child.0 += cs;
                        fp_child.1 += 1;
                    }
                    Party::Third => {
                        tp_child.0 += cs;
                        tp_child.1 += 1;
                    }
                }
            }
        }
    }
    let mean = |(s, n): (f64, usize)| if n == 0 { 0.0 } else { s / n as f64 };
    PartyPresence {
        fp_depth1_presence: mean(acc[0]),
        fp_deeper_presence: mean(acc[1]),
        tp_depth1_presence: mean(acc[2]),
        tp_deep_presence: mean(acc[3]),
        fp_child_similarity: mean(fp_child),
        tp_child_similarity: mean(tp_child),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::testutil::experiment;
    use crate::node_similarity::analyze_all;

    #[test]
    fn composition_shape_matches_fig3() {
        let data = experiment();
        let comp = composition(data, 6);
        assert_eq!(comp.levels.len(), 7);
        // First party dominates at depth 1...
        assert!(
            comp.levels[1].first_party_share() > 0.4,
            "{}",
            comp.levels[1].first_party_share()
        );
        // ...but not at depth ≥3 (the paper: 95% third-party there).
        let deep = &comp.levels[4];
        if deep.total() > 10 {
            assert!(
                deep.first_party_share() < 0.3,
                "{}",
                deep.first_party_share()
            );
        }
        // Overall: third party majority, tracking a notable minority.
        assert!(
            comp.first_party_share < 0.6,
            "fp share {}",
            comp.first_party_share
        );
        assert!(
            comp.tracking_share > 0.05 && comp.tracking_share < 0.6,
            "{}",
            comp.tracking_share
        );
        assert!(comp.third_party_sites > 5);
    }

    #[test]
    fn party_presence_matches_43() {
        let data = experiment();
        let sims = analyze_all(data);
        let p = party_presence(&sims);
        // First-party nodes are more stably present than third-party.
        assert!(p.fp_depth1_presence > p.tp_deep_presence, "{p:?}");
        assert!(p.fp_depth1_presence > 3.5, "{}", p.fp_depth1_presence);
        // First-party children more similar than third-party children.
        assert!(p.fp_child_similarity > p.tp_child_similarity, "{p:?}");
    }

    #[test]
    fn depth_composition_total() {
        let d = DepthComposition {
            first_party: 3,
            third_party: 7,
            tracking: 2,
            non_tracking: 8,
        };
        assert_eq!(d.total(), 10);
        assert!((d.first_party_share() - 0.3).abs() < 1e-12);
        assert_eq!(DepthComposition::default().first_party_share(), 0.0);
    }
}
