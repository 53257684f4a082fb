//! Table 5 (per-profile totals) and Table 6 (pairwise comparison against
//! the reference profile Sim1), plus the §4.4 setup-implication stats.

use crate::summary::Tally;
use crate::ExperimentData;
use serde::{Deserialize, Serialize};

/// One row of Table 5.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileRow {
    /// Profile name.
    pub name: String,
    /// Total nodes over all vetted pages.
    pub nodes: usize,
    /// Third-party nodes.
    pub third_party: usize,
    /// Tracking nodes.
    pub tracker: usize,
    /// Maximum tree depth observed.
    pub max_depth: usize,
    /// Maximum tree breadth observed.
    pub max_breadth: usize,
}

/// Compute Table 5: integer sums and maxima of the page summaries'
/// per-tree counts.
pub fn table5(data: &ExperimentData) -> Vec<ProfileRow> {
    let mut rows: Vec<ProfileRow> = data
        .profile_names
        .iter()
        .map(|name| ProfileRow {
            name: name.clone(),
            nodes: 0,
            third_party: 0,
            tracker: 0,
            max_depth: 0,
            max_breadth: 0,
        })
        .collect();
    for summary in data.summaries() {
        for (row, tree) in rows.iter_mut().zip(&summary.trees) {
            let m = tree.metrics();
            row.nodes += m.nodes - 1; // root excluded: count loaded resources
            row.third_party += tree.third_party;
            row.tracker += tree.tracker;
            row.max_depth = row.max_depth.max(m.depth);
            row.max_breadth = row.max_breadth.max(m.breadth);
        }
    }
    rows
}

/// One column of Table 6: a profile compared against the reference.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileComparison {
    /// Compared profile name.
    pub name: String,
    /// First-party children: share of compared nodes with Jaccard 1.
    pub fp_children_perfect: f64,
    /// First-party children: share with Jaccard 0.
    pub fp_children_none: f64,
    /// Third-party children: share perfect.
    pub tp_children_perfect: f64,
    /// Third-party children: share zero.
    pub tp_children_none: f64,
    /// First-party parents: share identical.
    pub fp_parent_perfect: f64,
    /// First-party parents: share disagreeing.
    pub fp_parent_none: f64,
    /// Third-party parents: share identical.
    pub tp_parent_perfect: f64,
    /// Third-party parents: share disagreeing.
    pub tp_parent_none: f64,
    /// Mean parent similarity, nodes at depth ≥ 2 (Table 6 ✻).
    pub parent_sim_mean: f64,
    /// Mean child similarity, nodes with ≥ 1 child (Table 6 ✚).
    pub child_sim_mean: f64,
}

/// Compute Table 6: every profile against the roster's reference
/// ([`Roles::reference`](crate::summary::Roles::reference), Sim1 in
/// the standard order), from the page summaries' pair comparisons.
/// Each pair's child Jaccards are added one by one, page by page, in
/// node order; everything else is an integer count.
pub fn table6(data: &ExperimentData) -> Vec<ProfileComparison> {
    let reference = data.roles().reference;
    let mut pairs: Vec<(usize, PairTotals)> = (0..data.n_profiles())
        .filter(|&p| p != reference)
        .map(|p| (p, PairTotals::default()))
        .collect();
    for summary in data.summaries() {
        for ((_, totals), pair) in pairs.iter_mut().zip(&summary.pairs) {
            for (ours, theirs) in totals.children.iter_mut().zip(&pair.children) {
                ours.add(theirs);
            }
            for (ours, theirs) in totals.parents.iter_mut().zip(&pair.parents) {
                ours.add(theirs);
            }
            totals.deep_parents.0 += pair.deep_parents.0;
            totals.deep_parents.1 += pair.deep_parents.1;
            for &j in &pair.child_jaccards {
                totals.child_sim.0 += j;
            }
            totals.child_sim.1 += pair.child_jaccards.len();
        }
    }

    let share = |n: usize, d: usize| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    let mean = |(s, n): (f64, usize)| if n == 0 { 0.0 } else { s / n as f64 };
    pairs
        .into_iter()
        .map(|(p, t)| ProfileComparison {
            name: data.profile_names[p].clone(),
            fp_children_perfect: share(t.children[0].perfect, t.children[0].total),
            fp_children_none: share(t.children[0].none, t.children[0].total),
            tp_children_perfect: share(t.children[1].perfect, t.children[1].total),
            tp_children_none: share(t.children[1].none, t.children[1].total),
            fp_parent_perfect: share(t.parents[0].perfect, t.parents[0].total),
            fp_parent_none: share(t.parents[0].none, t.parents[0].total),
            tp_parent_perfect: share(t.parents[1].perfect, t.parents[1].total),
            tp_parent_none: share(t.parents[1].none, t.parents[1].total),
            // A same-parent count is the sum of as many 1.0s, exactly.
            parent_sim_mean: mean((t.deep_parents.0 as f64, t.deep_parents.1)),
            child_sim_mean: mean(t.child_sim),
        })
        .collect()
}

/// One Table 6 column on its way through the pages.
#[derive(Default)]
struct PairTotals {
    children: [Tally; 2],
    parents: [Tally; 2],
    deep_parents: (usize, usize),
    child_sim: (f64, usize),
}

impl Tally {
    fn add(&mut self, other: &Tally) {
        self.perfect += other.perfect;
        self.none += other.none;
        self.total += other.total;
    }
}

/// §4.4, "Comparing Profiles with the Same Configuration": tree-set
/// similarity of two profiles at shallow (≤ `split`) vs deep (> `split`)
/// levels. The paper reports .92 vs .75 for Sim1/Sim2 with split 5.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LevelSplitSimilarity {
    /// Mean Jaccard of per-depth node sets at depths 1..=split.
    pub shallow: f64,
    /// Mean Jaccard at depths > split.
    pub deep: f64,
}

/// Compute the shallow/deep split similarity between the reference
/// and Sim2 ([`Roles`](crate::summary::Roles)), from the page
/// summaries' per-depth Jaccards, added in page and depth order.
pub fn level_split_similarity(data: &ExperimentData, split: usize) -> LevelSplitSimilarity {
    let mut shallow = (0.0f64, 0usize);
    let mut deep = (0.0f64, 0usize);
    for summary in data.summaries() {
        for &(depth, j) in &summary.split {
            let slot = if depth <= split {
                &mut shallow
            } else {
                &mut deep
            };
            slot.0 += j;
            slot.1 += 1;
        }
    }
    let mean = |(s, n): (f64, usize)| if n == 0 { 0.0 } else { s / n as f64 };
    LevelSplitSimilarity {
        shallow: mean(shallow),
        deep: mean(deep),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::testutil::experiment;
    use std::collections::{BTreeMap, BTreeSet};
    use wmtree_stats::jaccard::jaccard;
    use wmtree_url::Party;

    /// The pre-index `compare_pair`, kept verbatim as a test oracle.
    fn compare_pair_reference(data: &ExperimentData, a: usize, b: usize) -> ProfileComparison {
        let mut child = [(0usize, 0usize, 0usize); 2];
        let mut parent = [(0usize, 0usize, 0usize); 2];
        let mut parent_sim = (0.0f64, 0usize);
        let mut child_sim = (0.0f64, 0usize);
        for page in &data.pages {
            let ta = &page.trees[a];
            let tb = &page.trees[b];
            let ids_b: BTreeMap<&str, usize> = tb
                .nodes()
                .iter()
                .enumerate()
                .map(|(id, n)| (n.key.as_str(), id))
                .collect();
            for (ida, node) in ta.nodes().iter().enumerate().skip(1) {
                let Some(&idb) = ids_b.get(node.key.as_str()) else {
                    continue;
                };
                let party_idx = match node.party {
                    Party::First => 0,
                    Party::Third => 1,
                };
                let ca: BTreeSet<&str> = ta.children_keys(ida).into_iter().collect();
                let cb: BTreeSet<&str> = tb.children_keys(idb).into_iter().collect();
                if !ca.is_empty() || !cb.is_empty() {
                    let j = jaccard(&ca, &cb);
                    let slot = &mut child[party_idx];
                    slot.2 += 1;
                    if j == 1.0 {
                        slot.0 += 1;
                    } else if j == 0.0 {
                        slot.1 += 1;
                    }
                    child_sim.0 += j;
                    child_sim.1 += 1;
                }
                let pa = ta.parent_key(ida);
                let pb = tb.parent_key(idb);
                if let (Some(pa), Some(pb)) = (pa, pb) {
                    let slot = &mut parent[party_idx];
                    slot.2 += 1;
                    if pa == pb {
                        slot.0 += 1;
                    } else {
                        slot.1 += 1;
                    }
                    if node.depth >= 2 {
                        parent_sim.0 += if pa == pb { 1.0 } else { 0.0 };
                        parent_sim.1 += 1;
                    }
                }
            }
        }
        let share = |n: usize, d: usize| if d == 0 { 0.0 } else { n as f64 / d as f64 };
        let mean = |(s, n): (f64, usize)| if n == 0 { 0.0 } else { s / n as f64 };
        ProfileComparison {
            name: data.profile_names[b].clone(),
            fp_children_perfect: share(child[0].0, child[0].2),
            fp_children_none: share(child[0].1, child[0].2),
            tp_children_perfect: share(child[1].0, child[1].2),
            tp_children_none: share(child[1].1, child[1].2),
            fp_parent_perfect: share(parent[0].0, parent[0].2),
            fp_parent_none: share(parent[0].1, parent[0].2),
            tp_parent_perfect: share(parent[1].0, parent[1].2),
            tp_parent_none: share(parent[1].1, parent[1].2),
            parent_sim_mean: mean(parent_sim),
            child_sim_mean: mean(child_sim),
        }
    }

    #[test]
    fn summarized_table6_matches_reference() {
        let data = experiment();
        for (new, b) in table6(data).into_iter().zip([0usize, 2, 3, 4]) {
            let old = compare_pair_reference(data, 1, b);
            assert_eq!(
                new.child_sim_mean.to_bits(),
                old.child_sim_mean.to_bits(),
                "pair (1, {b})"
            );
            assert_eq!(new, old, "pair (1, {b})");
        }
    }

    #[test]
    fn table5_shape() {
        let data = experiment();
        let rows = table5(data);
        assert_eq!(rows.len(), 5);
        let by_name = |n: &str| rows.iter().find(|r| r.name == n).unwrap();
        let sim1 = by_name("Sim1");
        let noaction = by_name("NoAction");
        // NoAction sees markedly fewer nodes (paper: ~25% fewer).
        assert!(
            (noaction.nodes as f64) < sim1.nodes as f64 * 0.92,
            "NoAction {} vs Sim1 {}",
            noaction.nodes,
            sim1.nodes
        );
        // Third party majority, trackers a minority.
        assert!(sim1.third_party * 2 > sim1.nodes);
        assert!(sim1.tracker < sim1.third_party);
        assert!(sim1.max_depth >= 4);
        assert!(sim1.max_breadth >= 10);
    }

    #[test]
    fn table6_sim2_close_noaction_far() {
        let data = experiment();
        let comps = table6(data);
        assert_eq!(comps.len(), 4);
        let by_name = |n: &str| comps.iter().find(|c| c.name == n).unwrap();
        let sim2 = by_name("Sim2");
        let noaction = by_name("NoAction");
        let headless = by_name("Headless");
        // NoAction diverges more than Sim2 (paper: fewest perfectly
        // similar nodes for NoAction).
        assert!(
            noaction.child_sim_mean < sim2.child_sim_mean,
            "noaction {} sim2 {}",
            noaction.child_sim_mean,
            sim2.child_sim_mean
        );
        // FP parents almost always agree.
        assert!(sim2.fp_parent_perfect > 0.8, "{}", sim2.fp_parent_perfect);
        // TP parents disagree much more often.
        assert!(sim2.tp_parent_perfect < sim2.fp_parent_perfect);
        // Headless ≈ Sim2 magnitude (paper found no significant effect);
        // allow generous tolerance but require the same ballpark.
        assert!(
            (headless.child_sim_mean - sim2.child_sim_mean).abs() < 0.12,
            "headless {} vs sim2 {}",
            headless.child_sim_mean,
            sim2.child_sim_mean
        );
    }

    #[test]
    fn level_split_shallow_more_similar() {
        let data = experiment();
        let s = level_split_similarity(data, 5);
        assert!(s.shallow > s.deep, "shallow {} deep {}", s.shallow, s.deep);
        assert!(s.shallow > 0.6);
    }
}
