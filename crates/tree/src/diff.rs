//! Pairwise tree diffing: *where* two dependency trees of the same page
//! differ.
//!
//! The paper compares node sets because whole-tree distances "hide where
//! the trees differ" (§3.2). This module makes that locality explicit:
//! a [`TreeDiff`] classifies every node of two trees as shared (same
//! parent), **moved** (present in both, different parent or depth),
//! or present **only** in one tree — the operational view a study
//! debugging cross-setup discrepancies needs.

use crate::tree::DepTree;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// How a node relates across the two trees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeDisposition {
    /// Same parent and depth in both trees.
    Stable,
    /// In both trees, same depth, different parent.
    Reparented,
    /// In both trees at different depths.
    Moved,
    /// Only in the left tree.
    OnlyLeft,
    /// Only in the right tree.
    OnlyRight,
}

/// One diff entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiffEntry {
    /// Node key.
    pub key: String,
    /// Classification.
    pub disposition: NodeDisposition,
    /// Parent in the left tree, if present.
    pub left_parent: Option<String>,
    /// Parent in the right tree, if present.
    pub right_parent: Option<String>,
    /// Depth in the left tree, if present.
    pub left_depth: Option<usize>,
    /// Depth in the right tree, if present.
    pub right_depth: Option<usize>,
}

/// The diff of two trees.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TreeDiff {
    /// All entries, stable first, then reparented/moved, then one-sided.
    pub entries: Vec<DiffEntry>,
    /// Counts per disposition.
    pub stable: usize,
    /// Reparented count.
    pub reparented: usize,
    /// Moved count.
    pub moved: usize,
    /// Left-only count.
    pub only_left: usize,
    /// Right-only count.
    pub only_right: usize,
}

impl TreeDiff {
    /// Total distinct node keys considered.
    pub fn total(&self) -> usize {
        self.stable + self.reparented + self.moved + self.only_left + self.only_right
    }

    /// Node-set Jaccard implied by the diff.
    pub fn node_jaccard(&self) -> f64 {
        let shared = self.stable + self.reparented + self.moved;
        let union = self.total();
        if union == 0 {
            1.0
        } else {
            shared as f64 / union as f64
        }
    }
}

/// Diff two trees of the same page (roots excluded — they are the page).
pub fn diff_trees(left: &DepTree, right: &DepTree) -> TreeDiff {
    let index = |t: &DepTree| -> BTreeMap<String, (String, usize)> {
        t.nodes()
            .iter()
            .enumerate()
            .skip(1)
            .map(|(id, n)| {
                (
                    n.key.clone(),
                    (t.parent_key(id).unwrap_or_default().to_string(), n.depth),
                )
            })
            .collect()
    };
    let li = index(left);
    let ri = index(right);

    let mut entries = Vec::new();
    let mut counts = [0usize; 5];
    for (key, (lp, ld)) in &li {
        match ri.get(key) {
            Some((rp, rd)) => {
                let disposition = if ld == rd && lp == rp {
                    NodeDisposition::Stable
                } else if ld == rd {
                    NodeDisposition::Reparented
                } else {
                    NodeDisposition::Moved
                };
                counts[match disposition {
                    NodeDisposition::Stable => 0,
                    NodeDisposition::Reparented => 1,
                    NodeDisposition::Moved => 2,
                    _ => unreachable!(),
                }] += 1;
                entries.push(DiffEntry {
                    key: key.clone(),
                    disposition,
                    left_parent: Some(lp.clone()),
                    right_parent: Some(rp.clone()),
                    left_depth: Some(*ld),
                    right_depth: Some(*rd),
                });
            }
            None => {
                counts[3] += 1;
                entries.push(DiffEntry {
                    key: key.clone(),
                    disposition: NodeDisposition::OnlyLeft,
                    left_parent: Some(lp.clone()),
                    right_parent: None,
                    left_depth: Some(*ld),
                    right_depth: None,
                });
            }
        }
    }
    for (key, (rp, rd)) in &ri {
        if !li.contains_key(key) {
            counts[4] += 1;
            entries.push(DiffEntry {
                key: key.clone(),
                disposition: NodeDisposition::OnlyRight,
                left_parent: None,
                right_parent: Some(rp.clone()),
                left_depth: None,
                right_depth: Some(*rd),
            });
        }
    }
    entries.sort_by(|a, b| {
        let rank = |d: NodeDisposition| match d {
            NodeDisposition::Stable => 0,
            NodeDisposition::Reparented => 1,
            NodeDisposition::Moved => 2,
            NodeDisposition::OnlyLeft => 3,
            NodeDisposition::OnlyRight => 4,
        };
        rank(a.disposition)
            .cmp(&rank(b.disposition))
            .then(a.key.cmp(&b.key))
    });

    TreeDiff {
        entries,
        stable: counts[0],
        reparented: counts[1],
        moved: counts[2],
        only_left: counts[3],
        only_right: counts[4],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TreeBuilder;
    use wmtree_net::ResourceType;
    use wmtree_url::Party;

    fn tree(edges: &[(&str, &str)]) -> DepTree {
        let mut t = TreeBuilder::new("root".into());
        for (parent, child) in edges {
            let pid = if *parent == "root" {
                0
            } else {
                t.find(parent).unwrap()
            };
            t.attach(
                pid,
                child.to_string(),
                ResourceType::Script,
                Party::Third,
                false,
            );
        }
        t.finish()
    }

    #[test]
    fn identical_trees_all_stable() {
        let t = tree(&[("root", "a"), ("a", "b")]);
        let d = diff_trees(&t, &t.clone());
        assert_eq!(d.stable, 2);
        assert_eq!(d.total(), 2);
        assert_eq!(d.node_jaccard(), 1.0);
    }

    #[test]
    fn reparented_detected() {
        let l = tree(&[("root", "a"), ("root", "b"), ("a", "x")]);
        let r = tree(&[("root", "a"), ("root", "b"), ("b", "x")]);
        let d = diff_trees(&l, &r);
        assert_eq!(d.reparented, 1);
        assert_eq!(d.stable, 2);
        let x = d.entries.iter().find(|e| e.key == "x").unwrap();
        assert_eq!(x.disposition, NodeDisposition::Reparented);
        assert_eq!(x.left_parent.as_deref(), Some("a"));
        assert_eq!(x.right_parent.as_deref(), Some("b"));
    }

    #[test]
    fn moved_detected() {
        let l = tree(&[("root", "a"), ("a", "x")]); // x at depth 2
        let r = tree(&[("root", "a"), ("root", "x")]); // x at depth 1
        let d = diff_trees(&l, &r);
        assert_eq!(d.moved, 1);
        let x = d.entries.iter().find(|e| e.key == "x").unwrap();
        assert_eq!(x.left_depth, Some(2));
        assert_eq!(x.right_depth, Some(1));
    }

    #[test]
    fn one_sided_nodes() {
        let l = tree(&[("root", "a"), ("root", "l")]);
        let r = tree(&[("root", "a"), ("root", "r1"), ("root", "r2")]);
        let d = diff_trees(&l, &r);
        assert_eq!(d.only_left, 1);
        assert_eq!(d.only_right, 2);
        assert_eq!(d.stable, 1);
        // Jaccard = 1 shared / 4 union
        assert!((d.node_jaccard() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_trees() {
        let l = TreeBuilder::new("root".into()).finish();
        let r = TreeBuilder::new("root".into()).finish();
        let d = diff_trees(&l, &r);
        assert_eq!(d.total(), 0);
        assert_eq!(d.node_jaccard(), 1.0);
    }

    #[test]
    fn entries_sorted_by_disposition() {
        let l = tree(&[("root", "a"), ("root", "b"), ("a", "x"), ("root", "only")]);
        let r = tree(&[("root", "a"), ("root", "b"), ("b", "x")]);
        let d = diff_trees(&l, &r);
        let ranks: Vec<_> = d.entries.iter().map(|e| e.disposition).collect();
        // Stable entries come before reparented before one-sided.
        let first_stable = ranks.iter().position(|d| *d == NodeDisposition::Stable);
        let first_only = ranks.iter().position(|d| *d == NodeDisposition::OnlyLeft);
        assert!(first_stable < first_only);
    }
}
