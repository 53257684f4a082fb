//! Per-node cross-tree similarity: the horizontal (children) and
//! vertical (parents, dependency chains) comparisons of §3.2.
//!
//! Runs on the shared [`PageIndex`](crate::index::PageIndex): node keys
//! are interned `u32` ids whose ascending order is exactly the string
//! order the original `BTreeSet<&str>` implementation iterated in, and
//! child/parent comparisons use the index's sorted id slices through
//! [`jaccard_sorted`], which computes bit-identical floats from the
//! same counts. The pre-index implementation is kept in the test
//! module as an oracle.

use crate::data::PageAnalysis;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use wmtree_net::ResourceType;
use wmtree_stats::jaccard::jaccard_sorted;
use wmtree_url::Party;

/// Similarity measurements of one node (identified by its normalized
/// URL) across the trees of one page.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeSimilarity {
    /// Node identity.
    pub key: String,
    /// Resource type (from the first tree containing the node).
    pub resource_type: ResourceType,
    /// Party context.
    pub party: Party,
    /// Tracking flag.
    pub tracking: bool,
    /// Depth in each tree where present.
    pub depths: Vec<usize>,
    /// Number of trees containing the node.
    pub present_in: usize,
    /// Maximum number of children in any tree.
    pub max_children: usize,
    /// Pairwise-mean Jaccard of the node's child sets over the trees
    /// where it is present (`None` when present in fewer than two trees
    /// or childless everywhere).
    pub child_similarity: Option<f64>,
    /// Pairwise-mean parent agreement over **all** tree pairs; a pair
    /// where the node is absent in either tree contributes 0, matching
    /// the Appendix D arithmetic. `None` for depth-0 nodes (the root).
    pub parent_similarity: Option<f64>,
    /// Are the full dependency chains identical in every tree where the
    /// node is present (only meaningful when `present_in ≥ 2`)?
    pub same_chain_where_present: bool,
    /// Is the node's dependency chain observed in exactly one tree
    /// (a "unique dependency chain", §4.2)?
    pub unique_chain: bool,
}

impl NodeSimilarity {
    /// Depth of the node in the first tree containing it.
    pub fn depth(&self) -> usize {
        self.depths[0]
    }

    /// Does the node appear at the same depth in every tree containing
    /// it?
    pub fn same_depth_everywhere(&self) -> bool {
        self.depths.windows(2).all(|w| w[0] == w[1])
    }
}

/// All node similarities of one page.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PageNodeSimilarities {
    /// Page URL.
    pub url: String,
    /// Site of the page (shared with the input page).
    pub site: Arc<str>,
    /// Number of trees compared (= number of profiles).
    pub n_trees: usize,
    /// One record per distinct node key (union over the trees),
    /// excluding the root.
    pub nodes: Vec<NodeSimilarity>,
}

/// Compute all node similarities for one page.
pub fn analyze_page(page: &PageAnalysis) -> PageNodeSimilarities {
    let idx = page.index();
    let trees = idx.trees();
    let k = trees.len();

    let mut nodes = Vec::with_capacity(idx.record_keys().len());
    // Per-key scratch, reused across keys.
    let mut depths: Vec<usize> = Vec::new();
    let mut child_sets: Vec<&[u32]> = Vec::new();
    let mut parents: Vec<Option<u32>> = Vec::with_capacity(k);
    let mut chains: Vec<Vec<u32>> = Vec::new();

    // Record keys ascend in interned-id order = key-string order, so
    // the output rows (and every accumulated float) match the original
    // sorted-set iteration exactly.
    for &key_id in idx.record_keys() {
        depths.clear();
        child_sets.clear();
        parents.clear();
        chains.clear();
        let mut max_children = 0usize;

        for ti in trees {
            match ti.non_root_node_of(key_id) {
                Some(nid) => {
                    let children = ti.children_ids(nid);
                    max_children = max_children.max(children.len());
                    child_sets.push(children);
                    parents.push(ti.parent_key_id(nid));
                    let chain = ti.chain_ids(nid);
                    depths.push(chain.len());
                    chains.push(chain);
                }
                None => parents.push(None),
            }
        }

        let present_in = depths.len();
        let meta = idx.meta(key_id);

        // Child similarity: over the trees where present, when the node
        // has a child anywhere.
        let child_similarity = if present_in >= 2 && max_children > 0 {
            let mut sum = 0.0;
            let mut n = 0usize;
            for i in 0..child_sets.len() {
                for j in (i + 1)..child_sets.len() {
                    sum += jaccard_sorted(child_sets[i], child_sets[j]);
                    n += 1;
                }
            }
            Some(sum / n as f64)
        } else {
            None
        };

        // Parent similarity: over all tree pairs, absent ⇒ 0 (App. D).
        // Parent sets are singletons, so the Jaccard of a pair is
        // exactly 1.0 (same parent) or 0.0 (different parents).
        let parent_similarity = {
            let mut sum = 0.0;
            let mut n = 0usize;
            for i in 0..k {
                for j in (i + 1)..k {
                    n += 1;
                    if let (Some(a), Some(b)) = (parents[i], parents[j]) {
                        sum += if a == b { 1.0 } else { 0.0 };
                    }
                }
            }
            if n == 0 {
                None
            } else {
                Some(sum / n as f64)
            }
        };

        let same_chain_where_present = present_in >= 2 && chains.windows(2).all(|w| w[0] == w[1]);
        let unique_chain = {
            // The chain (as observed in the first tree) appears in only
            // one tree: either the node is unique to one tree, or the
            // other trees load it through different chains.
            let first = &chains[0];
            chains.iter().filter(|c| *c == first).count() == 1 || present_in == 1
        };

        nodes.push(NodeSimilarity {
            key: idx.key(key_id).to_string(),
            resource_type: meta.resource_type,
            party: meta.party,
            tracking: meta.tracking,
            depths: depths.clone(),
            present_in,
            max_children,
            child_similarity,
            parent_similarity,
            same_chain_where_present,
            unique_chain,
        });
    }

    PageNodeSimilarities {
        url: page.url.clone(),
        site: page.site.clone(),
        n_trees: k,
        nodes,
    }
}

/// Analyze every page of an experiment, in page order.
pub fn analyze_all(data: &crate::ExperimentData) -> Vec<PageNodeSimilarities> {
    let _span = wmtree_telemetry::span("analysis.node_similarity");
    wmtree_telemetry::counter!("analysis.pages_analyzed").add(data.pages.len() as u64);
    data.pages.iter().map(analyze_page).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::testutil::experiment;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};
    use wmtree_stats::jaccard::jaccard;
    use wmtree_tree::DepTree;

    /// Build a PageAnalysis from hand-made trees.
    fn page_of(trees: Vec<DepTree>) -> PageAnalysis {
        let cookies = vec![Vec::new(); trees.len()];
        PageAnalysis::new(
            Arc::from("s.com"),
            "https://s.com/".into(),
            None,
            None,
            trees,
            cookies,
        )
    }

    fn tree(edges: &[(&str, &str)]) -> DepTree {
        let mut t = DepTree::new_rooted("root".into());
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
        t
    }

    /// The pre-index implementation, kept verbatim as the oracle the
    /// `PageIndex`-backed [`analyze_page`] must match bit-for-bit.
    fn analyze_page_reference(page: &PageAnalysis) -> PageNodeSimilarities {
        let k = page.trees.len();
        let mut keys: BTreeSet<&str> = BTreeSet::new();
        for tree in &page.trees {
            for node in tree.nodes().iter().skip(1) {
                keys.insert(node.key.as_str());
            }
        }

        let ids: Vec<BTreeMap<&str, usize>> = page
            .trees
            .iter()
            .map(|t| {
                t.nodes()
                    .iter()
                    .enumerate()
                    .skip(1)
                    .map(|(i, n)| (n.key.as_str(), i))
                    .collect()
            })
            .collect();

        let mut nodes = Vec::with_capacity(keys.len());
        for key in keys {
            let mut depths = Vec::new();
            let mut max_children = 0usize;
            let mut child_sets: Vec<BTreeSet<&str>> = Vec::new();
            let mut parent_sets: Vec<Option<BTreeSet<&str>>> = Vec::with_capacity(k);
            let mut chains: Vec<Vec<&str>> = Vec::new();
            let mut meta: Option<(ResourceType, Party, bool)> = None;

            for (ti, tree) in page.trees.iter().enumerate() {
                match ids[ti].get(key) {
                    Some(&id) => {
                        let node = tree.node(id);
                        if meta.is_none() {
                            meta = Some((node.resource_type, node.party, node.tracking));
                        }
                        depths.push(node.depth);
                        let children: BTreeSet<&str> = tree.children_keys(id).into_iter().collect();
                        max_children = max_children.max(children.len());
                        child_sets.push(children);
                        let parents: BTreeSet<&str> = tree.parent_key(id).into_iter().collect();
                        parent_sets.push(Some(parents));
                        chains.push(tree.dependency_chain(id));
                    }
                    None => parent_sets.push(None),
                }
            }

            let present_in = depths.len();
            let Some((resource_type, party, tracking)) = meta else {
                continue;
            };

            let child_similarity = if present_in >= 2 && max_children > 0 {
                let mut sum = 0.0;
                let mut n = 0usize;
                for i in 0..child_sets.len() {
                    for j in (i + 1)..child_sets.len() {
                        sum += jaccard(&child_sets[i], &child_sets[j]);
                        n += 1;
                    }
                }
                Some(sum / n as f64)
            } else {
                None
            };

            let parent_similarity = {
                let mut sum = 0.0;
                let mut n = 0usize;
                for i in 0..k {
                    for j in (i + 1)..k {
                        n += 1;
                        if let (Some(a), Some(b)) = (&parent_sets[i], &parent_sets[j]) {
                            sum += jaccard(a, b);
                        }
                    }
                }
                if n == 0 {
                    None
                } else {
                    Some(sum / n as f64)
                }
            };

            let same_chain_where_present =
                present_in >= 2 && chains.windows(2).all(|w| w[0] == w[1]);
            let unique_chain = {
                let first = &chains[0];
                chains.iter().filter(|c| *c == first).count() == 1 || present_in == 1
            };

            nodes.push(NodeSimilarity {
                key: key.to_string(),
                resource_type,
                party,
                tracking,
                depths,
                present_in,
                max_children,
                child_similarity,
                parent_similarity,
                same_chain_where_present,
                unique_chain,
            });
        }

        PageNodeSimilarities {
            url: page.url.clone(),
            site: page.site.clone(),
            n_trees: k,
            nodes,
        }
    }

    /// Bitwise f64 equality for the float fields, exact equality for
    /// the rest.
    fn assert_bit_identical(a: &PageNodeSimilarities, b: &PageNodeSimilarities) {
        assert_eq!(a.nodes.len(), b.nodes.len());
        for (x, y) in a.nodes.iter().zip(&b.nodes) {
            assert_eq!(x.key, y.key);
            assert_eq!(
                x.child_similarity.map(f64::to_bits),
                y.child_similarity.map(f64::to_bits),
                "child sim of {}",
                x.key
            );
            assert_eq!(
                x.parent_similarity.map(f64::to_bits),
                y.parent_similarity.map(f64::to_bits),
                "parent sim of {}",
                x.key
            );
        }
        assert_eq!(a, b);
    }

    #[test]
    fn index_backed_matches_reference_on_fixture() {
        let data = experiment();
        for page in &data.pages {
            assert_bit_identical(&analyze_page(page), &analyze_page_reference(page));
        }
    }

    /// Random pages: arbitrary forests over a small key pool, so keys
    /// collide across trees in every configuration (shared, missing,
    /// reparented, different depths, root collisions).
    fn arb_page() -> impl Strategy<Value = PageAnalysis> {
        let op = (0u8..32, 0u8..12);
        let tree_ops = prop::collection::vec(op, 0..24);
        prop::collection::vec(tree_ops, 2..5).prop_map(|trees| {
            let built: Vec<DepTree> = trees
                .into_iter()
                .map(|ops| {
                    let mut t = DepTree::new_rooted("https://page.example/".into());
                    for (parent_hint, key) in ops {
                        let pid = parent_hint as usize % t.node_count();
                        let ty = match key % 3 {
                            0 => ResourceType::Script,
                            1 => ResourceType::Image,
                            _ => ResourceType::Stylesheet,
                        };
                        let party = if key % 2 == 0 {
                            Party::First
                        } else {
                            Party::Third
                        };
                        t.attach(
                            pid,
                            format!("https://h{}.example/r/{}", key % 4, key),
                            ty,
                            party,
                            key % 5 == 0,
                        );
                    }
                    t
                })
                .collect();
            page_of(built)
        })
    }

    proptest! {
        /// The tentpole's correctness contract: on arbitrary universes
        /// the `PageIndex`-backed pass equals the pre-index oracle,
        /// floats included.
        #[test]
        fn index_backed_matches_reference_on_random_pages(page in arb_page()) {
            assert_bit_identical(&analyze_page(&page), &analyze_page_reference(&page));
        }
    }

    /// The Appendix D worked example, end to end.
    #[test]
    fn appendix_d_worked_example() {
        // Tree #1: F→{a,b,c}; c→d; d→e; e→{x,y}
        let t1 = tree(&[
            ("root", "a"),
            ("root", "b"),
            ("root", "c"),
            ("c", "d"),
            ("d", "e"),
            ("e", "x"),
            ("e", "y"),
        ]);
        // Tree #2: F→{a,b,c}; c→d; d→y (no e)
        let t2 = tree(&[
            ("root", "a"),
            ("root", "b"),
            ("root", "c"),
            ("c", "d"),
            ("d", "y"),
        ]);
        // Tree #3: F→{a,c}; c→d; d→e; e→{x,y}
        let t3 = tree(&[
            ("root", "a"),
            ("root", "c"),
            ("c", "d"),
            ("d", "e"),
            ("e", "x"),
            ("e", "y"),
        ]);
        let page = page_of(vec![t1, t2, t3]);
        let sims = analyze_page(&page);

        // Parent of e: present in trees 1 and 3, same parent d there,
        // absent in 2 → (1 + 0 + 0)/3 = .33.
        let e = sims.nodes.iter().find(|n| n.key == "e").unwrap();
        assert_eq!(e.present_in, 2);
        assert!((e.parent_similarity.unwrap() - 1.0 / 3.0).abs() < 1e-12);
        // e's chains in trees 1 and 3 are identical: d→c→root.
        assert!(e.same_chain_where_present);
        assert!(!e.unique_chain);

        // b is in trees 1 and 2, same parent (root): (1+0+0)/3.
        let b = sims.nodes.iter().find(|n| n.key == "b").unwrap();
        assert!((b.parent_similarity.unwrap() - 1.0 / 3.0).abs() < 1e-12);

        // a is everywhere under root: parent similarity 1.
        let a = sims.nodes.iter().find(|n| n.key == "a").unwrap();
        assert_eq!(a.parent_similarity, Some(1.0));
        assert_eq!(a.present_in, 3);
        assert!(a.same_depth_everywhere());

        // d's children: {e}, {y}, {e} → pairwise (0 + 1 + 0)/3.
        let d = sims.nodes.iter().find(|n| n.key == "d").unwrap();
        assert!((d.child_similarity.unwrap() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn childless_nodes_have_no_child_similarity() {
        let t1 = tree(&[("root", "a")]);
        let t2 = tree(&[("root", "a")]);
        let sims = analyze_page(&page_of(vec![t1, t2]));
        let a = &sims.nodes[0];
        assert_eq!(a.child_similarity, None);
        assert_eq!(a.parent_similarity, Some(1.0));
    }

    #[test]
    fn single_tree_presence() {
        let t1 = tree(&[("root", "a"), ("a", "b")]);
        let t2 = tree(&[("root", "a")]);
        let sims = analyze_page(&page_of(vec![t1, t2]));
        let b = sims.nodes.iter().find(|n| n.key == "b").unwrap();
        assert_eq!(b.present_in, 1);
        assert_eq!(b.parent_similarity, Some(0.0)); // absent pair counts 0
        assert_eq!(b.child_similarity, None);
        assert!(b.unique_chain);
    }

    #[test]
    fn different_parents_zero_similarity() {
        let t1 = tree(&[("root", "a"), ("root", "b"), ("a", "x")]);
        let t2 = tree(&[("root", "a"), ("root", "b"), ("b", "x")]);
        let sims = analyze_page(&page_of(vec![t1, t2]));
        let x = sims.nodes.iter().find(|n| n.key == "x").unwrap();
        assert_eq!(x.parent_similarity, Some(0.0));
        assert!(!x.same_chain_where_present);
        assert!(x.unique_chain); // each chain observed once
    }

    #[test]
    fn real_experiment_has_sane_distributions() {
        let data = experiment();
        let all = analyze_all(data);
        assert_eq!(all.len(), data.pages.len());
        let mut n_nodes = 0usize;
        for page in &all {
            for n in &page.nodes {
                n_nodes += 1;
                assert!((1..=5).contains(&n.present_in));
                if let Some(s) = n.child_similarity {
                    assert!((0.0..=1.0).contains(&s));
                }
                if let Some(s) = n.parent_similarity {
                    assert!((0.0..=1.0).contains(&s));
                }
            }
        }
        assert!(n_nodes > 500, "expected many nodes, got {n_nodes}");
        // Both stable and unstable nodes must exist.
        let perfect = all
            .iter()
            .flat_map(|p| &p.nodes)
            .filter(|n| n.parent_similarity == Some(1.0))
            .count();
        let unstable = all
            .iter()
            .flat_map(|p| &p.nodes)
            .filter(|n| n.parent_similarity.is_some_and(|s| s < 0.3))
            .count();
        assert!(perfect > 0);
        assert!(unstable > 0);
    }
}
