//! The shared per-page index: every per-page fact the analysis passes
//! need, computed once.
//!
//! Before this module existed each analysis pass re-derived its own
//! node-key sets per page (`BTreeSet<&str>` unions, per-depth sets,
//! per-tree key→id maps, re-parsed eTLD+1 sites, ...). [`PageIndex`]
//! interns every node key of a page into a sorted string arena once and
//! precomputes, per tree, the id-level views all passes share:
//!
//! * **arena**: the sorted, distinct node keys of all trees (roots
//!   included), so a key is a `u32` and *id order = string order* —
//!   iterating ids ascending visits keys in exactly the order the old
//!   `BTreeSet<&str>` code did, which keeps every accumulated float
//!   bit-identical;
//! * **record keys**: the non-root union the paper's node-level
//!   analyses run over;
//! * per tree: key↔node maps, sorted per-depth id lists, sorted child
//!   id lists (CSR), parent pointers;
//! * memoized per-key facts: presence count, resource type / party /
//!   tracking flag (first containing tree, like the old code), and the
//!   eTLD+1 site of the key.
//!
//! Building it searches nothing per node: each key is hashed to a slot
//! once, only the page's distinct keys are sorted, and child and depth
//! lists read the nodes' arena ids directly. A key's site depends only
//! on the part of it [`wmtree_url::parse_prefix`] returns, and sorting
//! puts most keys with one such prefix next to each other, so
//! `Url::parse` runs once per run of keys with one prefix rather than
//! once per key.
//!
//! The index is built lazily via [`PageAnalysis::index`] behind a
//! `OnceLock`: the per-site stage builds it as it assembles each page,
//! in its worker, and every pass after reads it.
//!
//! [`PageAnalysis::index`]: crate::data::PageAnalysis::index

use crate::data::PageAnalysis;
use std::collections::HashMap;
use wmtree_net::ResourceType;
use wmtree_url::{Party, Url};

/// Sentinel for "key absent in this tree" / "no parent".
const ABSENT: u32 = u32::MAX;

/// Memoized per-key classification, taken from the first tree
/// containing the key (the same rule `node_similarity` always used).
#[derive(Debug, Clone, Copy)]
pub struct KeyMeta {
    /// Resource type.
    pub resource_type: ResourceType,
    /// First/third party relative to the visited page.
    pub party: Party,
    /// Tracking flag (first containing tree; per-tree flags can differ
    /// and stay available on the tree nodes themselves).
    pub tracking: bool,
}

/// Id-level view of one dependency tree.
#[derive(Debug, Clone)]
pub struct TreeIndex {
    /// NodeId → arena id, for every node including the root.
    node_arena_id: Vec<u32>,
    /// Arena id → NodeId (`ABSENT` when the key is not in this tree).
    /// Includes the root mapping, mirroring `DepTree::find`.
    node_of_key: Vec<u32>,
    /// NodeId → parent NodeId (`ABSENT` for the root).
    parent_node: Vec<u32>,
    /// depth → sorted arena ids of the nodes at that depth.
    depth_ids: Vec<Vec<u32>>,
    /// CSR offsets into `child_ids`, indexed by NodeId.
    child_start: Vec<u32>,
    /// Sorted child arena ids per node.
    child_ids: Vec<u32>,
}

impl TreeIndex {
    /// The NodeId holding `id`, mirroring `DepTree::find` (the root is
    /// findable).
    pub fn node_of(&self, id: u32) -> Option<usize> {
        match self.node_of_key.get(id as usize) {
            Some(&n) if n != ABSENT => Some(n as usize),
            _ => None,
        }
    }

    /// Like [`node_of`](Self::node_of) but treating the root as absent
    /// — the view the union-of-non-root-keys analyses use.
    pub fn non_root_node_of(&self, id: u32) -> Option<usize> {
        match self.node_of(id) {
            Some(0) | None => None,
            some => some,
        }
    }

    /// Arena id of a node.
    pub fn arena_id(&self, node: usize) -> u32 {
        self.node_arena_id[node]
    }

    /// Parent NodeId, if any.
    pub fn parent_node(&self, node: usize) -> Option<usize> {
        match self.parent_node[node] {
            ABSENT => None,
            p => Some(p as usize),
        }
    }

    /// Arena id of a node's parent key, if any.
    pub fn parent_key_id(&self, node: usize) -> Option<u32> {
        self.parent_node(node).map(|p| self.node_arena_id[p])
    }

    /// Sorted arena ids of a node's children.
    pub fn children_ids(&self, node: usize) -> &[u32] {
        &self.child_ids[self.child_start[node] as usize..self.child_start[node + 1] as usize]
    }

    /// Sorted arena ids of the nodes at `depth` (empty past the tree's
    /// maximum depth).
    pub fn depth_ids(&self, depth: usize) -> &[u32] {
        self.depth_ids.get(depth).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Deepest level of this tree.
    pub fn max_depth(&self) -> usize {
        self.depth_ids.len().saturating_sub(1)
    }

    /// The dependency chain of a node as arena ids: ancestors only,
    /// nearest parent first, ending at the root (mirrors
    /// `DepTree::dependency_chain`).
    pub fn chain_ids(&self, node: usize) -> Vec<u32> {
        let mut chain = Vec::new();
        let mut cur = self.parent_node(node);
        while let Some(p) = cur {
            chain.push(self.node_arena_id[p]);
            cur = self.parent_node(p);
        }
        chain
    }
}

/// The shared per-page index. See the module docs for the contract.
#[derive(Debug, Clone)]
pub struct PageIndex {
    /// Sorted distinct node keys over all trees (roots included).
    arena: Vec<String>,
    /// Sorted arena ids of the non-root key union (the analysis
    /// universe of the per-node passes).
    record_keys: Vec<u32>,
    /// Per arena id: number of trees containing the key as a non-root
    /// node.
    present_in: Vec<u8>,
    /// Per arena id: memoized classification from the first containing
    /// tree (root-only keys get the root node's attributes).
    meta: Vec<KeyMeta>,
    /// The distinct eTLD+1 values of the keys' authorities, empty for
    /// keys that are not parsable URLs.
    sites: Vec<String>,
    /// Per arena id: index into `sites`.
    site_of: Vec<u32>,
    /// One id-level view per profile tree.
    trees: Vec<TreeIndex>,
}

impl PageIndex {
    /// Build the index for one page. Deterministic: depends only on the
    /// page's trees.
    pub fn build(page: &PageAnalysis) -> PageIndex {
        // 1. Intern every key (roots included) into a sorted arena. The
        //    trees of a page share most keys, so each key is hashed to a
        //    slot in first-seen order, only the distinct keys are sorted,
        //    and every node learns its arena id without a search.
        let occurrences = page.trees.iter().map(|t| t.node_count()).sum();
        let mut slot_of: HashMap<&str, u32> = HashMap::with_capacity(occurrences);
        let mut slot_keys: Vec<&str> = Vec::new();
        let node_slots: Vec<Vec<u32>> = page
            .trees
            .iter()
            .map(|t| {
                t.nodes()
                    .iter()
                    .map(|n| {
                        *slot_of.entry(n.key.as_str()).or_insert_with(|| {
                            slot_keys.push(&n.key);
                            (slot_keys.len() - 1) as u32
                        })
                    })
                    .collect()
            })
            .collect();
        let mut sorted_slots: Vec<u32> = (0..slot_keys.len() as u32).collect();
        sorted_slots.sort_unstable_by(|&a, &b| slot_keys[a as usize].cmp(slot_keys[b as usize]));
        let mut arena_id_of_slot = vec![0u32; slot_keys.len()];
        for (id, &slot) in sorted_slots.iter().enumerate() {
            arena_id_of_slot[slot as usize] = id as u32;
        }
        let arena: Vec<String> = sorted_slots
            .iter()
            .map(|&slot| slot_keys[slot as usize].to_string())
            .collect();

        let n_keys = arena.len();
        let mut present_in = vec![0u8; n_keys];
        let mut non_root = vec![false; n_keys];
        let mut meta: Vec<Option<KeyMeta>> = vec![None; n_keys];

        // 2. Per-tree id-level views.
        let mut trees = Vec::with_capacity(page.trees.len());
        for (tree, slots) in page.trees.iter().zip(node_slots) {
            let nodes = tree.nodes();
            let node_arena_id: Vec<u32> = slots
                .into_iter()
                .map(|slot| arena_id_of_slot[slot as usize])
                .collect();
            let mut node_of_key = vec![ABSENT; n_keys];
            let mut parent_node = Vec::with_capacity(nodes.len());
            let max_depth = nodes.iter().map(|n| n.depth).max().unwrap_or(0);
            let mut depth_ids: Vec<Vec<u32>> = vec![Vec::new(); max_depth + 1];
            let mut child_start = Vec::with_capacity(nodes.len() + 1);
            let mut child_ids = Vec::with_capacity(nodes.len().saturating_sub(1));

            for (ni, node) in nodes.iter().enumerate() {
                let id = node_arena_id[ni];
                node_of_key[id as usize] = ni as u32;
                parent_node.push(node.parent.map(|p| p as u32).unwrap_or(ABSENT));
                depth_ids[node.depth].push(id);
                if ni > 0 {
                    non_root[id as usize] = true;
                    present_in[id as usize] = present_in[id as usize].saturating_add(1);
                    if meta[id as usize].is_none() {
                        meta[id as usize] = Some(KeyMeta {
                            resource_type: node.resource_type,
                            party: node.party,
                            tracking: node.tracking,
                        });
                    }
                }
                child_start.push(child_ids.len() as u32);
                let start = child_ids.len();
                child_ids.extend(node.children.iter().map(|&c| node_arena_id[c]));
                child_ids[start..].sort_unstable();
            }
            child_start.push(child_ids.len() as u32);
            for level in &mut depth_ids {
                level.sort_unstable();
            }
            trees.push(TreeIndex {
                node_arena_id,
                node_of_key,
                parent_node,
                depth_ids,
                child_start,
                child_ids,
            });
        }

        // Root-only keys: classify from the first tree rooted there.
        let meta: Vec<KeyMeta> = meta
            .into_iter()
            .enumerate()
            .map(|(id, m)| {
                m.unwrap_or_else(|| {
                    let node = page
                        .trees
                        .iter()
                        .zip(&trees)
                        .find_map(|(t, ti)| ti.node_of(id as u32).map(|n| &t.nodes()[n]))
                        .expect("arena key exists in some tree"); // wmtree-lint: allow(WM0105)
                    KeyMeta {
                        resource_type: node.resource_type,
                        party: node.party,
                        tracking: node.tracking,
                    }
                })
            })
            .collect();

        let record_keys: Vec<u32> = (0..n_keys as u32)
            .filter(|&id| non_root[id as usize])
            .collect();

        // 3. Memoized eTLD+1 per key, parsed once per run of keys with
        //    the same `parse_prefix` (sorting groups most of a host's
        //    keys; a key that breaks a run only costs another parse).
        let mut sites: Vec<String> = Vec::new();
        let mut site_of = Vec::with_capacity(n_keys);
        let mut last_authority = None;
        for key in &arena {
            let authority = wmtree_url::parse_prefix(key);
            if authority.is_none() || authority != last_authority {
                sites.push(
                    Url::parse(key)
                        .map(|u| u.site().to_string())
                        .unwrap_or_default(),
                );
                last_authority = authority;
            }
            site_of.push((sites.len() - 1) as u32);
        }

        PageIndex {
            arena,
            record_keys,
            present_in,
            meta,
            sites,
            site_of,
            trees,
        }
    }

    /// The interned key for an arena id.
    pub fn key(&self, id: u32) -> &str {
        &self.arena[id as usize]
    }

    /// Arena id of a key, if interned.
    pub fn id_of(&self, key: &str) -> Option<u32> {
        self.arena
            .binary_search_by(|k| k.as_str().cmp(key))
            .ok()
            .map(|i| i as u32)
    }

    /// Number of interned keys.
    pub fn key_count(&self) -> usize {
        self.arena.len()
    }

    /// Sorted arena ids of the non-root key union. Ascending id order
    /// is ascending key order.
    pub fn record_keys(&self) -> &[u32] {
        &self.record_keys
    }

    /// Number of trees containing the key as a non-root node.
    pub fn present_in(&self, id: u32) -> usize {
        self.present_in[id as usize] as usize
    }

    /// Memoized classification of a key.
    pub fn meta(&self, id: u32) -> &KeyMeta {
        &self.meta[id as usize]
    }

    /// Memoized eTLD+1 of a key (empty for unparsable keys).
    pub fn site_of(&self, id: u32) -> &str {
        &self.sites[self.site_of[id as usize] as usize]
    }

    /// Which of the page's parsed sites a key's is, below
    /// [`site_slots`](Self::site_slots): keys in one slot share a site,
    /// though one site may fill several slots.
    pub(crate) fn site_slot(&self, id: u32) -> usize {
        self.site_of[id as usize] as usize
    }

    /// Number of site slots.
    pub(crate) fn site_slots(&self) -> usize {
        self.sites.len()
    }

    /// Per-tree views, in profile order.
    pub fn trees(&self) -> &[TreeIndex] {
        &self.trees
    }
}

#[cfg(test)]
mod tests {
    use crate::data::testutil::experiment;
    use std::collections::BTreeSet;

    #[test]
    fn arena_is_sorted_and_complete() {
        let data = experiment();
        for page in data.pages.iter().take(10) {
            let idx = page.index();
            // Sorted, distinct.
            for w in idx.arena.windows(2) {
                assert!(w[0] < w[1]);
            }
            // Complete: every key of every tree resolves.
            for (t, ti) in page.trees.iter().zip(idx.trees()) {
                for (ni, node) in t.nodes().iter().enumerate() {
                    let id = idx.id_of(&node.key).expect("interned");
                    assert_eq!(ti.arena_id(ni), id);
                    assert_eq!(idx.key(id), node.key);
                    assert_eq!(ti.node_of(id), Some(ni));
                }
            }
        }
    }

    #[test]
    fn record_keys_match_non_root_union() {
        let data = experiment();
        for page in data.pages.iter().take(10) {
            let idx = page.index();
            let expected: BTreeSet<&str> = page
                .trees
                .iter()
                .flat_map(|t| t.nodes().iter().skip(1).map(|n| n.key.as_str()))
                .collect();
            let got: Vec<&str> = idx.record_keys().iter().map(|&id| idx.key(id)).collect();
            assert_eq!(got, expected.into_iter().collect::<Vec<_>>());
            // Presence counts agree with per-tree membership.
            for &id in idx.record_keys() {
                let by_hand = page
                    .trees
                    .iter()
                    .filter(|t| t.nodes().iter().skip(1).any(|n| n.key == idx.key(id)))
                    .count();
                assert_eq!(idx.present_in(id), by_hand);
            }
        }
    }

    #[test]
    fn tree_views_mirror_dep_tree() {
        let data = experiment();
        let page = &data.pages[0];
        let idx = page.index();
        for (t, ti) in page.trees.iter().zip(idx.trees()) {
            assert_eq!(ti.max_depth(), t.metrics().depth);
            for (ni, node) in t.nodes().iter().enumerate() {
                // Children: sorted id view equals the sorted key set.
                let mut keys: Vec<&str> = t.children_keys(ni).into_iter().collect();
                keys.sort_unstable();
                let ids: Vec<&str> = ti.children_ids(ni).iter().map(|&c| idx.key(c)).collect();
                assert_eq!(ids, keys);
                // Parent and chain agree.
                assert_eq!(ti.parent_key_id(ni).map(|p| idx.key(p)), t.parent_key(ni));
                let chain: Vec<&str> = ti.chain_ids(ni).iter().map(|&c| idx.key(c)).collect();
                assert_eq!(chain, t.dependency_chain(ni));
                assert_eq!(node.depth == 0, ti.parent_node(ni).is_none());
            }
            // Depth lists are the nodes at that depth, in key order.
            for depth in 0..=ti.max_depth() {
                let expected: BTreeSet<&str> =
                    t.nodes_at_depth(depth).map(|n| n.key.as_str()).collect();
                let got: Vec<&str> = ti.depth_ids(depth).iter().map(|&id| idx.key(id)).collect();
                assert_eq!(got, expected.into_iter().collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn sites_are_memoized_etld1() {
        let data = experiment();
        let page = &data.pages[0];
        let idx = page.index();
        for &id in idx.record_keys() {
            let expected = wmtree_url::Url::parse(idx.key(id))
                .map(|u| u.site().to_string())
                .unwrap_or_default();
            assert_eq!(idx.site_of(id), expected);
        }
    }
}
