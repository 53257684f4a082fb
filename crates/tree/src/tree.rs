//! The dependency-tree structure and its metrics.

use serde::{Deserialize, Serialize};
use std::collections::hash_map::{Entry, HashMap};
use std::sync::Arc;
use wmtree_net::ResourceType;
use wmtree_url::Party;

/// Index of a node within its tree.
pub type NodeId = usize;

/// One node: a loaded resource.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// Node identity: the (normalized) URL.
    pub key: String,
    /// Resource type.
    pub resource_type: ResourceType,
    /// First/third party relative to the visited page.
    pub party: Party,
    /// Is the URL a tracking request per the filter list? `false` when
    /// no list was supplied at build time.
    pub tracking: bool,
    /// Depth in the tree (root = 0).
    pub depth: usize,
    /// Parent node (`None` for the root).
    pub parent: Option<NodeId>,
    /// Children, in attachment order.
    pub children: Vec<NodeId>,
}

/// Headline metrics of a tree (Table 2 / Table 5 / Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TreeMetrics {
    /// Total nodes, root included.
    pub nodes: usize,
    /// Maximum node depth (0 for a root-only tree).
    pub depth: usize,
    /// Maximum number of nodes at any single depth.
    pub breadth: usize,
}

/// The owned body of a [`DepTree`]. Kept behind an `Arc` so cloning a
/// tree — the hot operation of the memoized replay path, where one
/// built tree fans out to every identical visit — is a reference-count
/// bump, not a deep copy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct TreeInner {
    nodes: Vec<Node>,
    by_key: HashMap<String, NodeId>,
}

/// A dependency tree of one page visit.
///
/// `Clone` is O(1): the node arena is shared behind an `Arc` and only
/// copied when a clone is mutated ([`attach`](DepTree::attach) uses
/// copy-on-write).
#[derive(Debug, Clone, PartialEq)]
pub struct DepTree {
    inner: Arc<TreeInner>,
}

// Hand-written delegation so the serialized form stays exactly the
// pre-`Arc` layout: a map with `nodes` and `by_key`.
impl Serialize for DepTree {
    fn serialize(&self, out: &mut serde::Writer) {
        self.inner.serialize(out);
    }
}

impl Deserialize for DepTree {
    fn deserialize(input: &mut serde::Reader<'_>) -> Result<DepTree, serde::Error> {
        TreeInner::deserialize(input).map(|inner| DepTree {
            inner: Arc::new(inner),
        })
    }
}

impl DepTree {
    /// Create a tree with only the root (the visited page).
    pub fn new_rooted(root_key: String) -> DepTree {
        let root = Node {
            key: root_key.clone(),
            resource_type: ResourceType::MainFrame,
            party: Party::First,
            tracking: false,
            depth: 0,
            parent: None,
            children: Vec::new(),
        };
        let mut by_key = HashMap::new();
        by_key.insert(root_key, 0);
        DepTree {
            inner: Arc::new(TreeInner {
                nodes: vec![root],
                by_key,
            }),
        }
    }

    /// Reassemble a tree from `(key, type, party, tracking, parent)`
    /// records in attachment order — the decode half of the cache
    /// codec. Depths, child lists, and the key index are derived, which
    /// makes them correct by construction; everything else (node 0 is
    /// the parentless root, parents precede children, keys unique) is
    /// validated rather than trusted.
    pub(crate) fn from_parts(
        parts: Vec<(String, ResourceType, Party, bool, Option<NodeId>)>,
    ) -> Result<DepTree, String> {
        let mut nodes: Vec<Node> = Vec::with_capacity(parts.len());
        let mut by_key: HashMap<String, NodeId> = HashMap::with_capacity(parts.len());
        for (id, (key, resource_type, party, tracking, parent)) in parts.into_iter().enumerate() {
            let depth = match parent {
                None => {
                    if id != 0 {
                        return Err(format!("non-root node {id} has no parent"));
                    }
                    0
                }
                Some(p) => {
                    if id == 0 {
                        return Err("root node has a parent".into());
                    }
                    if p >= id {
                        return Err(format!("parent {p} of node {id} not earlier in arena"));
                    }
                    nodes[p].depth + 1
                }
            };
            if by_key.insert(key.clone(), id).is_some() {
                return Err(format!("duplicate node key `{key}`"));
            }
            if let Some(p) = parent {
                nodes[p].children.push(id);
            }
            nodes.push(Node {
                key,
                resource_type,
                party,
                tracking,
                depth,
                parent,
                children: Vec::new(),
            });
        }
        if nodes.is_empty() {
            return Err("empty node arena".into());
        }
        Ok(DepTree {
            inner: Arc::new(TreeInner { nodes, by_key }),
        })
    }

    /// The root node id (always 0).
    pub fn root(&self) -> NodeId {
        0
    }

    /// All nodes, root first.
    pub fn nodes(&self) -> &[Node] {
        &self.inner.nodes
    }

    /// A node by id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.inner.nodes[id]
    }

    /// Find a node by key.
    pub fn find(&self, key: &str) -> Option<NodeId> {
        self.inner.by_key.get(key).copied()
    }

    /// Attach a new node under `parent`. Returns the existing id if the
    /// key is already present (first attribution wins, §3.2/§6).
    pub fn attach(
        &mut self,
        parent: NodeId,
        key: String,
        resource_type: ResourceType,
        party: Party,
        tracking: bool,
    ) -> NodeId {
        // A shared tree is only copied when it really changes.
        if Arc::get_mut(&mut self.inner).is_none() {
            if let Some(existing) = self.find(&key) {
                return existing;
            }
        }
        let TreeInner { nodes, by_key } = Arc::make_mut(&mut self.inner);
        let id = nodes.len();
        let entry = match by_key.entry(key) {
            Entry::Occupied(existing) => return *existing.get(),
            Entry::Vacant(entry) => entry,
        };
        nodes.push(Node {
            key: entry.key().clone(),
            resource_type,
            party,
            tracking,
            depth: nodes[parent].depth + 1,
            parent: Some(parent),
            children: Vec::new(),
        });
        nodes[parent].children.push(id);
        entry.insert(id);
        id
    }

    /// Number of nodes (root included).
    pub fn node_count(&self) -> usize {
        self.inner.nodes.len()
    }

    /// The keys of a node's direct children.
    pub fn children_keys(&self, id: NodeId) -> Vec<&str> {
        self.inner.nodes[id]
            .children
            .iter()
            .map(|&c| self.inner.nodes[c].key.as_str())
            .collect()
    }

    /// The dependency chain of a node: its ancestors' keys, nearest
    /// parent first, ending at the root.
    pub fn dependency_chain(&self, id: NodeId) -> Vec<&str> {
        let mut chain = Vec::new();
        let mut cur = self.inner.nodes[id].parent;
        while let Some(p) = cur {
            chain.push(self.inner.nodes[p].key.as_str());
            cur = self.inner.nodes[p].parent;
        }
        chain
    }

    /// The parent key of a node, if any.
    pub fn parent_key(&self, id: NodeId) -> Option<&str> {
        self.inner.nodes[id]
            .parent
            .map(|p| self.inner.nodes[p].key.as_str())
    }

    /// Nodes at a given depth.
    pub fn nodes_at_depth(&self, depth: usize) -> impl Iterator<Item = &Node> {
        self.inner.nodes.iter().filter(move |n| n.depth == depth)
    }

    /// Width of every depth level, index = depth.
    pub fn level_widths(&self) -> Vec<usize> {
        let max_depth = self.inner.nodes.iter().map(|n| n.depth).max().unwrap_or(0);
        let mut widths = vec![0usize; max_depth + 1];
        for n in &self.inner.nodes {
            widths[n.depth] += 1;
        }
        widths
    }

    /// Headline metrics.
    pub fn metrics(&self) -> TreeMetrics {
        let widths = self.level_widths();
        TreeMetrics {
            nodes: self.inner.nodes.len(),
            depth: widths.len() - 1,
            breadth: widths.iter().copied().max().unwrap_or(1),
        }
    }

    /// Verify structural invariants (acyclic by construction; checks
    /// parent/child symmetry and depth consistency). Used by tests.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (id, n) in self.inner.nodes.iter().enumerate() {
            match n.parent {
                None => {
                    if id != 0 {
                        return Err(format!("non-root node {id} has no parent"));
                    }
                    if n.depth != 0 {
                        return Err("root depth must be 0".into());
                    }
                }
                Some(p) => {
                    if p >= id {
                        return Err(format!("parent {p} of node {id} not earlier in arena"));
                    }
                    if self.inner.nodes[p].depth + 1 != n.depth {
                        return Err(format!("depth mismatch at node {id}"));
                    }
                    if !self.inner.nodes[p].children.contains(&id) {
                        return Err(format!("parent {p} does not list child {id}"));
                    }
                }
            }
        }
        if self.inner.by_key.len() != self.inner.nodes.len() {
            return Err("key index size mismatch".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DepTree {
        let mut t = DepTree::new_rooted("https://page/".into());
        let a = t.attach(0, "a".into(), ResourceType::Script, Party::First, false);
        let _b = t.attach(0, "b".into(), ResourceType::Image, Party::Third, true);
        let c = t.attach(a, "c".into(), ResourceType::Xhr, Party::Third, false);
        t.attach(c, "d".into(), ResourceType::Image, Party::Third, true);
        t
    }

    #[test]
    fn structure_and_metrics() {
        let t = sample();
        assert_eq!(t.node_count(), 5);
        let m = t.metrics();
        assert_eq!(m.nodes, 5);
        assert_eq!(m.depth, 3);
        assert_eq!(m.breadth, 2); // depth 1 has two nodes
        t.check_invariants().unwrap();
    }

    #[test]
    fn root_only_tree() {
        let t = DepTree::new_rooted("https://p/".into());
        let m = t.metrics();
        assert_eq!(m.nodes, 1);
        assert_eq!(m.depth, 0);
        assert_eq!(m.breadth, 1);
        t.check_invariants().unwrap();
    }

    #[test]
    fn duplicate_key_returns_existing() {
        let mut t = DepTree::new_rooted("r".into());
        let a1 = t.attach(0, "a".into(), ResourceType::Script, Party::First, false);
        let a2 = t.attach(0, "a".into(), ResourceType::Image, Party::Third, true);
        assert_eq!(a1, a2);
        assert_eq!(t.node_count(), 2);
        // First attribution wins: type stays Script.
        assert_eq!(t.node(a1).resource_type, ResourceType::Script);
    }

    #[test]
    fn chains_and_children() {
        let t = sample();
        let d = t.find("d").unwrap();
        assert_eq!(t.dependency_chain(d), vec!["c", "a", "https://page/"]);
        assert_eq!(t.parent_key(d), Some("c"));
        let a = t.find("a").unwrap();
        assert_eq!(t.children_keys(a), vec!["c"]);
        assert_eq!(t.children_keys(0), vec!["a", "b"]);
    }

    #[test]
    fn level_widths() {
        let t = sample();
        assert_eq!(t.level_widths(), vec![1, 2, 1, 1]);
        assert_eq!(t.nodes_at_depth(1).count(), 2);
    }

    #[test]
    fn serde_roundtrip() {
        let t = sample();
        let json = serde_json::to_string(&t).unwrap();
        let back: DepTree = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }
}
