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

/// A dependency tree of one page visit: an immutable node arena, root
/// first, parents before their children. [`TreeBuilder::finish`] or
/// deserialization makes one; nothing changes it after.
///
/// `Clone` is O(1): the arena is shared behind an `Arc`. Trees are
/// cloned where the per-site stage keeps a rebuilt site's trees as its
/// cache record, and where a cache hit hands a record's trees out.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DepTree {
    nodes: Arc<[Node]>,
}

/// The serialized form of a [`DepTree`], `{"nodes": [...]}`. Unknown
/// fields are skipped, so a tree written with a key index beside its
/// nodes still reads.
#[derive(Deserialize)]
struct TreeBody {
    nodes: Vec<Node>,
}

impl Deserialize for DepTree {
    fn deserialize(input: &mut serde::Reader<'_>) -> Result<DepTree, serde::Error> {
        TreeBody::deserialize(input).map(|body| DepTree {
            nodes: body.nodes.into(),
        })
    }
}

/// Builds one [`DepTree`]: holds the key → node index that lookups by
/// key need while requests attach, and only until [`finish`](Self::finish).
#[derive(Debug)]
pub struct TreeBuilder {
    /// The arena; a node's key stays empty until `finish`.
    nodes: Vec<Node>,
    /// Every node's key, held here alone while the tree is built.
    index: HashMap<String, NodeId>,
}

impl TreeBuilder {
    /// Start a tree with only the root (the visited page).
    pub fn new(root_key: String) -> TreeBuilder {
        TreeBuilder {
            nodes: vec![Node {
                key: String::new(),
                resource_type: ResourceType::MainFrame,
                party: Party::First,
                tracking: false,
                depth: 0,
                parent: None,
                children: Vec::new(),
            }],
            index: HashMap::from([(root_key, 0)]),
        }
    }

    /// The node holding `key`, if any.
    pub fn find(&self, key: &str) -> Option<NodeId> {
        self.index.get(key).copied()
    }

    /// Attach a new node under `parent` (an id this builder returned).
    /// Returns the existing id if the key is already present (first
    /// attribution wins, §3.2/§6).
    pub fn attach(
        &mut self,
        parent: NodeId,
        key: String,
        resource_type: ResourceType,
        party: Party,
        tracking: bool,
    ) -> NodeId {
        let id = self.nodes.len();
        match self.index.entry(key) {
            Entry::Occupied(existing) => return *existing.get(),
            Entry::Vacant(entry) => entry.insert(id),
        };
        self.nodes.push(Node {
            key: String::new(),
            resource_type,
            party,
            tracking,
            depth: self.nodes[parent].depth + 1,
            parent: Some(parent),
            children: Vec::new(),
        });
        self.nodes[parent].children.push(id);
        id
    }

    /// The finished tree: each key moves out of the index into its node.
    pub fn finish(self) -> DepTree {
        let mut nodes = self.nodes;
        // Each key lands in its own node, so the visiting order cannot
        // show. wmtree-lint: allow(WM0102)
        for (key, id) in self.index {
            nodes[id].key = key;
        }
        DepTree {
            nodes: nodes.into(),
        }
    }
}

impl DepTree {
    /// The root node id (always 0).
    pub fn root(&self) -> NodeId {
        0
    }

    /// All nodes, root first.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// A node by id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }

    /// Number of nodes (root included).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The keys of a node's direct children.
    pub fn children_keys(&self, id: NodeId) -> Vec<&str> {
        self.nodes[id]
            .children
            .iter()
            .map(|&c| self.nodes[c].key.as_str())
            .collect()
    }

    /// The dependency chain of a node: its ancestors' keys, nearest
    /// parent first, ending at the root.
    pub fn dependency_chain(&self, id: NodeId) -> Vec<&str> {
        let mut chain = Vec::new();
        let mut cur = self.nodes[id].parent;
        while let Some(p) = cur {
            chain.push(self.nodes[p].key.as_str());
            cur = self.nodes[p].parent;
        }
        chain
    }

    /// The parent key of a node, if any.
    pub fn parent_key(&self, id: NodeId) -> Option<&str> {
        self.nodes[id].parent.map(|p| self.nodes[p].key.as_str())
    }

    /// Nodes at a given depth.
    pub fn nodes_at_depth(&self, depth: usize) -> impl Iterator<Item = &Node> {
        self.nodes.iter().filter(move |n| n.depth == depth)
    }

    /// Width of every depth level, index = depth.
    pub fn level_widths(&self) -> Vec<usize> {
        let max_depth = self.nodes.iter().map(|n| n.depth).max().unwrap_or(0);
        let mut widths = vec![0usize; max_depth + 1];
        for n in self.nodes.iter() {
            widths[n.depth] += 1;
        }
        widths
    }

    /// Headline metrics.
    pub fn metrics(&self) -> TreeMetrics {
        let widths = self.level_widths();
        TreeMetrics {
            nodes: self.nodes.len(),
            depth: widths.len() - 1,
            breadth: widths.iter().copied().max().unwrap_or(1),
        }
    }

    /// Verify structural invariants (acyclic by construction; checks
    /// parent/child symmetry, depth consistency and key uniqueness).
    /// Used by tests.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (id, n) in self.nodes.iter().enumerate() {
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
                    if self.nodes[p].depth + 1 != n.depth {
                        return Err(format!("depth mismatch at node {id}"));
                    }
                    if !self.nodes[p].children.contains(&id) {
                        return Err(format!("parent {p} does not list child {id}"));
                    }
                }
            }
        }
        let mut keys: Vec<&str> = self.nodes.iter().map(|n| n.key.as_str()).collect();
        keys.sort_unstable();
        match keys.windows(2).find(|pair| pair[0] == pair[1]) {
            Some(pair) => Err(format!("duplicate node key `{}`", pair[0])),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DepTree {
        let mut b = TreeBuilder::new("https://page/".into());
        let a = b.attach(0, "a".into(), ResourceType::Script, Party::First, false);
        let _b = b.attach(0, "b".into(), ResourceType::Image, Party::Third, true);
        let c = b.attach(a, "c".into(), ResourceType::Xhr, Party::Third, false);
        b.attach(c, "d".into(), ResourceType::Image, Party::Third, true);
        b.finish()
    }

    fn find(t: &DepTree, key: &str) -> Option<NodeId> {
        t.nodes().iter().position(|n| n.key == key)
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
        let t = TreeBuilder::new("https://p/".into()).finish();
        let m = t.metrics();
        assert_eq!(m.nodes, 1);
        assert_eq!(m.depth, 0);
        assert_eq!(m.breadth, 1);
        assert_eq!(t.node(0).key, "https://p/");
        t.check_invariants().unwrap();
    }

    #[test]
    fn duplicate_key_returns_existing() {
        let mut b = TreeBuilder::new("r".into());
        let a1 = b.attach(0, "a".into(), ResourceType::Script, Party::First, false);
        let a2 = b.attach(0, "a".into(), ResourceType::Image, Party::Third, true);
        assert_eq!(a1, a2);
        assert_eq!(
            b.attach(a1, "r".into(), ResourceType::Image, Party::Third, true),
            0
        );
        assert_eq!(b.find("a"), Some(a1));
        let t = b.finish();
        assert_eq!(t.node_count(), 2);
        // First attribution wins: type stays Script.
        assert_eq!(t.node(a1).resource_type, ResourceType::Script);
    }

    #[test]
    fn finish_gives_every_node_its_key() {
        let t = sample();
        let keys: Vec<&str> = t.nodes().iter().map(|n| n.key.as_str()).collect();
        assert_eq!(keys, ["https://page/", "a", "b", "c", "d"]);
    }

    #[test]
    fn duplicate_keys_fail_the_invariants() {
        let json = serde_json::to_string(&sample()).unwrap();
        let t: DepTree =
            serde_json::from_str(&json.replace(r#""key":"d""#, r#""key":"b""#)).unwrap();
        assert_eq!(
            t.check_invariants(),
            Err("duplicate node key `b`".to_string())
        );
    }

    #[test]
    fn chains_and_children() {
        let t = sample();
        let d = find(&t, "d").unwrap();
        assert_eq!(t.dependency_chain(d), vec!["c", "a", "https://page/"]);
        assert_eq!(t.parent_key(d), Some("c"));
        let a = find(&t, "a").unwrap();
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
        assert!(
            json.starts_with(r#"{"nodes":[{"key":"https://page/","#),
            "{json}"
        );
        let back: DepTree = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }
}
