//! Layer-2 checks against real pipeline output and corrupted artifacts.
//!
//! The property test proves the positive direction: every tree the
//! pipeline builds — any seed, any site, either call-stack mode, with
//! or without URL normalization — satisfies the `WM020x` invariants.
//! The negative tests prove the checks can actually fail: a good tree
//! is serialized, surgically corrupted through the serde value tree,
//! and each corruption must surface as the right diagnostic code.

use proptest::prelude::*;
use serde::Value;
use wmtree_browser::{Browser, BrowserConfig};
use wmtree_filterlist::embedded::tracking_list;
use wmtree_lint::artifact::check_dep_tree;
use wmtree_net::ResourceType;
use wmtree_tree::{build_tree, CallStackMode, DepTree, TreeConfig};
use wmtree_url::Party;
use wmtree_webgen::{UniverseConfig, WebUniverse};

proptest! {
    /// `build_tree` output satisfies the layer-2 DepTree invariants for
    /// arbitrary seeds, pages, and tree configs.
    #[test]
    fn built_trees_satisfy_layer2_invariants(
        seed in 0u64..1_000_000,
        site in 0usize..16,
        page in 0usize..6,
        normalize in any::<bool>(),
        full_walk in any::<bool>(),
    ) {
        let u = WebUniverse::generate(UniverseConfig {
            seed,
            sites_per_bucket: [2, 1, 1, 1, 1],
            max_subpages: 4,
        });
        let sites = u.sites();
        let spec = &sites[site % sites.len()];
        let url = spec.page_url(page % (spec.n_subpages + 1));
        let visit = Browser::new(&u, BrowserConfig::reliable()).visit(&url, seed);
        let cfg = TreeConfig {
            normalize_urls: normalize,
            call_stack_mode: if full_walk {
                CallStackMode::FullWalk
            } else {
                CallStackMode::LatestEntry
            },
        };
        let tree = build_tree(&visit, Some(tracking_list()), &cfg);
        let diags = check_dep_tree(&tree, "prop");
        prop_assert!(diags.is_empty(), "layer-2 violations: {diags:?}");
        // The lint check must agree with the tree's own validator.
        prop_assert!(tree.check_invariants().is_ok());
    }
}

/// A small valid tree: root → script → tracking pixel.
fn good_tree() -> DepTree {
    let mut t = DepTree::new_rooted("https://www.a.com/".into());
    let s = t.attach(
        0,
        "https://cdn.a.com/app.js".into(),
        ResourceType::Script,
        Party::First,
        false,
    );
    t.attach(
        s,
        "https://ads.b.net/px.gif".into(),
        ResourceType::Image,
        Party::Third,
        true,
    );
    t
}

/// Serialize `tree`, apply `f` to the field map of node `node`, and
/// deserialize the corrupted result back into a `DepTree`.
fn corrupt_node<F>(tree: &DepTree, node: usize, f: F) -> DepTree
where
    F: FnOnce(&mut [(String, Value)]),
{
    let mut v = serde_json::to_value(tree).expect("tree serializes");
    {
        let Value::Map(fields) = &mut v else {
            panic!("tree serializes to a map")
        };
        let nodes = &mut fields
            .iter_mut()
            .find(|(k, _)| k == "nodes")
            .expect("nodes field")
            .1;
        let Value::Seq(items) = nodes else {
            panic!("nodes is a sequence")
        };
        let Value::Map(node_fields) = &mut items[node] else {
            panic!("node is a map")
        };
        f(node_fields);
    }
    serde_json::from_value(v).expect("corrupted tree still deserializes")
}

/// Overwrite one named field of a node.
fn set_field(fields: &mut [(String, Value)], name: &str, value: Value) {
    fields
        .iter_mut()
        .find(|(k, _)| k == name)
        .unwrap_or_else(|| panic!("node has a `{name}` field"))
        .1 = value;
}

/// The diagnostic codes a check produced.
fn codes(tree: &DepTree) -> Vec<String> {
    check_dep_tree(tree, "t")
        .iter()
        .map(|d| d.code.as_str().to_string())
        .collect()
}

#[test]
fn valid_tree_is_clean() {
    assert!(codes(&good_tree()).is_empty());
}

#[test]
fn corrupted_depth_is_wm0202() {
    let bad = corrupt_node(&good_tree(), 2, |n| set_field(n, "depth", Value::U64(9)));
    let c = codes(&bad);
    assert!(c.contains(&"WM0202".to_string()), "{c:?}");
}

#[test]
fn corrupted_root_depth_is_wm0202() {
    let bad = corrupt_node(&good_tree(), 0, |n| set_field(n, "depth", Value::U64(3)));
    let c = codes(&bad);
    assert!(c.contains(&"WM0202".to_string()), "{c:?}");
}

#[test]
fn forward_parent_edge_is_wm0202() {
    // Node 1's parent points *forward* to node 2 — the shape that could
    // close a cycle. The arena-order rule must reject it.
    let bad = corrupt_node(&good_tree(), 1, |n| set_field(n, "parent", Value::U64(2)));
    let c = codes(&bad);
    assert!(c.contains(&"WM0202".to_string()), "{c:?}");
}

#[test]
fn orphaned_non_root_is_wm0201() {
    let bad = corrupt_node(&good_tree(), 2, |n| set_field(n, "parent", Value::Null));
    let c = codes(&bad);
    assert!(c.contains(&"WM0201".to_string()), "{c:?}");
}

#[test]
fn duplicate_key_is_wm0203() {
    // Node 2 claims the root's key; the key index can no longer resolve
    // it back to node 2.
    let bad = corrupt_node(&good_tree(), 2, |n| {
        set_field(n, "key", Value::Str("https://www.a.com/".into()))
    });
    let c = codes(&bad);
    assert!(c.contains(&"WM0203".to_string()), "{c:?}");
}
