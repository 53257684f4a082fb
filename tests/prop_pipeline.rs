//! Cross-crate property tests: invariants that must hold for *any*
//! universe seed, visit seed, and browser configuration.

use proptest::prelude::*;
use wmtree::browser::{Browser, BrowserConfig};
use wmtree::filterlist::embedded::tracking_list;
use wmtree::net::ResourceType;
use wmtree::tree::{build_tree, TreeConfig};
use wmtree::url::Url;
use wmtree::webgen::{Condition, Content, UniverseConfig, VisitCtx, WebUniverse};

fn small_universe(seed: u64) -> WebUniverse {
    WebUniverse::generate(UniverseConfig {
        seed,
        sites_per_bucket: [3, 2, 2, 2, 2],
        max_subpages: 5,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every URL the universe emits is parseable and serveable: walk the
    /// content graph from a landing page and serve every embed.
    #[test]
    fn universe_is_closed_under_serving(seed in 0u64..1000, visit in 0u64..1000) {
        let u = small_universe(seed);
        let ctx = VisitCtx::standard(visit);
        let mut frontier = vec![u.sites()[0].landing_url().to_string()];
        let mut seen = std::collections::HashSet::new();
        let mut steps = 0;
        while let Some(raw) = frontier.pop() {
            if !seen.insert(raw.clone()) || steps > 400 {
                continue;
            }
            steps += 1;
            let concrete = raw
                .replace("{sid}", "aaaa")
                .replace("{uid}", "bbbb")
                .replace("{cb}", "1234");
            let url = Url::parse(&concrete).expect("universe emits parseable URLs");
            let reply = u.serve(&url, &ctx);
            // Whatever comes back, its embeds are themselves wellformed.
            for embed in reply.content.embeds() {
                frontier.push(embed.url.clone());
            }
            if let Content::Redirect { to, .. } = &reply.content {
                frontier.push(to.clone());
            }
        }
        prop_assert!(steps > 3, "walk should reach content");
    }

    /// A visit with any seed/config produces a valid tree: invariants
    /// hold, node count bounded by requests, root is the page.
    #[test]
    fn any_visit_builds_valid_tree(
        seed in 0u64..500,
        visit in 0u64..10_000,
        version in prop::sample::select(vec![86u32, 95]),
        interaction in any::<bool>(),
        headless in any::<bool>(),
    ) {
        let u = small_universe(seed);
        let cfg = BrowserConfig::reliable()
            .with_version(version)
            .with_interaction(interaction)
            .with_headless(headless);
        let browser = Browser::new(&u, cfg);
        let page = u.sites()[(visit % u.sites().len() as u64) as usize].landing_url();
        let v = browser.visit(&page, visit);
        prop_assert!(v.success);
        let tree = build_tree(&v, Some(tracking_list()), &TreeConfig::default());
        tree.check_invariants().unwrap();
        prop_assert!(tree.node_count() <= v.requests.len() + 1);
        prop_assert!(tree.node(0).key.contains(page.host()));
        // Depth is bounded by the recursion caps.
        prop_assert!(tree.metrics().depth <= 35, "depth {}", tree.metrics().depth);
        // Every tracking node is third-party or first-party — just
        // ensure classification ran without contradiction.
        for node in tree.nodes().iter().skip(1) {
            let url = Url::parse(&node.key);
            prop_assert!(url.is_ok(), "node key must be a URL: {}", node.key);
        }
    }

    /// Normalized trees never have more nodes than raw-URL trees, and
    /// raw trees never merge distinct query values.
    #[test]
    fn normalization_only_merges(seed in 0u64..200, visit in 0u64..1000) {
        let u = small_universe(seed);
        let browser = Browser::new(&u, BrowserConfig::reliable());
        let page = u.sites()[0].landing_url();
        let v = browser.visit(&page, visit);
        let norm = build_tree(&v, None, &TreeConfig::default());
        let raw = build_tree(&v, None, &TreeConfig { normalize_urls: false, ..TreeConfig::default() });
        prop_assert!(norm.node_count() <= raw.node_count());
    }

    /// Interaction-gated content is a strict capability: lazy content
    /// and engagement beacons appear only in interaction-enabled visits.
    /// (Raw request *counts* are not per-instance monotone — interaction
    /// shifts cache-buster sequences and thus ad-auction outcomes — so
    /// the guarantee is about the gated URLs, not totals.)
    #[test]
    fn interaction_gates_are_strict(seed in 0u64..200, visit in 0u64..500) {
        let u = small_universe(seed);
        let with = Browser::new(&u, BrowserConfig::reliable()).visit(&u.sites()[0].landing_url(), visit);
        let without = Browser::new(&u, BrowserConfig::reliable().with_interaction(false))
            .visit(&u.sites()[0].landing_url(), visit);
        let gated = |v: &wmtree::browser::VisitResult| -> Vec<String> {
            v.requests
                .iter()
                .map(|r| r.url.to_string())
                .filter(|u| u.contains("lazy") || u.contains("/collect/engage") || u.contains("/scroll"))
                .collect()
        };
        prop_assert!(gated(&without).is_empty(), "NoAction saw gated URLs: {:?}", gated(&without));
        // Interaction visits of lazy-content pages do see them.
        if with.requests.iter().any(|r| r.url.as_str().contains("lazy")) {
            prop_assert!(!gated(&with).is_empty());
        }
    }

    /// Conditions gate deterministically: serving the same URL twice in
    /// the same visit context yields identical content.
    #[test]
    fn serving_is_pure(seed in 0u64..200, visit in 0u64..1000) {
        let u = small_universe(seed);
        let ctx = VisitCtx::standard(visit);
        for site in u.sites().iter().take(3) {
            let a = u.serve(&site.landing_url(), &ctx);
            let b = u.serve(&site.landing_url(), &ctx);
            prop_assert_eq!(a, b);
        }
    }

    /// Resource types emitted by the universe are consistent with the
    /// can-load-children contract: leaves never produce embeds.
    #[test]
    fn leaf_types_stay_leaves(seed in 0u64..100, visit in 0u64..200) {
        let u = small_universe(seed);
        let ctx = VisitCtx::standard(visit);
        let page = u.sites()[0].landing_url();
        let reply = u.serve(&page, &ctx);
        for embed in reply.content.embeds() {
            if matches!(embed.resource_type, ResourceType::Image | ResourceType::Font) {
                let concrete = embed
                    .url
                    .replace("{sid}", "x")
                    .replace("{uid}", "y")
                    .replace("{cb}", "3");
                if let Ok(url) = Url::parse(&concrete) {
                    let child_reply = u.serve(&url, &ctx);
                    prop_assert!(
                        child_reply.content.embeds().is_empty(),
                        "image/font {concrete} must not load children"
                    );
                }
            }
        }
        // Condition values are sane probabilities.
        for embed in reply.content.embeds() {
            if let Condition::PerVisit(p) | Condition::InteractionThenPerVisit(p) = embed.condition {
                prop_assert!((0.0..=1.0).contains(&p));
            }
        }
    }
}
