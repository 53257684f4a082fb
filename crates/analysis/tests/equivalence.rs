//! `PageIndex::site_of` parses once per authority; it must still say
//! exactly what `Url::parse(key).map(site)` says for every key, on a
//! crawl's keys and on generated keys shaped to make the parse fail or
//! the authority differ in one detail.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use wmtree_analysis::data::{ExperimentData, PageAnalysis};
use wmtree_analysis::index::PageIndex;
use wmtree_crawler::{standard_profiles, Commander, CrawlOptions};
use wmtree_filterlist::embedded::tracking_list;
use wmtree_net::ResourceType;
use wmtree_tree::{DepTree, TreeConfig};
use wmtree_url::{Party, Url};
use wmtree_webgen::{UniverseConfig, WebUniverse};

/// What `site_of` must return for a key.
fn parsed_site(key: &str) -> String {
    Url::parse(key).map(|u| u.site()).unwrap_or_default()
}

fn assert_sites(idx: &PageIndex) {
    for id in 0..idx.key_count() as u32 {
        assert_eq!(
            idx.site_of(id),
            parsed_site(idx.key(id)),
            "{:?}",
            idx.key(id)
        );
    }
}

/// A page whose single tree holds `keys` (the first is the root).
fn page_of(keys: &[String]) -> PageAnalysis {
    let mut tree = DepTree::new_rooted(keys[0].clone());
    for key in &keys[1..] {
        tree.attach(0, key.clone(), ResourceType::Image, Party::Third, false);
    }
    PageAnalysis::new(
        Arc::from("site.com"),
        keys[0].clone(),
        None,
        None,
        vec![tree],
        vec![Vec::new()],
    )
}

/// The part of a key up to its authority: surrounding whitespace, a
/// scheme (valid or not), a separator that may not be `://`, userinfo,
/// hosts that parse or fail (empty, inner whitespace, capitals, IP
/// literals), and ports that parse or fail.
fn authority() -> impl Strategy<Value = String> {
    (
        (
            prop::sample::select(vec!["", " ", "\t"]),
            prop::sample::select(vec!["https", "http", "HTTP", "1x", "", "a+b"]),
            prop::sample::select(vec!["://", "://", "://", ":/", ""]),
            prop::sample::select(vec!["", "", "u@", "u:p@", "a@b@"]),
        ),
        (
            prop::sample::select(vec![
                "a.com",
                "www.a.com",
                "cdn.a.com",
                "A.COM",
                "x.co.uk",
                "",
                "a b.com",
                "192.168.0.1",
                "[::1]",
                "localhost",
            ]),
            prop::sample::select(vec!["", "", ":80", ":", ":99999", ":8a", ":443"]),
        ),
    )
        .prop_map(|((lead, scheme, sep, user), (host, port))| {
            format!("{lead}{scheme}{sep}{user}{host}{port}")
        })
}

/// What follows an authority: nothing, a path, query or fragment, or
/// whitespace that either trims away or ends up inside the host, then
/// maybe trailing whitespace.
fn rest() -> impl Strategy<Value = String> {
    (
        prop::sample::select(vec![
            "", "/", "/p", "?q=1", "#f", " /x", " ", "/a b", "@x", ":1/x",
        ]),
        prop::sample::select(vec!["", "", " ", "\n"]),
    )
        .prop_map(|(rest, trail)| format!("{rest}{trail}"))
}

proptest! {
    /// Generated keys over a few authorities per page, so that many
    /// share an authority and differ after it, some only in whitespace.
    #[test]
    fn site_of_equals_url_parse_on_generated_keys(
        authorities in prop::collection::vec(authority(), 1..4),
        keys in prop::collection::vec((0usize..4, rest()), 1..24),
    ) {
        let keys: std::collections::BTreeSet<String> = keys
            .into_iter()
            .map(|(a, rest)| format!("{}{rest}", authorities[a % authorities.len()]))
            .collect();
        let keys: Vec<String> = keys.into_iter().collect();
        assert_sites(&PageIndex::build(&page_of(&keys)));
    }
}

/// Every key of every page of a Tiny crawl.
#[test]
fn site_of_equals_url_parse_on_crawled_keys() {
    let universe = WebUniverse::generate(UniverseConfig {
        seed: 0x2023_11ac,
        sites_per_bucket: [10, 5, 5, 5, 5],
        max_subpages: 5,
    });
    let profiles = standard_profiles();
    let names = profiles.iter().map(|p| p.name.clone()).collect();
    let db = Commander::new(
        &universe,
        profiles,
        CrawlOptions {
            max_pages_per_site: 4,
            workers: 2,
            experiment_seed: 0x1317,
            reliable: false,
            stateful: false,
        },
    )
    .run();
    let data = ExperimentData::from_db_parallel(
        &db,
        names,
        Some(tracking_list()),
        &TreeConfig::default(),
        &BTreeMap::new(),
        2,
    );
    assert!(data.pages.len() > 20);
    for page in &data.pages {
        assert_sites(page.index());
    }
}
