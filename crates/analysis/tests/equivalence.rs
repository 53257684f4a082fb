//! `PageIndex::site_of` parses once per authority; it must still say
//! exactly what `Url::parse(key).map(site)` says for every key, on a
//! crawl's keys and on generated keys shaped to make the parse fail or
//! the authority differ in one detail.
//!
//! The data-side report artifacts fold page summaries; each must still
//! equal, bit for bit, the per-artifact pass it replaced (`oracle/`),
//! on a crawl's pages and on generated pages whose trees share keys at
//! other depths, parents and roots, and whose profiles share cookies
//! with other attributes.

mod oracle;

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::sync::OnceLock;
use wmtree_analysis::data::{CookieObservation, ExperimentData, PageAnalysis};
use wmtree_analysis::index::PageIndex;
use wmtree_analysis::node_similarity::analyze_all;
use wmtree_analysis::{
    composition, cookies, depth_similarity, distributions, popularity, presence, profiles,
    significance, stability, tracking, unique_nodes,
};
use wmtree_crawler::{standard_profiles, Commander, CrawlOptions};
use wmtree_filterlist::embedded::tracking_list;
use wmtree_net::cookie::{CookieId, SameSite, SecurityAttributes};
use wmtree_net::ResourceType;
use wmtree_tree::{DepTree, TreeBuilder, TreeConfig};
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
    let mut tree = TreeBuilder::new(keys[0].clone());
    for key in &keys[1..] {
        tree.attach(0, key.clone(), ResourceType::Image, Party::Third, false);
    }
    PageAnalysis::new(
        Arc::from("site.com"),
        keys[0].clone(),
        None,
        None,
        vec![tree.finish()],
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

/// A small crawl's analysis input, built once.
fn crawled() -> &'static ExperimentData {
    static DATA: OnceLock<ExperimentData> = OnceLock::new();
    DATA.get_or_init(|| {
        let universe = WebUniverse::generate(UniverseConfig {
            seed: 0x2023_11ac,
            sites_per_bucket: [10, 5, 5, 5, 5],
            max_subpages: 5,
        });
        let site_meta: BTreeMap<String, (u32, String)> = universe
            .sites()
            .iter()
            .map(|s| (s.domain.clone(), (s.rank, s.bucket.label().to_string())))
            .collect();
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
        ExperimentData::from_db_parallel(
            &db,
            names,
            Some(tracking_list()),
            &TreeConfig::default(),
            &site_meta,
            2,
        )
    })
}

/// Every key of every page of a Tiny crawl.
#[test]
fn site_of_equals_url_parse_on_crawled_keys() {
    let data = crawled();
    assert!(data.pages.len() > 20);
    for page in &data.pages {
        assert_sites(page.index());
    }
}

/// JSON text of a value: Rust writes the shortest decimal that reads
/// back as the same `f64`, so equal text is equal bits.
fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("serializes")
}

/// Every data-side artifact of `data`, from the page summaries and
/// from the oracle, as `(artifact, summaries' JSON, oracle's JSON)`.
fn artifacts(data: &ExperimentData) -> Vec<(&'static str, String, String)> {
    let sims = analyze_all(data);
    let roles = data.roles();
    let interaction: Vec<usize> = data
        .profile_names
        .iter()
        .enumerate()
        .filter(|(_, n)| n.as_str() != "NoAction")
        .map(|(i, _)| i)
        .collect();
    let no_interaction: Vec<usize> = roles.noaction.into_iter().collect();
    vec![
        (
            "table2",
            json(&presence::tree_overview(data, &sims)),
            json(&oracle::tree_overview(data, &sims)),
        ),
        (
            "table3",
            json(&depth_similarity::table3(data)),
            json(&oracle::table3(data)),
        ),
        (
            "table5",
            json(&profiles::table5(data)),
            json(&oracle::table5(data)),
        ),
        (
            "table6",
            json(&profiles::table6(data)),
            json(&oracle::table6(data, roles.reference)),
        ),
        (
            "table7",
            json(&popularity::popularity(data, &sims)),
            json(&oracle::popularity(data, &sims)),
        ),
        (
            "fig1",
            json(&distributions::depth_breadth_grid(data, 60, 30)),
            json(&oracle::depth_breadth_grid(data, 60, 30)),
        ),
        (
            "fig1 capped",
            json(&distributions::depth_breadth_grid(data, 3, 2)),
            json(&oracle::depth_breadth_grid(data, 3, 2)),
        ),
        (
            "fig3",
            json(&composition::composition(data, 6)),
            json(&oracle::composition(data, 6)),
        ),
        (
            "fig3 capped",
            json(&composition::composition(data, 1)),
            json(&oracle::composition(data, 1)),
        ),
        (
            "fig8",
            json(&distributions::children_by_depth(data, 20)),
            json(&oracle::children_by_depth(data, 20)),
        ),
        (
            "fig8 capped",
            json(&distributions::children_by_depth(data, 2)),
            json(&oracle::children_by_depth(data, 2)),
        ),
        (
            "sim1_sim2",
            json(&profiles::level_split_similarity(data, 5)),
            json(&oracle::level_split_similarity(
                data,
                roles.reference,
                roles.sim2,
                5,
            )),
        ),
        (
            "sim1_sim2 split 1",
            json(&profiles::level_split_similarity(data, 1)),
            json(&oracle::level_split_similarity(
                data,
                roles.reference,
                roles.sim2,
                1,
            )),
        ),
        (
            "unique_nodes",
            json(&unique_nodes::unique_node_stats(data, 5)),
            json(&oracle::unique_node_stats(data, 5)),
        ),
        (
            "cookies",
            json(&cookies::cookie_stats(data)),
            json(&oracle::cookie_stats(data, roles.noaction)),
        ),
        (
            "tracking",
            json(&tracking::tracking_stats(data, &sims)),
            json(&oracle::tracking_stats(data, &sims)),
        ),
        (
            "significance",
            json(&significance::significance(
                data,
                &sims,
                &interaction,
                &no_interaction,
            )),
            json(&oracle::significance(
                data,
                &sims,
                &interaction,
                &no_interaction,
            )),
        ),
        (
            "stability",
            json(&stability::experiment_stability(data, &sims)),
            json(&oracle::experiment_stability(data, &sims)),
        ),
    ]
}

fn assert_artifacts_match(data: &ExperimentData) {
    for (artifact, summarized, oracle) in artifacts(data) {
        assert_eq!(summarized, oracle, "{artifact}");
    }
}

/// Every data-side artifact of a crawl, folded from page summaries,
/// equals the pass it replaced.
#[test]
fn summarized_artifacts_equal_the_oracle_on_a_crawl() {
    let data = crawled();
    assert!(data
        .pages
        .iter()
        .any(|p| p.cookies.iter().any(|c| !c.is_empty())));
    assert_artifacts_match(data);
}

/// The rosters generated experiments use: the standard one, one with
/// no `Sim1`, `Sim2` or `NoAction`, and two reordered ones.
const ROSTERS: [&[&str]; 4] = [
    &["Old", "Sim1", "Sim2", "NoAction", "Headless"],
    &["A", "B", "C"],
    &["Sim2", "NoAction", "X", "Sim1"],
    &["NoAction", "Sim1"],
];

/// One node of a generated tree of `*nodes` nodes so far: a key from a
/// small pool, so that trees share keys at other depths and under other
/// parents.
fn attach(tree: &mut TreeBuilder, nodes: &mut usize, parent_hint: u8, key: u8) {
    let parent = parent_hint as usize % *nodes;
    let ty = [
        ResourceType::Script,
        ResourceType::Image,
        ResourceType::SubFrame,
        ResourceType::Xhr,
        ResourceType::Stylesheet,
        ResourceType::MainFrame,
    ][key as usize % 6];
    let party = if key.is_multiple_of(3) {
        Party::First
    } else {
        Party::Third
    };
    // A key that is no URL has no site.
    let host = [
        "a.example",
        "cdn.b.example",
        "ads.c.example",
        "local",
        "a.example",
    ][key as usize % 5];
    let key_text = if key % 7 == 6 {
        format!("no url {key}")
    } else {
        format!("https://{host}/r/{key}")
    };
    let id = tree.attach(parent, key_text, ty, party, key.is_multiple_of(4));
    *nodes = (*nodes).max(id + 1);
}

fn cookie(index: u8, variant: u8) -> CookieObservation {
    CookieObservation {
        id: CookieId {
            name: format!("c{}", index % 5),
            domain: ["a.example", "b.example"][index as usize % 2].to_string(),
            path: ["/", "/x"][index as usize / 5 % 2].to_string(),
        },
        attrs: SecurityAttributes {
            secure: variant & 1 == 1,
            http_only: false,
            same_site: [None, Some(SameSite::Lax)][variant as usize / 2 % 2],
        },
    }
}

/// Per tree: whether it is rooted off the page URL, and its nodes.
type TreeSpec = (bool, Vec<(u8, u8)>);
/// A page: site, bucket, one tree and one cookie list per profile.
type PageSpec = (u8, u8, Vec<TreeSpec>, Vec<Vec<(u8, u8)>>);

fn experiment(roster: u8, pages: Vec<PageSpec>) -> ExperimentData {
    let names: Vec<String> = ROSTERS[roster as usize % ROSTERS.len()]
        .iter()
        .map(|n| n.to_string())
        .collect();
    let k = names.len();
    let pages = pages
        .into_iter()
        .enumerate()
        .map(|(n, (site, bucket, trees, cookies))| {
            let site = ["a.com", "b.org", "c.net"][site as usize % 3];
            let url = format!("https://www.{site}/p{n}");
            let trees: Vec<DepTree> = trees
                .into_iter()
                .cycle()
                .take(k)
                .map(|(off_page, ops)| {
                    let root = if off_page {
                        "https://a.example/r/0".to_string()
                    } else {
                        url.clone()
                    };
                    let mut tree = TreeBuilder::new(root);
                    let mut nodes = 1;
                    for (parent, key) in ops {
                        attach(&mut tree, &mut nodes, parent, key);
                    }
                    tree.finish()
                })
                .collect();
            let cookies: Vec<Vec<CookieObservation>> = cookies
                .into_iter()
                .cycle()
                .take(k)
                .map(|list| list.into_iter().map(|(i, v)| cookie(i, v)).collect())
                .collect();
            let bucket = ["1-5k", "5,001-10k", "other"]
                .get(bucket as usize % 4)
                .map(|b| Arc::from(*b));
            PageAnalysis::new(Arc::from(site), url, Some(n as u32), bucket, trees, cookies)
        })
        .collect();
    ExperimentData {
        profile_names: names,
        pages,
    }
}

fn page_spec() -> impl Strategy<Value = PageSpec> {
    let tree = (
        prop::sample::select(vec![false, false, false, true]),
        prop::collection::vec((0u8..32, 0u8..24), 0..18),
    );
    (
        0u8..3,
        0u8..4,
        prop::collection::vec(tree, 5..6),
        prop::collection::vec(prop::collection::vec((0u8..10, 0u8..4), 0..6), 5..6),
    )
}

proptest! {
    /// Generated experiments: every data-side artifact folded from page
    /// summaries equals the pass it replaced.
    #[test]
    fn summarized_artifacts_equal_the_oracle_on_generated_pages(
        roster in 0u8..4,
        pages in prop::collection::vec(page_spec(), 0..5),
    ) {
        assert_artifacts_match(&experiment(roster, pages));
    }
}
