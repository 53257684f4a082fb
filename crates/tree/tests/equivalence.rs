//! `build_tree` against the straightforward algorithm it replaced, kept
//! here as the oracle: every request parsed, attributed and classified
//! on its own, the linear filter-list scan, and `TreeBuilder::attach`
//! dropping a repeated key last. Generated visits cover what the
//! per-visit memos and the early skip of repeated keys must not change;
//! a Tiny crawl covers the traffic the pipeline sees.

use proptest::prelude::*;
use std::collections::HashMap;
use wmtree_browser::{FrameRecord, RequestRecord, StackEntry, TriggerSource, VisitResult};
use wmtree_crawler::{standard_profiles, Commander, CrawlOptions};
use wmtree_filterlist::embedded::{combined_list, tracking_list};
use wmtree_filterlist::{FilterList, RequestInfo};
use wmtree_net::{ResourceType, Status};
use wmtree_tree::{build_tree, CallStackMode, DepTree, TreeBuilder, TreeConfig};
use wmtree_url::{normalize_url_str, psl, Party, Url};
use wmtree_webgen::{UniverseConfig, WebUniverse};

fn oracle_key_of(config: &TreeConfig, raw: &str) -> String {
    if config.normalize_urls {
        normalize_url_str(raw)
    } else {
        raw.split('#').next().unwrap_or(raw).to_string()
    }
}

fn oracle_key_of_url(config: &TreeConfig, url: &Url) -> String {
    if config.normalize_urls {
        url.normalize_for_comparison()
    } else {
        let mut s = url.to_string();
        if let Some(i) = s.find('#') {
            s.truncate(i);
        }
        s
    }
}

/// The tree builder as it was before the per-visit memos.
fn oracle_build_tree(
    visit: &VisitResult,
    filter_list: Option<&FilterList>,
    config: &TreeConfig,
) -> DepTree {
    let page_url = &visit.page_url;
    let root_key = oracle_key_of_url(config, page_url);
    let page_site = page_url.site();
    let mut tree = TreeBuilder::new(root_key.clone());
    let frame_doc: HashMap<u32, String> = visit
        .frames
        .iter()
        .map(|f| (f.frame_id, oracle_key_of(config, &f.document_url)))
        .collect();
    let frame_parent: HashMap<u32, Option<u32>> = visit
        .frames
        .iter()
        .map(|f| (f.frame_id, f.parent_frame_id))
        .collect();
    for req in &visit.requests {
        let key = oracle_key_of_url(config, &req.url);
        if key == root_key {
            continue;
        }
        let parent_key: Option<String> = if let Some(from) = &req.redirect_from {
            Some(oracle_key_of_url(config, from))
        } else if !req.call_stack.is_empty() {
            let entry = match config.call_stack_mode {
                CallStackMode::LatestEntry => req.call_stack.last(),
                CallStackMode::FullWalk => req.call_stack.first(),
            };
            entry.map(|e| oracle_key_of(config, &e.url))
        } else if req.is_frame_navigation {
            frame_parent
                .get(&req.frame_id)
                .copied()
                .flatten()
                .and_then(|pf| frame_doc.get(&pf).cloned())
        } else if req.frame_id != 0 {
            frame_doc.get(&req.frame_id).cloned()
        } else {
            None
        };
        let parent_id = parent_key
            .filter(|p| *p != key)
            .and_then(|p| tree.find(&p))
            .unwrap_or(0);
        let party = if psl::host_in_site(req.url.host(), &page_site) {
            Party::First
        } else {
            Party::Third
        };
        let tracking = filter_list
            .map(|list| {
                list.is_tracking_linear(&RequestInfo::new(&req.url, page_url, req.resource_type))
            })
            .unwrap_or(false);
        tree.attach(parent_id, key, req.resource_type, party, tracking);
    }
    tree.finish()
}

fn configs() -> [TreeConfig; 3] {
    [
        TreeConfig::default(),
        TreeConfig {
            normalize_urls: false,
            ..TreeConfig::default()
        },
        TreeConfig {
            call_stack_mode: CallStackMode::FullWalk,
            ..TreeConfig::default()
        },
    ]
}

/// Assert `build_tree` equals the oracle for every config and list.
fn assert_equivalent(visit: &VisitResult, lists: &[Option<&FilterList>]) {
    for config in &configs() {
        for &list in lists {
            let got = build_tree(visit, list, config);
            got.check_invariants().unwrap();
            let want = oracle_build_tree(visit, list, config);
            assert_eq!(
                got,
                want,
                "page {} config {config:?} list {}",
                visit.page_url,
                list.is_some()
            );
        }
    }
}

/// Request URLs: the page's own site, other sites, hosts the embedded
/// list names, a single-label host, a port, capitals, escapes and
/// fragments. `{v}` takes a per-request value, so normalization merges
/// some keys and not others.
const URLS: [&str; 14] = [
    "https://www.site.com/",
    "https://cdn.site.com/app.js?sid={v}",
    "https://site.com/style.css",
    "https://ads.syndicate-ads.net/adloader.js?s={v}",
    "https://metricsphere.com/tag.js",
    "https://pixel-trail.com/track/pixel?id={v}&u=1",
    "http://tp/x?k={v}",
    "https://s/ad.js",
    "https://Mixed.Case.ORG/Path/A%41.js?Key={v}",
    "https://api.other.net:8443/collect?e={v}",
    "https://cdn.site.com/img/{v}.png",
    "https://www.site.com/page#frag{v}",
    "https://news.example.co.uk/impression?cb={v}",
    "https://metricsphere.com/docs/x.js",
];

/// Page URLs, one of which is also a request URL (`URLS[0]`).
const PAGES: [&str; 4] = [
    "https://www.site.com/",
    "http://tp/",
    "https://news.example.co.uk/a?b={v}",
    "https://Mixed.Case.ORG/",
];

/// Call-stack entries: request URLs (often repeated), and strings that
/// do not parse as absolute URLs.
const ODD_STACK_URLS: [&str; 6] = [
    "not a url",
    "/relative/script.js",
    "script.js#frag",
    "",
    "HTTPS://CDN.SITE.COM/app.js?sid=9",
    "  https://cdn.site.com/app.js?sid=1  ",
];

fn url_at(template: &str, value: usize) -> String {
    template.replace("{v}", &value.to_string())
}

fn stack_url(kind: usize, ix: usize, value: usize) -> String {
    if kind < ODD_STACK_URLS.len() {
        ODD_STACK_URLS[kind].to_string()
    } else {
        url_at(URLS[ix % URLS.len()], value)
    }
}

/// `(url, value, type, frame id, frame navigation)`.
type ReqHead = (usize, usize, usize, u32, bool);
/// `(stack entries as (kind, url, value), redirect source as (url, value))`.
type ReqLinks = (Vec<(usize, usize, usize)>, Option<(usize, usize)>);
/// `(frame id, parent frame id, document url or odd string)`.
type FrameSpec = (u32, Option<u32>, usize);

fn request() -> impl Strategy<Value = (ReqHead, ReqLinks)> {
    (
        (
            0..URLS.len(),
            0usize..3,
            0..ResourceType::ANALYSED.len(),
            0u32..5,
            any::<bool>(),
        ),
        (
            prop::collection::vec((0usize..12, 0..URLS.len(), 0usize..3), 0..3),
            prop::option::of((0..URLS.len(), 0usize..3)),
        ),
    )
}

fn frame() -> impl Strategy<Value = FrameSpec> {
    (0u32..5, prop::option::of(0u32..6), 0usize..(URLS.len() + 2))
}

fn visit() -> impl Strategy<Value = VisitResult> {
    (
        (0..PAGES.len(), 0usize..3),
        prop::collection::vec(frame(), 0..5),
        prop::collection::vec(request(), 0..40),
    )
        .prop_map(|((page, page_value), frames, requests)| {
            let page_url = Url::parse(&url_at(PAGES[page], page_value)).unwrap();
            let frames = frames
                .into_iter()
                .map(|(frame_id, parent_frame_id, doc)| FrameRecord {
                    frame_id,
                    parent_frame_id,
                    document_url: match doc.checked_sub(URLS.len()) {
                        None => url_at(URLS[doc], 0),
                        Some(odd) => ODD_STACK_URLS[odd].to_string(),
                    },
                })
                .collect();
            let requests = requests
                .into_iter()
                .enumerate()
                .map(
                    |(id, ((ix, value, ty, frame_id, nav), (stack, redirect)))| RequestRecord {
                        id: id as u64,
                        url: Url::parse(&url_at(URLS[ix], value)).unwrap(),
                        resource_type: ResourceType::ANALYSED[ty],
                        frame_id,
                        call_stack: stack
                            .into_iter()
                            .map(|(kind, ix, value)| StackEntry {
                                url: stack_url(kind, ix, value),
                                function: "f".to_string(),
                            })
                            .collect(),
                        redirect_from: redirect
                            .map(|(ix, value)| Url::parse(&url_at(URLS[ix], value)).unwrap()),
                        trigger: TriggerSource::Parser,
                        started_ms: id as u64,
                        completed_ms: id as u64 + 1,
                        status: Status::OK,
                        set_cookies: Vec::new(),
                        is_frame_navigation: nav,
                    },
                )
                .collect();
            VisitResult {
                page_url,
                success: true,
                timed_out: false,
                requests,
                frames,
                cookies: Vec::new(),
                duration_ms: 1,
            }
        })
}

/// A rule over the generated URLs' vocabulary, so that rules match:
/// host anchors (one of them the single-label host), paths, options
/// (`$third-party`, `$~third-party`, `$domain=`, `$match-case`, types)
/// and exceptions.
fn rule_line() -> impl Strategy<Value = String> {
    (
        0usize..12,
        prop::sample::select(vec![
            "site.com",
            "cdn.site.com",
            "syndicate-ads.net",
            "metricsphere.com",
            "tp",
            "s",
            "mixed.case.org",
            "other.net",
            "example.co.uk",
        ]),
        prop::sample::select(vec![
            "app",
            "track",
            "collect",
            "adloader",
            "impression",
            "AA",
        ]),
    )
        .prop_map(|(shape, host, word)| match shape {
            0 => format!("||{host}^"),
            1 => format!("||{host}^$third-party"),
            2 => format!("||{host}^$~third-party"),
            3 => format!("/{word}/"),
            4 => format!("/{word}.js"),
            5 => format!("/{word}?$domain={host}"),
            6 => format!("/{word}$domain=~{host}"),
            7 => format!("{word}$match-case"),
            8 => format!("@@||{host}/{word}"),
            9 => format!("@@/{word}^$third-party"),
            10 => format!("||{host}/*.js$script"),
            _ => format!("|https://{host}"),
        })
}

proptest! {
    /// `build_tree` equals the oracle on generated visits, under every
    /// tree config, with no list, the embedded list and a generated one.
    #[test]
    fn build_tree_equals_the_oracle(visit in visit(), rules in prop::collection::vec(rule_line(), 0..10)) {
        let generated = FilterList::parse(&rules.join("\n"));
        assert_equivalent(&visit, &[None, Some(tracking_list()), Some(&generated)]);
    }
}

/// The same over every vetted visit of the `Scale::Tiny` crawl.
#[test]
fn build_tree_equals_the_oracle_on_a_tiny_crawl() {
    let universe = WebUniverse::generate(UniverseConfig {
        seed: 0x2023_11ac,
        sites_per_bucket: [10, 5, 5, 5, 5],
        max_subpages: 5,
    });
    let db = Commander::new(
        &universe,
        standard_profiles(),
        CrawlOptions {
            max_pages_per_site: 4,
            workers: 2,
            experiment_seed: 0x1317,
            reliable: false,
            stateful: false,
        },
    )
    .run();
    let mut visits = 0;
    for (_, page_visits) in db.vetted_pages() {
        for visit in page_visits {
            assert_equivalent(visit, &[None, Some(tracking_list()), Some(combined_list())]);
            visits += 1;
        }
    }
    assert!(visits > 100, "only {visits} vetted visits");
}
