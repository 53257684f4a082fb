//! The borrowing eTLD+1 the synthetic web dispatches on
//! (`psl::etld_plus_one_lower`) against the allocating
//! `psl::etld_plus_one`, on every host a Tiny crawl meets: page,
//! request, redirect-origin and call-stack hosts.

use std::collections::BTreeSet;
use wmtree_crawler::{standard_profiles, Commander, CrawlOptions};
use wmtree_url::{psl, Url};
use wmtree_webgen::{UniverseConfig, WebUniverse};

#[test]
fn borrowed_etld_plus_one_agrees_on_every_crawled_host() {
    // The Tiny experiment's universe and crawl.
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
    let mut hosts = BTreeSet::new();
    for page in db.pages() {
        for profile in 0..db.n_profiles() {
            let Some(visit) = db.visit_any(page, profile) else {
                continue;
            };
            hosts.insert(visit.page_url.host().to_string());
            for r in &visit.requests {
                hosts.insert(r.url.host().to_string());
                hosts.extend(r.redirect_from.iter().map(|u| u.host().to_string()));
                for entry in &r.call_stack {
                    hosts.extend(Url::parse(&entry.url).map(|u| u.host().to_string()));
                }
            }
        }
    }
    assert!(hosts.len() > 100, "only {} hosts crawled", hosts.len());
    for host in &hosts {
        assert_eq!(
            psl::etld_plus_one_lower(host),
            psl::etld_plus_one(host),
            "{host}"
        );
    }
}
