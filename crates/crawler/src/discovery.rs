//! Subpage discovery — the pre-crawl of §3.1.2.
//!
//! The paper visits each site's landing page three days before the
//! experiment and collects up to 25 first-party links (recursing when
//! the landing page is short). We reproduce the *outcome* of that step:
//! the page list per site, with a small deterministic discovery loss
//! (some links listed in the pre-crawl 404 by experiment time — the
//! paper finds 14.6 of a possible 25 pages per site on average).

use wmtree_url::Url;
use wmtree_webgen::{stable_hash, SiteSpec, WebUniverse};

/// The pages of a site to be visited by every profile, at most
/// `max_pages` of them: the landing page, then up to `max_pages − 1`
/// discovered subpages.
///
/// Deterministic in `(universe seed, site)`. A site can yield zero
/// pages (discovery failure), matching the paper's min of 0.
pub fn discover_pages(universe: &WebUniverse, site: &SiteSpec, max_pages: usize) -> Vec<Url> {
    let seed = universe.config().seed;
    let h = stable_hash(seed, format!("discover:{}", site.domain).as_bytes());
    // ~1% of sites are not meant for humans (CDN/ad-network landing
    // pages) and yield nothing.
    if max_pages == 0 || h.is_multiple_of(100) {
        return Vec::new();
    }
    let mut pages = vec![site.landing_url()];
    let available = site.n_subpages.min(max_pages.saturating_sub(1));
    for n in 1..=available {
        // A small share of pre-crawled links rot before the experiment.
        let rot = stable_hash(seed, format!("rot:{}:{}", site.domain, n).as_bytes());
        if rot.is_multiple_of(20) {
            continue;
        }
        pages.push(site.page_url(n));
    }
    pages
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmtree_webgen::{UniverseConfig, WebUniverse};

    fn uni() -> WebUniverse {
        WebUniverse::generate(UniverseConfig {
            seed: 31,
            sites_per_bucket: [40, 20, 20, 20, 20],
            max_subpages: 25,
        })
    }

    #[test]
    fn deterministic() {
        let u = uni();
        let s = &u.sites()[0];
        assert_eq!(discover_pages(&u, s, 25), discover_pages(&u, s, 25));
    }

    #[test]
    fn landing_page_first() {
        let u = uni();
        for s in u.sites().iter().take(20) {
            let pages = discover_pages(&u, s, 25);
            if let Some(first) = pages.first() {
                assert_eq!(*first, s.landing_url());
            }
        }
    }

    #[test]
    fn respects_max_pages() {
        let u = uni();
        for s in u.sites() {
            assert!(discover_pages(&u, s, 0).is_empty());
            let one = discover_pages(&u, s, 1);
            assert!(one.len() <= 1);
            assert_eq!(one.first(), discover_pages(&u, s, 25).first());
            assert!(discover_pages(&u, s, 5).len() <= 5);
            assert!(discover_pages(&u, s, 25).len() <= 25);
        }
    }

    #[test]
    fn all_pages_first_party() {
        let u = uni();
        let s = &u.sites()[0];
        for p in discover_pages(&u, s, 25) {
            assert_eq!(p.site(), s.domain);
        }
    }

    #[test]
    fn some_discovery_loss_exists() {
        let u = uni();
        let total_possible: usize = u.sites().iter().map(|s| 1 + s.n_subpages).sum();
        let total_found: usize = u
            .sites()
            .iter()
            .map(|s| discover_pages(&u, s, 25).len())
            .sum();
        assert!(
            total_found < total_possible,
            "rot/failure should lose some pages"
        );
        assert!(total_found > total_possible / 2, "but most pages survive");
    }
}
