//! The analysis input: vetted pages with one tree per profile.

use crate::index::PageIndex;
use crate::summary::{PageSummary, Roles};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use wmtree_browser::VisitResult;
use wmtree_crawler::{CrawlDb, PageKey};
use wmtree_filterlist::FilterList;
use wmtree_net::cookie::{CookieId, SecurityAttributes};
use wmtree_tree::{build_tree, DepTree, TreeConfig};

/// A cookie as compared across profiles: RFC 6265 identity plus the
/// security attributes (§5.2).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CookieObservation {
    /// `(name, domain, path)` identity.
    pub id: CookieId,
    /// Secure / HttpOnly / SameSite flags.
    pub attrs: SecurityAttributes,
}

/// One vetted page with the trees of all profiles.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PageAnalysis {
    /// The site (eTLD+1). Shared (`Arc`) across the pages of a site so
    /// large replays don't pay per-page string churn.
    pub site: Arc<str>,
    /// The page URL.
    pub url: String,
    /// Tranco-style rank of the site, when known.
    pub rank: Option<u32>,
    /// Rank-bucket label (Table 7), when known. Shared per site.
    pub bucket: Option<Arc<str>>,
    /// One dependency tree per profile, in profile order.
    pub trees: Vec<DepTree>,
    /// Cookies observed by each profile, in profile order.
    pub cookies: Vec<Vec<CookieObservation>>,
    /// Lazily built shared per-page index (never serialized; rebuilt on
    /// demand after deserialization).
    #[serde(skip)]
    index: OnceLock<PageIndex>,
    /// Lazily built report inputs (never serialized, like the index).
    #[serde(skip)]
    summary: OnceLock<PageSummary>,
}

impl PageAnalysis {
    /// Assemble a page. The per-page index starts unbuilt.
    pub fn new(
        site: Arc<str>,
        url: String,
        rank: Option<u32>,
        bucket: Option<Arc<str>>,
        trees: Vec<DepTree>,
        cookies: Vec<Vec<CookieObservation>>,
    ) -> PageAnalysis {
        PageAnalysis {
            site,
            url,
            rank,
            bucket,
            trees,
            cookies,
            index: OnceLock::new(),
            summary: OnceLock::new(),
        }
    }

    /// The shared per-page index, built on first use (by the per-site
    /// stage, in every mode).
    pub fn index(&self) -> &PageIndex {
        self.index.get_or_init(|| PageIndex::build(self))
    }

    /// The page's report inputs for a roster's `roles`, built on first
    /// use (by the per-site stage, in every mode).
    ///
    /// # Panics
    ///
    /// If the summary was built for other roles: a page keeps the
    /// roster of the data it was first summarized in.
    pub(crate) fn summary(&self, roles: Roles) -> &PageSummary {
        let summary = self.summary.get_or_init(|| PageSummary::build(self, roles));
        assert_eq!(
            summary.roles, roles,
            "page {} was summarized under another profile roster",
            self.url
        );
        summary
    }
}

/// The full analysis input.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentData {
    /// Profile names, in Table 1 order.
    pub profile_names: Vec<String>,
    /// All vetted pages.
    pub pages: Vec<PageAnalysis>,
}

impl ExperimentData {
    /// Build the analysis input from a crawl database on the calling
    /// thread: apply the all-profiles vetting rule, build every vetted
    /// visit's tree, and assemble the pages
    /// ([`from_vetted`](Self::from_vetted)). `workers` is unused: it
    /// stays only until the benchmark harness stops calling this.
    ///
    /// `site_meta` optionally maps a site to `(rank, bucket label)` for
    /// the popularity analysis.
    pub fn from_db_parallel(
        db: &CrawlDb,
        profile_names: Vec<String>,
        filter_list: Option<&FilterList>,
        tree_config: &TreeConfig,
        site_meta: &BTreeMap<String, (u32, String)>,
        _workers: usize,
    ) -> ExperimentData {
        let vetted = db.vetted_pages();
        let trees = vetted
            .iter()
            .flat_map(|(_, visits)| visits.iter())
            .map(|visit| build_tree(visit, filter_list, tree_config))
            .collect();
        Self::from_vetted(&vetted, trees, profile_names, site_meta)
    }

    /// Assemble the analysis input from vetted pages — a database's
    /// [`vetted_pages`](CrawlDb::vetted_pages), in its order — and the
    /// trees of their visits in (page, profile) order: cookies, site
    /// metadata, and the per-page index.
    pub fn from_vetted(
        vetted: &[(&PageKey, Vec<&VisitResult>)],
        trees: Vec<DepTree>,
        profile_names: Vec<String>,
        site_meta: &BTreeMap<String, (u32, String)>,
    ) -> ExperimentData {
        // Intern each site's strings once, so its pages share one `Arc`.
        type InternedSite = (Arc<str>, Option<(u32, Arc<str>)>);
        let mut interned: BTreeMap<&str, InternedSite> = BTreeMap::new();
        let mut trees = trees.into_iter();
        let pages = vetted
            .iter()
            .map(|(page, visits)| {
                let (site, meta) = interned.entry(page.site.as_str()).or_insert_with(|| {
                    let meta = site_meta
                        .get(&page.site)
                        .map(|(r, b)| (*r, Arc::from(b.as_str())));
                    (Arc::from(page.site.as_str()), meta)
                });
                let cookies: Vec<Vec<CookieObservation>> = visits
                    .iter()
                    .map(|v| {
                        v.cookies
                            .iter()
                            .map(|c| CookieObservation {
                                id: c.id(),
                                attrs: c.security_attributes(),
                            })
                            .collect()
                    })
                    .collect();
                let analysis = PageAnalysis::new(
                    Arc::clone(site),
                    page.url.clone(),
                    meta.as_ref().map(|(r, _)| *r),
                    meta.as_ref().map(|(_, b)| Arc::clone(b)),
                    trees.by_ref().take(visits.len()).collect(),
                    cookies,
                );
                analysis.index(); // inside the caller's tree-stage time
                analysis
            })
            .collect();
        ExperimentData {
            profile_names,
            pages,
        }
    }

    /// Number of profiles.
    pub fn n_profiles(&self) -> usize {
        self.profile_names.len()
    }

    /// Index of a profile by name.
    pub fn profile_index(&self, name: &str) -> Option<usize> {
        self.profile_names.iter().position(|n| n == name)
    }

    /// Total trees (pages × profiles).
    pub fn tree_count(&self) -> usize {
        self.pages.iter().map(|p| p.trees.len()).sum()
    }

    /// The profiles the report singles out in this roster.
    pub fn roles(&self) -> Roles {
        Roles::of(&self.profile_names)
    }

    /// Build every page summary still missing. A no-op once the
    /// per-site stage has summarized every page.
    pub fn summarize(&self) {
        let mut missing = self
            .pages
            .iter()
            .filter(|page| page.summary.get().is_none())
            .peekable();
        if missing.peek().is_none() {
            return;
        }
        let _span = wmtree_telemetry::span("analysis.page_summary");
        let roles = self.roles();
        for page in missing {
            page.summary(roles);
        }
    }

    /// Every page's summary, in page order ([`summarize`](Self::summarize)
    /// first).
    pub(crate) fn summaries(&self) -> impl Iterator<Item = &PageSummary> {
        self.summarize();
        let roles = self.roles();
        self.pages.iter().map(move |page| page.summary(roles))
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared fixture: a small crawled experiment, built once.

    use super::*;
    use wmtree_crawler::{standard_profiles, Commander, CrawlOptions};
    use wmtree_filterlist::embedded::tracking_list;
    use wmtree_webgen::{UniverseConfig, WebUniverse};

    /// A modest crawl: enough pages for distributions to be meaningful,
    /// small enough for fast tests.
    pub fn experiment() -> &'static ExperimentData {
        static DATA: OnceLock<ExperimentData> = OnceLock::new();
        DATA.get_or_init(|| {
            let universe = WebUniverse::generate(UniverseConfig {
                seed: 61,
                sites_per_bucket: [10, 6, 6, 6, 6],
                max_subpages: 6,
            });
            let profiles = standard_profiles();
            let names: Vec<String> = profiles.iter().map(|p| p.name.clone()).collect();
            let db = Commander::new(
                &universe,
                profiles,
                CrawlOptions {
                    max_pages_per_site: 5,
                    workers: 4,
                    experiment_seed: 17,
                    reliable: true,
                    stateful: false,
                },
            )
            .run();
            let site_meta: BTreeMap<String, (u32, String)> = universe
                .sites()
                .iter()
                .map(|s| (s.domain.clone(), (s.rank, s.bucket.label().to_string())))
                .collect();
            ExperimentData::from_db_parallel(
                &db,
                names,
                Some(tracking_list()),
                &wmtree_tree::TreeConfig::default(),
                &site_meta,
                1,
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_experiment_is_populated() {
        let data = testutil::experiment();
        assert_eq!(data.n_profiles(), 5);
        assert_eq!(data.profile_index("Sim1"), Some(1));
        assert_eq!(data.profile_index("nope"), None);
        assert!(data.pages.len() > 20, "got {}", data.pages.len());
        assert_eq!(data.tree_count(), data.pages.len() * 5);
        for page in &data.pages {
            assert_eq!(page.trees.len(), 5);
            assert_eq!(page.cookies.len(), 5);
            assert!(page.rank.is_some());
            assert!(page.bucket.is_some());
            for t in &page.trees {
                t.check_invariants().unwrap();
            }
        }
    }

    #[test]
    fn cookies_have_observations() {
        let data = testutil::experiment();
        let any_cookie = data
            .pages
            .iter()
            .any(|p| p.cookies.iter().any(|c| !c.is_empty()));
        assert!(any_cookie);
    }

    #[test]
    fn prebuilt_trees_assemble_like_fresh_ones() {
        // A cache hit hands `from_vetted` trees built by an earlier run:
        // the pages it assembles from them must be indistinguishable from
        // a fresh build's.
        let data = testutil::experiment();
        let universe = wmtree_webgen::WebUniverse::generate(wmtree_webgen::UniverseConfig {
            seed: 61,
            sites_per_bucket: [10, 6, 6, 6, 6],
            max_subpages: 6,
        });
        let profiles = wmtree_crawler::standard_profiles();
        let names: Vec<String> = profiles.iter().map(|p| p.name.clone()).collect();
        let db = wmtree_crawler::Commander::new(
            &universe,
            profiles,
            wmtree_crawler::CrawlOptions {
                max_pages_per_site: 5,
                workers: 4,
                experiment_seed: 17,
                reliable: true,
                stateful: false,
            },
        )
        .run();
        let site_meta: BTreeMap<String, (u32, String)> = universe
            .sites()
            .iter()
            .map(|s| (s.domain.clone(), (s.rank, s.bucket.label().to_string())))
            .collect();
        let vetted = db.vetted_pages();
        let prebuilt: Vec<DepTree> = data
            .pages
            .iter()
            .flat_map(|p| p.trees.iter().cloned())
            .collect();
        let cached = ExperimentData::from_vetted(&vetted, prebuilt, names, &site_meta);
        assert_eq!(cached.pages.len(), data.pages.len());
        for (a, b) in cached.pages.iter().zip(&data.pages) {
            assert_eq!(a.site, b.site);
            assert_eq!(a.url, b.url);
            assert_eq!(a.rank, b.rank);
            assert_eq!(a.bucket, b.bucket);
            assert_eq!(a.cookies, b.cookies);
            assert_eq!(a.trees, b.trees);
        }
    }
}
