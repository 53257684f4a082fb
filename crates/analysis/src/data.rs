//! The analysis input: vetted pages with one tree per profile.

use crate::index::PageIndex;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, OnceLock};
use wmtree_browser::VisitResult;
use wmtree_crawler::{CrawlDb, HashedVisit, PageKey};
use wmtree_filterlist::FilterList;
use wmtree_net::cookie::{CookieId, SecurityAttributes};
use wmtree_tree::{build_tree, visit_hash, DepTree, TreeCache, TreeConfig};

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
        }
    }

    /// The shared per-page index, built on first use (and pre-warmed by
    /// the parallel pipeline's workers).
    pub fn index(&self) -> &PageIndex {
        self.index.get_or_init(|| PageIndex::build(self))
    }
}

/// The full analysis input.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentData {
    /// Profile names, in Table 1 order.
    pub profile_names: Vec<String>,
    /// All vetted pages.
    pub pages: Vec<PageAnalysis>,
    /// Worker threads the per-page analysis passes may fan out over.
    /// Not serialized (it must never influence results — the
    /// deterministic-merge rule in DESIGN.md §9); `0` means sequential.
    #[serde(skip)]
    pub workers: usize,
}

impl ExperimentData {
    /// Build the analysis input from a crawl database: apply the
    /// all-profiles vetting rule, construct every tree, and collect
    /// cookie observations. Tree builds fan out over `workers` scoped
    /// threads, deduplicated through an ephemeral in-run memo (content
    /// hashes the database already knows — bundle replays know them
    /// all, live crawls none). Results are identical for any worker
    /// count.
    ///
    /// `site_meta` optionally maps a site to `(rank, bucket label)` for
    /// the popularity analysis.
    pub fn from_db_parallel(
        db: &CrawlDb,
        profile_names: Vec<String>,
        filter_list: Option<&FilterList>,
        tree_config: &TreeConfig,
        site_meta: &BTreeMap<String, (u32, String)>,
        workers: usize,
    ) -> ExperimentData {
        Self::from_vetted(
            &db.vetted_pages_hashed(),
            profile_names,
            filter_list,
            tree_config,
            site_meta,
            workers,
            None,
        )
    }

    /// [`from_db_parallel`](Self::from_db_parallel) over pages already
    /// vetted — any subset of a database's
    /// [`vetted_pages_hashed`](CrawlDb::vetted_pages_hashed), in its
    /// order — consulting a [`TreeCache`]: visits whose content hash is
    /// already memoized skip `build_tree` entirely, and freshly built
    /// trees are inserted for the next run. With `cache: None`, an
    /// ephemeral in-memory memo still deduplicates identical visits
    /// *within* the run.
    ///
    /// The pipeline is phased so its observable effects are
    /// worker-count invariant (DESIGN.md §9): parallel phases do pure
    /// slot-per-item work (hashing, building, assembling); all cache
    /// lookups, hit/miss accounting, and disk appends happen in
    /// sequential phases in canonical page order.
    pub fn from_vetted(
        vetted: &[(&PageKey, Vec<HashedVisit<'_>>)],
        profile_names: Vec<String>,
        filter_list: Option<&FilterList>,
        tree_config: &TreeConfig,
        site_meta: &BTreeMap<String, (u32, String)>,
        workers: usize,
        cache: Option<&TreeCache>,
    ) -> ExperimentData {
        // Intern each site's strings once, up front, so workers share
        // one `Arc` per site instead of cloning per page.
        type InternedSite = (Arc<str>, Option<(u32, Arc<str>)>);
        let mut interned: BTreeMap<&str, InternedSite> = BTreeMap::new();
        for (page, _) in vetted {
            interned.entry(page.site.as_str()).or_insert_with(|| {
                let meta = site_meta
                    .get(&page.site)
                    .map(|(r, b)| (*r, Arc::from(b.as_str())));
                (Arc::from(page.site.as_str()), meta)
            });
        }

        // Flatten to per-visit jobs: ~n_profiles× more items than
        // per-page chunking and far more uniform (one tree each), so
        // the fan-out engages at smaller scales and no worker gets
        // stuck behind a chunk of heavyweight pages.
        let mut jobs: Vec<(usize, &VisitResult, Option<u64>)> =
            Vec::with_capacity(vetted.len() * profile_names.len().max(1));
        for (pi, (_, visits)) in vetted.iter().enumerate() {
            for (v, h) in visits {
                jobs.push((pi, v, *h));
            }
        }

        // Phase 1 (parallel): content-hash visits that arrived without
        // one — only worthwhile when a persistent cache can reuse the
        // key across runs; the ephemeral memo sticks to the hashes the
        // database already vouches for.
        let hashes: Vec<Option<u64>> = if cache.is_some() {
            crate::par::par_map_min(&jobs, workers, crate::par::MIN_VISITS_PER_WORKER, |j| {
                j.2.or_else(|| visit_hash(j.1))
            })
        } else {
            jobs.iter().map(|j| j.2).collect()
        };
        let ephemeral;
        let cache: &TreeCache = match cache {
            Some(c) => c,
            None => {
                ephemeral = TreeCache::in_memory(0);
                &ephemeral
            }
        };

        // Phase 2 (sequential): resolve every job against the cache in
        // job order — hit/miss counters and the builder/follower plan
        // are therefore identical for every worker count.
        let mut resolved: Vec<Option<DepTree>> = Vec::with_capacity(jobs.len());
        let mut to_build: Vec<usize> = Vec::new();
        let mut planned: HashMap<u64, usize> = HashMap::new();
        let mut followers: Vec<(usize, usize)> = Vec::new();
        for (i, h) in hashes.iter().enumerate() {
            let slot = match h {
                Some(h) => match cache.get_tree(*h) {
                    Some(tree) => Some(tree),
                    None => {
                        match planned.get(h) {
                            // Same unseen hash earlier in this run:
                            // share the one build.
                            Some(&builder) => followers.push((i, builder)),
                            None => {
                                planned.insert(*h, i);
                                to_build.push(i);
                            }
                        }
                        None
                    }
                },
                // Unhashable visit: built fresh, never memoized.
                None => {
                    to_build.push(i);
                    None
                }
            };
            resolved.push(slot);
        }

        // Phase 3 (parallel): build only the unique missing trees.
        let built: Vec<DepTree> = crate::par::par_map_min(
            &to_build,
            workers,
            crate::par::MIN_VISITS_PER_WORKER,
            |&i| build_tree(jobs[i].1, filter_list, tree_config),
        );

        // Phase 4 (sequential): memoize the fresh trees — the disk
        // log's append order is the canonical job order — and fill the
        // remaining slots with O(1) clones.
        for (&i, tree) in to_build.iter().zip(&built) {
            if let Some(h) = hashes[i] {
                cache.insert_tree(h, tree);
            }
            resolved[i] = Some(tree.clone());
        }
        for (i, builder) in followers {
            resolved[i] = resolved[builder].clone();
        }

        // Phase 5 (parallel): per-page assembly — cookies, site
        // metadata, and the pre-warmed per-page index.
        let mut page_inputs = Vec::with_capacity(vetted.len());
        let mut offset = 0usize;
        for (page, visits) in vetted {
            page_inputs.push((page, visits, offset));
            offset += visits.len();
        }
        let pages = crate::par::par_map(&page_inputs, workers, |(page, visits, offset)| {
            let trees: Vec<DepTree> = (0..visits.len())
                .map(|k| {
                    resolved[offset + k]
                        .clone()
                        .expect("phases 2–4 fill every slot") // wmtree-lint: allow(WM0105)
                })
                .collect();
            let cookies: Vec<Vec<CookieObservation>> = visits
                .iter()
                .map(|(v, _)| {
                    v.cookies
                        .iter()
                        .map(|c| CookieObservation {
                            id: c.id(),
                            attrs: c.security_attributes(),
                        })
                        .collect()
                })
                .collect();
            let (site, meta) = &interned[page.site.as_str()];
            let analysis = PageAnalysis::new(
                Arc::clone(site),
                page.url.clone(),
                meta.as_ref().map(|(r, _)| *r),
                meta.as_ref().map(|(_, b)| Arc::clone(b)),
                trees,
                cookies,
            );
            analysis.index(); // pre-warm in the worker
            analysis
        });
        ExperimentData {
            profile_names,
            pages,
            workers,
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
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared fixture: a small crawled experiment, built once.

    use super::*;
    use wmtree_crawler::{standard_profiles, Commander, CrawlOptions};
    use wmtree_filterlist::embedded::tracking_list;
    use wmtree_webgen::{RankBucket, UniverseConfig, WebUniverse};

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
            let _ = RankBucket::Top5k; // keep the import honest
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
    fn parallel_from_db_matches_sequential() {
        // Rebuild the fixture's input at several worker counts; every
        // page (and its site/bucket sharing) must be identical.
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
        for workers in [2usize, 8] {
            let par = ExperimentData::from_db_parallel(
                &db,
                names.clone(),
                Some(wmtree_filterlist::embedded::tracking_list()),
                &wmtree_tree::TreeConfig::default(),
                &site_meta,
                workers,
            );
            assert_eq!(par.pages.len(), data.pages.len());
            for (a, b) in par.pages.iter().zip(&data.pages) {
                assert_eq!(a.site, b.site);
                assert_eq!(a.url, b.url);
                assert_eq!(a.rank, b.rank);
                assert_eq!(a.bucket, b.bucket);
                assert_eq!(a.cookies, b.cookies);
                assert_eq!(a.trees.len(), b.trees.len());
                for (ta, tb) in a.trees.iter().zip(&b.trees) {
                    assert_eq!(ta.node_count(), tb.node_count());
                    for (na, nb) in ta.nodes().iter().zip(tb.nodes()) {
                        assert_eq!(na.key, nb.key);
                        assert_eq!(na.depth, nb.depth);
                        assert_eq!(na.tracking, nb.tracking);
                    }
                }
            }
        }
    }

    #[test]
    fn cached_build_matches_cold_for_any_worker_count() {
        // Cold (no cache), cold-populating, and fully warm builds must
        // produce identical pages — the memoized path has to be
        // indistinguishable from building every tree.
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
        let cache = TreeCache::in_memory(0);
        let vetted = db.vetted_pages_hashed();
        for pass in 0..2 {
            for workers in [1usize, 2, 8] {
                let cached = ExperimentData::from_vetted(
                    &vetted,
                    names.clone(),
                    Some(wmtree_filterlist::embedded::tracking_list()),
                    &wmtree_tree::TreeConfig::default(),
                    &site_meta,
                    workers,
                    Some(&cache),
                );
                assert_eq!(cached.pages.len(), data.pages.len());
                for (a, b) in cached.pages.iter().zip(&data.pages) {
                    assert_eq!(a.site, b.site, "pass {pass}, workers {workers}");
                    assert_eq!(a.url, b.url);
                    assert_eq!(a.cookies, b.cookies);
                    assert_eq!(a.trees, b.trees, "pass {pass}, workers {workers}");
                }
            }
            assert!(
                cache.tree_count() > 0,
                "cache must be populated after a cold pass"
            );
        }
    }
}
