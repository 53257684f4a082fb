//! Incremental re-analysis over bundle deltas.
//!
//! Building dependency trees is the one expensive step of a bundle
//! replay; the analyses over them are cheap. [`AnalysisCache`] keeps
//! every site's trees in a [`TreeCache`] next to the bundle, one
//! self-contained record per site under the site's *delta key*, so a
//! site whose visits are unchanged between two replays takes its trees
//! from its record instead of building them — and, replayed through the
//! cache ([`replay_cached`]), decodes only its visits' headers.
//! Everything after the trees — page assembly, analyses, crawl
//! accounting — is the same per-site stage with or without a cache, so
//! cached, incremental and cold runs render byte-identical reports
//! (proven by `tests/treecache_identity.rs`).
//! Only replays and the shard merge use a cache: a crawl runs the same
//! stage on each site it crawls, with no trees to reuse.
//!
//! Everything is keyed by content, so invalidation is by construction:
//!
//! * a site's key hashes exactly what its trees depend on in the crawl
//!   data — every page URL, every per-profile slot (present/absent),
//!   every present visit's content hash (the bundle object store's
//!   address);
//! * the cache *fingerprint* ([`cache_fingerprint`]) covers everything
//!   else trees depend on: tree config, filter-list use, and the
//!   profile roster. A cache opened under a different fingerprint
//!   starts empty.

use crate::config::ExperimentConfig;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::OnceLock;
use std::time::Duration;
use wmtree_analysis::node_similarity::analyze_all;
use wmtree_analysis::{ExperimentData, PartialAccumulators, PartialMergeError};
use wmtree_browser::VisitResult;
use wmtree_bundle::hash::{object_hash, to_hex};
use wmtree_bundle::{BundleError, Depth, LoggedVisit, Manifest};
use wmtree_crawler::{replay_sites, CrawlDb, PageKey};
use wmtree_filterlist::FilterList;
use wmtree_telemetry::Stopwatch;
use wmtree_tree::{build_tree, CallStackMode, DepTree, TreeCache, TreeConfig};

/// The cache fingerprint of a configuration: a content hash over
/// everything a cached tree depends on *besides* the visit payloads —
/// tree construction options, filter-list use, and the profile roster
/// (slot order matters). Two configurations with the same fingerprint
/// may share a cache; anything else opens it empty.
pub fn cache_fingerprint(config: &ExperimentConfig) -> u64 {
    let mut canon = String::from("wmtree-cache-fp-v1");
    canon.push_str(if config.tree.normalize_urls {
        "|norm:1"
    } else {
        "|norm:0"
    });
    canon.push_str(match config.tree.call_stack_mode {
        CallStackMode::LatestEntry => "|stack:latest",
        CallStackMode::FullWalk => "|stack:full",
    });
    canon.push_str(if config.use_filter_list {
        "|filter:1"
    } else {
        "|filter:0"
    });
    for p in &config.profiles {
        canon.push('|');
        canon.push_str(&p.name);
    }
    object_hash(canon.as_bytes())
}

/// The trees of every site, cached on disk next to a bundle under the
/// configuration's fingerprint. Open one next to a bundle and every
/// replay through
/// [`Experiment::replay_from_bundle_cached`][crate::Experiment::replay_from_bundle_cached]
/// gets faster: the first run builds and records every site's trees,
/// later runs of unchanged sites take them from their records.
#[derive(Debug)]
pub struct AnalysisCache {
    trees: TreeCache,
}

impl AnalysisCache {
    /// Open (or create) a disk-backed cache at `dir` for `config`'s
    /// fingerprint. Never fails — corruption or a fingerprint mismatch
    /// discards the cache (it holds derived data only).
    pub fn open(dir: &Path, config: &ExperimentConfig) -> AnalysisCache {
        AnalysisCache {
            trees: TreeCache::open(dir, cache_fingerprint(config)),
        }
    }

    /// Commit appended records durably (atomic manifest rewrite).
    pub fn commit(&self) -> Result<(), BundleError> {
        self.trees.commit()
    }

    /// Append site records to the cache, in the order given.
    pub(crate) fn store(&self, records: impl IntoIterator<Item = SiteRecord>) {
        for record in records {
            self.trees.insert_site(record.key, &record.trees);
        }
    }
}

/// The cache record of one rebuilt site: its delta key and the trees of
/// its vetted visits, waiting to be stored.
#[derive(Debug)]
pub(crate) struct SiteRecord {
    /// The site, which orders records canonically.
    pub(crate) site: String,
    /// The site's delta key.
    pub(crate) key: u64,
    /// The trees of its vetted visits, in (page, profile) order.
    pub(crate) trees: Vec<DepTree>,
}

/// The delta key of one site, built from its complete visit roster:
/// page by page in URL order, one slot per profile holding the visit's
/// content address or nothing. A database ([`site_delta_key`]) and a
/// bundle's visit log ([`replay_cached`]) feed it the same way, so both
/// name a site by the same key.
struct DeltaKey(String);

impl DeltaKey {
    fn new() -> DeltaKey {
        DeltaKey(String::from("wmtree-site-trees-v1"))
    }

    /// Start the next page.
    fn page(&mut self, url: &str) {
        self.0.push_str("|p:");
        self.0.push_str(url);
    }

    /// The page's next profile slot.
    fn slot(&mut self, object: Option<u64>) {
        self.0.push(',');
        match object {
            None => self.0.push('-'),
            Some(hash) => self.0.push_str(&to_hex(hash)),
        }
    }

    fn finish(self) -> u64 {
        object_hash(self.0.as_bytes())
    }
}

/// The delta key of one site of `db`. `None` when any present visit
/// lacks a content hash (live-crawl data) — such a site is simply
/// rebuilt.
fn site_delta_key(db: &CrawlDb, pages: &[&PageKey]) -> Option<u64> {
    let mut key = DeltaKey::new();
    for page in pages {
        key.page(&page.url);
        for profile in 0..db.n_profiles() {
            key.slot(match db.visit_any(page, profile) {
                None => None,
                Some(_) => Some(db.visit_hash(page, profile)?),
            });
        }
    }
    Some(key.finish())
}

/// Replay the bundle at `dir` site by site through `cache`, decoding
/// each object only as deep as the fold will need it: one of `workers`
/// threads runs `stage` on each site's database, and `sink` takes the
/// results in log order ([`replay_sites`]).
///
/// Each site's delta key comes from the visit log alone — page URLs,
/// profile slots and object addresses — before any object is read. A
/// site the cache holds a record for decodes header-only: its trees
/// come from that record, so the stage needs only its outcome flags and
/// cookies. Every other site decodes in full, and without a cache every
/// site does. A tree is never built from a header-only visit: a site
/// whose record turns out to hold a different number of trees than the
/// site has vetted visits is a miss, so it skips the stage and, once
/// the whole bundle has verified, is read again in full and staged.
/// Every committed byte is verified either way, and nothing `sink`
/// derives is final until this returns `Ok`.
pub(crate) fn replay_cached<T: Send>(
    dir: &Path,
    cache: Option<&AnalysisCache>,
    workers: usize,
    stage: impl Fn(CrawlDb) -> T + Sync,
    mut sink: impl FnMut(T) -> Result<(), BundleError>,
) -> Result<(), BundleError> {
    let n_profiles = Manifest::load(dir)?.meta.n_profiles;
    // Sites read header-only, with the tree count of their records.
    let headers: OnceLock<BTreeMap<String, usize>> = OnceLock::new();
    let plan = |visits: &[LoggedVisit]| {
        let Some(cache) = cache else {
            return vec![Depth::Full; visits.len()];
        };
        let mut sites: BTreeMap<&str, BTreeMap<&str, Vec<Option<u64>>>> = BTreeMap::new();
        for v in visits {
            let slots = sites
                .entry(&v.site)
                .or_default()
                .entry(&v.url)
                .or_insert_with(|| vec![None; n_profiles]);
            slots[v.profile] = Some(v.object);
        }
        let mut hits = BTreeMap::new();
        for (site, pages) in &sites {
            let mut key = DeltaKey::new();
            for (url, slots) in pages {
                key.page(url);
                for &slot in slots {
                    key.slot(slot);
                }
            }
            if let Some(trees) = cache.trees.site_len(key.finish()) {
                hits.insert(site.to_string(), trees);
            }
        }
        let depth = |v: &LoggedVisit| {
            if hits.contains_key(&v.site) {
                Depth::Header
            } else {
                Depth::Full
            }
        };
        let depths = visits.iter().map(depth).collect();
        let _ = headers.set(hits);
        depths
    };

    // The re-read guard, per site: a header-only site whose record holds
    // a different number of trees than it has vetted visits skips the
    // stage, to be read again in full.
    let guarded = |db: CrawlDb| {
        let Some(headers) = headers.get().filter(|h| !h.is_empty()) else {
            return Ok(stage(db));
        };
        let mut vetted: BTreeMap<&str, usize> = BTreeMap::new();
        for (page, visits) in db.vetted_pages() {
            *vetted.entry(page.site.as_str()).or_default() += visits.len();
        }
        let miss = db.pages().any(|page| {
            let site = page.site.as_str();
            headers
                .get(site)
                .is_some_and(|&trees| vetted.get(site).copied().unwrap_or(0) != trees)
        });
        if miss {
            Err(db
                .pages()
                .map(|page| page.site.clone())
                .collect::<BTreeSet<_>>())
        } else {
            Ok(stage(db))
        }
    };
    let mut reread: BTreeSet<String> = BTreeSet::new();
    replay_sites(dir, workers, plan, guarded, |staged| match staged {
        Ok(result) => sink(result),
        Err(sites) => {
            reread.extend(sites);
            Ok(())
        }
    })?;
    if reread.is_empty() {
        return Ok(());
    }
    let plan = |visits: &[LoggedVisit]| {
        let depth = |v: &LoggedVisit| {
            if reread.contains(&v.site) {
                Depth::Full
            } else {
                Depth::Address
            }
        };
        visits.iter().map(depth).collect()
    };
    replay_sites(dir, workers, plan, stage, sink)
}

/// Outcome of [`accumulate_cached`]: the database's accumulator —
/// analysed but **not yet finished** — plus how much of the work the
/// cache absorbed and how long it took. [`crate::Fold`] folds one of
/// these per crawled or replayed site and finishes once.
pub struct CachedAccumulation {
    /// The (un-finished) accumulator over every site.
    pub acc: PartialAccumulators,
    /// Sites in the database.
    pub sites_total: usize,
    /// Sites whose trees were built (every site, without a cache).
    pub sites_rebuilt: usize,
    /// Sites whose trees came from their cache records.
    pub sites_reused: usize,
    /// Wall time of the build stage: delta keys and record lookups,
    /// tree building for the rebuilt sites and their records, and page
    /// assembly.
    pub build_wall: Duration,
    /// Wall time of the analyses and crawl accounting after the build.
    pub analyze_wall: Duration,
    /// The cache records of the rebuilt sites, in canonical site order,
    /// not stored yet: [`accumulate_cached`] stores them before it
    /// returns, a replay once its whole bundle has verified.
    pub(crate) records: Vec<SiteRecord>,
}

/// The post-crawl pipeline over one crawl database: vetting, trees,
/// page assembly, per-node analyses and crawl accounting, as one
/// [`PartialAccumulators`].
///
/// With a cache, each site's delta key is looked up first: a hit takes
/// the site's trees from its record, a miss builds them and records
/// them for next time. Without one, no key is computed, no lookup made,
/// and every tree is built. Everything after the trees is the same
/// either way, and all of it runs on the calling thread: `workers` is
/// unused, and stays only until the benchmark harness stops passing it.
pub fn accumulate_cached<'c>(
    db: &CrawlDb,
    profile_names: &[String],
    filter_list: Option<&FilterList>,
    tree_config: &TreeConfig,
    site_meta: &BTreeMap<String, (u32, String)>,
    _workers: usize,
    cache: impl Into<Option<&'c AnalysisCache>>,
) -> Result<CachedAccumulation, PartialMergeError> {
    let cache = cache.into();
    let mut acc = accumulate(
        db,
        profile_names,
        filter_list,
        tree_config,
        site_meta,
        cache,
    );
    if let Some(cache) = cache {
        cache.store(acc.records.drain(..));
    }
    Ok(acc)
}

/// [`accumulate_cached`], leaving the rebuilt sites' records in the
/// accumulation for the caller to store.
pub(crate) fn accumulate(
    db: &CrawlDb,
    profile_names: &[String],
    filter_list: Option<&FilterList>,
    tree_config: &TreeConfig,
    site_meta: &BTreeMap<String, (u32, String)>,
    cache: Option<&AnalysisCache>,
) -> CachedAccumulation {
    let cache = cache.map(|cache| &cache.trees);
    // The span covers exactly what the `build_trees` stage times: up to
    // and including the page indexes, not the analyses after them.
    let build_span = wmtree_telemetry::span("experiment.build_trees");
    let mut sw = Stopwatch::start();

    // Group the database's pages by site (pages iterate in canonical
    // (site, url) order, so sites come out sorted and contiguous, and so
    // does each site's run of vetted pages).
    let mut by_site: BTreeMap<&str, Vec<&PageKey>> = BTreeMap::new();
    for page in db.pages() {
        by_site.entry(page.site.as_str()).or_default().push(page);
    }
    let vetted = db.vetted_pages();

    // Resolve every site against the cache in canonical site order
    // (deterministic hit/miss counters and record order); a site the
    // cache misses builds its trees here and keeps them as its record.
    let mut trees: Vec<DepTree> = Vec::new();
    let mut records = Vec::new();
    let mut vetted_pages = vetted.iter().peekable();
    let (mut sites_rebuilt, mut built) = (0usize, 0usize);
    for (site, pages) in &by_site {
        let mut visits: Vec<&VisitResult> = Vec::new();
        while let Some((_, page_visits)) = vetted_pages.next_if(|(page, _)| page.site == *site) {
            visits.extend(page_visits);
        }
        let key = cache.and_then(|_| site_delta_key(db, pages));
        match cache
            .zip(key)
            .and_then(|(cache, key)| cache.get_site(key, visits.len()))
        {
            Some(record) => trees.extend(record),
            None => {
                sites_rebuilt += 1;
                built += visits.len();
                let start = trees.len();
                trees.extend(
                    visits
                        .iter()
                        .map(|v| build_tree(v, filter_list, tree_config)),
                );
                records.extend(key.map(|key| SiteRecord {
                    site: site.to_string(),
                    key,
                    trees: trees[start..].to_vec(),
                }));
            }
        }
    }
    if cache.is_some() {
        wmtree_telemetry::counter!("tree.cache.miss").add(built as u64);
    }
    let data = ExperimentData::from_vetted(&vetted, trees, profile_names.to_vec(), site_meta);
    let build_wall = sw.lap();
    drop(build_span);

    let sims = analyze_all(&data);
    data.summarize();
    let acc = PartialAccumulators::from_shard(
        data,
        sims,
        db.profile_stats(),
        db.page_count(),
        db.total_successful_visits(),
        db.vetted_sites().len(),
    );
    CachedAccumulation {
        acc,
        sites_total: by_site.len(),
        sites_rebuilt,
        sites_reused: by_site.len() - sites_rebuilt,
        build_wall,
        analyze_wall: sw.lap(),
        records,
    }
}

/// A run's results plus how much of the work a cache absorbed.
#[derive(Debug)]
pub struct IncrementalReplay {
    /// The full analysis results — byte-identical to an uncached
    /// replay (or a crawl-then-analyze run) of the same bundle.
    pub results: crate::ExperimentResults,
    /// Sites in the bundle.
    pub sites_total: usize,
    /// Sites rebuilt from their visits (every site, without a cache).
    pub sites_rebuilt: usize,
    /// Sites folded from cached accumulators.
    pub sites_reused: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scale;
    use crate::{Experiment, Report};
    use wmtree_filterlist::embedded::tracking_list;

    /// A Tiny bundle recorded at a fresh `dir`, its database read in
    /// full, and its first site with a vetted page: the site's delta
    /// key and the trees of its vetted visits.
    fn recorded(dir: &Path) -> (ExperimentConfig, CrawlDb, String, u64, Vec<DepTree>) {
        let _ = std::fs::remove_dir_all(dir);
        let cfg = ExperimentConfig::at_scale(Scale::Tiny);
        Experiment::new(cfg.clone())
            .run_to_bundle(dir, None)
            .expect("record a Tiny bundle");
        let db = wmtree_crawler::read_bundle(dir).expect("read it back");
        let vetted = db.vetted_pages();
        let site = vetted[0].0.site.clone();
        let pages: Vec<&PageKey> = db.pages().filter(|p| p.site == site).collect();
        let key = site_delta_key(&db, &pages).expect("bundle visits carry addresses");
        let visits: Vec<&VisitResult> = vetted
            .iter()
            .filter(|(page, _)| page.site == site)
            .flat_map(|(_, v)| v.iter().copied())
            .collect();
        let trees = visits
            .iter()
            .map(|v| build_tree(v, Some(tracking_list()), &cfg.tree))
            .collect();
        drop(vetted);
        (cfg, db, site, key, trees)
    }

    /// Whether every visit of `site` in `db` equals the one in `full`,
    /// and whether their requests were decoded.
    fn site_visits(db: &CrawlDb, full: &CrawlDb, site: &str) -> (bool, bool) {
        let (mut equal, mut decoded) = (true, false);
        for page in full.pages().filter(|p| p.site == site) {
            for profile in 0..full.n_profiles() {
                let (a, b) = (db.visit_any(page, profile), full.visit_any(page, profile));
                equal &= a == b;
                decoded |= a.is_some_and(|v| !v.requests.is_empty());
            }
        }
        (equal, decoded)
    }

    /// What a stage replaying the bundle at `dir` through `cache` is
    /// handed: every site's database, merged, and the sites in the
    /// order they were staged.
    fn staged(dir: &Path, cache: &AnalysisCache, workers: usize) -> (CrawlDb, Vec<String>) {
        let mut db = CrawlDb::new(5);
        let mut sites = Vec::new();
        replay_cached(
            dir,
            Some(cache),
            workers,
            |site| site,
            |site| {
                sites.extend(site.pages().next().map(|p| p.site.clone()));
                db.merge(site);
                Ok(())
            },
        )
        .unwrap();
        (db, sites)
    }

    #[test]
    fn sites_with_a_record_read_header_only() {
        let dir = std::env::temp_dir().join("wmtree-incremental-header-only");
        let (cfg, full, site, key, trees) = recorded(&dir);
        let cache = AnalysisCache::open(&dir.join(wmtree_tree::cache::CACHE_DIR_NAME), &cfg);
        cache.trees.insert_site(key, &trees);
        let (db, sites) = staged(&dir, &cache, 2);
        assert_eq!(sites.iter().filter(|s| **s == site).count(), 1);
        let (equal, decoded) = site_visits(&db, &full, &site);
        assert!(!equal && !decoded, "the hit site decodes header-only");
        for page in full.pages().filter(|p| p.site != site) {
            for profile in 0..full.n_profiles() {
                assert_eq!(db.visit_any(page, profile), full.visit_any(page, profile));
            }
        }
        assert_eq!(db.vetted_pages().len(), full.vetted_pages().len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_record_one_tree_short_is_reread_in_full_and_rebuilt() {
        let dir = std::env::temp_dir().join("wmtree-incremental-one-short");
        let (cfg, full, site, key, trees) = recorded(&dir);
        assert!(trees.len() > 1, "the site has vetted visits to drop one of");
        let cache = AnalysisCache::open(&dir.join(wmtree_tree::cache::CACHE_DIR_NAME), &cfg);
        cache.trees.insert_site(key, &trees[1..]);
        cache.commit().unwrap();

        // The site skips the stage when it leaves header-only, and is
        // staged once, in full, after the rest of the bundle.
        let (db, sites) = staged(&dir, &cache, 2);
        assert_eq!(site_visits(&db, &full, &site), (true, true));
        assert_eq!(sites.last(), Some(&site), "{sites:?}");
        assert_eq!(sites.iter().filter(|s| **s == site).count(), 1);
        assert_eq!(db.page_count(), full.page_count());

        // The replay counts the site as rebuilt from those full visits,
        // and renders exactly what the cache-free replay does.
        let exp = Experiment::new(cfg.clone());
        let cached = exp.replay_from_bundle_cached(&dir, &cache).unwrap();
        assert_eq!(cached.sites_reused, 0);
        assert_eq!(cached.sites_rebuilt, cached.sites_total);
        let plain = exp.replay_from_bundle(&dir).unwrap();
        assert_eq!(
            Report::generate(&cached.results).to_json(),
            Report::generate(&plain).to_json()
        );
        assert_eq!(
            Report::generate(&cached.results).render(),
            Report::generate(&plain).render()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_separates_configurations() {
        let base = crate::ExperimentConfig::at_scale(Scale::Tiny);
        let fp = cache_fingerprint(&base);
        assert_eq!(fp, cache_fingerprint(&base.clone()), "deterministic");

        let mut no_filter = base.clone();
        no_filter.use_filter_list = false;
        assert_ne!(fp, cache_fingerprint(&no_filter));

        let mut raw_urls = base.clone();
        raw_urls.tree.normalize_urls = false;
        assert_ne!(fp, cache_fingerprint(&raw_urls));

        let mut fewer = base.clone();
        fewer.profiles.pop();
        assert_ne!(fp, cache_fingerprint(&fewer));

        // Worker count and seed must NOT change the fingerprint — they
        // never influence tree or analysis content.
        let mut other_workers = base.clone();
        other_workers.workers = 7;
        other_workers.experiment_seed ^= 0xF00;
        assert_eq!(fp, cache_fingerprint(&other_workers));
    }
}
