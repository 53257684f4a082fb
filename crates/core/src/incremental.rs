//! Incremental re-analysis over bundle deltas.
//!
//! Building dependency trees is the one expensive step of a bundle
//! replay; the analyses over them are cheap. [`AnalysisCache`] keeps
//! every site's trees in a [`TreeCache`] next to the bundle, one
//! self-contained record per site under the site's *delta key*, so a
//! site whose visits are unchanged between two replays takes its trees
//! from its record instead of building them — and, read through
//! [`read_bundle_cached`], decodes only its visits' headers. Everything
//! after the trees — page assembly, analyses, crawl accounting — runs
//! over the whole database, the same code with or without a cache, so
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
use std::time::Duration;
use wmtree_analysis::node_similarity::analyze_all;
use wmtree_analysis::{build_trees, ExperimentData, PartialAccumulators, PartialMergeError};
use wmtree_browser::VisitResult;
use wmtree_bundle::hash::{object_hash, to_hex};
use wmtree_bundle::{read_visits_at, BundleError, BundleVisit, Depth, LoggedVisit, Manifest};
use wmtree_crawler::{CrawlDb, PageKey};
use wmtree_filterlist::FilterList;
use wmtree_telemetry::Stopwatch;
use wmtree_tree::{CallStackMode, DepTree, TreeCache, TreeConfig};

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
}

/// The delta key of one site, built from its complete visit roster:
/// page by page in URL order, one slot per profile holding the visit's
/// content address or nothing. A database ([`site_delta_key`]) and a
/// bundle's visit log ([`read_bundle_cached`]) feed it the same way, so
/// both name a site by the same key.
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

/// Rebuild a database from the bundle at `dir` through `cache`,
/// decoding each object only as deep as the fold will need it.
///
/// Each site's delta key comes from the visit log alone — page URLs,
/// profile slots and object addresses — before any object is read. A
/// site the cache holds a record for decodes header-only: its trees
/// come from that record, so the fold needs only its outcome flags and
/// cookies. Every other site decodes in full, and without a cache every
/// site does. A tree is never built from a header-only visit: a site
/// whose record turns out to hold a different number of trees than the
/// site has vetted visits is a miss, so it is read again in full before
/// the database is returned. Every committed byte is verified either
/// way.
pub fn read_bundle_cached(
    dir: &Path,
    cache: Option<&AnalysisCache>,
) -> Result<CrawlDb, BundleError> {
    let _span = wmtree_telemetry::span("bundle.read_db");
    let manifest = Manifest::load(dir)?;
    let n_profiles = manifest.meta.n_profiles;
    let mut db = CrawlDb::new(n_profiles);
    let insert = |db: &mut CrawlDb, bv: BundleVisit| {
        let page = PageKey {
            site: bv.site,
            url: bv.url,
        };
        db.insert_hashed(page, bv.profile, bv.visit, bv.object);
    };
    // Sites read header-only, with the tree count of their records.
    let mut headers: BTreeMap<String, usize> = BTreeMap::new();
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
        for (site, pages) in &sites {
            let mut key = DeltaKey::new();
            for (url, slots) in pages {
                key.page(url);
                for &slot in slots {
                    key.slot(slot);
                }
            }
            if let Some(trees) = cache.trees.site_len(key.finish()) {
                headers.insert(site.to_string(), trees);
            }
        }
        let depth = |v: &LoggedVisit| {
            if headers.contains_key(&v.site) {
                Depth::Header
            } else {
                Depth::Full
            }
        };
        visits.iter().map(depth).collect()
    };
    read_visits_at(dir, &manifest, plan, |bv| insert(&mut db, bv))?;

    // The re-read guard: a header-only site must hit its record.
    let mut vetted: BTreeMap<&str, usize> = BTreeMap::new();
    for (page, visits) in db.vetted_pages() {
        *vetted.entry(page.site.as_str()).or_default() += visits.len();
    }
    let misses: BTreeSet<String> = headers
        .into_iter()
        .filter(|(site, trees)| vetted.get(site.as_str()).copied().unwrap_or(0) != *trees)
        .map(|(site, _)| site)
        .collect();
    if !misses.is_empty() {
        let plan = |visits: &[LoggedVisit]| {
            let depth = |v: &LoggedVisit| {
                if misses.contains(&v.site) {
                    Depth::Full
                } else {
                    Depth::Address
                }
            };
            visits.iter().map(depth).collect()
        };
        read_visits_at(dir, &manifest, plan, |bv| insert(&mut db, bv))?;
    }
    Ok(db)
}

/// Outcome of [`accumulate_cached`]: the database's accumulator —
/// analysed but **not yet finished** — plus how much of the work the
/// cache absorbed and how long it took. [`crate::Fold`] folds one of
/// these per crawled site or read bundle and finishes once.
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
}

/// The post-crawl pipeline over one crawl database: vetting, trees,
/// page assembly, per-node analyses and crawl accounting, as one
/// [`PartialAccumulators`].
///
/// With a cache, each site's delta key is looked up first: a hit takes
/// the site's trees from its record, a miss builds them and records
/// them for next time. Without one, no key is computed, no lookup made,
/// and every tree is built. Everything after the trees is the same
/// either way.
pub fn accumulate_cached<'c>(
    db: &CrawlDb,
    profile_names: &[String],
    filter_list: Option<&FilterList>,
    tree_config: &TreeConfig,
    site_meta: &BTreeMap<String, (u32, String)>,
    workers: usize,
    cache: impl Into<Option<&'c AnalysisCache>>,
) -> Result<CachedAccumulation, PartialMergeError> {
    let cache = cache.into().map(|cache| &cache.trees);
    let mut sw = Stopwatch::start();

    // Group the database's pages by site (pages iterate in canonical
    // (site, url) order, so sites come out sorted and contiguous), and
    // flatten the vetted visits, in the same order: each site's vetted
    // visits are one contiguous run of `visits`.
    let mut by_site: BTreeMap<&str, Vec<&PageKey>> = BTreeMap::new();
    for page in db.pages() {
        by_site.entry(page.site.as_str()).or_default().push(page);
    }
    let vetted = db.vetted_pages();
    let visits: Vec<&VisitResult> = vetted.iter().flat_map(|(_, v)| v.iter().copied()).collect();

    // Resolve every site against the cache in canonical site order
    // (deterministic hit/miss counters and record order).
    let mut trees: Vec<Option<DepTree>> = vec![None; visits.len()];
    let mut missing: Vec<usize> = Vec::new();
    let mut to_record: Vec<(u64, std::ops::Range<usize>)> = Vec::new();
    let mut vetted_pages = vetted.iter().peekable();
    let mut end = 0usize;
    let mut sites_rebuilt = 0usize;
    for (site, pages) in &by_site {
        let start = end;
        while let Some((_, page_visits)) = vetted_pages.next_if(|(page, _)| page.site == *site) {
            end += page_visits.len();
        }
        let key = cache.and_then(|_| site_delta_key(db, pages));
        match cache
            .zip(key)
            .and_then(|(cache, key)| cache.get_site(key, end - start))
        {
            Some(record) => {
                for (slot, tree) in trees[start..end].iter_mut().zip(record) {
                    *slot = Some(tree);
                }
            }
            None => {
                sites_rebuilt += 1;
                missing.extend(start..end);
                to_record.extend(key.map(|key| (key, start..end)));
            }
        }
    }

    // Build the missing trees in one fan-out over every rebuilt site,
    // then record each rebuilt site's trees for next time.
    let missing_visits: Vec<&VisitResult> = missing.iter().map(|&i| visits[i]).collect();
    let built = build_trees(&missing_visits, filter_list, tree_config, workers);
    for (&i, tree) in missing.iter().zip(built) {
        trees[i] = Some(tree);
    }
    let trees: Vec<DepTree> = trees
        .into_iter()
        .map(|tree| tree.expect("every vetted visit's tree is served or built")) // wmtree-lint: allow(WM0105)
        .collect();
    if let Some(cache) = cache {
        wmtree_telemetry::counter!("tree.cache.miss").add(missing.len() as u64);
        for (key, run) in to_record {
            cache.insert_site(key, &trees[run]);
        }
    }
    let data =
        ExperimentData::from_vetted(&vetted, trees, profile_names.to_vec(), site_meta, workers);
    let build_wall = sw.lap();

    let sims = analyze_all(&data);
    let acc = PartialAccumulators::from_shard(
        data,
        sims,
        db.profile_stats(),
        db.page_count(),
        db.total_successful_visits(),
        db.vetted_sites().len(),
    );
    Ok(CachedAccumulation {
        acc,
        sites_total: by_site.len(),
        sites_rebuilt,
        sites_reused: by_site.len() - sites_rebuilt,
        build_wall,
        analyze_wall: sw.lap(),
    })
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
        let trees = build_trees(&visits, Some(tracking_list()), &cfg.tree, 1);
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

    #[test]
    fn sites_with_a_record_read_header_only() {
        let dir = std::env::temp_dir().join("wmtree-incremental-header-only");
        let (cfg, full, site, key, trees) = recorded(&dir);
        let cache = AnalysisCache::open(&dir.join(wmtree_tree::cache::CACHE_DIR_NAME), &cfg);
        cache.trees.insert_site(key, &trees);
        let db = read_bundle_cached(&dir, Some(&cache)).unwrap();
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

        // The reader re-reads the site in full before handing it out.
        let db = read_bundle_cached(&dir, Some(&cache)).unwrap();
        assert_eq!(site_visits(&db, &full, &site), (true, true));

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
