//! Incremental re-analysis over bundle deltas.
//!
//! [`AnalysisCache`] extends the tree-level memoization of
//! [`wmtree_tree::TreeCache`] with per-**site** partial accumulators
//! ([`wmtree_analysis::PartialAccumulators`]): a site whose visit
//! content hashes (and metadata) are unchanged between two bundles is
//! never re-built or re-analyzed — its cached accumulator folds
//! straight into the merge, exactly as an unchanged shard would in the
//! out-of-core pipeline. Only sites whose *delta key* changed are
//! rebuilt, and their trees still dedup through the tree cache.
//!
//! Everything is keyed by content, so invalidation is by construction:
//!
//! * a tree's key is the visit payload's content hash (the bundle
//!   object store's address);
//! * a site's key hashes the site's full visit roster — every page
//!   URL, every per-profile slot (present/absent), every present
//!   visit's content hash, plus the site's rank/bucket metadata;
//! * the cache *fingerprint* ([`cache_fingerprint`]) covers everything
//!   trees and analyses depend on besides the visits: tree config,
//!   filter-list use, and the profile roster. A cache opened under a
//!   different fingerprint starts empty.
//!
//! The cached path must be indistinguishable from the cold path. The
//! per-site accumulators are exact — crawl accounting sums over sites,
//! and [`PartialAccumulators::finish`] restores the canonical
//! `(site, url)` order — so cached, incremental, and cold runs render
//! byte-identical reports (proven by `tests/treecache_identity.rs`).

use crate::config::ExperimentConfig;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;
use wmtree_analysis::node_similarity::analyze_all;
use wmtree_analysis::{ExperimentData, PartialAccumulators, PartialMergeError};
use wmtree_bundle::hash::{object_hash, to_hex};
use wmtree_bundle::BundleError;
use wmtree_crawler::{CrawlDb, PageKey, ProfileStats};
use wmtree_filterlist::FilterList;
use wmtree_telemetry::Stopwatch;
use wmtree_tree::{CallStackMode, TreeCache, TreeConfig};

/// The cache fingerprint of a configuration: a content hash over
/// everything a cached tree or site accumulator depends on *besides*
/// the visit payloads — tree construction options, filter-list use,
/// and the profile roster (slot order matters). Two configurations
/// with the same fingerprint may share a cache; anything else opens it
/// empty.
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

/// Two-level analysis cache: memoized trees (via [`TreeCache`], memory
/// and disk) plus per-site partial accumulators (a typed in-memory
/// tier over the tree cache's opaque disk records). Open one next to a
/// bundle and every replay through
/// [`Experiment::replay_from_bundle_cached`][crate::Experiment::replay_from_bundle_cached]
/// gets faster: first run populates, later runs of unchanged sites fold
/// cached accumulators without building a single tree.
#[derive(Debug)]
pub struct AnalysisCache {
    trees: TreeCache,
    /// Typed tier of the site records: parsed accumulators, shared
    /// within the process so warm in-process replays skip even the
    /// JSON parse (and keep their pre-built page indexes).
    sites: Mutex<BTreeMap<u64, PartialAccumulators>>,
}

impl AnalysisCache {
    /// Open (or create) a disk-backed cache at `dir` for `config`'s
    /// fingerprint. Never fails — corruption or a fingerprint mismatch
    /// discards the cache (it holds derived data only).
    pub fn open(dir: &Path, config: &ExperimentConfig) -> AnalysisCache {
        AnalysisCache {
            trees: TreeCache::open(dir, cache_fingerprint(config)),
            sites: Mutex::new(BTreeMap::new()),
        }
    }

    /// A memory-only cache (within-process reuse, nothing persisted).
    pub fn in_memory(config: &ExperimentConfig) -> AnalysisCache {
        AnalysisCache {
            trees: TreeCache::in_memory(cache_fingerprint(config)),
            sites: Mutex::new(BTreeMap::new()),
        }
    }

    /// The underlying tree cache.
    pub fn tree_cache(&self) -> &TreeCache {
        &self.trees
    }

    /// Commit appended records durably (atomic manifest rewrite).
    pub fn commit(&self) -> Result<(), BundleError> {
        self.trees.commit()
    }

    fn sites_tier(&self) -> MutexGuard<'_, BTreeMap<u64, PartialAccumulators>> {
        match self.sites.lock() {
            Ok(guard) => guard,
            // The tier is a plain map; a panic mid-access cannot leave
            // it half-written in a way later reads would misread.
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Look up a site accumulator by delta key: typed tier first, then
    /// the disk records (lean form — trees stored as content-hash
    /// references, rehydrated through the tree cache and promoted into
    /// the typed tier). A record whose references no longer resolve is
    /// simply a miss: the site rebuilds from its visits.
    fn get_site_acc(&self, key: u64, profile_names: &[String]) -> Option<PartialAccumulators> {
        if let Some(acc) = self.sites_tier().get(&key) {
            if acc.profile_names() == profile_names {
                wmtree_telemetry::counter!("tree.cache.site.hit").inc();
                return Some(acc.clone());
            }
        }
        let payload = self.trees.get_site(key)?;
        let acc = PartialAccumulators::from_cache_record(&payload, profile_names, |h| {
            self.trees.get_tree(h)
        })?;
        self.sites_tier().insert(key, acc.clone());
        Some(acc)
    }

    /// Cache a freshly built site accumulator. `tree_keys` holds each
    /// page's visit content hashes, aligned with the accumulator's
    /// pages and their trees. The disk record stores only these
    /// references, so it is written just when every key is known *and*
    /// its tree is durably in the tree log (a reference to a
    /// memory-only tree would dangle after reopen); the typed tier
    /// keeps the full accumulator either way for in-process reuse.
    fn insert_site_acc(&self, key: u64, acc: &PartialAccumulators, tree_keys: &[Vec<Option<u64>>]) {
        let persisted = tree_keys
            .iter()
            .flatten()
            .all(|k| k.is_some_and(|h| self.trees.is_tree_persisted(h)));
        if persisted {
            if let Some(payload) = acc.to_cache_record(tree_keys) {
                self.trees.insert_site(key, &payload);
            }
        }
        self.sites_tier().insert(key, acc.clone());
    }
}

/// The delta key of one site: a content hash over the site's complete
/// visit roster and metadata. `None` when any present visit lacks a
/// content hash (live-crawl data) — such a site is simply rebuilt.
fn site_delta_key(
    db: &CrawlDb,
    site: &str,
    pages: &[&PageKey],
    meta: Option<&(u32, String)>,
) -> Option<u64> {
    let mut canon = String::from("wmtree-site-acc-v1|");
    canon.push_str(site);
    if let Some((rank, bucket)) = meta {
        canon.push_str("|meta:");
        canon.push_str(&rank.to_string());
        canon.push(':');
        canon.push_str(bucket);
    }
    for page in pages {
        canon.push_str("|p:");
        canon.push_str(&page.url);
        for profile in 0..db.n_profiles() {
            canon.push(',');
            match db.visit_any(page, profile) {
                None => canon.push('-'),
                Some(_) => match db.visit_hash(page, profile) {
                    Some(h) => canon.push_str(&to_hex(h)),
                    None => return None,
                },
            }
        }
    }
    Some(object_hash(canon.as_bytes()))
}

/// Per-site crawl accounting: profile stats and successful visits over
/// exactly this site's pages. Summing these over all sites reproduces
/// the whole-database figures — the exactness the byte-identity
/// guarantee rests on.
fn site_stats(db: &CrawlDb, pages: &[&PageKey]) -> (Vec<ProfileStats>, usize) {
    let mut stats = vec![ProfileStats::default(); db.n_profiles()];
    let mut successful = 0usize;
    for page in pages {
        for (profile, stat) in stats.iter_mut().enumerate() {
            if let Some(v) = db.visit_any(page, profile) {
                stat.attempted += 1;
                if v.success {
                    stat.succeeded += 1;
                    successful += 1;
                }
            }
        }
    }
    (stats, successful)
}

/// Outcome of [`accumulate_cached`]: every site's accumulator — cached
/// or freshly rebuilt — merged but **not yet finished**, plus how much
/// of the work the cache absorbed. [`crate::Fold`] folds one of these
/// per crawl database and finishes once.
pub struct CachedAccumulation {
    /// The merged (un-finished) accumulators over every site.
    pub acc: PartialAccumulators,
    /// Sites in the database.
    pub sites_total: usize,
    /// Sites rebuilt from their visits (every site, without a cache).
    pub sites_rebuilt: usize,
    /// Sites folded from cached accumulators.
    pub sites_reused: usize,
    /// Wall time of the build stage: delta-key hashing over every site
    /// plus tree building for the rebuilt ones. Everything else the
    /// fold does — cache lookups, analyses, per-site folding — is
    /// analysis time.
    pub build_wall: Duration,
}

/// The post-crawl pipeline over one crawl database, folded site by
/// site: vetting, trees, per-node analyses and exact per-site crawl
/// accounting, merged into one [`PartialAccumulators`].
///
/// With a cache, each site's delta key is looked up first and a hit
/// folds the cached accumulator without building a tree; only missed
/// sites are rebuilt (their trees still memoized per visit) and cached
/// for next time. Without one, no key is computed, no lookup made, and
/// every site is rebuilt.
pub fn accumulate_cached<'c>(
    db: &CrawlDb,
    profile_names: &[String],
    filter_list: Option<&FilterList>,
    tree_config: &TreeConfig,
    site_meta: &BTreeMap<String, (u32, String)>,
    workers: usize,
    cache: impl Into<Option<&'c AnalysisCache>>,
) -> Result<CachedAccumulation, PartialMergeError> {
    let cache = cache.into();
    let mut sw = Stopwatch::start();

    // Group the database's pages by site (pages iterate in canonical
    // (site, url) order, so sites come out sorted and contiguous).
    let mut by_site: BTreeMap<&str, Vec<&PageKey>> = BTreeMap::new();
    for page in db.pages() {
        by_site.entry(page.site.as_str()).or_default().push(page);
    }
    let sites_total = by_site.len();

    // With a cache, hash every site's delta key in canonical site
    // order. Keying decides which trees exist this run, so it counts
    // toward the build stage.
    let keys: Vec<Option<u64>> = by_site
        .iter()
        .map(|(site, pages)| {
            cache.and_then(|_| site_delta_key(db, site, pages, site_meta.get(*site)))
        })
        .collect();
    let mut build_wall = sw.lap("build.keys");

    // Resolve the keys against the cache (deterministic hit/miss
    // counters). Materializing a cached accumulator — parse, tree
    // rehydration — is fold work, so it counts as analysis time.
    let mut acc = PartialAccumulators::empty(profile_names.to_vec());
    let mut rebuild: Vec<(&str, Option<u64>)> = Vec::new();
    for ((site, _), key) in by_site.iter().zip(keys) {
        let cached = cache
            .zip(key)
            .and_then(|(cache, key)| cache.get_site_acc(key, profile_names));
        match cached {
            Some(cached) => acc.merge(cached)?,
            None => rebuild.push((site, key)),
        }
    }
    sw.lap("fold.resolve");

    // Build the rebuilt sites' trees straight from the database's
    // vetted pages, all sites at once so the fan-out spans them.
    let rebuilt: BTreeSet<&str> = rebuild.iter().map(|(site, _)| *site).collect();
    let mut vetted = db.vetted_pages_hashed();
    vetted.retain(|(page, _)| rebuilt.contains(page.site.as_str()));
    let data = ExperimentData::from_vetted(
        &vetted,
        profile_names.to_vec(),
        filter_list,
        tree_config,
        site_meta,
        workers,
        cache.map(AnalysisCache::tree_cache),
    );
    build_wall += sw.lap("build.trees");

    // Analyze every rebuilt page, then fold the pages back per site:
    // each site becomes one accumulator with its own crawl accounting,
    // cached for next time when it has a key. A cached site's record
    // references its trees by their visits' content hashes.
    let sims = analyze_all(&data);
    let mut pages = data.pages.into_iter().zip(sims).zip(&vetted).peekable();
    for (site, key) in rebuild {
        let (mut site_pages, mut site_sims, mut tree_keys) = (Vec::new(), Vec::new(), Vec::new());
        while let Some(((page, sim), (_, visits))) =
            pages.next_if(|((page, _), _)| &*page.site == site)
        {
            if key.is_some() {
                tree_keys.push(visits.iter().map(|(_, h)| *h).collect());
            }
            site_pages.push(page);
            site_sims.push(sim);
        }
        let vetted_sites = usize::from(!site_pages.is_empty());
        let (stats, successful) = site_stats(db, &by_site[site]);
        let site_data = ExperimentData {
            profile_names: profile_names.to_vec(),
            pages: site_pages,
            workers: 0,
        };
        let site_acc = PartialAccumulators::from_shard(
            site_data,
            site_sims,
            stats,
            by_site[site].len(),
            successful,
            vetted_sites,
        );
        if let (Some(cache), Some(key)) = (cache, key) {
            cache.insert_site_acc(key, &site_acc, &tree_keys);
        }
        acc.merge(site_acc)?;
    }

    Ok(CachedAccumulation {
        acc,
        sites_total,
        sites_rebuilt: rebuilt.len(),
        sites_reused: sites_total - rebuilt.len(),
        build_wall,
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
