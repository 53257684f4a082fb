//! Incremental re-analysis over bundle deltas.
//!
//! Building dependency trees is the one expensive step of a bundle
//! replay; the analyses over them are cheap. [`AnalysisCache`] keeps
//! every site's trees in a [`TreeCache`] next to the bundle, one
//! self-contained record per site under the site's *delta key*, so a
//! site whose visits are unchanged between two replays takes its trees
//! from its record instead of building them. Everything after the trees
//! — page assembly, analyses, crawl accounting — runs once over the
//! whole database, the same code with or without a cache, so cached,
//! incremental and cold runs render byte-identical reports (proven by
//! `tests/treecache_identity.rs`).
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
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;
use wmtree_analysis::node_similarity::analyze_all;
use wmtree_analysis::{build_trees, ExperimentData, PartialAccumulators, PartialMergeError};
use wmtree_browser::VisitResult;
use wmtree_bundle::hash::{object_hash, to_hex};
use wmtree_bundle::BundleError;
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

/// The delta key of one site: a content hash over the site's complete
/// visit roster. `None` when any present visit lacks a content hash
/// (live-crawl data) — such a site is simply rebuilt.
fn site_delta_key(db: &CrawlDb, pages: &[&PageKey]) -> Option<u64> {
    let mut canon = String::from("wmtree-site-trees-v1");
    for page in pages {
        canon.push_str("|p:");
        canon.push_str(&page.url);
        for profile in 0..db.n_profiles() {
            canon.push(',');
            match db.visit_any(page, profile) {
                None => canon.push('-'),
                Some(_) => canon.push_str(&to_hex(db.visit_hash(page, profile)?)),
            }
        }
    }
    Some(object_hash(canon.as_bytes()))
}

/// Outcome of [`accumulate_cached`]: the database's accumulator —
/// analysed but **not yet finished** — plus how much of the work the
/// cache absorbed. [`crate::Fold`] folds one of these per crawl
/// database and finishes once.
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
    /// assembly. The analyses and accounting after it are analysis time.
    pub build_wall: Duration,
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
