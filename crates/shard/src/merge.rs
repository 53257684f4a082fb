//! Streaming merge analysis: replay one shard-bundle at a time into
//! mergeable partial accumulators, then finish into exactly the
//! results a monolithic single-process run produces.
//!
//! The memory argument: the expensive residency of a replay is the raw
//! crawl data (every visit of every page). The merge never holds a
//! shard's — [`Fold::add_bundle`] replays shard k site by site: each
//! site leaves the bundle loader once its objects verify, a worker vets
//! it, builds (or takes from the shard's tree cache) its trees and
//! analyses its pages, and the per-page analysis records are folded
//! into the accumulator before shard k+1 is touched. The
//! `shard.pages.in_memory.peak` gauge records the largest shard's page
//! count, the most any one shard streamed.
//!
//! [`Fold::add_bundle`]: wmtree::Fold::add_bundle

use crate::error::ShardError;
use crate::plan::ShardPlan;
use std::path::Path;
use wmtree::{AnalysisCache, Experiment, ExperimentResults};
use wmtree_analysis::MergeDigest;
use wmtree_bundle::{bundle_content_hash, Manifest};

/// A finished streaming merge.
#[derive(Debug)]
pub struct MergedRun {
    /// The merged results — byte-identical (report, CSVs, totals) to a
    /// monolithic run of the same experiment.
    pub results: ExperimentResults,
    /// The totals digest both pipelines must agree on.
    pub digest: MergeDigest,
    /// Pages of the largest shard — the most any one shard streamed
    /// through the fold (a shard, not the corpus).
    pub peak_shard_pages: usize,
    /// Sites whose trees were built across all shards — on a warm
    /// re-merge over unchanged bundles this is 0.
    pub sites_rebuilt: usize,
    /// Sites whose trees came from each shard's `TREECACHE`.
    pub sites_reused: usize,
}

/// Verify one shard's recorded bundle hash against the archive on
/// disk. Fails if the shard was never crawled to completion or the
/// archive changed since its hash was recorded.
fn check_hash(plan_dir: &Path, spec: &crate::plan::ShardSpec) -> Result<(), ShardError> {
    let dir = plan_dir.join(&spec.dir);
    let recorded = spec
        .bundle_hash
        .as_deref()
        .ok_or(ShardError::NotCrawled { id: spec.id })?;
    let actual = bundle_content_hash(&dir).map_err(|source| ShardError::Shard {
        id: spec.id,
        dir: dir.clone(),
        source,
    })?;
    if actual != recorded {
        return Err(ShardError::HashMismatch {
            id: spec.id,
            dir,
            recorded: recorded.to_string(),
            actual,
        });
    }
    Ok(())
}

/// Merge every shard of the plan in `plan_dir` into full experiment
/// results by streaming: one shard-bundle at a time, site by site,
/// folded in rank (= id) order. Every shard must have been crawled to
/// completion ([`crate::runner::crawl_shard`]); each bundle's content
/// hash and per-record checksums are verified as it is read, and any
/// corruption surfaces as an error naming the shard and the exact
/// location inside its archive.
pub fn merge_shards(exp: &Experiment, plan_dir: &Path) -> Result<MergedRun, ShardError> {
    let _span = wmtree_telemetry::span("shard.merge");
    let mut fold = exp.fold();

    let plan = ShardPlan::load(plan_dir)?;
    plan.check_experiment(exp)?;

    let peak_gauge = wmtree_telemetry::gauge!("shard.pages.in_memory.peak");
    let mut peak: usize = 0;

    for spec in &plan.shards {
        let _shard_span = wmtree_telemetry::span("shard.merge.fold");
        check_hash(plan_dir, spec)?;
        let dir = plan_dir.join(&spec.dir);
        let located = |source| ShardError::Shard {
            id: spec.id,
            dir: dir.clone(),
            source,
        };

        let bundle = Manifest::load(&dir).map_err(located)?;
        if !bundle.complete {
            return Err(ShardError::NotCrawled { id: spec.id });
        }

        // Each shard carries its own tree cache next to its bundle, and
        // is read through it: a re-merge over unchanged shards decodes
        // only visit headers and builds no tree — and the fold stays
        // byte-identical to the cold path.
        let cache =
            AnalysisCache::open(&dir.join(wmtree::tree::cache::CACHE_DIR_NAME), exp.config());
        let pages = fold.add_bundle(&dir, Some(&cache)).map_err(located)?;
        peak = peak.max(pages);
        peak_gauge.set(peak as i64);
        wmtree_telemetry::counter!("shard.merges.folded").inc();
    }

    let run = fold
        .finish(None)
        .map_err(|source| ShardError::Merge { source })?;
    let mut results = run.results;
    results.manifest.label += &format!(", merged from {} shards", plan.shards.len());
    Ok(MergedRun {
        digest: digest_of(&results),
        results,
        peak_shard_pages: peak,
        sites_rebuilt: run.sites_rebuilt,
        sites_reused: run.sites_reused,
    })
}

/// The totals digest of merged results.
fn digest_of(results: &ExperimentResults) -> MergeDigest {
    MergeDigest {
        pages: results.data.pages.len(),
        pages_discovered: results.pages_discovered,
        successful_visits: results.successful_visits,
        vetted_sites: results.vetted_sites,
        per_profile: results
            .profile_stats
            .iter()
            .map(|s| (s.attempted, s.succeeded))
            .collect(),
    }
}
