//! The shard runner: crawl one shard's rank window into its own
//! resumable bundle.
//!
//! Each shard is an independent `Commander::record_window` over a
//! contiguous site window, so shards can run as separate OS processes
//! (each invoking `repro --shard-id K` on its own) or as scoped threads
//! in one process. A shard interrupted mid-crawl resumes from its
//! bundle's last checkpoint; the finished bundle is byte-identical to
//! an uninterrupted run, which is what lets the plan record a single
//! content hash per shard.

use crate::error::ShardError;
use crate::plan::ShardPlan;
use std::path::Path;
use wmtree::Experiment;
use wmtree_bundle::bundle_content_hash;
use wmtree_crawler::ResumableOutcome;

/// Outcome of one [`crawl_shard`] invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardCrawl {
    /// The shard's window is fully crawled; its content hash is now
    /// recorded in `SHARDS.json`.
    Complete {
        /// Visit records in the shard's bundle.
        visits: u64,
        /// The recorded bundle content hash (hex).
        bundle_hash: String,
    },
    /// A site cap stopped the crawl early; re-invoke to resume.
    Partial {
        /// Sites checkpointed so far (within this shard's window).
        sites_done: usize,
        /// Sites in this shard's window.
        sites_total: usize,
    },
}

/// Crawl (or resume) shard `id` of the plan in `plan_dir` into its
/// bundle directory. On completion the bundle's content hash is
/// recorded into `SHARDS.json` (atomically, touching only this shard's
/// entry, so concurrent processes crawling other shards are safe).
/// `max_sites` caps how many sites this invocation crawls.
pub fn crawl_shard(
    exp: &Experiment,
    plan_dir: &Path,
    id: usize,
    max_sites: Option<usize>,
) -> Result<ShardCrawl, ShardError> {
    let _span = wmtree_telemetry::span("shard.crawl");
    let plan = ShardPlan::load(plan_dir)?;
    plan.check_experiment(exp)?;
    let spec = plan.shard(id)?;
    let dir = plan_dir.join(&spec.dir);
    let outcome = exp
        .crawl_window_to_bundle(spec.site_lo, spec.site_hi, &dir, max_sites)
        .map_err(|source| ShardError::Shard {
            id,
            dir: dir.clone(),
            source,
        })?;
    match outcome {
        ResumableOutcome::Complete { manifest, .. } => {
            let hash = bundle_content_hash(&dir).map_err(|source| ShardError::Shard {
                id,
                dir: dir.clone(),
                source,
            })?;
            ShardPlan::record_bundle_hash(plan_dir, id, hash.clone())?;
            wmtree_telemetry::counter!("shard.crawls.completed").inc();
            Ok(ShardCrawl::Complete {
                visits: manifest.visit_records,
                bundle_hash: hash,
            })
        }
        ResumableOutcome::Partial {
            sites_done,
            sites_total,
            ..
        } => Ok(ShardCrawl::Partial {
            sites_done,
            sites_total,
        }),
    }
}

/// Crawl every shard of the plan that has no recorded bundle hash yet,
/// in id order, to completion. The single-process way to produce a
/// whole sharded corpus (a multi-process run invokes [`crawl_shard`]
/// per process instead).
pub fn crawl_remaining_shards(exp: &Experiment, plan_dir: &Path) -> Result<usize, ShardError> {
    let plan = ShardPlan::load(plan_dir)?;
    plan.check_experiment(exp)?;
    let mut crawled = 0;
    for spec in &plan.shards {
        if spec.bundle_hash.is_some() {
            continue;
        }
        match crawl_shard(exp, plan_dir, spec.id, None)? {
            ShardCrawl::Complete { .. } => crawled += 1,
            ShardCrawl::Partial {
                sites_done,
                sites_total,
            } => {
                // Uncapped crawls always run their window to the end.
                return Err(ShardError::Plan {
                    detail: format!(
                        "shard {} stopped at {sites_done}/{sites_total} without a cap",
                        spec.id
                    ),
                });
            }
        }
    }
    Ok(crawled)
}
