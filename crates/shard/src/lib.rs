//! `wmtree-shard` — out-of-core sharded crawl + streaming merge
//! analysis at paper scale.
//!
//! The paper's corpus is ~1.7M page visits ([`Scale::Huge`]); one
//! in-memory `CrawlDb` cannot hold it. This crate turns one experiment
//! into N independent **site-rank-range shards**:
//!
//! 1. **Plan** — [`ShardPlan::new`] partitions the rank-sorted
//!    universe into contiguous windows and persists `SHARDS.json`
//!    binding shard id → rank range → bundle content hash.
//! 2. **Run** — [`crawl_shard`] crawls one window resumably into its
//!    own record/replay bundle (`wmtree-bundle`); shards run as
//!    separate OS processes (`repro --shard-id K`) or sequentially via
//!    [`crawl_remaining_shards`]. On completion the bundle's content
//!    hash is recorded into the plan.
//! 3. **Merge** — [`merge_shards`] streams the analysis: one shard
//!    at a time, each replayed site by site, folded in rank order
//!    through the same [`Fold`] every other mode uses, finishing into
//!    results byte-identical to a monolithic single-process run — same
//!    report, same CSVs, same totals.
//!
//! No shard is held whole: besides the fold state, the merge holds the
//! sites between the bundle loader and the fold. The
//! `shard.pages.in_memory.peak` telemetry gauge (and
//! [`MergedRun::peak_shard_pages`]) report the largest shard's pages.
//!
//! [`Scale::Huge`]: wmtree::Scale::Huge
//! [`Fold`]: wmtree::Fold

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod merge;
pub mod plan;
pub mod runner;

pub use error::ShardError;
pub use merge::{merge_shards, MergedRun};
pub use plan::{DefectKind, PlanDefect, ShardPlan, ShardSpec, SHARDS_FILE, SHARDS_VERSION};
pub use runner::{crawl_remaining_shards, crawl_shard, ShardCrawl};
