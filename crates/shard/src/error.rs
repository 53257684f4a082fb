//! The shard error type.
//!
//! Every failure names the shard it happened in and, where one exists,
//! the exact artifact location — a multi-process Huge run is only
//! operable if an error says *which* shard (and which file inside it)
//! went wrong.

use std::path::PathBuf;
use wmtree_analysis::PartialMergeError;
use wmtree_bundle::BundleError;

/// Why a shard operation failed.
#[derive(Debug)]
pub enum ShardError {
    /// Underlying I/O failure, with the path being touched.
    Io {
        /// The file or directory the operation was touching.
        path: PathBuf,
        /// The operating-system error.
        source: std::io::Error,
    },
    /// `SHARDS.json` failed to parse or serialize.
    Json {
        /// The manifest path.
        path: PathBuf,
        /// The underlying JSON error.
        source: serde_json::Error,
    },
    /// The plan itself is malformed (empty universe, or shards that do
    /// not partition it — the detail names the shard).
    Plan {
        /// What is wrong with it.
        detail: String,
    },
    /// The plan on disk was made under a different experiment than the
    /// one it is being run or merged with.
    ConfigMismatch {
        /// Which parameter disagreed (e.g. `universe_seed`).
        field: String,
        /// The planned value.
        planned: String,
        /// The value of the experiment in hand.
        actual: String,
    },
    /// A shard id outside the plan.
    UnknownShard {
        /// The requested shard id.
        id: usize,
        /// How many shards the plan has.
        n_shards: usize,
    },
    /// A bundle operation failed inside one shard — the located error
    /// (segment / line / offset for corruption) wrapped with the shard
    /// that owns the archive.
    Shard {
        /// The shard id.
        id: usize,
        /// The shard's bundle directory.
        dir: PathBuf,
        /// The underlying bundle error.
        source: BundleError,
    },
    /// A shard bundle's content hash disagrees with the hash recorded
    /// in `SHARDS.json` — the archive changed after it was recorded.
    HashMismatch {
        /// The shard id.
        id: usize,
        /// The shard's bundle directory.
        dir: PathBuf,
        /// The hash `SHARDS.json` records.
        recorded: String,
        /// The hash the archive has now.
        actual: String,
    },
    /// A merge was requested but a shard was never crawled to
    /// completion (no bundle hash recorded).
    NotCrawled {
        /// The shard id.
        id: usize,
    },
    /// Partial accumulators refused to merge (roster mismatch or
    /// overlapping shards).
    Merge {
        /// The underlying merge error.
        source: PartialMergeError,
    },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Io { path, source } => {
                write!(f, "i/o error at {}: {source}", path.display())
            }
            ShardError::Json { path, source } => {
                write!(f, "malformed {}: {source}", path.display())
            }
            ShardError::Plan { detail } => write!(f, "invalid shard plan: {detail}"),
            ShardError::ConfigMismatch {
                field,
                planned,
                actual,
            } => write!(
                f,
                "plan/experiment mismatch in {field}: planned {planned}, experiment has {actual}"
            ),
            ShardError::UnknownShard { id, n_shards } => {
                write!(f, "shard {id} not in plan (plan has {n_shards} shards)")
            }
            ShardError::Shard { id, dir, source } => {
                write!(f, "shard {id} ({}): {source}", dir.display())
            }
            ShardError::HashMismatch {
                id,
                dir,
                recorded,
                actual,
            } => write!(
                f,
                "shard {id} ({}): bundle hash {actual} does not match recorded {recorded}",
                dir.display()
            ),
            ShardError::NotCrawled { id } => {
                write!(
                    f,
                    "shard {id} has no recorded bundle (not crawled to completion)"
                )
            }
            ShardError::Merge { source } => write!(f, "merge failed: {source}"),
        }
    }
}

impl std::error::Error for ShardError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShardError::Io { source, .. } => Some(source),
            ShardError::Json { source, .. } => Some(source),
            ShardError::Shard { source, .. } => Some(source),
            ShardError::Merge { source } => Some(source),
            _ => None,
        }
    }
}
