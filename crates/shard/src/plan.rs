//! The shard plan: a deterministic partition of the universe by
//! site-rank range, persisted as `SHARDS.json`.
//!
//! The universe's site list is sorted by rank, so a rank-range shard is
//! a contiguous site-index window `[site_lo, site_hi)`. The plan binds
//! shard id → rank range → bundle directory → bundle content hash; the
//! hash is recorded only once a shard's crawl completes, so the
//! manifest doubles as the progress ledger of a multi-process run.

use crate::error::ShardError;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use wmtree::Experiment;

/// File name of the shard manifest inside a shard directory.
pub const SHARDS_FILE: &str = "SHARDS.json";

/// Current `SHARDS.json` schema version.
pub const SHARDS_VERSION: u32 = 1;

/// One shard: a contiguous rank range of the universe.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardSpec {
    /// Dense shard id (`0..n`), which is also rank order.
    pub id: usize,
    /// Rank of the shard's first site (inclusive).
    pub rank_lo: u32,
    /// Rank of the shard's last site (inclusive).
    pub rank_hi: u32,
    /// First site index of the window (inclusive; the universe's site
    /// list is rank-sorted).
    pub site_lo: usize,
    /// One past the last site index of the window.
    pub site_hi: usize,
    /// Bundle directory of this shard, relative to the plan directory
    /// (e.g. `shard-000`).
    pub dir: String,
    /// Content hash of the shard's completed bundle; `None` until the
    /// shard has been crawled to completion.
    pub bundle_hash: Option<String>,
}

impl ShardSpec {
    /// Number of sites in the window.
    pub fn sites(&self) -> usize {
        self.site_hi - self.site_lo
    }
}

/// Which partition rule a [`PlanDefect`] breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefectKind {
    /// The site windows do not cover `[0, total_sites)` contiguously
    /// with non-empty windows, or the rank ranges are not ascending and
    /// disjoint.
    Coverage,
    /// The shard ids are not dense `0..n` in rank order.
    Ids,
}

/// One way a plan fails to partition the universe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanDefect {
    /// The rule broken.
    pub kind: DefectKind,
    /// Position of the offending shard in the plan; `None` for the plan
    /// as a whole.
    pub shard: Option<usize>,
    /// What is wrong.
    pub detail: String,
}

/// The whole plan: experiment identity plus the shard partition.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardPlan {
    /// Schema version ([`SHARDS_VERSION`]).
    pub version: u32,
    /// Universe seed the shards were planned for.
    pub universe_seed: u64,
    /// Experiment seed (drives visit seeds).
    pub experiment_seed: u64,
    /// Profile names, in Table 1 order.
    pub profiles: Vec<String>,
    /// Total sites in the universe (the windows cover `[0, total)`).
    pub total_sites: usize,
    /// The shards, in id (= rank) order.
    pub shards: Vec<ShardSpec>,
}

impl ShardPlan {
    /// Partition an experiment's universe into `n` shards of
    /// near-equal site count (the first `total % n` shards get one
    /// extra site). `n` is clamped to `[1, total_sites]` so every
    /// shard is non-empty.
    pub fn new(exp: &Experiment, n: usize) -> Result<ShardPlan, ShardError> {
        let sites = exp.universe().sites();
        let total = sites.len();
        if total == 0 {
            return Err(ShardError::Plan {
                detail: "universe has no sites".into(),
            });
        }
        let n = n.clamp(1, total);
        let shards = (0..n)
            .map(|k| {
                let site_lo = k * total / n;
                let site_hi = (k + 1) * total / n;
                ShardSpec {
                    id: k,
                    rank_lo: sites[site_lo].rank,
                    rank_hi: sites[site_hi - 1].rank,
                    site_lo,
                    site_hi,
                    dir: format!("shard-{k:03}"),
                    bundle_hash: None,
                }
            })
            .collect();
        Ok(ShardPlan {
            version: SHARDS_VERSION,
            universe_seed: exp.config().universe.seed,
            experiment_seed: exp.config().experiment_seed,
            profiles: exp
                .config()
                .profiles
                .iter()
                .map(|p| p.name.clone())
                .collect(),
            total_sites: total,
            shards,
        })
    }

    /// Path of the manifest inside a plan directory.
    pub fn path_in(dir: &Path) -> PathBuf {
        dir.join(SHARDS_FILE)
    }

    /// Whether a plan exists in `dir`.
    pub fn exists(dir: &Path) -> bool {
        Self::path_in(dir).is_file()
    }

    /// Load the plan from `dir`.
    pub fn load(dir: &Path) -> Result<ShardPlan, ShardError> {
        let path = Self::path_in(dir);
        let text = std::fs::read_to_string(&path).map_err(|source| ShardError::Io {
            path: path.clone(),
            source,
        })?;
        serde_json::from_str(&text).map_err(|source| ShardError::Json { path, source })
    }

    /// Store the plan into `dir` (created if absent), replacing
    /// [`SHARDS_FILE`] atomically so a crash never leaves a torn
    /// manifest.
    pub fn store(&self, dir: &Path) -> Result<(), ShardError> {
        std::fs::create_dir_all(dir).map_err(|source| ShardError::Io {
            path: dir.to_path_buf(),
            source,
        })?;
        let path = Self::path_in(dir);
        let body = serde_json::to_string_pretty(self).map_err(|source| ShardError::Json {
            path: path.clone(),
            source,
        })?;
        wmtree_bundle::atomic_replace(&path, body.as_bytes())
            .map_err(|source| ShardError::Io { path, source })
    }

    /// The shard with a given id.
    pub fn shard(&self, id: usize) -> Result<&ShardSpec, ShardError> {
        self.shards.get(id).ok_or(ShardError::UnknownShard {
            id,
            n_shards: self.shards.len(),
        })
    }

    /// Every way the shards fail to partition the universe: ids must be
    /// dense `0..n` in order, and the site windows non-empty, contiguous
    /// and covering `[0, total_sites)`, with ascending, disjoint rank
    /// ranges. Empty for a plan [`ShardPlan::new`] made.
    pub fn partition_defects(&self) -> Vec<PlanDefect> {
        use DefectKind::{Coverage, Ids};
        let n = self.shards.len();
        let mut out = Vec::new();
        if n == 0 {
            out.push(PlanDefect {
                kind: Coverage,
                shard: None,
                detail: "plan has no shards".into(),
            });
        }
        for (i, s) in self.shards.iter().enumerate() {
            let (lo, hi, rank_lo, rank_hi) = (s.site_lo, s.site_hi, s.rank_lo, s.rank_hi);
            let mut check = |ok: bool, kind, detail: String| {
                if !ok {
                    out.push(PlanDefect {
                        kind,
                        shard: Some(i),
                        detail,
                    });
                }
            };
            check(
                s.id == i,
                Ids,
                format!("ids must be dense 0..{n}, found {}", s.id),
            );
            check(lo < hi, Coverage, format!("empty site window [{lo}, {hi})"));
            let inverted = format!("inverted rank range [{rank_lo}, {rank_hi}]");
            check(rank_lo <= rank_hi, Coverage, inverted);
            match i.checked_sub(1).map(|p| &self.shards[p]) {
                None => check(lo == 0, Coverage, format!("starts at site {lo}, not 0")),
                Some(prev) => {
                    let (end, last_rank) = (prev.site_hi, prev.rank_hi);
                    let gap = format!("site window starts at {lo}, shard {} ends at {end}", i - 1);
                    check(end == lo, Coverage, gap);
                    let overlap =
                        format!("rank {rank_lo} overlaps shard {}, up to {last_rank}", i - 1);
                    check(last_rank < rank_lo, Coverage, overlap);
                }
            }
            if i + 1 == n {
                let uncovered = format!("ends at site {hi}, universe has {}", self.total_sites);
                check(hi == self.total_sites, Coverage, uncovered);
            }
        }
        out
    }

    /// Check the plan was made for this experiment — same universe,
    /// seeds, and profile roster — and partitions its universe
    /// ([`partition_defects`](ShardPlan::partition_defects); the first
    /// defect is the error, naming its shard). A shard bundle crawled
    /// under one experiment must never be merged under another, and a
    /// window outside the universe must never be crawled.
    pub fn check_experiment(&self, exp: &Experiment) -> Result<(), ShardError> {
        let mismatch = |field: &str, planned: String, actual: String| {
            Err(ShardError::ConfigMismatch {
                field: field.into(),
                planned,
                actual,
            })
        };
        if self.version != SHARDS_VERSION {
            return mismatch(
                "version",
                self.version.to_string(),
                SHARDS_VERSION.to_string(),
            );
        }
        let cfg = exp.config();
        if self.universe_seed != cfg.universe.seed {
            return mismatch(
                "universe_seed",
                self.universe_seed.to_string(),
                cfg.universe.seed.to_string(),
            );
        }
        if self.experiment_seed != cfg.experiment_seed {
            return mismatch(
                "experiment_seed",
                self.experiment_seed.to_string(),
                cfg.experiment_seed.to_string(),
            );
        }
        let names: Vec<String> = cfg.profiles.iter().map(|p| p.name.clone()).collect();
        if self.profiles != names {
            return mismatch(
                "profiles",
                format!("{:?}", self.profiles),
                format!("{names:?}"),
            );
        }
        let total = exp.universe().sites().len();
        if self.total_sites != total {
            return mismatch(
                "total_sites",
                self.total_sites.to_string(),
                total.to_string(),
            );
        }
        match self.partition_defects().into_iter().next() {
            None => Ok(()),
            Some(PlanDefect {
                shard: Some(i),
                detail,
                ..
            }) => Err(ShardError::Plan {
                detail: format!("shard {i}: {detail}"),
            }),
            Some(PlanDefect { detail, .. }) => Err(ShardError::Plan { detail }),
        }
    }

    /// Record the completed bundle's content hash for one shard:
    /// re-load the manifest from disk, set the hash, and store it back
    /// atomically. Re-loading (rather than writing `self`) lets
    /// multiple OS processes crawl different shards of one plan — each
    /// records only its own shard's hash.
    pub fn record_bundle_hash(
        plan_dir: &Path,
        id: usize,
        hash: String,
    ) -> Result<ShardPlan, ShardError> {
        let mut plan = ShardPlan::load(plan_dir)?;
        let n_shards = plan.shards.len();
        let spec = plan
            .shards
            .get_mut(id)
            .ok_or(ShardError::UnknownShard { id, n_shards })?;
        spec.bundle_hash = Some(hash);
        plan.store(plan_dir)?;
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmtree::{ExperimentConfig, Scale};

    fn exp() -> Experiment {
        Experiment::new(ExperimentConfig::at_scale(Scale::Tiny))
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wmtree-shard-plan-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn windows_partition_the_universe() {
        let exp = exp();
        let total = exp.universe().sites().len();
        for n in [1, 2, 3, 5, 7, total, total + 10] {
            let plan = ShardPlan::new(&exp, n).expect("plan");
            assert_eq!(plan.shards.len(), n.clamp(1, total), "n={n}");
            assert_eq!(plan.shards[0].site_lo, 0);
            assert_eq!(plan.shards.last().expect("non-empty").site_hi, total);
            for w in plan.shards.windows(2) {
                assert_eq!(w[0].site_hi, w[1].site_lo, "contiguous");
                assert!(w[0].rank_hi < w[1].rank_lo, "rank ranges disjoint");
            }
            for (i, s) in plan.shards.iter().enumerate() {
                assert_eq!(s.id, i, "dense ids");
                assert!(s.sites() > 0, "non-empty shards");
            }
            assert_eq!(plan.partition_defects(), [], "n={n}");
        }
    }

    #[test]
    fn partition_defects_name_every_broken_rule() {
        let plan = ShardPlan::new(&exp(), 3).expect("plan");
        let mut bad = plan.clone();
        bad.shards[1].rank_lo = bad.shards[0].rank_hi;
        bad.shards[2].site_lo += 1;
        bad.shards[2].id = 9;
        let found: Vec<(DefectKind, Option<usize>)> = bad
            .partition_defects()
            .iter()
            .map(|d| (d.kind, d.shard))
            .collect();
        assert_eq!(
            found,
            [
                (DefectKind::Coverage, Some(1)),
                (DefectKind::Ids, Some(2)),
                (DefectKind::Coverage, Some(2)),
            ]
        );

        let mut empty = plan;
        empty.shards.clear();
        assert_eq!(empty.partition_defects()[0].detail, "plan has no shards");
    }

    #[test]
    fn plan_roundtrips_and_records_hashes() {
        let exp = exp();
        let dir = tmp("roundtrip");
        let plan = ShardPlan::new(&exp, 3).expect("plan");
        plan.store(&dir).expect("store");
        assert!(ShardPlan::exists(&dir));
        assert_eq!(ShardPlan::load(&dir).expect("load"), plan);

        let updated =
            ShardPlan::record_bundle_hash(&dir, 1, "0123456789abcdef".into()).expect("record");
        assert_eq!(
            updated.shards[1].bundle_hash.as_deref(),
            Some("0123456789abcdef")
        );
        assert_eq!(updated.shards[0].bundle_hash, None);
        assert_eq!(ShardPlan::load(&dir).expect("reload"), updated);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_experiment_is_rejected() {
        let exp = exp();
        let plan = ShardPlan::new(&exp, 2).expect("plan");
        plan.check_experiment(&exp).expect("same experiment passes");
        let other = Experiment::new(ExperimentConfig::at_scale(Scale::Tiny).with_seed(99));
        let err = plan.check_experiment(&other).expect_err("must reject");
        assert!(
            matches!(err, ShardError::ConfigMismatch { ref field, .. } if field == "universe_seed"),
            "{err}"
        );
    }

    #[test]
    fn unknown_shard_is_located() {
        let exp = exp();
        let plan = ShardPlan::new(&exp, 2).expect("plan");
        let err = plan.shard(7).expect_err("out of range");
        assert_eq!(err.to_string(), "shard 7 not in plan (plan has 2 shards)");
    }
}
