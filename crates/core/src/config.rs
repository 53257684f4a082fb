//! Experiment configuration and scale presets.

use serde::{Deserialize, Serialize};
use wmtree_crawler::Profile;
use wmtree_tree::TreeConfig;
use wmtree_webgen::UniverseConfig;

/// How large an experiment to run. The paper's full run is 25k sites ×
/// ≤25 pages × 5 profiles ≈ 1.7M visits; the presets scale that down so
/// the same pipeline runs on a laptop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scale {
    /// ~30 sites, 4 pages each — unit-test scale (seconds).
    Tiny,
    /// ~150 sites, 8 pages each — the default for the `repro` harness.
    Small,
    /// ~750 sites, 15 pages each — minutes.
    Medium,
    /// ~2.5k sites, 25 pages each — the largest single-process preset.
    Large,
    /// 25k sites, 25 pages each — the paper's full corpus (~1.7M page
    /// visits across 5 profiles). Meant to be produced piecemeal as
    /// rank-range shards (`wmtree-shard`) and analyzed by streaming
    /// merge, never held in one in-memory `CrawlDb`.
    Huge,
}

impl Scale {
    /// Sites per rank bucket for this scale.
    pub fn sites_per_bucket(self) -> [usize; 5] {
        match self {
            Scale::Tiny => [10, 5, 5, 5, 5],
            Scale::Small => [50, 25, 25, 25, 25],
            Scale::Medium => [150, 150, 150, 150, 150],
            Scale::Large => [500, 500, 500, 500, 500],
            Scale::Huge => [5000, 5000, 5000, 5000, 5000],
        }
    }

    /// Maximum pages crawled per site.
    pub fn max_pages(self) -> usize {
        match self {
            Scale::Tiny => 4,
            Scale::Small => 8,
            Scale::Medium => 15,
            Scale::Large | Scale::Huge => 25,
        }
    }

    /// Every scale name [`Scale::parse`] accepts, in size order.
    pub const NAMES: [&'static str; 5] = ["tiny", "small", "medium", "large", "huge"];

    /// The name of this scale, as [`Scale::parse`] spells it.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Medium => "medium",
            Scale::Large => "large",
            Scale::Huge => "huge",
        }
    }

    /// Parse a scale name as the `repro` CLI spells it. The error
    /// enumerates every valid name, so a typo is self-correcting.
    pub fn parse(name: &str) -> Result<Scale, ScaleParseError> {
        match name {
            "tiny" => Ok(Scale::Tiny),
            "small" => Ok(Scale::Small),
            "medium" => Ok(Scale::Medium),
            "large" => Ok(Scale::Large),
            "huge" => Ok(Scale::Huge),
            _ => Err(ScaleParseError {
                name: name.to_string(),
            }),
        }
    }
}

/// A scale name [`Scale::parse`] did not recognize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScaleParseError {
    name: String,
}

impl std::fmt::Display for ScaleParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown scale {:?} (valid scales: {})",
            self.name,
            Scale::NAMES.join(", ")
        )
    }
}

impl std::error::Error for ScaleParseError {}

/// Full configuration of one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Synthetic-web universe parameters.
    pub universe: UniverseConfig,
    /// Browser profiles (defaults to the paper's Table 1 set).
    pub profiles: Vec<Profile>,
    /// Maximum pages per site (paper: 25).
    pub max_pages_per_site: usize,
    /// Worker threads of the one ordered site loop that crawls, records
    /// and replays: each worker crawls a site (in a replay, decodes it)
    /// and runs the per-site stage on it — trees, page indexes, node
    /// similarities and page summaries — while the calling thread folds
    /// the results in site order. Results are identical for any value.
    pub workers: usize,
    /// Experiment seed (drives visit seeds).
    pub experiment_seed: u64,
    /// Use failure-free browsers (isolates content variance).
    pub reliable: bool,
    /// Dependency-tree construction options.
    pub tree: TreeConfig,
    /// Classify tracking requests with the embedded filter list.
    pub use_filter_list: bool,
}

impl ExperimentConfig {
    /// The paper's setup at a given scale.
    pub fn at_scale(scale: Scale) -> ExperimentConfig {
        ExperimentConfig {
            universe: UniverseConfig {
                seed: 0x2023_11ac,
                sites_per_bucket: scale.sites_per_bucket(),
                max_subpages: scale.max_pages().max(5),
            },
            profiles: wmtree_crawler::standard_profiles(),
            max_pages_per_site: scale.max_pages(),
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            experiment_seed: 0x1317,
            reliable: false,
            tree: TreeConfig::default(),
            use_filter_list: true,
        }
    }

    /// Builder: change the universe seed (a different synthetic web).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.universe.seed = seed;
        self
    }

    /// Builder: failure-free crawling.
    pub fn reliable(mut self) -> Self {
        self.reliable = true;
        self
    }

    /// Builder: replace the profile set.
    pub fn with_profiles(mut self, profiles: Vec<Profile>) -> Self {
        self.profiles = profiles;
        self
    }
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig::at_scale(Scale::Small)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        let total = |s: Scale| s.sites_per_bucket().iter().sum::<usize>() * s.max_pages();
        assert!(total(Scale::Tiny) < total(Scale::Small));
        assert!(total(Scale::Small) < total(Scale::Medium));
        assert!(total(Scale::Medium) < total(Scale::Large));
        assert!(total(Scale::Large) < total(Scale::Huge));
        // Huge is the paper's corpus: 25k sites × ≤25 pages × 5
        // profiles ≈ 1.7M visit attempts upper bound (§3.1).
        assert_eq!(total(Scale::Huge), 25_000 * 25);
    }

    #[test]
    fn scale_names_parse() {
        for (name, scale) in [
            ("tiny", Scale::Tiny),
            ("small", Scale::Small),
            ("medium", Scale::Medium),
            ("large", Scale::Large),
            ("huge", Scale::Huge),
        ] {
            assert_eq!(Scale::parse(name), Ok(scale));
            assert_eq!(scale.name(), name);
        }
        assert!(Scale::parse("paper").is_err());
    }

    #[test]
    fn parse_error_enumerates_valid_names() {
        let err = Scale::parse("paper").expect_err("not a scale");
        let msg = err.to_string();
        assert!(msg.contains("\"paper\""), "names the bad input: {msg}");
        for name in Scale::NAMES {
            assert!(msg.contains(name), "must list {name:?}: {msg}");
        }
        // The listing order is the size order, so the message doubles
        // as documentation of the presets.
        let tiny = msg.find("tiny").unwrap();
        let huge = msg.find("huge").unwrap();
        assert!(tiny < huge, "sizes listed smallest-first: {msg}");
    }

    #[test]
    fn default_is_paper_shaped() {
        let c = ExperimentConfig::default();
        assert_eq!(c.profiles.len(), 5);
        assert_eq!(c.profiles[1].name, "Sim1");
        assert!(c.use_filter_list);
        assert!(c.tree.normalize_urls);
    }

    #[test]
    fn builders() {
        let c = ExperimentConfig::default().with_seed(9).reliable();
        assert_eq!(c.universe.seed, 9);
        assert!(c.reliable);
    }
}
