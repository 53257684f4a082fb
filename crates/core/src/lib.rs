//! `wmtree` — reproduction of *"On the Similarity of Web Measurements
//! Under Different Experimental Setups"* (Demir et al., ACM IMC 2023).
//!
//! This crate is the public face of the workspace: it wires the
//! synthetic web ([`wmtree_webgen`]), the browser engine
//! ([`wmtree_browser`]), the OpenWPM-like crawler ([`wmtree_crawler`]),
//! the dependency-tree builder ([`wmtree_tree`]), and the comparison
//! engine ([`wmtree_analysis`]) into a single experiment pipeline, and
//! renders every table and figure of the paper.
//!
//! # Quickstart
//!
//! ```
//! use wmtree::{Experiment, ExperimentConfig, Scale};
//!
//! // A laptop-scale run of the paper's five-profile measurement.
//! let config = ExperimentConfig::at_scale(Scale::Tiny);
//! let results = Experiment::new(config).run();
//! let report = wmtree::Report::generate(&results);
//!
//! // Table 2: tree overview (nodes / depth / breadth, node presence).
//! assert!(report.table2.nodes.mean > 10.0);
//! // Render the full paper-style report.
//! let text = report.render();
//! assert!(text.contains("Table 2"));
//! ```
//!
//! # Pipeline
//!
//! 1. [`WebUniverse::generate`](wmtree_webgen::WebUniverse::generate) —
//!    a deterministic rank-listed universe of sites.
//! 2. [`Commander::crawl`](wmtree_crawler::Commander::crawl), or
//!    `record` into a bundle — the semi-parallel five-profile crawl
//!    (Table 1 profiles). The worker that crawls a site runs the
//!    per-site stage ([`Experiment::accumulate`]) on it: vetting,
//!    dependency trees (§3.2) and the per-node analyses.
//! 3. [`Fold`] — the per-site results in universe order; replays feed
//!    it the same stage, taking unchanged sites' trees from an optional
//!    [`AnalysisCache`].
//! 4. [`Report::generate`] — every table/figure of §4, §5, and the
//!    appendices.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
mod config;
mod csv;
mod experiment;
pub mod incremental;
pub mod report;

pub use config::{ExperimentConfig, Scale, ScaleParseError};
pub use experiment::{BundleRun, Experiment, ExperimentResults, Fold};
pub use incremental::{
    accumulate_cached, cache_fingerprint, AnalysisCache, CachedAccumulation, IncrementalReplay,
};
pub use report::Report;

// Re-export the component crates for one-stop access.
pub use wmtree_analysis as analysis;
pub use wmtree_browser as browser;
pub use wmtree_bundle as bundle;
pub use wmtree_crawler as crawler;
pub use wmtree_filterlist as filterlist;
pub use wmtree_net as net;
pub use wmtree_stats as stats;
pub use wmtree_telemetry as telemetry;
pub use wmtree_tree as tree;
pub use wmtree_url as url;
pub use wmtree_webgen as webgen;
