//! Cross-tree comparison engine — every table and figure of the paper.
//!
//! The input is an [`ExperimentData`]: for each vetted page (crawled
//! successfully by *all* profiles), the five dependency trees plus the
//! cookies each profile observed. On top of it this crate implements the
//! paper's complete analysis suite:
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`node_similarity`] | per-node child/parent similarities & chains (§4.1–§4.2, Fig. 2) |
//! | [`presence`] | Table 2 (tree overview, node presence) |
//! | [`distributions`] | Fig. 1 (depth×breadth), Fig. 8 (children per depth) |
//! | [`depth_similarity`] | Table 3, Fig. 4 |
//! | [`composition`] | Fig. 3 (node types per depth) |
//! | [`chains`] | Table 4a/4b (dependency-chain stability by type) |
//! | [`type_similarity`] | Fig. 5a/5b, Fig. 7 |
//! | [`profiles`] | Table 5, Table 6 (per-profile / vs-Sim1 deltas) |
//! | [`unique_nodes`] | §5.1 case study |
//! | [`cookies`] | §5.2 case study |
//! | [`tracking`] | §5.3 case study |
//! | [`popularity`] | Table 7 (rank buckets + Kruskal-Wallis) |
//! | [`stability`] | the §8 future-work variance metrics (stability index, accumulation curves) |
//! | [`significance`] | the Wilcoxon / Mann-Whitney / Kruskal-Wallis calls in §4 |
//! | [`summary`] | every page's inputs to the data-side artifacts above, computed once |
//!
//! Every result type is `serde`-serializable so the bench harness can
//! export the reproduced tables alongside the paper's values.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chains;
pub mod composition;
pub mod cookies;
pub mod data;
pub mod depth_similarity;
pub mod distributions;
pub mod index;
pub mod node_similarity;
pub mod partial;
pub mod popularity;
pub mod presence;
pub mod profiles;
pub mod significance;
pub mod stability;
pub mod summary;
pub mod tracking;
pub mod type_similarity;
pub mod unique_nodes;

pub use data::{CookieObservation, ExperimentData, PageAnalysis};
pub use node_similarity::{NodeSimilarity, PageNodeSimilarities};
pub use partial::{MergeDigest, MergedAnalysis, PartialAccumulators, PartialMergeError};
pub use summary::Roles;
