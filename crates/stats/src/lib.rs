//! Nonparametric statistics for web-measurement comparison.
//!
//! Implements exactly the statistical toolkit the IMC'23 paper uses
//! (§3.1 and §3.2):
//!
//! * [`jaccard`] — the Jaccard index over sets, the pairwise-mean
//!   similarity of *k* sets, and the paper's high/medium/low similarity
//!   categories.
//! * [`wilcoxon::signed_rank`] — Wilcoxon signed-rank test for paired
//!   continuous variables.
//! * [`mannwhitney::u_test`] — Mann-Whitney U test for two independent
//!   samples.
//! * [`kruskal::kruskal_wallis`] — Kruskal-Wallis H test across multiple
//!   groups, plus the ε² effect size reported in Appendix F.
//! * [`descriptive`] — mean/SD/min/max/median summaries used in every
//!   table.
//! * [`histogram`] — 1-D and 2-D fixed-bin histograms used for Figures
//!   1, 2, and 8.
//!
//! All tests use a two-sided alternative and the normal / χ²
//! approximations with tie corrections, which is what SciPy computes for
//! sample sizes of measurement scale. The significance level used by the
//! paper is α = .05; we return p-values and leave thresholding to the
//! caller.
//!
//! # Example
//!
//! ```
//! use wmtree_stats::jaccard::{jaccard, SimilarityCategory};
//! use std::collections::BTreeSet;
//!
//! let a: BTreeSet<_> = ["a", "b", "c"].into_iter().collect();
//! let b: BTreeSet<_> = ["a", "c"].into_iter().collect();
//! let j = jaccard(&a, &b);
//! assert!((j - 2.0 / 3.0).abs() < 1e-12);
//! assert_eq!(SimilarityCategory::of(j), SimilarityCategory::Medium);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod descriptive;
pub mod dist;
pub mod histogram;
pub mod jaccard;
pub mod kruskal;
pub mod mannwhitney;
pub mod ranks;
pub mod spearman;
pub mod wilcoxon;

/// Significance level used throughout the paper (α = .05).
pub const ALPHA: f64 = 0.05;

/// Outcome of a hypothesis test: the statistic and its two-sided p-value.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TestResult {
    /// The test statistic (W, U, or H depending on the test).
    pub statistic: f64,
    /// Two-sided p-value.
    pub p_value: f64,
}

impl TestResult {
    /// Is the result significant at the paper's α = .05?
    pub fn significant(&self) -> bool {
        self.p_value < ALPHA
    }
}
