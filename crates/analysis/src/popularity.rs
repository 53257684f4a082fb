//! Appendix F / Table 7: implications of site popularity (rank buckets).

use crate::node_similarity::PageNodeSimilarities;
use crate::ExperimentData;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use wmtree_stats::kruskal::{kruskal_wallis, KruskalResult};

/// One row of Table 7.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BucketRow {
    /// Bucket label (e.g. `1-5k`).
    pub bucket: String,
    /// Mean nodes per tree.
    pub mean_nodes: f64,
    /// Mean child similarity.
    pub child_sim: f64,
    /// Mean parent similarity.
    pub parent_sim: f64,
    /// Number of pages in the bucket.
    pub pages: usize,
}

/// Table 7 plus the Kruskal-Wallis tests the appendix reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PopularityAnalysis {
    /// Per-bucket rows, in rank order when the labels allow it.
    pub rows: Vec<BucketRow>,
    /// Kruskal-Wallis: total nodes vs bucket.
    pub nodes_test: Option<KruskalResult>,
    /// Kruskal-Wallis: child similarity vs bucket.
    pub child_sim_test: Option<KruskalResult>,
    /// Kruskal-Wallis: parent similarity vs bucket.
    pub parent_sim_test: Option<KruskalResult>,
}

/// Compute Table 7. Pages without a bucket label are skipped.
pub fn popularity(data: &ExperimentData, sims: &[PageNodeSimilarities]) -> PopularityAnalysis {
    // bucket → (node counts per tree, child sims, parent sims)
    #[derive(Default)]
    struct Acc {
        nodes: Vec<f64>,
        child: Vec<f64>,
        parent: Vec<f64>,
        pages: usize,
    }
    let mut buckets: BTreeMap<std::sync::Arc<str>, Acc> = BTreeMap::new();
    // Keep the paper's bucket ordering.
    let order = [
        "1-5k",
        "5,001-10k",
        "10,001-50k",
        "50,001-250k",
        "250,001-500k",
    ];

    for ((page, summary), sim) in data.pages.iter().zip(data.summaries()).zip(sims) {
        let Some(bucket) = &page.bucket else { continue };
        let acc = buckets.entry(std::sync::Arc::clone(bucket)).or_default();
        acc.pages += 1;
        for tree in &summary.trees {
            acc.nodes.push((tree.metrics().nodes - 1) as f64);
        }
        for n in &sim.nodes {
            if let Some(s) = n.child_similarity {
                acc.child.push(s);
            }
            if let Some(s) = n.parent_similarity {
                acc.parent.push(s);
            }
        }
    }

    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let mut rows: Vec<BucketRow> = buckets
        .iter()
        .map(|(b, acc)| BucketRow {
            bucket: b.to_string(),
            mean_nodes: mean(&acc.nodes),
            child_sim: mean(&acc.child),
            parent_sim: mean(&acc.parent),
            pages: acc.pages,
        })
        .collect();
    rows.sort_by_key(|r| {
        order
            .iter()
            .position(|o| *o == r.bucket)
            .unwrap_or(usize::MAX)
    });

    let groups = |f: fn(&Acc) -> &Vec<f64>| -> Vec<&[f64]> {
        buckets.values().map(|a| f(a).as_slice()).collect()
    };
    let test = |gs: Vec<&[f64]>| {
        if gs.len() >= 2 && gs.iter().all(|g| !g.is_empty()) {
            kruskal_wallis(&gs).ok()
        } else {
            None
        }
    };

    PopularityAnalysis {
        rows,
        nodes_test: test(groups(|a| &a.nodes)),
        child_sim_test: test(groups(|a| &a.child)),
        parent_sim_test: test(groups(|a| &a.parent)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::testutil::experiment;
    use crate::node_similarity::analyze_all;

    #[test]
    fn table7_shape() {
        let data = experiment();
        let sims = analyze_all(data);
        let pop = popularity(data, &sims);
        assert_eq!(pop.rows.len(), 5, "{:?}", pop.rows);
        // Bucket order follows the paper.
        assert_eq!(pop.rows[0].bucket, "1-5k");
        assert_eq!(pop.rows[4].bucket, "250,001-500k");
        // Popular sites have larger trees (paper: 448 vs 369 — the
        // direction, not the magnitude, is the claim).
        assert!(
            pop.rows[0].mean_nodes > pop.rows[4].mean_nodes,
            "top {} vs tail {}",
            pop.rows[0].mean_nodes,
            pop.rows[4].mean_nodes
        );
        // Similarities nearly flat across buckets.
        let sims_range = pop
            .rows
            .iter()
            .map(|r| r.child_sim)
            .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(v), hi.max(v)));
        assert!(sims_range.1 - sims_range.0 < 0.2, "{sims_range:?}");
        // Tests computed.
        assert!(pop.nodes_test.is_some());
        if let Some(t) = &pop.nodes_test {
            // Effect size present and bounded.
            assert!(t.epsilon_squared >= 0.0);
        }
    }

    #[test]
    fn pages_without_bucket_are_skipped() {
        let data = ExperimentData {
            profile_names: vec!["a".into()],
            pages: vec![],
        };
        let pop = popularity(&data, &[]);
        assert!(pop.rows.is_empty());
        assert!(pop.nodes_test.is_none());
    }
}
