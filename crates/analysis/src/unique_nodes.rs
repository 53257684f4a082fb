//! §5.1 case study: unique nodes ("finding the needle in the haystack").

use crate::ExperimentData;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use wmtree_net::ResourceType;
use wmtree_stats::descriptive::Summary;
use wmtree_url::Party;

/// The §5.1 unique-node statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UniqueNodeStats {
    /// Total distinct node URLs in the dataset.
    pub distinct_nodes: usize,
    /// Nodes whose URL appears in exactly one tree (paper: 24%).
    pub unique_nodes: usize,
    /// Share of unique nodes among all distinct nodes.
    pub unique_share: f64,
    /// Share of unique nodes that are tracking requests (paper: 37%).
    pub tracking_share: f64,
    /// Share of unique nodes in third-party context (paper: 90%).
    pub third_party_share: f64,
    /// Depth summary of unique nodes (paper: mean 2.7, SD 1.9).
    pub depth: Summary,
    /// Share of unique nodes at depth 1 (paper: 22%).
    pub depth1_share: f64,
    /// Resource-type shares among unique nodes (paper: iframes 17%,
    /// JavaScript 15%, XHR 13%).
    pub type_shares: BTreeMap<ResourceType, f64>,
    /// Top hosting sites (eTLD+1) of unique nodes with their share.
    pub top_hosts: Vec<(String, f64)>,
    /// Mean share of unique nodes per tree (paper: 6%).
    pub mean_unique_per_tree: f64,
}

/// Compute the §5.1 statistics.
///
/// One pass over the pages counts every record key of each page's
/// [`crate::index::PageIndex`] (with its per-page occurrence count)
/// into a global key → entry table, the entry taking its metadata from
/// the key's first page, its depth from that page's
/// `PageSummary`. The table is a hash
/// map used for lookup only: the unique keys are sorted once, so their
/// depths feed the summary in key order.
pub fn unique_node_stats(data: &ExperimentData, top_hosts: usize) -> UniqueNodeStats {
    // Global occurrence count per node URL, plus metadata from the first
    // occurrence.
    struct Meta<'a> {
        key: &'a str,
        count: usize,
        tracking: bool,
        party: Party,
        depth: usize,
        resource_type: ResourceType,
        site: &'a str,
    }
    let mut entry_of: HashMap<&str, u32> = HashMap::new();
    let mut entries: Vec<Meta> = Vec::new();
    // Per page, the entry of each record key.
    let mut page_entries: Vec<Vec<u32>> = Vec::with_capacity(data.pages.len());
    let mut total_trees = 0usize;
    for (page, summary) in data.pages.iter().zip(data.summaries()) {
        let idx = page.index();
        total_trees += page.trees.len();
        let keys = idx.record_keys();
        let mut ids = Vec::with_capacity(keys.len());
        for (&id, &depth) in keys.iter().zip(&summary.key_depths) {
            let key = idx.key(id);
            let count = idx.present_in(id);
            let at = *entry_of.entry(key).or_insert_with(|| {
                let meta = idx.meta(id);
                entries.push(Meta {
                    key,
                    count: 0,
                    tracking: meta.tracking,
                    party: meta.party,
                    depth: depth as usize,
                    resource_type: meta.resource_type,
                    site: idx.site_of(id),
                });
                (entries.len() - 1) as u32
            });
            entries[at as usize].count += count;
            ids.push(at);
        }
        page_entries.push(ids);
    }

    let distinct = entries.len();
    let mut uniques: Vec<&Meta> = entries.iter().filter(|m| m.count == 1).collect();
    uniques.sort_unstable_by_key(|m| m.key);
    let n_unique = uniques.len();
    let share = |n: usize, d: usize| if d == 0 { 0.0 } else { n as f64 / d as f64 };

    let tracking = uniques.iter().filter(|m| m.tracking).count();
    let third = uniques.iter().filter(|m| m.party == Party::Third).count();
    let depths: Vec<f64> = uniques.iter().map(|m| m.depth as f64).collect();
    let depth1 = uniques.iter().filter(|m| m.depth == 1).count();

    let mut type_counts: BTreeMap<ResourceType, usize> = BTreeMap::new();
    let mut host_counts: BTreeMap<&str, usize> = BTreeMap::new();
    for m in &uniques {
        *type_counts.entry(m.resource_type).or_insert(0) += 1;
        *host_counts.entry(m.site).or_insert(0) += 1;
    }
    let type_shares = type_counts
        .into_iter()
        .map(|(ty, c)| (ty, share(c, n_unique)))
        .collect();
    let mut hosts: Vec<(String, f64)> = host_counts
        .into_iter()
        .map(|(h, c)| (h.to_string(), share(c, n_unique)))
        .collect();
    hosts.sort_by(|a, b| b.1.total_cmp(&a.1));
    hosts.truncate(top_hosts);

    // Per-tree unique share: unique nodes in a tree / its node count.
    let mut per_tree = Vec::with_capacity(total_trees);
    for (page, ids) in data.pages.iter().zip(&page_entries) {
        let idx = page.index();
        // Globally-unique keys of this page.
        let unique_ids: Vec<u32> = idx
            .record_keys()
            .iter()
            .zip(ids)
            .filter(|&(_, &at)| entries[at as usize].count == 1)
            .map(|(&id, _)| id)
            .collect();
        for (tree, ti) in page.trees.iter().zip(idx.trees()) {
            let n = tree.node_count().saturating_sub(1);
            if n == 0 {
                continue;
            }
            let u = unique_ids
                .iter()
                .filter(|&&id| ti.non_root_node_of(id).is_some())
                .count();
            per_tree.push(u as f64 / n as f64);
        }
    }

    UniqueNodeStats {
        distinct_nodes: distinct,
        unique_nodes: n_unique,
        unique_share: share(n_unique, distinct),
        tracking_share: share(tracking, n_unique),
        third_party_share: share(third, n_unique),
        depth: Summary::of(&depths),
        depth1_share: share(depth1, n_unique),
        type_shares,
        top_hosts: hosts,
        mean_unique_per_tree: Summary::of(&per_tree).mean,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::testutil::experiment;

    #[test]
    fn unique_nodes_shape() {
        let data = experiment();
        let s = unique_node_stats(data, 5);
        assert!(s.distinct_nodes > 200);
        assert!(s.unique_nodes > 0);
        // A notable share of the dataset is unique (paper: 24%).
        assert!(
            s.unique_share > 0.05 && s.unique_share < 0.8,
            "{}",
            s.unique_share
        );
        // Unique nodes are dominated by third-party content (paper: 90%).
        assert!(s.third_party_share > 0.6, "{}", s.third_party_share);
        // Tracking content is overrepresented among uniques.
        assert!(s.tracking_share > 0.1, "{}", s.tracking_share);
        // They sit deeper than depth 1 on average.
        assert!(s.depth.mean > 1.2, "{}", s.depth.mean);
        assert!((0.0..=1.0).contains(&s.depth1_share));
        assert!(!s.top_hosts.is_empty());
        // Ad infrastructure hosts the most uniques.
        let top = &s.top_hosts[0].0;
        assert!(
            top.contains("ads")
                || top.contains("rtb")
                || top.contains("cdn")
                || top.contains("banner")
                || top.contains("bidstream")
                || top.contains("pop"),
            "unexpected top unique host {top}"
        );
        assert!(s.mean_unique_per_tree > 0.0 && s.mean_unique_per_tree < 0.6);
        let type_sum: f64 = s.type_shares.values().sum();
        assert!((type_sum - 1.0).abs() < 1e-9);
    }
}
