//! The per-artifact passes the page summaries replaced: the oracle of
//! `equivalence.rs`. Each walks every page's trees, `PageIndex` or
//! cookies once per artifact, as `Report::generate` did before the
//! summaries; the code is unchanged but for paths into
//! `wmtree_analysis` and sequential loops where it fanned pages out
//! (the fan-out merged in page order, so the values are the same).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use wmtree_analysis::composition::{Composition, DepthComposition};
use wmtree_analysis::cookies::CookieStats;
use wmtree_analysis::depth_similarity::{DepthFilter, DepthSimilarityRow};
use wmtree_analysis::distributions::ChildrenByDepth;
use wmtree_analysis::node_similarity::PageNodeSimilarities;
use wmtree_analysis::popularity::{BucketRow, PopularityAnalysis};
use wmtree_analysis::presence::TreeOverview;
use wmtree_analysis::profiles::{LevelSplitSimilarity, ProfileComparison, ProfileRow};
use wmtree_analysis::significance::SignificanceReport;
use wmtree_analysis::stability::{page_stability_index, SingleProfileRecall, StabilityReport};
use wmtree_analysis::tracking::TrackingStats;
use wmtree_analysis::unique_nodes::UniqueNodeStats;
use wmtree_analysis::ExperimentData;
use wmtree_net::cookie::{CookieId, SecurityAttributes};
use wmtree_net::ResourceType;
use wmtree_stats::descriptive::Summary;
use wmtree_stats::histogram::Histogram2D;
use wmtree_stats::jaccard::{
    jaccard, jaccard_sorted, pairwise_mean_jaccard, pairwise_mean_jaccard_sorted,
    SimilarityCategory,
};
use wmtree_stats::kruskal::kruskal_wallis;
use wmtree_stats::mannwhitney::u_test;
use wmtree_stats::spearman::spearman;
use wmtree_stats::wilcoxon::signed_rank;
use wmtree_url::Party;

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Table 2.
pub fn tree_overview(data: &ExperimentData, sims: &[PageNodeSimilarities]) -> TreeOverview {
    let mut nodes = Vec::new();
    let mut depths = Vec::new();
    let mut breadths = Vec::new();
    let mut small = 0usize;
    let mut total_trees = 0usize;
    for page in &data.pages {
        for tree in &page.trees {
            let m = tree.metrics();
            nodes.push(m.nodes as f64);
            depths.push(m.depth as f64);
            breadths.push(m.breadth as f64);
            total_trees += 1;
            if m.depth < 6 && m.breadth < 21 {
                small += 1;
            }
        }
    }

    let mut presence_values = Vec::new();
    let mut in_all = 0usize;
    let mut in_one = 0usize;
    let mut total_nodes = 0usize;
    for page in sims {
        for n in &page.nodes {
            presence_values.push(n.present_in as f64);
            total_nodes += 1;
            if n.present_in == page.n_trees {
                in_all += 1;
            }
            if n.present_in == 1 {
                in_one += 1;
            }
        }
    }
    let presence = Summary::of(&presence_values);

    TreeOverview {
        nodes: Summary::of(&nodes),
        depth: Summary::of(&depths),
        breadth: Summary::of(&breadths),
        avg_presence: presence.mean,
        presence_sd: presence.sd,
        share_in_all: ratio(in_all, total_nodes),
        share_in_one: ratio(in_one, total_nodes),
        share_small: ratio(small, total_trees),
    }
}

fn depth_scores(data: &ExperimentData, filter: DepthFilter) -> Vec<f64> {
    let per_page = data.pages.iter().map(|page| {
        if page.trees.is_empty() {
            return None;
        }
        let idx = page.index();
        let k = page.trees.len();
        let tis = idx.trees();
        let max_depth = tis.iter().map(|t| t.max_depth()).max().unwrap_or(0);
        let mut page_scores: Vec<f64> = Vec::new();
        let mut sets: Vec<Vec<u32>> = vec![Vec::new(); k];
        for depth in 1..=max_depth {
            for (set, (tree, ti)) in sets.iter_mut().zip(page.trees.iter().zip(tis)) {
                set.clear();
                set.extend(ti.depth_ids(depth).iter().copied().filter(|&id| {
                    let nid = ti.node_of(id).expect("depth id resolves");
                    match filter {
                        DepthFilter::All => true,
                        DepthFilter::WithChildren => !ti.children_ids(nid).is_empty(),
                        DepthFilter::InAllTrees => idx.present_in(id) == k,
                        DepthFilter::FirstParty => tree.node(nid).party == Party::First,
                        DepthFilter::ThirdParty => tree.node(nid).party == Party::Third,
                    }
                }));
            }
            if sets.iter().all(|s| s.is_empty()) {
                continue;
            }
            if let Some(score) = pairwise_mean_jaccard_sorted(&sets) {
                page_scores.push(score);
            }
        }
        if page_scores.is_empty() {
            None
        } else {
            Some(page_scores.iter().sum::<f64>() / page_scores.len() as f64)
        }
    });
    per_page.flatten().collect()
}

/// Table 3.
pub fn table3(data: &ExperimentData) -> Vec<DepthSimilarityRow> {
    [
        DepthFilter::All,
        DepthFilter::WithChildren,
        DepthFilter::InAllTrees,
        DepthFilter::FirstParty,
        DepthFilter::ThirdParty,
    ]
    .into_iter()
    .map(|filter| {
        let sim = Summary::of(&depth_scores(data, filter));
        DepthSimilarityRow {
            filter,
            category: SimilarityCategory::of(sim.mean),
            sim,
        }
    })
    .collect()
}

/// Table 5.
pub fn table5(data: &ExperimentData) -> Vec<ProfileRow> {
    let k = data.n_profiles();
    let partials = data.pages.iter().map(|page| {
        let mut counts = vec![[0usize; 5]; k];
        for (p, row) in counts.iter_mut().enumerate().take(k) {
            let tree = &page.trees[p];
            let m = tree.metrics();
            row[0] += m.nodes - 1;
            row[3] = row[3].max(m.depth);
            row[4] = row[4].max(m.breadth);
            for n in tree.nodes().iter().skip(1) {
                if n.party == Party::Third {
                    row[1] += 1;
                }
                if n.tracking {
                    row[2] += 1;
                }
            }
        }
        counts
    });
    let mut rows: Vec<ProfileRow> = data
        .profile_names
        .iter()
        .map(|name| ProfileRow {
            name: name.clone(),
            nodes: 0,
            third_party: 0,
            tracker: 0,
            max_depth: 0,
            max_breadth: 0,
        })
        .collect();
    for counts in partials {
        for (row, c) in rows.iter_mut().zip(counts) {
            row.nodes += c[0];
            row.third_party += c[1];
            row.tracker += c[2];
            row.max_depth = row.max_depth.max(c[3]);
            row.max_breadth = row.max_breadth.max(c[4]);
        }
    }
    rows
}

/// Table 6.
pub fn table6(data: &ExperimentData, reference: usize) -> Vec<ProfileComparison> {
    let k = data.n_profiles();
    (0..k)
        .filter(|&p| p != reference)
        .map(|p| compare_pair(data, reference, p))
        .collect()
}

fn compare_pair(data: &ExperimentData, a: usize, b: usize) -> ProfileComparison {
    let mut child = [(0usize, 0usize, 0usize); 2];
    let mut parent = [(0usize, 0usize, 0usize); 2];
    let mut parent_sim = (0.0f64, 0usize);
    let mut child_sim = (0.0f64, 0usize);

    for page in &data.pages {
        let ta = &page.trees[a];
        let idx = page.index();
        let tia = &idx.trees()[a];
        let tib = &idx.trees()[b];
        for (ida, node) in ta.nodes().iter().enumerate().skip(1) {
            let Some(idb) = tib.node_of(tia.arena_id(ida)) else {
                continue;
            };
            let party_idx = match node.party {
                Party::First => 0,
                Party::Third => 1,
            };
            let ca = tia.children_ids(ida);
            let cb = tib.children_ids(idb);
            if !ca.is_empty() || !cb.is_empty() {
                let j = jaccard_sorted(ca, cb);
                let slot = &mut child[party_idx];
                slot.2 += 1;
                if j == 1.0 {
                    slot.0 += 1;
                } else if j == 0.0 {
                    slot.1 += 1;
                }
                child_sim.0 += j;
                child_sim.1 += 1;
            }
            let pa = tia.parent_key_id(ida);
            let pb = tib.parent_key_id(idb);
            if let (Some(pa), Some(pb)) = (pa, pb) {
                let slot = &mut parent[party_idx];
                slot.2 += 1;
                if pa == pb {
                    slot.0 += 1;
                } else {
                    slot.1 += 1;
                }
                if node.depth >= 2 {
                    parent_sim.0 += if pa == pb { 1.0 } else { 0.0 };
                    parent_sim.1 += 1;
                }
            }
        }
    }

    let share = |n: usize, d: usize| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    let mean = |(s, n): (f64, usize)| if n == 0 { 0.0 } else { s / n as f64 };
    ProfileComparison {
        name: data.profile_names[b].clone(),
        fp_children_perfect: share(child[0].0, child[0].2),
        fp_children_none: share(child[0].1, child[0].2),
        tp_children_perfect: share(child[1].0, child[1].2),
        tp_children_none: share(child[1].1, child[1].2),
        fp_parent_perfect: share(parent[0].0, parent[0].2),
        fp_parent_none: share(parent[0].1, parent[0].2),
        tp_parent_perfect: share(parent[1].0, parent[1].2),
        tp_parent_none: share(parent[1].1, parent[1].2),
        parent_sim_mean: mean(parent_sim),
        child_sim_mean: mean(child_sim),
    }
}

/// §4.4's shallow/deep split.
pub fn level_split_similarity(
    data: &ExperimentData,
    a: usize,
    b: usize,
    split: usize,
) -> LevelSplitSimilarity {
    let mut shallow = (0.0f64, 0usize);
    let mut deep = (0.0f64, 0usize);
    for page in &data.pages {
        let idx = page.index();
        let ta = &idx.trees()[a];
        let tb = &idx.trees()[b];
        let max_depth = ta.max_depth().max(tb.max_depth());
        for depth in 1..=max_depth {
            let sa = ta.depth_ids(depth);
            let sb = tb.depth_ids(depth);
            if sa.is_empty() && sb.is_empty() {
                continue;
            }
            let j = jaccard_sorted(sa, sb);
            let slot = if depth <= split {
                &mut shallow
            } else {
                &mut deep
            };
            slot.0 += j;
            slot.1 += 1;
        }
    }
    let mean = |(s, n): (f64, usize)| if n == 0 { 0.0 } else { s / n as f64 };
    LevelSplitSimilarity {
        shallow: mean(shallow),
        deep: mean(deep),
    }
}

/// Fig. 3.
pub fn composition(data: &ExperimentData, max_depth: usize) -> Composition {
    let mut levels = vec![DepthComposition::default(); max_depth + 1];
    let mut fp = 0usize;
    let mut total = 0usize;
    let mut tracking = 0usize;
    let mut tp_sites: BTreeSet<String> = BTreeSet::new();
    for page in &data.pages {
        let idx = page.index();
        for (tree, ti) in page.trees.iter().zip(idx.trees()) {
            for (nid, node) in tree.nodes().iter().enumerate().skip(1) {
                let d = node.depth.min(max_depth);
                let lvl = &mut levels[d];
                match node.party {
                    Party::First => {
                        lvl.first_party += 1;
                        fp += 1;
                    }
                    Party::Third => {
                        lvl.third_party += 1;
                        let site = idx.site_of(ti.arena_id(nid));
                        if !site.is_empty() && !tp_sites.contains(site) {
                            tp_sites.insert(site.to_string());
                        }
                    }
                }
                if node.tracking {
                    lvl.tracking += 1;
                    tracking += 1;
                } else {
                    lvl.non_tracking += 1;
                }
                total += 1;
            }
        }
    }
    Composition {
        levels,
        first_party_share: ratio(fp, total),
        tracking_share: ratio(tracking, total),
        third_party_sites: tp_sites.len(),
    }
}

/// Fig. 1.
pub fn depth_breadth_grid(
    data: &ExperimentData,
    max_breadth: usize,
    max_depth: usize,
) -> Histogram2D {
    let mut grid = Histogram2D::new(max_breadth, max_depth);
    for page in &data.pages {
        for tree in &page.trees {
            let m = tree.metrics();
            grid.push(m.breadth, m.depth);
        }
    }
    grid
}

/// Fig. 8.
pub fn children_by_depth(data: &ExperimentData, max_depth: usize) -> ChildrenByDepth {
    let mut sum = vec![0.0f64; max_depth + 1];
    let mut cnt = vec![0usize; max_depth + 1];
    let mut sum_nl = vec![0.0f64; max_depth + 1];
    let mut cnt_nl = vec![0usize; max_depth + 1];
    let mut total_children = 0usize;
    let mut total_nodes = 0usize;
    let mut root_children = 0usize;
    let mut root_count = 0usize;
    let mut leafish = 0usize;
    let mut nonroot = 0usize;

    for page in &data.pages {
        for tree in &page.trees {
            for node in tree.nodes() {
                let d = node.depth.min(max_depth);
                let c = node.children.len();
                sum[d] += c as f64;
                cnt[d] += 1;
                if c > 0 {
                    sum_nl[d] += c as f64;
                    cnt_nl[d] += 1;
                }
                if node.depth == 0 {
                    root_children += c;
                    root_count += 1;
                } else {
                    nonroot += 1;
                    if c <= 1 {
                        leafish += 1;
                    }
                    total_children += c;
                    total_nodes += 1;
                }
            }
        }
    }

    let div = |s: f64, n: usize| if n == 0 { 0.0 } else { s / n as f64 };
    ChildrenByDepth {
        mean_children: sum.iter().zip(&cnt).map(|(s, &n)| div(*s, n)).collect(),
        mean_children_nonleaf: sum_nl
            .iter()
            .zip(&cnt_nl)
            .map(|(s, &n)| div(*s, n))
            .collect(),
        overall_mean: div(total_children as f64, total_nodes),
        root_mean: div(root_children as f64, root_count),
        share_leafish: div(leafish as f64, nonroot),
    }
}

/// Table 7.
pub fn popularity(data: &ExperimentData, sims: &[PageNodeSimilarities]) -> PopularityAnalysis {
    #[derive(Default)]
    struct Acc {
        nodes: Vec<f64>,
        child: Vec<f64>,
        parent: Vec<f64>,
        pages: usize,
    }
    let mut buckets: BTreeMap<Arc<str>, Acc> = BTreeMap::new();
    let order = [
        "1-5k",
        "5,001-10k",
        "10,001-50k",
        "50,001-250k",
        "250,001-500k",
    ];

    for (page, sim) in data.pages.iter().zip(sims) {
        let Some(bucket) = &page.bucket else { continue };
        let acc = buckets.entry(Arc::clone(bucket)).or_default();
        acc.pages += 1;
        for tree in &page.trees {
            acc.nodes.push((tree.node_count() - 1) as f64);
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

/// §5.1.
pub fn unique_node_stats(data: &ExperimentData, top_hosts: usize) -> UniqueNodeStats {
    struct Meta<'a> {
        count: usize,
        tracking: bool,
        party: Party,
        depth: usize,
        resource_type: ResourceType,
        site: &'a str,
    }
    let mut occurrences: BTreeMap<&str, Meta> = BTreeMap::new();
    let mut total_trees = 0usize;
    for page in &data.pages {
        let idx = page.index();
        total_trees += page.trees.len();
        for &id in idx.record_keys() {
            let count = idx.present_in(id);
            occurrences
                .entry(idx.key(id))
                .and_modify(|m| m.count += count)
                .or_insert_with(|| {
                    let meta = idx.meta(id);
                    let depth = idx
                        .trees()
                        .iter()
                        .zip(&page.trees)
                        .find_map(|(ti, tree)| {
                            ti.non_root_node_of(id).map(|nid| tree.node(nid).depth)
                        })
                        .unwrap_or(0);
                    Meta {
                        count,
                        tracking: meta.tracking,
                        party: meta.party,
                        depth,
                        resource_type: meta.resource_type,
                        site: idx.site_of(id),
                    }
                });
        }
    }

    let distinct = occurrences.len();
    let uniques: Vec<&Meta> = occurrences.values().filter(|m| m.count == 1).collect();
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

    let mut per_tree = Vec::with_capacity(total_trees);
    for page in &data.pages {
        let idx = page.index();
        let unique_ids: Vec<u32> = idx
            .record_keys()
            .iter()
            .copied()
            .filter(|&id| occurrences[idx.key(id)].count == 1)
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

/// §5.2.
pub fn cookie_stats(data: &ExperimentData, noaction: Option<usize>) -> CookieStats {
    let k = data.n_profiles();
    let mut per_profile = vec![0usize; k];
    let mut total = 0usize;
    let mut presence: BTreeMap<&CookieId, BTreeSet<usize>> = BTreeMap::new();
    let mut attrs: BTreeMap<&CookieId, BTreeSet<SecurityAttributes>> = BTreeMap::new();
    let mut page_sims = Vec::new();
    let mut noaction_sims = Vec::new();

    for page in &data.pages {
        let sets: Vec<BTreeSet<&CookieId>> = page
            .cookies
            .iter()
            .map(|obs| obs.iter().map(|o| &o.id).collect())
            .collect();
        for (p, obs) in page.cookies.iter().enumerate() {
            per_profile[p] += obs.len();
            total += obs.len();
            for o in obs {
                presence.entry(&o.id).or_default().insert(p);
                attrs.entry(&o.id).or_default().insert(o.attrs);
            }
        }
        if sets.iter().any(|s| !s.is_empty()) {
            if let Some(sim) = pairwise_mean_jaccard(&sets) {
                page_sims.push(sim);
            }
            if let Some(na) = noaction {
                let mut sum = 0.0;
                let mut n = 0usize;
                for (p, s) in sets.iter().enumerate() {
                    if p == na {
                        continue;
                    }
                    sum += jaccard(s, &sets[na]);
                    n += 1;
                }
                if n > 0 {
                    noaction_sims.push(sum / n as f64);
                }
            }
        }
    }

    let distinct = presence.len();
    let in_all = presence.values().filter(|s| s.len() == k).count();
    let in_one = presence.values().filter(|s| s.len() == 1).count();
    let conflicts = attrs.values().filter(|variants| variants.len() > 1).count();
    let share = |n: usize, d: usize| if d == 0 { 0.0 } else { n as f64 / d as f64 };

    CookieStats {
        total_observations: total,
        distinct_cookies: distinct,
        per_profile,
        share_in_all: share(in_all, distinct),
        share_in_one: share(in_one, distinct),
        per_page_similarity: Summary::of(&page_sims),
        interaction_vs_noaction: Summary::of(&noaction_sims),
        attribute_conflicts: conflicts,
    }
}

/// §5.3.
pub fn tracking_stats(data: &ExperimentData, sims: &[PageNodeSimilarities]) -> TrackingStats {
    let mut tracking_child = Vec::new();
    let mut non_tracking_child = Vec::new();
    let mut tracking_parent = Vec::new();
    let mut non_tracking_parent = Vec::new();
    let mut n_tracking = 0usize;
    let mut n_total = 0usize;
    let mut tp_context = 0usize;
    let mut depth_counts = [0usize; 4];

    for page in sims {
        for n in &page.nodes {
            n_total += 1;
            if n.tracking {
                n_tracking += 1;
                if n.party == Party::Third {
                    tp_context += 1;
                }
                let slot = match n.depth() {
                    1 => 0,
                    2 => 1,
                    3 => 2,
                    _ => 3,
                };
                depth_counts[slot] += 1;
                if let Some(s) = n.child_similarity {
                    tracking_child.push(s);
                }
                if let Some(s) = n.parent_similarity {
                    tracking_parent.push(s);
                }
            } else {
                if let Some(s) = n.child_similarity {
                    non_tracking_child.push(s);
                }
                if let Some(s) = n.parent_similarity {
                    non_tracking_parent.push(s);
                }
            }
        }
    }

    let mut t_children = (0usize, 0usize);
    let mut nt_children = (0usize, 0usize);
    let mut tracker_parent = 0usize;
    let mut parent_total = 0usize;
    let mut parent_types = [0usize; 4];
    for page in &data.pages {
        for tree in &page.trees {
            for node in tree.nodes().iter().skip(1) {
                let c = node.children.len();
                if c > 0 {
                    let slot = if node.tracking {
                        &mut t_children
                    } else {
                        &mut nt_children
                    };
                    slot.0 += c;
                    slot.1 += 1;
                }
                if node.tracking {
                    if let Some(pid) = node.parent {
                        let parent = tree.node(pid);
                        parent_total += 1;
                        if parent.tracking {
                            tracker_parent += 1;
                        }
                        let idx = match parent.resource_type {
                            ResourceType::Script | ResourceType::Xhr => 0,
                            ResourceType::SubFrame => 1,
                            ResourceType::MainFrame => 2,
                            _ => 3,
                        };
                        parent_types[idx] += 1;
                    }
                }
            }
        }
    }

    let share = |n: usize, d: usize| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    let mean = |(s, n): (usize, usize)| if n == 0 { 0.0 } else { s as f64 / n as f64 };
    let depth_total: usize = depth_counts.iter().sum();

    TrackingStats {
        tracking_share: share(n_tracking, n_total),
        tracking_child_sim: Summary::of(&tracking_child),
        non_tracking_child_sim: Summary::of(&non_tracking_child),
        tracking_parent_sim: Summary::of(&tracking_parent),
        non_tracking_parent_sim: Summary::of(&non_tracking_parent),
        tracking_mean_children: mean(t_children),
        non_tracking_mean_children: mean(nt_children),
        depth_shares: depth_counts.map(|c| share(c, depth_total)),
        tracker_parent_share: share(tracker_parent, parent_total),
        third_party_share: share(tp_context, n_tracking),
        parent_type_shares: parent_types.map(|c| share(c, parent_total)),
    }
}

/// §4's significance tests.
pub fn significance(
    data: &ExperimentData,
    sims: &[PageNodeSimilarities],
    interaction_profiles: &[usize],
    no_interaction_profiles: &[usize],
) -> SignificanceReport {
    let mut counts = Vec::new();
    let mut simvals = Vec::new();
    for page in sims {
        for n in &page.nodes {
            if let Some(s) = n.child_similarity {
                counts.push(n.max_children as f64);
                simvals.push(s);
            }
        }
    }
    let children_similarity_rho = if counts.len() >= 10 {
        spearman(&counts, &simvals).ok()
    } else {
        None
    };
    let children_vs_similarity = if counts.len() >= 10 {
        let max = counts.iter().cloned().fold(1.0f64, f64::max);
        let scaled: Vec<f64> = counts.iter().map(|c| c / max).collect();
        signed_rank(&scaled, &simvals).ok()
    } else {
        None
    };

    let mut depths_with = Vec::new();
    let mut depths_without = Vec::new();
    for page in &data.pages {
        for &p in interaction_profiles {
            for node in page.trees[p].nodes().iter().skip(1) {
                depths_with.push(node.depth as f64);
            }
        }
        for &p in no_interaction_profiles {
            for node in page.trees[p].nodes().iter().skip(1) {
                depths_without.push(node.depth as f64);
            }
        }
    }
    let interaction_vs_depth = u_test(&depths_with, &depths_without).ok();

    let mut by_type: BTreeMap<ResourceType, Vec<f64>> = BTreeMap::new();
    for page in sims {
        for n in &page.nodes {
            if let Some(s) = n.child_similarity {
                by_type.entry(n.resource_type).or_default().push(s);
            }
        }
    }
    let groups: Vec<&[f64]> = by_type
        .values()
        .filter(|v| v.len() >= 5)
        .map(|v| v.as_slice())
        .collect();
    let type_vs_similarity = if groups.len() >= 2 {
        kruskal_wallis(&groups).ok()
    } else {
        None
    };

    SignificanceReport {
        children_vs_similarity,
        interaction_vs_depth,
        type_vs_similarity,
        children_similarity_rho,
    }
}

fn single_profile_recall(data: &ExperimentData) -> SingleProfileRecall {
    let k = data.n_profiles();
    let mut per_profile_sum = vec![0.0f64; k];
    let mut per_profile_n = vec![0usize; k];
    let mut all = Vec::new();
    for page in &data.pages {
        let union = page.index().record_keys().len();
        if union == 0 {
            continue;
        }
        for (p, tree) in page.trees.iter().enumerate() {
            let recall = (tree.node_count() - 1) as f64 / union as f64;
            per_profile_sum[p] += recall;
            per_profile_n[p] += 1;
            all.push(recall);
        }
    }
    SingleProfileRecall {
        per_profile: per_profile_sum
            .iter()
            .zip(&per_profile_n)
            .map(|(s, &n)| if n == 0 { 0.0 } else { s / n as f64 })
            .collect(),
        overall: Summary::of(&all),
    }
}

fn accumulation_curve(data: &ExperimentData, order: &[usize]) -> Vec<f64> {
    let k = order.len();
    let mut sums = vec![0.0f64; k];
    let mut pages = 0usize;
    let mut seen: Vec<bool> = Vec::new();
    for page in &data.pages {
        let index = page.index();
        let keys = index.record_keys();
        if keys.is_empty() {
            continue;
        }
        pages += 1;
        seen.clear();
        seen.resize(keys.len(), false);
        let mut covered = 0usize;
        for (i, &p) in order.iter().enumerate() {
            if let Some(tree) = index.trees().get(p) {
                for (seen, &id) in seen.iter_mut().zip(keys) {
                    if !*seen && tree.non_root_node_of(id).is_some() {
                        *seen = true;
                        covered += 1;
                    }
                }
            }
            sums[i] += covered as f64 / keys.len() as f64;
        }
    }
    sums.into_iter()
        .map(|s| if pages == 0 { 0.0 } else { s / pages as f64 })
        .collect()
}

/// §8's stability report.
pub fn experiment_stability(
    data: &ExperimentData,
    sims: &[PageNodeSimilarities],
) -> StabilityReport {
    let indices: Vec<f64> = sims.iter().map(page_stability_index).collect();
    let order: Vec<usize> = (0..data.n_profiles()).collect();
    let accumulation = accumulation_curve(data, &order);
    let marginal_gain_last = match accumulation.len() {
        0 => 0.0,
        1 => accumulation[0],
        n => accumulation[n - 1] - accumulation[n - 2],
    };
    StabilityReport {
        page_index: Summary::of(&indices),
        recall: single_profile_recall(data),
        accumulation,
        marginal_gain_last,
    }
}
