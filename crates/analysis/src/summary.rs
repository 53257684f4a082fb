//! Page summaries: every per-page input of the data-side report
//! artifacts, computed in one pass over a page.
//!
//! Tables 2, 3, 5, 6 and 7, Figs. 1, 3 and 8, §4.4's Sim1/Sim2 split,
//! the §5 case studies, the significance tests and the §8 stability
//! metrics all aggregate per-page facts: tree metrics, per-depth node
//! counts, per-depth Jaccard values, per-node child Jaccards of a
//! profile pair, cookie-set similarities. A page summary derives all
//! of them from a page's trees, its
//! [`PageIndex`](crate::index::PageIndex) and its cookies in one pass,
//! and the page keeps it behind a `OnceLock`, like the index. The
//! per-site stage builds it on the worker that analysed the page
//! ([`ExperimentData::summarize`](crate::ExperimentData::summarize)),
//! so the report only folds summaries.
//!
//! A summary holds what a fold needs to reproduce the artifact exactly
//! (DESIGN.md §9): integers that the artifacts only ever summed or
//! compared, summed per page; every float an artifact accumulated
//! (per-node child Jaccards, per-depth Jaccards, per-page scores) kept
//! one by one in its original order, so the fold adds the same values
//! in the same order.

use crate::data::{CookieObservation, PageAnalysis};
use std::collections::HashMap;
use wmtree_net::cookie::{CookieId, SecurityAttributes};
use wmtree_net::ResourceType;
use wmtree_stats::jaccard::{jaccard_of_counts, jaccard_sorted, pairwise_mean_jaccard_sorted};
use wmtree_tree::TreeMetrics;
use wmtree_url::Party;

/// The profiles the report singles out, found by name in a roster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Roles {
    /// The profile Table 6 compares every other one against: `Sim1`,
    /// else the first.
    pub reference: usize,
    /// The profile §4.4 splits against the reference: `Sim2`, else the
    /// reference itself.
    pub sim2: usize,
    /// The profile without user interaction (`NoAction`), if any.
    pub noaction: Option<usize>,
}

impl Roles {
    /// The roles of a profile roster.
    pub fn of(profile_names: &[String]) -> Roles {
        let index = |name: &str| profile_names.iter().position(|n| n == name);
        let reference = index("Sim1").unwrap_or(0);
        Roles {
            reference,
            sim2: index("Sim2").unwrap_or(reference),
            noaction: index("NoAction"),
        }
    }
}

/// One tree of a page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TreeSummary {
    /// Nodes per depth, the root's level (1) included.
    pub(crate) widths: Vec<usize>,
    /// Third-party nodes (the root excluded).
    pub(crate) third_party: usize,
    /// Tracking nodes (the root excluded).
    pub(crate) tracker: usize,
}

impl TreeSummary {
    /// The tree's headline metrics, as [`DepTree::metrics`] gives them.
    ///
    /// [`DepTree::metrics`]: wmtree_tree::DepTree::metrics
    pub(crate) fn metrics(&self) -> TreeMetrics {
        TreeMetrics {
            nodes: self.widths.iter().sum(),
            depth: self.widths.len() - 1,
            breadth: self.widths.iter().copied().max().unwrap_or(1),
        }
    }
}

/// One depth of a page, over all its trees.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Level {
    /// Nodes at this depth (the roots at depth 0).
    pub(crate) nodes: usize,
    /// First-party nodes among them (roots never count).
    pub(crate) first_party: usize,
    /// Tracking nodes among them (roots never count).
    pub(crate) tracking: usize,
    /// Their children.
    pub(crate) children: usize,
    /// Nodes with at least one child.
    pub(crate) parents: usize,
}

/// How many compared nodes agreed fully, not at all, and in total.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Tally {
    /// Full agreement (Jaccard 1, or the same parent).
    pub(crate) perfect: usize,
    /// No agreement (Jaccard 0, or a different parent).
    pub(crate) none: usize,
    /// Nodes compared.
    pub(crate) total: usize,
}

/// Table 6's comparison of the reference tree with one other tree.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct PairSummary {
    /// Child-set comparisons of nodes in both trees with a child in
    /// either, `[first party, third party]`.
    pub(crate) children: [Tally; 2],
    /// Parent comparisons of nodes with a parent in both trees, `[first
    /// party, third party]`.
    pub(crate) parents: [Tally; 2],
    /// Of the parent comparisons at depth ≥ 2: `(same parent, compared)`.
    pub(crate) deep_parents: (usize, usize),
    /// The child Jaccard of each compared node, in the reference
    /// tree's node order.
    pub(crate) child_jaccards: Vec<f64>,
}

/// §5.3's counts over the trees of a page (roots excluded).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct TrackingCounts {
    /// `(children, nodes)` of tracking nodes with children.
    pub(crate) tracking_children: (usize, usize),
    /// `(children, nodes)` of other nodes with children.
    pub(crate) other_children: (usize, usize),
    /// Tracking nodes with a parent.
    pub(crate) parented: usize,
    /// Of those, the ones whose parent tracks too.
    pub(crate) tracker_parent: usize,
    /// Their parents' types: script or XHR, subframe, main frame, other.
    pub(crate) parent_types: [usize; 4],
}

/// One cookie identity of a page, over all its profiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DistinctCookie {
    /// The profile of its first observation.
    pub(crate) profile: u32,
    /// That observation's position in the profile's cookies.
    pub(crate) position: u32,
    /// That observation's security attributes.
    pub(crate) attrs: SecurityAttributes,
    /// Whether another observation on the page has other attributes.
    pub(crate) mixed_attrs: bool,
}

/// §5.2's per-page inputs.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct CookieSummary {
    /// Pairwise-mean Jaccard of the profiles' cookie-identity sets, when
    /// any profile observed a cookie.
    pub(crate) similarity: Option<f64>,
    /// Mean Jaccard of every other profile's set against `NoAction`'s,
    /// when any profile observed a cookie.
    pub(crate) noaction_similarity: Option<f64>,
    /// The page's distinct cookie identities, in the order profile by
    /// profile first observed them.
    pub(crate) distinct: Vec<DistinctCookie>,
    /// Per profile, the identities it observed: ascending positions in
    /// `distinct`.
    pub(crate) by_profile: Vec<Vec<u32>>,
}

/// Every per-page input of the data-side artifacts. See the module
/// docs.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PageSummary {
    /// The roles the pair comparisons were made for.
    pub(crate) roles: Roles,
    /// One per tree, in profile order (Tables 2, 5, 7, Fig. 1, the
    /// depth test, recall).
    pub(crate) trees: Vec<TreeSummary>,
    /// Per depth over all trees (Figs. 3 and 8).
    pub(crate) levels: Vec<Level>,
    /// Non-root nodes with at most one child (Fig. 8).
    pub(crate) leafish: usize,
    /// One key of each distinct third-party site, as an arena id of the
    /// page index (Fig. 3).
    pub(crate) third_party_sites: Vec<u32>,
    /// §5.3's tree-side counts.
    pub(crate) tracking: TrackingCounts,
    /// Table 3: the page's score under each filter, in
    /// [`DepthFilter::ALL`] order; `None` where no depth was compared.
    ///
    /// [`DepthFilter::ALL`]: crate::depth_similarity::DepthFilter::ALL
    pub(crate) depth_scores: [Option<f64>; 5],
    /// Table 6: the reference against each other profile, in profile
    /// order.
    pub(crate) pairs: Vec<PairSummary>,
    /// §4.4: `(depth, Jaccard)` of the reference's and Sim2's node sets,
    /// for each depth ≥ 1 where either has a node, in depth order.
    pub(crate) split: Vec<(usize, f64)>,
    /// §8: record keys covered by the first `i + 1` trees.
    pub(crate) coverage: Vec<usize>,
    /// §5.1: each record key's depth in the first tree holding it,
    /// aligned with [`PageIndex::record_keys`].
    ///
    /// [`PageIndex::record_keys`]: crate::index::PageIndex::record_keys
    pub(crate) key_depths: Vec<u32>,
    /// §5.2's inputs.
    pub(crate) cookies: CookieSummary,
}

/// A key not yet seen in any tree.
const UNSEEN: u32 = u32::MAX;

/// The Table 3 filters a non-root node passes, one bit per
/// [`DepthFilter::ALL`](crate::depth_similarity::DepthFilter::ALL)
/// entry: all nodes, nodes with children, nodes in all trees,
/// first-party and third-party nodes.
fn filter_bits(party: Party, has_children: bool, in_all_trees: bool) -> u8 {
    let party = match party {
        Party::First => 1 << 3,
        Party::Third => 1 << 4,
    };
    1 | u8::from(has_children) << 1 | u8::from(in_all_trees) << 2 | party
}

impl PageSummary {
    /// Summarize one page for a roster's `roles`.
    pub(crate) fn build(page: &PageAnalysis, roles: Roles) -> PageSummary {
        let idx = page.index();
        let tis = idx.trees();

        let mut trees = Vec::with_capacity(page.trees.len());
        let mut levels: Vec<Level> = Vec::new();
        let mut leafish = 0;
        let mut tracking = TrackingCounts::default();
        // One key of each site slot a third-party node fills.
        let mut sites: Vec<(&str, u32)> = Vec::new();
        let mut slot_seen = vec![false; idx.site_slots()];
        let mut first_depth = vec![UNSEEN; idx.key_count()];
        let mut coverage = Vec::with_capacity(page.trees.len());
        let mut covered = 0;
        let mut filters = Vec::with_capacity(page.trees.len());
        for (tree, ti) in page.trees.iter().zip(tis) {
            let mut bits = vec![0u8; idx.key_count()];
            let mut widths = vec![0; ti.max_depth() + 1];
            if levels.len() < widths.len() {
                levels.resize(widths.len(), Level::default());
            }
            let (mut third_party, mut tracker) = (0, 0);
            for (nid, node) in tree.nodes().iter().enumerate() {
                let c = node.children.len();
                let level = &mut levels[node.depth];
                widths[node.depth] += 1;
                level.nodes += 1;
                level.children += c;
                level.parents += usize::from(c > 0);
                if nid == 0 {
                    continue;
                }
                leafish += usize::from(c <= 1);
                let id = ti.arena_id(nid);
                bits[id as usize] = filter_bits(node.party, c > 0, idx.present_in(id) == tis.len());
                match node.party {
                    Party::First => level.first_party += 1,
                    Party::Third => {
                        third_party += 1;
                        let seen = &mut slot_seen[idx.site_slot(id)];
                        if !*seen && !idx.site_of(id).is_empty() {
                            sites.push((idx.site_of(id), id));
                        }
                        *seen = true;
                    }
                }
                if node.tracking {
                    level.tracking += 1;
                    tracker += 1;
                }
                if c > 0 {
                    let slot = if node.tracking {
                        &mut tracking.tracking_children
                    } else {
                        &mut tracking.other_children
                    };
                    slot.0 += c;
                    slot.1 += 1;
                }
                if let Some(parent) = node.parent.filter(|_| node.tracking) {
                    let parent = tree.node(parent);
                    tracking.parented += 1;
                    tracking.tracker_parent += usize::from(parent.tracking);
                    tracking.parent_types[match parent.resource_type {
                        ResourceType::Script | ResourceType::Xhr => 0,
                        ResourceType::SubFrame => 1,
                        ResourceType::MainFrame => 2,
                        _ => 3,
                    }] += 1;
                }
                let first = &mut first_depth[id as usize];
                if *first == UNSEEN {
                    *first = node.depth as u32;
                    covered += 1;
                }
            }
            coverage.push(covered);
            filters.push(bits);
            trees.push(TreeSummary {
                widths,
                third_party,
                tracker,
            });
        }
        sites.sort_unstable();
        sites.dedup_by(|a, b| a.0 == b.0);

        PageSummary {
            roles,
            trees,
            levels,
            leafish,
            third_party_sites: sites.into_iter().map(|(_, id)| id).collect(),
            tracking,
            depth_scores: depth_scores(page, &filters),
            pairs: pairs(page, roles.reference),
            split: split(page, roles.reference, roles.sim2),
            coverage,
            key_depths: idx
                .record_keys()
                .iter()
                .map(|&id| first_depth[id as usize])
                .collect(),
            cookies: cookies(&page.cookies, roles.noaction),
        }
    }
}

/// Table 3's five page scores: per filter, the mean over depths of
/// the pairwise-mean Jaccard of the trees' filtered node sets at that
/// depth, skipping depths empty in every tree.
///
/// `filters[t][id]` holds bit `f` when key `id` of tree `t` passes
/// [`DepthFilter::ALL`]`[f]`. One merge of each pair of trees' node
/// lists per depth counts the pair's intersection under every filter
/// at once; the Jaccards come from those counts and the set sizes
/// ([`jaccard_of_counts`]), the pairs in `pairwise_mean_jaccard`'s
/// order, so each float is the one the per-filter sets would give.
///
/// [`DepthFilter::ALL`]: crate::depth_similarity::DepthFilter::ALL
fn depth_scores(page: &PageAnalysis, filters: &[Vec<u8>]) -> [Option<f64>; 5] {
    let tis = page.index().trees();
    let k = tis.len();
    let max_depth = tis.iter().map(|t| t.max_depth()).max().unwrap_or(0);
    let mut scores: [Vec<f64>; 5] = Default::default();
    let mut sizes = vec![[0usize; 5]; k];
    let mut inter = vec![[0usize; 5]; k * k.saturating_sub(1) / 2];
    for depth in 1..=max_depth {
        for ((size, ti), bits) in sizes.iter_mut().zip(tis).zip(filters) {
            *size = [0; 5];
            for &id in ti.depth_ids(depth) {
                count_bits(size, bits[id as usize]);
            }
        }
        let mut pair = 0;
        for i in 0..k {
            for j in i + 1..k {
                let counts = &mut inter[pair];
                pair += 1;
                *counts = [0; 5];
                let (a, b) = (tis[i].depth_ids(depth), tis[j].depth_ids(depth));
                let (mut x, mut y) = (0, 0);
                while x < a.len() && y < b.len() {
                    match a[x].cmp(&b[y]) {
                        std::cmp::Ordering::Less => x += 1,
                        std::cmp::Ordering::Greater => y += 1,
                        std::cmp::Ordering::Equal => {
                            let id = a[x] as usize;
                            count_bits(counts, filters[i][id] & filters[j][id]);
                            x += 1;
                            y += 1;
                        }
                    }
                }
            }
        }
        for (f, scores) in scores.iter_mut().enumerate() {
            if k < 2 || sizes.iter().all(|size| size[f] == 0) {
                continue;
            }
            let (mut sum, mut n) = (0.0, 0usize);
            for i in 0..k {
                for j in i + 1..k {
                    sum += jaccard_of_counts(inter[n][f], sizes[i][f], sizes[j][f]);
                    n += 1;
                }
            }
            scores.push(sum / n as f64);
        }
    }
    scores.map(|s| (!s.is_empty()).then(|| s.iter().sum::<f64>() / s.len() as f64))
}

/// Count one node into the filters its bits name.
fn count_bits(counts: &mut [usize; 5], bits: u8) {
    for (f, count) in counts.iter_mut().enumerate() {
        *count += usize::from(bits >> f & 1 == 1);
    }
}

/// Table 6's comparisons of the reference tree with every other tree.
fn pairs(page: &PageAnalysis, reference: usize) -> Vec<PairSummary> {
    let idx = page.index();
    let tis = idx.trees();
    let (Some(ta), Some(tia)) = (page.trees.get(reference), tis.get(reference)) else {
        return Vec::new();
    };
    let mut pairs = Vec::with_capacity(tis.len().saturating_sub(1));
    for (b, tib) in tis.iter().enumerate() {
        if b == reference {
            continue;
        }
        let mut pair = PairSummary::default();
        for (ida, node) in ta.nodes().iter().enumerate().skip(1) {
            let Some(idb) = tib.node_of(tia.arena_id(ida)) else {
                continue;
            };
            let party = match node.party {
                Party::First => 0,
                Party::Third => 1,
            };
            let ca = tia.children_ids(ida);
            let cb = tib.children_ids(idb);
            if !ca.is_empty() || !cb.is_empty() {
                let j = jaccard_sorted(ca, cb);
                let tally = &mut pair.children[party];
                tally.total += 1;
                if j == 1.0 {
                    tally.perfect += 1;
                } else if j == 0.0 {
                    tally.none += 1;
                }
                pair.child_jaccards.push(j);
            }
            if let (Some(pa), Some(pb)) = (tia.parent_key_id(ida), tib.parent_key_id(idb)) {
                let tally = &mut pair.parents[party];
                tally.total += 1;
                if pa == pb {
                    tally.perfect += 1;
                } else {
                    tally.none += 1;
                }
                if node.depth >= 2 {
                    pair.deep_parents.0 += usize::from(pa == pb);
                    pair.deep_parents.1 += 1;
                }
            }
        }
        pairs.push(pair);
    }
    pairs
}

/// §4.4's per-depth Jaccards of two trees' node sets.
fn split(page: &PageAnalysis, a: usize, b: usize) -> Vec<(usize, f64)> {
    let tis = page.index().trees();
    let (Some(ta), Some(tb)) = (tis.get(a), tis.get(b)) else {
        return Vec::new();
    };
    (1..=ta.max_depth().max(tb.max_depth()))
        .filter_map(|depth| {
            let (sa, sb) = (ta.depth_ids(depth), tb.depth_ids(depth));
            (!sa.is_empty() || !sb.is_empty()).then(|| (depth, jaccard_sorted(sa, sb)))
        })
        .collect()
}

/// §5.2's per-page inputs: the page's distinct identities, each
/// profile's set of them, and the two cookie-set similarities computed
/// over those sets (the same counts, so the same floats, as over the
/// identities themselves). The hash map only looks identities up.
fn cookies(cookies: &[Vec<CookieObservation>], noaction: Option<usize>) -> CookieSummary {
    let mut position: HashMap<&CookieId, u32> = HashMap::new();
    let mut summary = CookieSummary::default();
    for (p, observations) in cookies.iter().enumerate() {
        let mut ids = Vec::with_capacity(observations.len());
        for (i, o) in observations.iter().enumerate() {
            let at = *position.entry(&o.id).or_insert_with(|| {
                summary.distinct.push(DistinctCookie {
                    profile: p as u32,
                    position: i as u32,
                    attrs: o.attrs,
                    mixed_attrs: false,
                });
                (summary.distinct.len() - 1) as u32
            });
            let cookie = &mut summary.distinct[at as usize];
            cookie.mixed_attrs |= cookie.attrs != o.attrs;
            ids.push(at);
        }
        ids.sort_unstable();
        ids.dedup();
        summary.by_profile.push(ids);
    }
    let sets = &summary.by_profile;
    if sets.iter().any(|s| !s.is_empty()) {
        summary.similarity = pairwise_mean_jaccard_sorted(sets);
        if let Some(na) = noaction.filter(|&na| na < sets.len()) {
            let (mut sum, mut n) = (0.0, 0usize);
            for (p, set) in sets.iter().enumerate() {
                if p != na {
                    sum += jaccard_sorted(set, &sets[na]);
                    n += 1;
                }
            }
            if n > 0 {
                summary.noaction_similarity = Some(sum / n as f64);
            }
        }
    }
    summary
}
