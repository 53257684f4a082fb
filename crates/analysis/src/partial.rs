//! Mergeable partial accumulators for out-of-core (sharded) analysis.
//!
//! A shard replays its own bundle into a [`PartialAccumulators`]: the
//! vetted pages with trees/cookies ([`PageAnalysis`]), the per-page
//! node-similarity records ([`PageNodeSimilarities`]), and the crawl
//! accounting (profile stats, discovered/successful/vetted counts).
//! Accumulators from disjoint shards then [`merge`] in any order and
//! [`finish`] into exactly the `ExperimentData` + similarity vector a
//! monolithic single-process run produces: `finish` restores the
//! canonical `(site, url)` page order, so every downstream artifact —
//! report, CSVs, significance tests — is byte-identical.
//!
//! This is the same deterministic-merge rule the ordered crawl loop
//! applies to sites within one process (DESIGN.md §9), lifted to whole
//! shards: each page's results are computed independently and
//! land at the page's own canonical position, so the merge commutes and
//! associates. The ordered floating-point accumulation of the analyses
//! happens *after* the merge, over the canonically ordered pages, never
//! across shard boundaries.
//!
//! [`merge`]: PartialAccumulators::merge
//! [`finish`]: PartialAccumulators::finish

use crate::data::{ExperimentData, PageAnalysis};
use crate::node_similarity::PageNodeSimilarities;
use serde::{Deserialize, Serialize};
use wmtree_crawler::ProfileStats;

/// Why two partial accumulators refused to merge, or a merged
/// accumulator refused to finish.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartialMergeError {
    /// The accumulators were built for different profile rosters.
    ProfileMismatch {
        /// Roster of the receiving accumulator.
        ours: Vec<String>,
        /// Roster of the accumulator being merged in.
        theirs: Vec<String>,
    },
    /// Two shards contributed the same page — shards must partition the
    /// site space, so an overlap means the inputs were not shards of
    /// one experiment.
    DuplicatePage {
        /// The doubly-contributed page's site.
        site: String,
        /// The doubly-contributed page's URL.
        url: String,
    },
}

impl std::fmt::Display for PartialMergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartialMergeError::ProfileMismatch { ours, theirs } => write!(
                f,
                "profile roster mismatch: merging {theirs:?} into an accumulator for {ours:?}"
            ),
            PartialMergeError::DuplicatePage { site, url } => {
                write!(f, "page {site} / {url} contributed by more than one shard")
            }
        }
    }
}

impl std::error::Error for PartialMergeError {}

/// A serializable summary of a merged analysis — the totals both the
/// sharded and the monolithic pipeline must agree on byte for byte.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MergeDigest {
    /// Vetted pages.
    pub pages: usize,
    /// Pages discovered before vetting.
    pub pages_discovered: usize,
    /// Successful visits across profiles.
    pub successful_visits: usize,
    /// Sites surviving vetting.
    pub vetted_sites: usize,
    /// Per-profile `(attempted, succeeded)` crawl accounting.
    pub per_profile: Vec<(usize, usize)>,
}

/// The partial analysis state of one shard (or a merge of several).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PartialAccumulators {
    /// Profile names, in Table 1 order — the merge identity check.
    profile_names: Vec<String>,
    /// `(page, similarities)` pairs, in whatever order the contributing
    /// shards appended them; canonical order is restored by `finish`.
    pairs: Vec<(PageAnalysis, PageNodeSimilarities)>,
    /// Element-wise summed per-profile crawl accounting.
    profile_stats: Vec<ProfileStats>,
    /// Summed pages discovered (before vetting).
    pages_discovered: usize,
    /// Summed successful visits.
    successful_visits: usize,
    /// Summed vetted sites (shards partition the site space, so the
    /// per-shard counts are disjoint and the sum is exact).
    vetted_sites: usize,
}

impl PartialAccumulators {
    /// An empty accumulator for a profile roster — the merge identity.
    pub fn empty(profile_names: Vec<String>) -> PartialAccumulators {
        let n = profile_names.len();
        PartialAccumulators {
            profile_names,
            pairs: Vec::new(),
            profile_stats: vec![ProfileStats::default(); n],
            pages_discovered: 0,
            successful_visits: 0,
            vetted_sites: 0,
        }
    }

    /// Accumulate one shard's fully analyzed data. `sims` must be the
    /// per-page output of [`crate::node_similarity::analyze_all`] over
    /// `data` (one record per page, in page order).
    pub fn from_shard(
        data: ExperimentData,
        sims: Vec<PageNodeSimilarities>,
        profile_stats: Vec<ProfileStats>,
        pages_discovered: usize,
        successful_visits: usize,
        vetted_sites: usize,
    ) -> PartialAccumulators {
        assert_eq!(
            data.pages.len(),
            sims.len(),
            "one similarity record per page"
        );
        assert_eq!(
            data.profile_names.len(),
            profile_stats.len(),
            "one stats row per profile"
        );
        wmtree_telemetry::counter!("analysis.partial.pages_accumulated")
            .add(data.pages.len() as u64);
        PartialAccumulators {
            profile_names: data.profile_names,
            pairs: data.pages.into_iter().zip(sims).collect(),
            profile_stats,
            pages_discovered,
            successful_visits,
            vetted_sites,
        }
    }

    /// Pages accumulated so far.
    pub fn page_count(&self) -> usize {
        self.pairs.len()
    }

    /// Fold another accumulator in. Order-insensitive: any merge order
    /// (and any association) finishes into the same result, because
    /// `finish` sorts pages into canonical `(site, url)` order and the
    /// scalar totals are sums.
    pub fn merge(&mut self, other: PartialAccumulators) -> Result<(), PartialMergeError> {
        if self.profile_names != other.profile_names {
            return Err(PartialMergeError::ProfileMismatch {
                ours: self.profile_names.clone(),
                theirs: other.profile_names,
            });
        }
        self.pairs.extend(other.pairs);
        for (ours, theirs) in self.profile_stats.iter_mut().zip(&other.profile_stats) {
            ours.attempted += theirs.attempted;
            ours.succeeded += theirs.succeeded;
        }
        self.pages_discovered += other.pages_discovered;
        self.successful_visits += other.successful_visits;
        self.vetted_sites += other.vetted_sites;
        Ok(())
    }

    /// The totals summary of the accumulated state.
    pub fn digest(&self) -> MergeDigest {
        MergeDigest {
            pages: self.pairs.len(),
            pages_discovered: self.pages_discovered,
            successful_visits: self.successful_visits,
            vetted_sites: self.vetted_sites,
            per_profile: self
                .profile_stats
                .iter()
                .map(|s| (s.attempted, s.succeeded))
                .collect(),
        }
    }

    /// Restore the canonical `(site, url)` page order and emit the
    /// merged analysis. Rejects duplicate pages — the fingerprint of
    /// overlapping shards. `workers` is unused: it stays only until the
    /// benchmark harness stops passing it.
    pub fn finish(mut self, _workers: usize) -> Result<MergedAnalysis, PartialMergeError> {
        let _span = wmtree_telemetry::span("analysis.partial.finish");
        self.pairs
            .sort_by(|(a, _), (b, _)| (&*a.site, &a.url).cmp(&(&*b.site, &b.url)));
        for w in self.pairs.windows(2) {
            let (a, b) = (&w[0].0, &w[1].0);
            if a.site == b.site && a.url == b.url {
                return Err(PartialMergeError::DuplicatePage {
                    site: a.site.to_string(),
                    url: a.url.clone(),
                });
            }
        }
        let digest = self.digest();
        let mut pages = Vec::with_capacity(self.pairs.len());
        let mut sims = Vec::with_capacity(self.pairs.len());
        for (page, sim) in self.pairs {
            pages.push(page);
            sims.push(sim);
        }
        Ok(MergedAnalysis {
            data: ExperimentData {
                profile_names: self.profile_names,
                pages,
            },
            sims,
            profile_stats: self.profile_stats,
            digest,
        })
    }
}

/// The finished merge: exactly what a monolithic run computes.
#[derive(Debug, Clone)]
pub struct MergedAnalysis {
    /// All vetted pages in canonical order, ready for every analysis.
    pub data: ExperimentData,
    /// Per-page node similarities, aligned with `data.pages`.
    pub sims: Vec<PageNodeSimilarities>,
    /// Summed per-profile crawl accounting.
    pub profile_stats: Vec<ProfileStats>,
    /// The totals summary (pages discovered, visits, vetted sites...).
    pub digest: MergeDigest,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node_similarity::analyze_all;
    use proptest::prelude::*;
    use std::sync::Arc;
    use wmtree_net::ResourceType;
    use wmtree_tree::DepTree;
    use wmtree_url::Party;

    /// A small deterministic synthetic page: `spec` seeds the tree
    /// shape so distinct specs give distinct pages.
    fn page(site: &str, path: u32, spec: u32) -> PageAnalysis {
        let url = format!("https://www.{site}/page/{path}");
        let trees: Vec<DepTree> = (0..3)
            .map(|p| {
                let mut t = DepTree::new_rooted(url.clone());
                let n = 1 + ((spec + p) % 3) as usize;
                for c in 0..n {
                    t.attach(
                        0,
                        format!("https://cdn.{site}/r{c}.js"),
                        ResourceType::Script,
                        Party::First,
                        false,
                    );
                }
                t
            })
            .collect();
        let cookies = vec![Vec::new(); 3];
        PageAnalysis::new(Arc::from(site), url, Some(path), None, trees, cookies)
    }

    fn names() -> Vec<String> {
        vec!["A".into(), "B".into(), "C".into()]
    }

    fn data_of(pages: Vec<PageAnalysis>) -> ExperimentData {
        ExperimentData {
            profile_names: names(),
            pages,
        }
    }

    fn shard_of(pages: Vec<PageAnalysis>, sites: usize) -> PartialAccumulators {
        let n = pages.len();
        let data = data_of(pages);
        let sims = analyze_all(&data);
        PartialAccumulators::from_shard(
            data,
            sims,
            vec![
                ProfileStats {
                    attempted: n,
                    succeeded: n
                };
                3
            ],
            n,
            3 * n,
            sites,
        )
    }

    /// All distinct synthetic pages over 4 sites (disjoint per index).
    fn universe_pages() -> Vec<PageAnalysis> {
        let mut pages = Vec::new();
        for (si, site) in ["a.com", "b.org", "c.net", "d.io"].iter().enumerate() {
            for path in 0..4u32 {
                pages.push(page(site, path, si as u32 * 7 + path));
            }
        }
        pages
    }

    fn json(data: &ExperimentData) -> String {
        serde_json::to_string(data).expect("serializes")
    }

    #[test]
    fn single_shard_roundtrip_is_identity() {
        let pages = universe_pages();
        let mono = data_of(pages.clone());
        let mono_sims = analyze_all(&mono);
        let merged = shard_of(pages, 4).finish(0).expect("finish");
        assert_eq!(json(&merged.data), json(&mono));
        assert_eq!(merged.sims, mono_sims);
        assert_eq!(merged.digest.pages, 16);
        assert_eq!(merged.digest.vetted_sites, 4);
    }

    #[test]
    fn profile_roster_mismatch_rejected() {
        let mut a = PartialAccumulators::empty(names());
        let b = PartialAccumulators::empty(vec!["X".into()]);
        let err = a.merge(b).unwrap_err();
        assert!(matches!(err, PartialMergeError::ProfileMismatch { .. }));
        assert!(err.to_string().contains("profile roster mismatch"));
    }

    #[test]
    fn duplicate_page_rejected_at_finish() {
        let mut a = shard_of(vec![page("a.com", 1, 0)], 1);
        a.merge(shard_of(vec![page("a.com", 1, 5)], 1)).unwrap();
        let err = a.finish(0).unwrap_err();
        assert_eq!(
            err,
            PartialMergeError::DuplicatePage {
                site: "a.com".into(),
                url: "https://www.a.com/page/1".into(),
            }
        );
        assert!(err.to_string().contains("a.com"), "{err}");
    }

    proptest! {
        /// Any partition of the pages into shards, merged in any order
        /// and any association, finishes into the monolithic result.
        #[test]
        fn merge_is_order_insensitive_and_associative(
            cuts in proptest::collection::vec(0usize..17, 0..4),
            order in any::<u64>(),
        ) {
            let pages = universe_pages();
            let mono = data_of(pages.clone());
            let mono_sims = analyze_all(&mono);
            let mono_digest = shard_of(pages.clone(), 4).digest();

            // Partition [0, 16) at the (sorted, deduped) cut points.
            let mut cuts = cuts;
            cuts.push(0);
            cuts.push(pages.len());
            cuts.sort_unstable();
            cuts.dedup();
            let mut shards: Vec<PartialAccumulators> = cuts
                .windows(2)
                .map(|w| {
                    // Site counts per fragment: count distinct sites in
                    // the slice. Fragments may split a site, so scale
                    // counts so they still *sum* to 4: attribute a site
                    // to the fragment holding its first page.
                    let slice = &pages[w[0]..w[1]];
                    let sites = slice
                        .iter()
                        .filter(|p| {
                            pages.iter().find(|q| q.site == p.site).map(|q| q.url.as_str())
                                == Some(p.url.as_str())
                        })
                        .count();
                    shard_of(slice.to_vec(), sites)
                })
                .collect();

            // Deterministic pseudo-shuffle of the merge order, then a
            // left fold (association is exercised by the varying shard
            // sizes and orders).
            let mut state = order;
            let mut acc = PartialAccumulators::empty(names());
            while !shards.is_empty() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let pick = (state >> 33) as usize % shards.len();
                acc.merge(shards.remove(pick)).expect("mergeable");
            }
            let merged = acc.finish(0).expect("finish");
            prop_assert_eq!(json(&merged.data), json(&mono));
            prop_assert_eq!(&merged.sims, &mono_sims);
            prop_assert_eq!(&merged.digest, &mono_digest);
        }
    }
}
