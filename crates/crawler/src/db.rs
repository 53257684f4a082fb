//! The crawl database: results of every (profile, page) visit, with the
//! vetting and accounting queries the analysis needs.

use crate::profile::ProfileId;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use wmtree_browser::VisitResult;

/// Key identifying a page within the experiment: `(site, page URL)`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PageKey {
    /// Registerable domain of the site.
    pub site: String,
    /// Full page URL.
    pub url: String,
}

/// Per-profile crawl accounting (§4, "Success of Crawling Method").
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ProfileStats {
    /// Pages attempted.
    pub attempted: usize,
    /// Pages crawled successfully.
    pub succeeded: usize,
}

impl ProfileStats {
    /// Success rate in [0, 1] (1 for an idle profile).
    pub fn success_rate(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.succeeded as f64 / self.attempted as f64
        }
    }
}

/// Why two crawl databases refused to merge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// The databases were created for different profile counts.
    ProfileCountMismatch {
        /// Profile count of the receiving database.
        ours: usize,
        /// Profile count of the database being merged in.
        theirs: usize,
    },
    /// Both databases recorded a visit for the same `(page, profile)`.
    VisitConflict {
        /// The doubly-recorded page.
        page: PageKey,
        /// The doubly-recorded profile.
        profile: ProfileId,
    },
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::ProfileCountMismatch { ours, theirs } => {
                write!(f, "profile count mismatch: merging a {theirs}-profile database into a {ours}-profile one")
            }
            MergeError::VisitConflict { page, profile } => {
                write!(
                    f,
                    "visit conflict: profile {profile} visited {} / {} in both databases",
                    page.site, page.url
                )
            }
        }
    }
}

impl std::error::Error for MergeError {}

/// In-memory store of all visits of an experiment.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct CrawlDb {
    n_profiles: usize,
    /// `visits[page][profile]` — a page's visit by each profile.
    visits: BTreeMap<PageKey, Vec<Option<VisitResult>>>,
    /// `hashes[page][profile]` — the content hash of each visit payload
    /// where known (bundle replays know it for free from the object
    /// store; live crawls leave it `None`). Derived bookkeeping for the
    /// tree cache's site keys, not part of the database's serialized
    /// identity.
    #[serde(skip)]
    hashes: BTreeMap<PageKey, Vec<Option<u64>>>,
}

impl CrawlDb {
    /// An empty database for an experiment with `n_profiles` profiles.
    pub fn new(n_profiles: usize) -> CrawlDb {
        CrawlDb {
            n_profiles,
            visits: BTreeMap::new(),
            hashes: BTreeMap::new(),
        }
    }

    /// Number of profiles.
    pub fn n_profiles(&self) -> usize {
        self.n_profiles
    }

    /// Record a visit. Any previously known content hash for the slot
    /// is invalidated — the caller did not vouch for one.
    pub fn insert(&mut self, page: PageKey, profile: ProfileId, result: VisitResult) {
        self.insert_slot(page, profile, result, None);
    }

    /// Record a visit together with the content hash of its canonical
    /// serialization (the bundle object store's address). The hash is
    /// trusted — bundle readers verify it against the payload.
    pub fn insert_hashed(
        &mut self,
        page: PageKey,
        profile: ProfileId,
        result: VisitResult,
        hash: u64,
    ) {
        self.insert_slot(page, profile, result, Some(hash));
    }

    fn insert_slot(
        &mut self,
        page: PageKey,
        profile: ProfileId,
        result: VisitResult,
        hash: Option<u64>,
    ) {
        assert!(profile < self.n_profiles, "profile id out of range");
        let slot = self
            .visits
            .entry(page.clone())
            .or_insert_with(|| vec![None; self.n_profiles]);
        slot[profile] = Some(result);
        let hslot = self
            .hashes
            .entry(page)
            .or_insert_with(|| vec![None; self.n_profiles]);
        hslot[profile] = hash;
    }

    /// The content hash recorded for a `(page, profile)` visit, if any.
    pub fn visit_hash(&self, page: &PageKey, profile: ProfileId) -> Option<u64> {
        *self.hashes.get(page)?.get(profile)?
    }

    /// Merge another database (parallel crawl shards). Panics on the
    /// errors [`try_merge`][CrawlDb::try_merge] reports — shards from
    /// the same crawl can never trigger them, so a panic here means a
    /// caller merged databases from different experiments.
    pub fn merge(&mut self, other: CrawlDb) {
        if let Err(e) = self.try_merge(other) {
            panic!("{e}");
        }
    }

    /// Merge another database, rejecting incompatible shards:
    ///
    /// * profile counts must match — the per-page visit vectors are
    ///   indexed by profile id and would silently misalign otherwise;
    /// * a `(page, profile)` visit recorded in **both** databases is a
    ///   conflict — shards of one crawl partition the site space, so an
    ///   overlap means the inputs were not shards of the same crawl.
    ///
    /// On error, `self` is left untouched.
    pub fn try_merge(&mut self, other: CrawlDb) -> Result<(), MergeError> {
        if self.n_profiles != other.n_profiles {
            return Err(MergeError::ProfileCountMismatch {
                ours: self.n_profiles,
                theirs: other.n_profiles,
            });
        }
        for (page, results) in &other.visits {
            if let Some(slot) = self.visits.get(page) {
                for (i, r) in results.iter().enumerate() {
                    if r.is_some() && slot[i].is_some() {
                        return Err(MergeError::VisitConflict {
                            page: page.clone(),
                            profile: i,
                        });
                    }
                }
            }
        }
        for (page, results) in other.visits {
            let slot = self
                .visits
                .entry(page)
                .or_insert_with(|| vec![None; self.n_profiles]);
            for (i, r) in results.into_iter().enumerate() {
                if r.is_some() {
                    slot[i] = r;
                }
            }
        }
        for (page, hs) in other.hashes {
            let slot = self
                .hashes
                .entry(page)
                .or_insert_with(|| vec![None; self.n_profiles]);
            for (i, h) in hs.into_iter().enumerate() {
                if h.is_some() {
                    slot[i] = h;
                }
            }
        }
        Ok(())
    }

    /// All pages with any recorded visit.
    pub fn pages(&self) -> impl Iterator<Item = &PageKey> {
        self.visits.keys()
    }

    /// Number of pages with any recorded visit.
    pub fn page_count(&self) -> usize {
        self.visits.len()
    }

    /// Number of per-profile visit slots recorded for a page — always
    /// `n_profiles` for a well-formed database. Exposed for the layer-2
    /// artifact checks in `wmtree-lint`.
    pub fn profile_slot_count(&self, page: &PageKey) -> Option<usize> {
        self.visits.get(page).map(|slots| slots.len())
    }

    /// The visit of a page by a profile, if recorded and successful.
    pub fn visit(&self, page: &PageKey, profile: ProfileId) -> Option<&VisitResult> {
        self.visits
            .get(page)?
            .get(profile)?
            .as_ref()
            .filter(|v| v.success)
    }

    /// The visit of a page by a profile, recorded or not successful —
    /// used by the raw-data export, which documents failures too.
    pub fn visit_any(&self, page: &PageKey, profile: ProfileId) -> Option<&VisitResult> {
        self.visits.get(page)?.get(profile)?.as_ref()
    }

    /// The paper's vetting rule (§3.2): pages successfully crawled by
    /// **all** profiles, with their per-profile visits.
    pub fn vetted_pages(&self) -> Vec<(&PageKey, Vec<&VisitResult>)> {
        self.vetted_pages_k(self.n_profiles)
    }

    /// Ablation variant: pages successfully crawled by at least `k`
    /// profiles (returns only the successful visits).
    pub fn vetted_pages_k(&self, k: usize) -> Vec<(&PageKey, Vec<&VisitResult>)> {
        self.visits
            .iter()
            .filter_map(|(page, results)| {
                let ok: Vec<&VisitResult> = results
                    .iter()
                    .filter_map(|r| r.as_ref())
                    .filter(|v| v.success)
                    .collect();
                if ok.len() >= k {
                    Some((page, ok))
                } else {
                    None
                }
            })
            .collect()
    }

    /// Sites represented among the vetted pages.
    pub fn vetted_sites(&self) -> BTreeSet<&str> {
        self.vetted_pages()
            .into_iter()
            .map(|(page, _)| page.site.as_str())
            .collect()
    }

    /// Per-profile success statistics.
    pub fn profile_stats(&self) -> Vec<ProfileStats> {
        let mut stats = vec![ProfileStats::default(); self.n_profiles];
        for results in self.visits.values() {
            for (i, r) in results.iter().enumerate() {
                if let Some(v) = r {
                    stats[i].attempted += 1;
                    if v.success {
                        stats[i].succeeded += 1;
                    }
                }
            }
        }
        stats
    }

    /// Total successful page visits across all profiles.
    pub fn total_successful_visits(&self) -> usize {
        self.visits
            .values()
            .flat_map(|rs| rs.iter())
            .filter(|r| r.as_ref().is_some_and(|v| v.success))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmtree_url::Url;

    fn page(n: u32) -> PageKey {
        PageKey {
            site: "a.com".into(),
            url: format!("https://www.a.com/page/{n}"),
        }
    }

    fn ok_visit() -> VisitResult {
        let mut v = VisitResult::failed(Url::parse("https://www.a.com/").unwrap());
        v.success = true;
        v
    }

    fn bad_visit() -> VisitResult {
        VisitResult::failed(Url::parse("https://www.a.com/").unwrap())
    }

    #[test]
    fn insert_and_query() {
        let mut db = CrawlDb::new(2);
        db.insert(page(1), 0, ok_visit());
        db.insert(page(1), 1, bad_visit());
        assert!(db.visit(&page(1), 0).is_some());
        assert!(
            db.visit(&page(1), 1).is_none(),
            "failed visits are filtered"
        );
        assert!(db.visit(&page(2), 0).is_none());
        assert_eq!(db.page_count(), 1);
    }

    #[test]
    fn vetting_requires_all_profiles() {
        let mut db = CrawlDb::new(3);
        db.insert(page(1), 0, ok_visit());
        db.insert(page(1), 1, ok_visit());
        db.insert(page(1), 2, ok_visit());
        db.insert(page(2), 0, ok_visit());
        db.insert(page(2), 1, bad_visit());
        db.insert(page(2), 2, ok_visit());
        let vetted = db.vetted_pages();
        assert_eq!(vetted.len(), 1);
        assert_eq!(vetted[0].0, &page(1));
        assert_eq!(vetted[0].1.len(), 3);
        // Relaxed vetting keeps page 2.
        assert_eq!(db.vetted_pages_k(2).len(), 2);
    }

    #[test]
    fn profile_stats_counts() {
        let mut db = CrawlDb::new(2);
        db.insert(page(1), 0, ok_visit());
        db.insert(page(2), 0, bad_visit());
        db.insert(page(1), 1, ok_visit());
        let stats = db.profile_stats();
        assert_eq!(
            stats[0],
            ProfileStats {
                attempted: 2,
                succeeded: 1
            }
        );
        assert_eq!(stats[0].success_rate(), 0.5);
        assert_eq!(
            stats[1],
            ProfileStats {
                attempted: 1,
                succeeded: 1
            }
        );
        assert_eq!(db.total_successful_visits(), 2);
    }

    #[test]
    fn merge_combines_shards() {
        let mut a = CrawlDb::new(2);
        a.insert(page(1), 0, ok_visit());
        let mut b = CrawlDb::new(2);
        b.insert(page(1), 1, ok_visit());
        b.insert(page(2), 0, ok_visit());
        a.merge(b);
        assert_eq!(a.page_count(), 2);
        assert!(a.visit(&page(1), 0).is_some());
        assert!(a.visit(&page(1), 1).is_some());
    }

    #[test]
    fn merge_rejects_profile_count_mismatch() {
        let mut a = CrawlDb::new(2);
        a.insert(page(1), 0, ok_visit());
        let mut b = CrawlDb::new(3);
        b.insert(page(2), 0, ok_visit());
        let err = a.try_merge(b).unwrap_err();
        assert_eq!(err, MergeError::ProfileCountMismatch { ours: 2, theirs: 3 });
        assert_eq!(a.page_count(), 1, "failed merge must not modify the target");
    }

    #[test]
    #[should_panic(expected = "profile count mismatch")]
    fn merge_panics_on_profile_count_mismatch() {
        let mut a = CrawlDb::new(2);
        a.merge(CrawlDb::new(5));
    }

    #[test]
    fn merge_rejects_overlapping_visits() {
        let mut a = CrawlDb::new(2);
        a.insert(page(1), 0, ok_visit());
        a.insert(page(2), 0, ok_visit());
        let mut b = CrawlDb::new(2);
        b.insert(page(3), 0, ok_visit());
        b.insert(page(1), 0, bad_visit());
        let err = a.try_merge(b).unwrap_err();
        assert_eq!(
            err,
            MergeError::VisitConflict {
                page: page(1),
                profile: 0
            }
        );
        // `a` unchanged: page 3 was not merged in, page 1 kept its visit.
        assert_eq!(a.page_count(), 2);
        assert!(a.visit(&page(1), 0).is_some());
    }

    #[test]
    fn merge_allows_same_page_different_profiles() {
        let mut a = CrawlDb::new(2);
        a.insert(page(1), 0, ok_visit());
        let mut b = CrawlDb::new(2);
        b.insert(page(1), 1, ok_visit());
        assert!(a.try_merge(b).is_ok());
        assert!(a.visit(&page(1), 0).is_some());
        assert!(a.visit(&page(1), 1).is_some());
    }

    #[test]
    fn merge_error_display_names_the_offenders() {
        // The rendered errors must identify the offending identifiers —
        // a sharded crawl merges many databases, and "visit conflict"
        // without the page is undebuggable.
        let conflict = MergeError::VisitConflict {
            page: page(7),
            profile: 3,
        };
        let text = conflict.to_string();
        assert!(text.contains("a.com"), "{text}");
        assert!(text.contains("https://www.a.com/page/7"), "{text}");
        assert!(text.contains("profile 3"), "{text}");

        let mismatch = MergeError::ProfileCountMismatch { ours: 5, theirs: 2 };
        let text = mismatch.to_string();
        assert!(text.contains("2-profile"), "{text}");
        assert!(text.contains("5-profile"), "{text}");
    }

    #[test]
    fn vetted_sites_dedupe() {
        let mut db = CrawlDb::new(1);
        db.insert(page(1), 0, ok_visit());
        db.insert(page(2), 0, ok_visit());
        assert_eq!(db.vetted_sites().len(), 1);
    }

    #[test]
    #[should_panic(expected = "profile id out of range")]
    fn insert_checks_profile_bounds() {
        let mut db = CrawlDb::new(1);
        db.insert(page(1), 5, ok_visit());
    }

    #[test]
    fn hashes_are_tracked_and_invalidated() {
        let mut db = CrawlDb::new(2);
        db.insert_hashed(page(1), 0, ok_visit(), 0xCAFE);
        db.insert(page(1), 1, ok_visit());
        assert_eq!(db.visit_hash(&page(1), 0), Some(0xCAFE));
        assert_eq!(db.visit_hash(&page(1), 1), None);
        // Plain re-insert withdraws the vouched hash.
        db.insert(page(1), 0, ok_visit());
        assert_eq!(db.visit_hash(&page(1), 0), None);
    }

    #[test]
    fn hashes_survive_merge_but_not_serialization() {
        let mut a = CrawlDb::new(2);
        a.insert_hashed(page(1), 0, ok_visit(), 11);
        let mut b = CrawlDb::new(2);
        b.insert_hashed(page(1), 1, ok_visit(), 22);
        a.merge(b);
        assert_eq!(a.visit_hash(&page(1), 0), Some(11));
        assert_eq!(a.visit_hash(&page(1), 1), Some(22));
        // The hash side-table is derived bookkeeping: the serialized
        // form (the database's identity) must not contain it.
        let json = serde_json::to_string(&a).unwrap();
        assert!(!json.contains("hashes"), "{json}");
        let back: CrawlDb = serde_json::from_str(&json).unwrap();
        assert_eq!(back.visit_hash(&page(1), 0), None);
        assert!(back.visit(&page(1), 0).is_some());
    }
}
