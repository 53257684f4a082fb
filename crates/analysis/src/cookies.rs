//! §5.2 case study: implications on cookies.

use crate::ExperimentData;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use wmtree_net::cookie::{CookieId, SecurityAttributes};
use wmtree_stats::descriptive::Summary;

/// The §5.2 cookie statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CookieStats {
    /// Total cookie observations (all profiles, all pages).
    pub total_observations: usize,
    /// Distinct cookies (by RFC 6265 identity) in the dataset.
    pub distinct_cookies: usize,
    /// Cookies set per profile (profile order).
    pub per_profile: Vec<usize>,
    /// Share of distinct cookies observed by all profiles (paper: 32%).
    pub share_in_all: f64,
    /// Share observed by exactly one profile (paper: 42%).
    pub share_in_one: f64,
    /// Per-page pairwise-mean Jaccard of cookie identity sets
    /// (paper: mean .70).
    pub per_page_similarity: Summary,
    /// Same, restricted to pairs (interaction profile, NoAction)
    /// (paper: mean .59).
    pub interaction_vs_noaction: Summary,
    /// Distinct cookies whose security attributes differ between
    /// profiles (paper: 440, 0.2%).
    pub attribute_conflicts: usize,
}

/// Compute the §5.2 statistics from the page summaries, with the
/// roster's `NoAction` profile ([`Roles::noaction`]) as the
/// no-interaction side.
///
/// Each page's distinct identities go into a global identity → entry
/// table, a hash map used for lookup only: an entry records which
/// profiles observed the cookie and whether its security attributes
/// ever differed, and every result is a count.
///
/// [`Roles::noaction`]: crate::summary::Roles::noaction
pub fn cookie_stats(data: &ExperimentData) -> CookieStats {
    let k = data.n_profiles();
    let mut per_profile = vec![0usize; k];
    let mut total = 0usize;

    // One bit per profile, in `words` words per distinct cookie.
    let width = data
        .pages
        .iter()
        .map(|p| p.cookies.len())
        .fold(k, usize::max);
    let words = width.div_ceil(64).max(1);
    let mut entry_of: HashMap<&CookieId, usize> = HashMap::new();
    let mut observed_by: Vec<u64> = Vec::new();
    // Per distinct cookie: its first attributes, and whether any differ.
    let mut attrs: Vec<(SecurityAttributes, bool)> = Vec::new();
    // The entry of each of a page's distinct cookies.
    let mut entries: Vec<usize> = Vec::new();

    let mut page_sims = Vec::new();
    let mut noaction_sims = Vec::new();
    for (page, summary) in data.pages.iter().zip(data.summaries()) {
        for (p, obs) in page.cookies.iter().enumerate() {
            per_profile[p] += obs.len();
            total += obs.len();
        }
        let cookies = &summary.cookies;
        entries.clear();
        for cookie in &cookies.distinct {
            let id = &page.cookies[cookie.profile as usize][cookie.position as usize].id;
            let at = *entry_of.entry(id).or_insert_with(|| {
                attrs.push((cookie.attrs, false));
                observed_by.resize(observed_by.len() + words, 0);
                attrs.len() - 1
            });
            let (first, differ) = &mut attrs[at];
            *differ |= cookie.mixed_attrs || *first != cookie.attrs;
            entries.push(at);
        }
        for (p, ids) in cookies.by_profile.iter().enumerate() {
            for &id in ids {
                observed_by[entries[id as usize] * words + p / 64] |= 1 << (p % 64);
            }
        }
        page_sims.extend(cookies.similarity);
        noaction_sims.extend(cookies.noaction_similarity);
    }

    let distinct = attrs.len();
    let profiles = observed_by
        .chunks(words)
        .map(|bits| bits.iter().map(|w| w.count_ones() as usize).sum::<usize>());
    let in_all = profiles.clone().filter(|&n| n == k).count();
    let in_one = profiles.filter(|&n| n == 1).count();
    let conflicts = attrs.iter().filter(|(_, differ)| *differ).count();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::testutil::experiment;

    #[test]
    fn cookie_stats_shape() {
        let data = experiment();
        let noaction = data.profile_index("NoAction");
        let s = cookie_stats(data);

        assert!(s.total_observations > 100);
        assert!(s.distinct_cookies > 50);
        assert_eq!(s.per_profile.len(), 5);

        // NoAction sets the fewest cookies (paper: 370k vs ~455k).
        let na = noaction.unwrap();
        for (p, &count) in s.per_profile.iter().enumerate() {
            if p != na {
                assert!(
                    s.per_profile[na] <= count,
                    "NoAction should set fewest cookies: {:?}",
                    s.per_profile
                );
            }
        }

        // Shares behave like the paper's: far from all cookies shared.
        assert!(
            s.share_in_all > 0.05 && s.share_in_all < 0.95,
            "{}",
            s.share_in_all
        );
        assert!(s.share_in_one > 0.02, "{}", s.share_in_one);

        // Cookie similarity per page is meaningful but imperfect.
        assert!(s.per_page_similarity.n > 10);
        assert!(
            s.per_page_similarity.mean > 0.2 && s.per_page_similarity.mean < 0.99,
            "{}",
            s.per_page_similarity.mean
        );

        // Comparing against NoAction is less similar than overall.
        assert!(
            s.interaction_vs_noaction.mean <= s.per_page_similarity.mean + 0.02,
            "noaction {} vs overall {}",
            s.interaction_vs_noaction.mean,
            s.per_page_similarity.mean
        );
    }

    #[test]
    fn empty_data() {
        let data = ExperimentData {
            profile_names: vec!["a".into(), "b".into()],
            pages: vec![],
        };
        let s = cookie_stats(&data);
        assert_eq!(s.distinct_cookies, 0);
        assert_eq!(s.share_in_all, 0.0);
        assert_eq!(s.per_page_similarity.n, 0);
    }
}
