//! The web universe: configuration, site inventory, and visit context.

use crate::content::Content;
use crate::seed::SeedMixer;
use crate::serve::SiteProfile;
use crate::tranco;
pub use crate::tranco::RankBucket;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use wmtree_net::Status;
use wmtree_url::Url;

/// Configuration of a universe.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UniverseConfig {
    /// Root seed — every structural property derives from it.
    pub seed: u64,
    /// How many sites to sample from each rank bucket (the paper uses
    /// `[5000; 5]`; the default experiment scales this down).
    pub sites_per_bucket: [usize; 5],
    /// Maximum subpages collected per site (paper: 25).
    pub max_subpages: usize,
}

impl Default for UniverseConfig {
    fn default() -> Self {
        UniverseConfig {
            seed: 0x5eed_cafe,
            sites_per_bucket: [100, 100, 100, 100, 100],
            max_subpages: 25,
        }
    }
}

/// A site in the universe.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SiteSpec {
    /// Registerable domain (eTLD+1).
    pub domain: String,
    /// Tranco-style rank.
    pub rank: u32,
    /// Rank bucket.
    pub bucket: RankBucket,
    /// Number of distinct subpages the site has (landing page excluded).
    pub n_subpages: usize,
}

impl SiteSpec {
    /// The landing-page URL of this site.
    pub fn landing_url(&self) -> Url {
        // Domains come from the generator's fixed alphabet, so the
        // formatted URL always parses.
        // wmtree-lint: allow(WM0105)
        Url::parse(&format!("https://www.{}/", self.domain)).expect("generated URL parses")
    }

    /// The URL of subpage `n` (1-based; 0 is the landing page).
    pub fn page_url(&self, n: usize) -> Url {
        if n == 0 {
            return self.landing_url();
        }
        // wmtree-lint: allow(WM0105)
        Url::parse(&format!("https://www.{}/page/{n}", self.domain)).expect("generated URL parses")
    }
}

/// Everything the "server side" needs to know about one visit to decide
/// what to deliver.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VisitCtx {
    /// Per-visit seed: drives ad rotation, A/B tests, session IDs.
    /// Distinct per (profile, page, visit); identical re-serves are
    /// byte-identical.
    pub visit_seed: u64,
    /// Browser major version (the paper uses 86 and 95).
    pub browser_version: u32,
    /// Whether the visit will include simulated user interaction.
    pub interaction: bool,
    /// Whether the browser runs headless.
    pub headless: bool,
    /// Does the browser carry state (cookies) from an earlier visit to
    /// this site? Stateless crawling (the paper's choice, Appendix C)
    /// always presents as a fresh visitor; stateful crawling makes
    /// repeat pages of a site "returning" — which changes what sites
    /// serve (e.g. consent banners only greet fresh visitors).
    pub returning_visitor: bool,
}

impl VisitCtx {
    /// A plain modern-browser visit with interaction, GUI.
    pub fn standard(visit_seed: u64) -> VisitCtx {
        VisitCtx {
            visit_seed,
            browser_version: 95,
            interaction: true,
            headless: false,
            returning_visitor: false,
        }
    }
}

/// A server reply: status plus content description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerReply {
    /// HTTP status.
    pub status: Status,
    /// What the body is / causes.
    pub content: Content,
}

/// The generated universe.
#[derive(Debug, Clone)]
pub struct WebUniverse {
    config: UniverseConfig,
    sites: Vec<SiteSpec>,
    /// `profiles[i]` is the structural profile of `sites[i]`.
    profiles: Vec<SiteProfile>,
    by_domain: HashMap<String, usize>,
}

impl WebUniverse {
    /// Generate the universe for a configuration. Pure function of the
    /// config; cheap: each site's [`SiteProfile`] (which services it
    /// embeds) is derived here once, and everything else a page holds
    /// is derived on `serve`.
    pub fn generate(config: UniverseConfig) -> WebUniverse {
        let ranks = tranco::sample_ranks(config.seed, &config.sites_per_bucket);
        let mut sites = Vec::with_capacity(ranks.len());
        let mut by_domain = HashMap::with_capacity(ranks.len());
        for rank in ranks {
            let domain = tranco::domain_at_rank(config.seed, rank);
            let h = SeedMixer::new(config.seed)
                .with("site")
                .with(&domain)
                .finish();
            // 5..=max_subpages, skewed up for popular sites (the paper
            // finds 14.6 pages/site on average; popular sites are larger).
            let max = config.max_subpages.max(5);
            let base = 5 + (crate::seed::bounded(h, (max - 4) as u64) as usize);
            let bucket = RankBucket::of_rank(rank);
            let popularity_bonus = match bucket {
                RankBucket::Top5k => 4,
                RankBucket::To10k => 3,
                RankBucket::To50k => 2,
                RankBucket::To250k => 1,
                RankBucket::To500k => 0,
            };
            let n_subpages = (base + popularity_bonus).min(max);
            let idx = sites.len();
            sites.push(SiteSpec {
                domain: domain.clone(),
                rank,
                bucket,
                n_subpages,
            });
            by_domain.insert(domain, idx);
        }
        let profiles = (sites.iter())
            .map(|site| SiteProfile::derive(config.seed, site))
            .collect();
        WebUniverse {
            config,
            sites,
            profiles,
            by_domain,
        }
    }

    /// The configuration the universe was generated from.
    pub fn config(&self) -> &UniverseConfig {
        &self.config
    }

    /// All sites, sorted by rank.
    pub fn sites(&self) -> &[SiteSpec] {
        &self.sites
    }

    /// Look up a site by its registerable domain.
    pub fn site(&self, domain: &str) -> Option<&SiteSpec> {
        self.by_domain.get(domain).map(|&i| &self.sites[i])
    }

    /// Look up a site and its structural profile by its registerable
    /// domain.
    pub(crate) fn site_with_profile(&self, domain: &str) -> Option<(&SiteSpec, &SiteProfile)> {
        (self.by_domain.get(domain)).map(|&i| (&self.sites[i], &self.profiles[i]))
    }

    /// Serve a URL for a visit: the heart of the synthetic web. Returns
    /// the reply the origin server would produce, or a 404 leaf for
    /// URLs outside the universe.
    pub fn serve(&self, url: &Url, ctx: &VisitCtx) -> ServerReply {
        crate::serve::serve(self, url, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> WebUniverse {
        WebUniverse::generate(UniverseConfig {
            seed: 1,
            sites_per_bucket: [10, 5, 5, 5, 5],
            max_subpages: 10,
        })
    }

    #[test]
    fn generation_is_deterministic() {
        let a = tiny();
        let b = tiny();
        assert_eq!(a.sites(), b.sites());
    }

    #[test]
    fn site_count_and_buckets() {
        let u = tiny();
        assert_eq!(u.sites().len(), 30);
        let top: Vec<_> = u
            .sites()
            .iter()
            .filter(|s| s.bucket == RankBucket::Top5k)
            .collect();
        assert_eq!(top.len(), 10);
    }

    #[test]
    fn lookup_by_domain() {
        let u = tiny();
        let first = &u.sites()[0];
        assert_eq!(u.site(&first.domain).unwrap().rank, first.rank);
        assert!(u.site("not-in-universe.com").is_none());
    }

    #[test]
    fn page_urls_well_formed() {
        let u = tiny();
        let s = &u.sites()[0];
        let landing = s.landing_url();
        assert_eq!(landing.path(), "/");
        assert_eq!(landing.site(), s.domain);
        let p3 = s.page_url(3);
        assert_eq!(p3.path(), "/page/3");
        assert_eq!(s.page_url(0), landing);
    }

    #[test]
    fn subpage_counts_in_range() {
        let u = tiny();
        for s in u.sites() {
            assert!(
                (5..=10).contains(&s.n_subpages),
                "{}: {}",
                s.domain,
                s.n_subpages
            );
        }
    }

    #[test]
    fn different_seed_different_universe() {
        let a = WebUniverse::generate(UniverseConfig {
            seed: 1,
            ..UniverseConfig::default()
        });
        let b = WebUniverse::generate(UniverseConfig {
            seed: 2,
            ..UniverseConfig::default()
        });
        assert_ne!(a.sites()[0].domain, b.sites()[0].domain);
    }
}
