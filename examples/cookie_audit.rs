//! Cookie audit: the §5.2 workload — compare the cookies each
//! measurement profile observes on the same pages, including security
//! attributes (Secure / HttpOnly / SameSite).
//!
//! ```sh
//! cargo run --release --example cookie_audit
//! ```

use std::collections::{BTreeMap, BTreeSet};
use wmtree::analysis::cookies::cookie_stats;
use wmtree::{Experiment, ExperimentConfig, Scale};

fn main() {
    let results = Experiment::new(ExperimentConfig::at_scale(Scale::Tiny)).run();
    let data = &results.data;

    let stats = cookie_stats(data);
    println!("== Cookie audit over {} vetted pages ==", data.pages.len());
    println!("total observations: {}", stats.total_observations);
    println!(
        "distinct cookies (name, domain, path): {}",
        stats.distinct_cookies
    );
    for (name, count) in data.profile_names.iter().zip(&stats.per_profile) {
        println!("  {name:<9} observed {count} cookies");
    }
    println!(
        "seen by all profiles: {:.0}%   seen by exactly one: {:.0}%",
        stats.share_in_all * 100.0,
        stats.share_in_one * 100.0
    );
    println!(
        "per-page cookie-set similarity: {:.2} (vs NoAction only: {:.2})",
        stats.per_page_similarity.mean, stats.interaction_vs_noaction.mean
    );
    println!(
        "cookies with conflicting security attributes: {}",
        stats.attribute_conflicts
    );

    // Show the top cookie-setting domains and how consistently they set.
    let mut per_domain: BTreeMap<String, BTreeSet<usize>> = BTreeMap::new();
    let mut domain_count: BTreeMap<String, usize> = BTreeMap::new();
    for page in &data.pages {
        for (profile, observations) in page.cookies.iter().enumerate() {
            for obs in observations {
                per_domain
                    .entry(obs.id.domain.clone())
                    .or_default()
                    .insert(profile);
                *domain_count.entry(obs.id.domain.clone()).or_insert(0) += 1;
            }
        }
    }
    let mut rows: Vec<_> = domain_count.into_iter().collect();
    rows.sort_by_key(|(_, c)| std::cmp::Reverse(*c));
    println!("\n{:<28} {:>8} {:>10}", "cookie domain", "set", "profiles");
    for (domain, count) in rows.into_iter().take(12) {
        println!(
            "{:<28} {:>8} {:>9}/5",
            domain,
            count,
            per_domain[&domain].len()
        );
    }

    println!(
        "\nTakeaway (§5.2): even with identical page lists, profiles observe different\n\
         cookie sets — measurement studies comparing cookie counts across setups are\n\
         comparing different underlying populations."
    );
}
