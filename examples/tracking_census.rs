//! Tracking census: the §5.3 workload — who tracks, from where, and how
//! stable are those observations across measurement profiles?
//!
//! This example exercises the public API the way a privacy-measurement
//! study would: crawl, classify tracking requests with the filter list,
//! then ask how reliably each tracker would have been observed.
//!
//! ```sh
//! cargo run --release --example tracking_census
//! ```

use std::collections::BTreeMap;
use wmtree::{Experiment, ExperimentConfig, Scale};
use wmtree_url::Url;

fn main() {
    let results = Experiment::new(ExperimentConfig::at_scale(Scale::Tiny)).run();
    let sims = &results.sims;

    // Census: tracking nodes per third-party site, with presence stats.
    #[derive(Default)]
    struct Entry {
        nodes: usize,
        in_all_profiles: usize,
        in_one_profile: usize,
        sites: std::collections::BTreeSet<String>,
    }
    let mut census: BTreeMap<String, Entry> = BTreeMap::new();

    for page in sims {
        for node in &page.nodes {
            if !node.tracking {
                continue;
            }
            let Ok(url) = Url::parse(&node.key) else {
                continue;
            };
            let entry = census.entry(url.site()).or_default();
            entry.nodes += 1;
            entry.sites.insert(page.site.to_string());
            if node.present_in == page.n_trees {
                entry.in_all_profiles += 1;
            }
            if node.present_in == 1 {
                entry.in_one_profile += 1;
            }
        }
    }

    println!("== Tracking census over {} vetted pages ==", sims.len());
    println!(
        "{:<24} {:>7} {:>9} {:>10} {:>10}",
        "tracker (eTLD+1)", "nodes", "on sites", "in all", "in one"
    );
    let mut rows: Vec<_> = census.into_iter().collect();
    rows.sort_by_key(|(_, e)| std::cmp::Reverse(e.nodes));
    for (tracker, e) in rows {
        println!(
            "{:<24} {:>7} {:>9} {:>9.0}% {:>9.0}%",
            tracker,
            e.nodes,
            e.sites.len(),
            100.0 * e.in_all_profiles as f64 / e.nodes as f64,
            100.0 * e.in_one_profile as f64 / e.nodes as f64,
        );
    }

    // The headline §5.3 message: would a single-profile study have seen
    // the same trackers?
    let all_tracking: Vec<_> = sims
        .iter()
        .flat_map(|p| &p.nodes)
        .filter(|n| n.tracking)
        .collect();
    let stable = all_tracking.iter().filter(|n| n.present_in == 5).count();
    println!(
        "\n{} tracking nodes total; {:.0}% visible to every profile — a single-profile crawl \
         captures only a partial view (§5.3).",
        all_tracking.len(),
        100.0 * stable as f64 / all_tracking.len().max(1) as f64
    );
}
