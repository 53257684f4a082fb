//! Record a crawl once, replay every analysis from the archive.
//!
//! The paper's analyses are re-runnable because its raw data was
//! released (Appendix A). This example is that workflow end to end:
//! crawl into a `wmtree-bundle` archive — deliberately interrupting and
//! resuming it along the way — then run the analysis pipeline twice
//! *purely from the archive*, never touching the crawler again, and
//! show the object store's deduplication accounting from telemetry.
//!
//! ```sh
//! cargo run --release --example bundle_replay -- /tmp/wmtree-bundle-replay
//! ```

use wmtree::telemetry::MetricValue;
use wmtree::{BundleRun, Experiment, ExperimentConfig, Report, Scale};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::path::PathBuf::from(
        std::env::args()
            .nth(1)
            .unwrap_or_else(|| "/tmp/wmtree-bundle-replay".to_string()),
    );
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;

    let exp = Experiment::new(ExperimentConfig::at_scale(Scale::Tiny));

    // 1. Record — interrupted on purpose after three sites, then
    //    resumed. The finished archive is byte-identical to one written
    //    by an uninterrupted run.
    println!("== Recording ==");
    let before = wmtree::telemetry::global().snapshot();
    match exp.run_to_bundle(&dir, Some(3))? {
        BundleRun::Partial {
            sites_done,
            sites_total,
            ..
        } => println!("interrupted: checkpointed {sites_done}/{sites_total} sites"),
        BundleRun::Complete { .. } => println!("universe smaller than the cap; done in one go"),
    }
    let (crawled, bundle) = match exp.run_to_bundle(&dir, None)? {
        BundleRun::Complete { results, bundle } => (results, bundle),
        BundleRun::Partial {
            sites_done,
            sites_total,
            ..
        } => return Err(format!("still partial after resume: {sites_done}/{sites_total}").into()),
    };
    println!(
        "resumed to completion: {} visit records over {} checkpointed sites",
        bundle.visit_records, bundle.checkpoints
    );

    // Dedup accounting, from the telemetry counters the writer bumps.
    let recorded = wmtree::telemetry::global().snapshot().since(&before);
    let counter = |name: &str| match recorded.metrics.get(name) {
        Some(MetricValue::Counter(n)) => *n,
        _ => 0,
    };
    let stored = counter("bundle.objects.stored");
    let hits = counter("bundle.objects.dedup_hits");
    println!(
        "object store: {stored} unique payloads, {hits} dedup hits — \
         dedup ratio {:.3} ({} bytes appended)",
        bundle.dedup_ratio(),
        counter("bundle.bytes.written"),
    );

    // 2. Replay — the analysis pipeline fed purely from the archive.
    println!("\n== Replaying from {} ==", dir.display());
    let replayed = exp.replay_from_bundle(&dir)?;

    // Analysis A: node-presence census across the five profiles.
    let sims = &replayed.sims;
    let (mut nodes, mut in_all, mut in_one) = (0usize, 0usize, 0usize);
    for page in sims {
        for node in &page.nodes {
            nodes += 1;
            if node.present_in == page.n_trees {
                in_all += 1;
            }
            if node.present_in == 1 {
                in_one += 1;
            }
        }
    }
    println!(
        "census over {} vetted pages: {} nodes, {:.0}% in all profiles, {:.0}% in one",
        sims.len(),
        nodes,
        100.0 * in_all as f64 / nodes.max(1) as f64,
        100.0 * in_one as f64 / nodes.max(1) as f64,
    );

    // Analysis B: the full paper-style report — byte-identical to the
    // one computed from the live crawl.
    let from_crawl = Report::generate(&crawled).render();
    let from_bundle = Report::generate(&replayed).render();
    assert_eq!(
        from_crawl, from_bundle,
        "replayed report must match the crawled one byte-for-byte"
    );
    println!(
        "full report from the archive matches the crawled run byte-for-byte ({} bytes)",
        from_bundle.len()
    );
    Ok(())
}
