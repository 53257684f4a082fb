//! Plan → per-shard crawl → streaming merge, end to end on Tiny.
//!
//! The paper's full corpus (~1.7M page visits at `Scale::Huge`) cannot
//! live in one in-memory database. This example runs the out-of-core
//! pipeline on a laptop-sized universe: partition the rank-sorted site
//! list into shards (`SHARDS.json`), crawl each shard into its own
//! resumable bundle — interrupting and resuming one on purpose — then
//! merge the analysis one shard at a time and show that the merged
//! report is byte-identical to a monolithic single-process run while
//! peak residency stayed one shard.
//!
//! ```sh
//! cargo run --release --example sharded_run -- /tmp/wmtree-sharded-run
//! ```

use wmtree::{Experiment, ExperimentConfig, Report, Scale};
use wmtree_shard::{crawl_shard, merge_shards, ShardCrawl, ShardPlan};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::path::PathBuf::from(
        std::env::args()
            .nth(1)
            .unwrap_or_else(|| "/tmp/wmtree-sharded-run".to_string()),
    );
    let _ = std::fs::remove_dir_all(&dir);

    let exp = Experiment::new(ExperimentConfig::at_scale(Scale::Tiny));

    // 1. Plan — deterministic rank-range partition, persisted as
    //    SHARDS.json. Shard id order is rank order.
    println!("== Planning ==");
    let plan = ShardPlan::new(&exp, 3)?;
    plan.store(&dir)?;
    for s in &plan.shards {
        println!(
            "shard {}: ranks {}-{} ({} sites) -> {}",
            s.id,
            s.rank_lo,
            s.rank_hi,
            s.sites(),
            s.dir
        );
    }

    // 2. Crawl — each shard independently resumable. Shard 1 is
    //    interrupted after two sites and resumed; its finished bundle
    //    is byte-identical to an uninterrupted one, so the content
    //    hash recorded in SHARDS.json is unaffected. In a real Huge
    //    run each shard would be its own OS process
    //    (`repro --shard-dir DIR --shard-id K`).
    println!("\n== Crawling ==");
    match crawl_shard(&exp, &dir, 1, Some(2))? {
        ShardCrawl::Partial {
            sites_done,
            sites_total,
        } => println!("shard 1 interrupted at {sites_done}/{sites_total} sites"),
        ShardCrawl::Complete { .. } => println!("shard 1 smaller than the cap; done in one go"),
    }
    for id in 0..plan.shards.len() {
        match crawl_shard(&exp, &dir, id, None)? {
            ShardCrawl::Complete {
                visits,
                bundle_hash,
            } => {
                println!("shard {id} complete: {visits} visit records, hash {bundle_hash}");
            }
            ShardCrawl::Partial { .. } => unreachable!("uncapped crawls complete"),
        }
    }

    // 3. Merge — one shard-bundle in memory at a time, folded in rank
    //    order into mergeable partial accumulators.
    println!("\n== Merging ==");
    let merged = merge_shards(&exp, &dir)?;
    println!(
        "merged {} pages across {} vetted sites; peak residency {} pages (largest shard)",
        merged.digest.pages, merged.digest.vetted_sites, merged.peak_shard_pages
    );

    // 4. Identity — the merged report matches a monolithic in-memory
    //    run byte for byte.
    let mono = Experiment::new(ExperimentConfig::at_scale(Scale::Tiny)).run();
    let merged_report = Report::generate(&merged.results).render();
    let mono_report = Report::generate(&mono).render();
    assert_eq!(merged_report, mono_report, "sharded != monolithic");
    println!(
        "\nmerged report is byte-identical to the single-process run ({} bytes)",
        merged_report.len()
    );

    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
