//! The shard-identity acceptance bar: a sharded run — plan, per-shard
//! crawl (including an interrupt + resume), streaming merge — produces
//! a report, CSVs, and totals digest **byte-identical** to a
//! single-process unsharded run, at Tiny and Small, for shard counts
//! {1, 2, 5}; and the most the merge streams through one fold step is
//! one shard, not the corpus. A tampered shard bundle is rejected with
//! an error naming the shard and the corruption's location.

use std::path::PathBuf;
use wmtree::{Experiment, ExperimentConfig, ExperimentResults, Report, Scale};
use wmtree_analysis::MergeDigest;
use wmtree_shard::{crawl_shard, merge_shards, MergedRun, ShardCrawl, ShardError, ShardPlan};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wmtree-shard-identity-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The monolithic totals, in the merge digest's shape.
fn digest_of(results: &ExperimentResults) -> MergeDigest {
    MergeDigest {
        pages: results.data.pages.len(),
        pages_discovered: results.pages_discovered,
        successful_visits: results.successful_visits,
        vetted_sites: results.vetted_sites,
        per_profile: results
            .profile_stats
            .iter()
            .map(|s| (s.attempted, s.succeeded))
            .collect(),
    }
}

/// Render a report's CSV directory and return `(file name, bytes)` in
/// name order.
fn csv_bytes(report: &Report, dir: &PathBuf) -> Vec<(String, Vec<u8>)> {
    report.write_csv_dir(dir).expect("write csv dir");
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("read csv dir")
        .map(|e| {
            let e = e.expect("dir entry");
            let name = e.file_name().to_string_lossy().into_owned();
            let bytes = std::fs::read(e.path()).expect("read csv file");
            (name, bytes)
        })
        .collect();
    files.sort();
    files
}

/// Plan `n` shards, crawl them all, merge, and assert the result is
/// byte-identical to the monolithic `mono`. When `interrupt` is set,
/// shard 0's crawl is first stopped after one site and then resumed —
/// the resumed bundle must change nothing.
fn assert_identical(scale: Scale, n: usize, interrupt: bool, mono: &ExperimentResults, tag: &str) {
    let exp = Experiment::new(ExperimentConfig::at_scale(scale));
    let dir = tmp(tag);
    ShardPlan::new(&exp, n)
        .expect("plan")
        .store(&dir)
        .expect("store plan");

    if interrupt {
        // Kill shard 0 after one site; the plan must record no hash.
        match crawl_shard(&exp, &dir, 0, Some(1)).expect("capped crawl") {
            ShardCrawl::Partial {
                sites_done,
                sites_total,
            } => {
                assert!(sites_done < sites_total, "cap of 1 must interrupt");
            }
            ShardCrawl::Complete { .. } => panic!("cap of 1 must not complete shard 0"),
        }
        assert_eq!(
            ShardPlan::load(&dir).expect("reload").shards[0].bundle_hash,
            None
        );
    }
    for id in 0..n.min(exp.universe().sites().len()) {
        match crawl_shard(&exp, &dir, id, None).expect("crawl shard") {
            ShardCrawl::Complete { bundle_hash, .. } => {
                assert_eq!(bundle_hash.len(), 16, "hex content hash");
            }
            ShardCrawl::Partial { .. } => panic!("uncapped shard {id} must complete"),
        }
    }

    let MergedRun {
        results,
        digest,
        peak_shard_pages,
        sites_rebuilt,
        sites_reused,
    } = merge_shards(&exp, &dir).expect("merge");
    assert_eq!(sites_reused, 0, "{tag}: first merge has no cache to reuse");
    assert!(sites_rebuilt > 0, "{tag}: first merge must rebuild");

    // Totals digest: byte-identical JSON.
    assert_eq!(
        serde_json::to_string(&digest).expect("digest json"),
        serde_json::to_string(&digest_of(mono)).expect("digest json"),
        "{tag}: digests differ"
    );
    // Report text and JSON: byte-identical.
    let merged_report = Report::generate(&results);
    let mono_report = Report::generate(mono);
    assert_eq!(
        merged_report.render(),
        mono_report.render(),
        "{tag}: rendered reports differ"
    );
    assert_eq!(
        merged_report.to_json(),
        mono_report.to_json(),
        "{tag}: report JSON differs"
    );
    // Every CSV file: byte-identical.
    let a = csv_bytes(&merged_report, &dir.join("csv-merged"));
    let b = csv_bytes(&mono_report, &dir.join("csv-mono"));
    assert_eq!(a, b, "{tag}: CSV files differ");

    // A second merge over the unchanged bundles folds every site from
    // the per-shard caches written by the first — and the warm result
    // is still byte-identical to the monolithic run.
    let warm = merge_shards(&exp, &dir).expect("warm merge");
    assert_eq!(warm.sites_rebuilt, 0, "{tag}: warm re-merge rebuilt sites");
    assert_eq!(
        warm.sites_reused, sites_rebuilt,
        "{tag}: warm re-merge must reuse every site the cold merge built"
    );
    assert_eq!(
        Report::generate(&warm.results).render(),
        mono_report.render(),
        "{tag}: warm re-merged report differs"
    );

    // Bounded memory: no fold step streamed more than the largest
    // shard's pages; with real partitions that is less than the corpus.
    assert!(peak_shard_pages > 0);
    assert!(
        peak_shard_pages <= mono.pages_discovered,
        "{tag}: peak {peak_shard_pages} exceeds corpus {}",
        mono.pages_discovered
    );
    if n > 1 {
        assert!(
            peak_shard_pages < mono.pages_discovered,
            "{tag}: {n} shards must hold strictly less than the corpus"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tiny_sharded_runs_are_byte_identical() {
    let mono = Experiment::new(ExperimentConfig::at_scale(Scale::Tiny)).run();
    for n in [1usize, 2, 5] {
        // n == 2 additionally exercises interrupt + resume of shard 0.
        assert_identical(Scale::Tiny, n, n == 2, &mono, &format!("tiny-{n}"));
    }
}

#[test]
fn small_sharded_runs_are_byte_identical() {
    let mono = Experiment::new(ExperimentConfig::at_scale(Scale::Small)).run();
    for n in [1usize, 2, 5] {
        assert_identical(Scale::Small, n, n == 5, &mono, &format!("small-{n}"));
    }
}

#[test]
fn tampered_shard_bundle_is_rejected_with_location() {
    let exp = Experiment::new(ExperimentConfig::at_scale(Scale::Tiny));
    let dir = tmp("tamper");
    ShardPlan::new(&exp, 2)
        .expect("plan")
        .store(&dir)
        .expect("store plan");
    for id in 0..2 {
        crawl_shard(&exp, &dir, id, None).expect("crawl shard");
    }

    // Flip one payload byte in shard 1's visit log. The bundle's
    // record checksums catch it during the merge's streaming read, and
    // the error names the shard and the segment location.
    let seg = dir.join("shard-001").join("visits-000.seg");
    let mut bytes = std::fs::read(&seg).expect("read segment");
    let victim = bytes
        .iter()
        .position(|&b| b == b'{')
        .expect("segment has a JSON payload");
    bytes[victim] ^= 0x01;
    std::fs::write(&seg, bytes).expect("write tampered segment");

    let err = merge_shards(&exp, &dir).expect_err("tampered bundle must be rejected");
    match &err {
        ShardError::Shard {
            id, dir: shard_dir, ..
        } => {
            assert_eq!(*id, 1, "error must name the tampered shard");
            assert!(
                shard_dir.ends_with("shard-001"),
                "error must name the shard directory: {}",
                shard_dir.display()
            );
        }
        other => panic!("expected a located shard error, got: {other}"),
    }
    let msg = err.to_string();
    assert!(msg.contains("shard 1"), "{msg}");
    assert!(msg.contains("visits-000.seg"), "{msg}");

    // Tampering the manifest itself instead trips the content hash.
    let manifest = dir.join("shard-000").join("MANIFEST.json");
    let mut text = std::fs::read_to_string(&manifest).expect("read manifest");
    text.push(' ');
    std::fs::write(&manifest, text).expect("write tampered manifest");
    let err = merge_shards(&exp, &dir).expect_err("tampered manifest must be rejected");
    assert!(
        matches!(err, ShardError::HashMismatch { id: 0, .. }),
        "expected a hash mismatch on shard 0, got: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn merging_an_uncrawled_plan_is_rejected() {
    let exp = Experiment::new(ExperimentConfig::at_scale(Scale::Tiny));
    let dir = tmp("uncrawled");
    ShardPlan::new(&exp, 3)
        .expect("plan")
        .store(&dir)
        .expect("store plan");
    let err = merge_shards(&exp, &dir).expect_err("nothing crawled");
    assert!(matches!(err, ShardError::NotCrawled { id: 0 }), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_plans_are_located_errors_not_panics() {
    let exp = Experiment::new(ExperimentConfig::at_scale(Scale::Tiny));
    let total = exp.universe().sites().len();

    // The last window runs past the universe: the crawl refuses the
    // plan instead of tripping the commander's range check.
    let dir = tmp("past-universe");
    let mut plan = ShardPlan::new(&exp, 3).expect("plan");
    plan.shards[2].site_hi = total + 2;
    plan.store(&dir).expect("store plan");
    let err = crawl_shard(&exp, &dir, 2, None).expect_err("window past the universe");
    assert!(matches!(err, ShardError::Plan { .. }), "{err}");
    assert!(err.to_string().contains("shard 2"), "{err}");

    // Shard 1 starts three sites late: crawled under the good plan,
    // then merged under the one with the gap, which must not yield a
    // report missing those sites.
    let dir = tmp("gap");
    ShardPlan::new(&exp, 3)
        .expect("plan")
        .store(&dir)
        .expect("store plan");
    for id in 0..3 {
        crawl_shard(&exp, &dir, id, None).expect("crawl shard");
    }
    let mut gap = ShardPlan::load(&dir).expect("reload");
    gap.shards[1].site_lo += 3;
    gap.store(&dir).expect("store gap");
    let err = merge_shards(&exp, &dir).expect_err("a plan with a gap must not merge");
    assert!(matches!(err, ShardError::Plan { .. }), "{err}");
    assert!(err.to_string().contains("shard 1"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}
