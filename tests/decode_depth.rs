//! How deep bundle readers decode, by count. A replay through a warm
//! tree cache decodes every stored object header-only and none in
//! full; cold and cache-free replays decode every object in full; and
//! a window crawl cut into batches parses no object at all, yet writes
//! the bundle a one-call crawl writes.
//!
//! The counters are process-global, so the tests take turns on a lock
//! and read them around their own work only.

use std::path::Path;
use std::sync::Mutex;
use wmtree::bundle::Manifest;
use wmtree::crawler::ResumableOutcome;
use wmtree::telemetry::{MetricValue, Snapshot};
use wmtree::tree::cache::CACHE_DIR_NAME;
use wmtree::{AnalysisCache, BundleRun, Experiment, ExperimentConfig, Scale};

/// Serializes the tests of this binary: each reads global counters.
static COUNTERS: Mutex<()> = Mutex::new(());

/// `(decoded_full, decoded_header)` in a metric snapshot.
fn decoded(metrics: &Snapshot) -> (u64, u64) {
    let count = |name: &str| match metrics.metrics.get(name) {
        Some(MetricValue::Counter(n)) => *n,
        _ => 0,
    };
    (
        count("bundle.objects.decoded_full"),
        count("bundle.objects.decoded_header"),
    )
}

fn fresh(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("wmtree-decode-depth-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn replays_decode_only_as_deep_as_the_tree_cache_needs() {
    let _turn = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = ExperimentConfig::at_scale(Scale::Tiny);
    let dir = fresh("replays");
    let objects = match Experiment::new(cfg.clone()).run_to_bundle(&dir, None) {
        Ok(BundleRun::Complete { bundle, .. }) => bundle.objects,
        other => panic!("uncapped record must complete: {other:?}"),
    };
    assert!(objects > 100, "{objects} objects");
    let replay = |what: &str| {
        let cache = AnalysisCache::open(&dir.join(CACHE_DIR_NAME), &cfg);
        let run = Experiment::new(cfg.clone())
            .replay_from_bundle_cached(&dir, &cache)
            .unwrap_or_else(|e| panic!("{what} replay: {e}"));
        (decoded(&run.results.manifest.metrics), run.sites_reused)
    };
    let (cold, reused) = replay("cold");
    assert_eq!((cold, reused), ((objects, 0), 0), "cold replay");
    let (warm, reused) = replay("warm");
    assert_eq!(warm, (0, objects), "warm replay decodes headers only");
    assert!(reused > 0);
    let plain = Experiment::new(cfg.clone())
        .replay_from_bundle(&dir)
        .expect("cache-free replay");
    assert_eq!(
        decoded(&plain.manifest.metrics),
        (objects, 0),
        "cache-free replay"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every file of a bundle directory, by name.
fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<_> = std::fs::read_dir(dir)
        .expect("list bundle")
        .map(|e| {
            let path = e.expect("dir entry").path();
            let name = path
                .file_name()
                .expect("file name")
                .to_string_lossy()
                .into_owned();
            (name, std::fs::read(&path).expect("read file"))
        })
        .collect();
    out.sort();
    out
}

#[test]
fn batched_window_crawls_parse_no_object_and_match_one_call() {
    let _turn = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let mut cfg = ExperimentConfig::at_scale(Scale::Tiny);
    cfg.workers = 2;
    let exp = Experiment::new(cfg);
    let sites = exp.universe().sites().len();
    let whole = fresh("window-whole");
    match exp.crawl_window_to_bundle(0, sites, &whole, None) {
        Ok(ResumableOutcome::Complete { .. }) => {}
        other => panic!("an uncapped window completes: {other:?}"),
    }
    // The server's job loop: batches of 4 sites until the bundle is
    // complete, then one more call on the complete bundle.
    let batched = fresh("window-batched");
    let before = wmtree::telemetry::global().snapshot();
    let mut batches = 0;
    loop {
        batches += 1;
        match exp.crawl_window_to_bundle(0, sites, &batched, Some(4)) {
            Ok(ResumableOutcome::Complete { .. }) => break,
            Ok(ResumableOutcome::Partial { .. }) => {}
            Err(e) => panic!("batch {batches}: {e}"),
        }
    }
    match exp.crawl_window_to_bundle(0, sites, &batched, Some(4)) {
        Ok(ResumableOutcome::Complete { manifest, .. }) => assert!(manifest.complete),
        other => panic!("a complete bundle stays complete: {other:?}"),
    }
    let counters = wmtree::telemetry::global().snapshot().since(&before);
    assert!(batches > 2, "{sites} sites in {batches} batches");
    assert_eq!(decoded(&counters), (0, 0), "no object parsed");
    assert_eq!(files(&batched), files(&whole), "batched bundle bytes");
    assert!(Manifest::load(&batched).expect("manifest").complete);
    let _ = std::fs::remove_dir_all(&whole);
    let _ = std::fs::remove_dir_all(&batched);
}
