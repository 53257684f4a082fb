//! Byte-identity of the cached analysis path: a replay through the
//! tree cache — cold, warm in-process, warm across a process
//! boundary (cache reopened from disk), after cache corruption, or
//! incremental over a bundle delta — must render exactly the same
//! report JSON and CSVs as the uncached crawl-then-analyze run, at any
//! worker count. The cache is allowed to change *timings* and its own
//! hit/miss counters, never a single output byte.

use wmtree::bundle::BundleMeta;
use wmtree::crawler::{read_bundle, write_bundle, CrawlDb};
use wmtree::tree::cache::CACHE_DIR_NAME;
use wmtree::{
    AnalysisCache, Experiment, ExperimentConfig, ExperimentResults, IncrementalReplay, Report,
    Scale,
};

fn config(workers: usize) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::at_scale(Scale::Tiny).with_seed(0xCAC4E);
    cfg.workers = workers;
    cfg
}

/// Every byte-addressable rendering of a run. Metric snapshots are
/// deliberately absent: cache hit/miss counters differ between cold
/// and warm runs by design, while reports and CSVs must not.
struct Rendered {
    report_json: String,
    report_text: String,
    csvs: Vec<(&'static str, String)>,
}

fn render(results: &ExperimentResults) -> Rendered {
    let report = Report::generate(results);
    Rendered {
        report_json: report.to_json(),
        report_text: report.render(),
        csvs: vec![
            ("fig1", report.fig1_csv()),
            ("fig2", report.fig2_csv()),
            ("fig3", report.fig3_csv()),
            ("fig4", report.fig4_csv()),
            ("fig7", report.fig7_csv()),
            ("fig8", report.fig8_csv()),
            ("table5", report.table5_csv()),
            ("table7", report.table7_csv()),
        ],
    }
}

fn assert_identical(baseline: &Rendered, other: &Rendered, what: &str) {
    assert_eq!(
        baseline.report_json, other.report_json,
        "report JSON differs: {what}"
    );
    assert_eq!(
        baseline.report_text, other.report_text,
        "rendered report differs: {what}"
    );
    for ((name, a), (_, b)) in baseline.csvs.iter().zip(&other.csvs) {
        assert_eq!(a, b, "{name} CSV differs: {what}");
    }
}

fn cached_replay(
    workers: usize,
    dir: &std::path::Path,
    cache: &AnalysisCache,
) -> IncrementalReplay {
    Experiment::new(config(workers))
        .replay_from_bundle_cached(dir, cache)
        .expect("cached replay")
}

#[test]
fn cached_replays_are_byte_identical_to_cold_runs() {
    // The ground truth: an uncached crawl-then-analyze run.
    let baseline = render(&Experiment::new(config(1)).run());

    // Record the same experiment to a bundle once.
    let dir = std::env::temp_dir().join("wmtree-treecache-identity");
    let _ = std::fs::remove_dir_all(&dir);
    match Experiment::new(config(1)).run_to_bundle(&dir, None) {
        Ok(wmtree::BundleRun::Complete { .. }) => {}
        other => panic!("uncapped bundle run must complete: {other:?}"),
    }
    let cache_dir = dir.join(CACHE_DIR_NAME);

    // --- Cold: the cache starts empty, every site is rebuilt. ---
    let cache = AnalysisCache::open(&cache_dir, &config(1));
    let cold = cached_replay(1, &dir, &cache);
    assert_eq!(cold.sites_reused, 0, "cold cache must start empty");
    assert_eq!(cold.sites_rebuilt, cold.sites_total);
    render(&cold.results).pipe_assert(&baseline, "cold cached replay");

    // --- Warm, same process: every site's trees come from the records
    // the cold replay stored. ---
    let warm = cached_replay(1, &dir, &cache);
    assert_eq!(warm.sites_rebuilt, 0, "warm cache must cover every site");
    render(&warm.results).pipe_assert(&baseline, "warm in-process replay");

    // --- Warm, reopened from disk (a restarted process): every site's
    // trees decode from its committed record. ---
    let reopened = AnalysisCache::open(&cache_dir, &config(1));
    let disk = cached_replay(1, &dir, &reopened);
    assert_eq!(
        disk.sites_rebuilt, 0,
        "committed cache must cover every site"
    );
    render(&disk.results).pipe_assert(&baseline, "warm disk replay");

    // --- Worker-count invariance of the cached path: cold and warm
    // replays at 2 and 8 workers, each against a fresh cache dir. ---
    for workers in [2usize, 8] {
        let wdir = std::env::temp_dir().join(format!("wmtree-treecache-identity-w{workers}"));
        let _ = std::fs::remove_dir_all(&wdir);
        let wcache = AnalysisCache::open(&wdir, &config(workers));
        let wcold = cached_replay(workers, &dir, &wcache);
        render(&wcold.results).pipe_assert(&baseline, &format!("cold at {workers} workers"));
        let wwarm = cached_replay(workers, &dir, &wcache);
        assert_eq!(wwarm.sites_rebuilt, 0);
        render(&wwarm.results).pipe_assert(&baseline, &format!("warm at {workers} workers"));
        let _ = std::fs::remove_dir_all(&wdir);
    }

    // --- Corruption: flip one byte inside the committed site log. The
    // cache must discard itself on open and rebuild — outputs stay
    // byte-identical, nothing is trusted from the damaged files. ---
    let seg = cache_dir.join("sites-000.seg");
    let mut bytes = std::fs::read(&seg).expect("committed site segment exists");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&seg, &bytes).unwrap();
    let damaged = AnalysisCache::open(&cache_dir, &config(1));
    let recovered = cached_replay(1, &dir, &damaged);
    assert_eq!(
        recovered.sites_reused, 0,
        "a corrupted cache must be discarded, not partially trusted"
    );
    render(&recovered.results).pipe_assert(&baseline, "replay after cache corruption");

    // The discard-and-rebuild must leave a healthy cache behind it.
    let healed = AnalysisCache::open(&cache_dir, &config(1));
    let warm_again = cached_replay(1, &dir, &healed);
    assert_eq!(warm_again.sites_rebuilt, 0, "rebuilt cache is warm again");
    render(&warm_again.results).pipe_assert(&baseline, "warm replay after recovery");

    // --- Incremental: a delta bundle differing in exactly one visit
    // rebuilds exactly one site, and matches that bundle's cold run. ---
    let delta_dir = std::env::temp_dir().join("wmtree-treecache-identity-delta");
    let _ = std::fs::remove_dir_all(&delta_dir);
    let full = read_bundle(&dir).expect("re-read recorded bundle");
    let target_site = full.pages().next().expect("bundle has pages").site.clone();
    let mut delta = CrawlDb::new(full.n_profiles());
    let mut perturbed = false;
    for page in full.pages() {
        for profile in 0..full.n_profiles() {
            if let Some(v) = full.visit_any(page, profile) {
                let mut v = v.clone();
                if !perturbed && page.site == target_site {
                    v.duration_ms += 1;
                    perturbed = true;
                }
                delta.insert(page.clone(), profile, v);
            }
        }
    }
    let cfg = config(1);
    write_bundle(
        &delta,
        &delta_dir,
        BundleMeta {
            n_profiles: cfg.profiles.len(),
            profiles: cfg.profiles.iter().map(|p| p.name.clone()).collect(),
            experiment_seed: cfg.experiment_seed,
        },
    )
    .expect("write delta bundle");

    let incr_cache = AnalysisCache::open(&cache_dir, &config(1));
    let incr = cached_replay(1, &delta_dir, &incr_cache);
    assert_eq!(
        incr.sites_rebuilt, 1,
        "a one-visit delta must rebuild exactly its own site"
    );
    assert_eq!(incr.sites_reused, incr.sites_total - 1);
    let delta_cold = render(
        &Experiment::new(config(1))
            .replay_from_bundle(&delta_dir)
            .expect("uncached delta replay"),
    );
    render(&incr.results).pipe_assert(&delta_cold, "incremental delta replay");

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&delta_dir);
}

/// Every file of a cache directory, name → bytes.
fn cache_files(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<_> = std::fs::read_dir(dir)
        .expect("list cache")
        .map(|e| {
            let path = e.expect("dir entry").path();
            let name = path.file_name().expect("file name").to_string_lossy();
            (
                name.into_owned(),
                std::fs::read(&path).expect("read cache file"),
            )
        })
        .collect();
    out.sort();
    out
}

#[test]
fn streamed_cold_replays_store_the_whole_database_records() {
    // The oracle: one accumulation over the whole bundle's database
    // stores every rebuilt site's record in canonical site order.
    let dir = std::env::temp_dir().join("wmtree-treecache-record-order");
    let _ = std::fs::remove_dir_all(&dir);
    let exp = Experiment::new(config(1));
    match exp.run_to_bundle(&dir.join("bundle"), None) {
        Ok(wmtree::BundleRun::Complete { .. }) => {}
        other => panic!("uncapped bundle run must complete: {other:?}"),
    }
    let cfg = config(1);
    let names: Vec<String> = cfg.profiles.iter().map(|p| p.name.clone()).collect();
    let filter = cfg
        .use_filter_list
        .then(wmtree::filterlist::embedded::tracking_list);
    let site_meta = exp
        .universe()
        .sites()
        .iter()
        .map(|s| (s.domain.clone(), (s.rank, s.bucket.label().to_string())))
        .collect();
    let oracle = dir.join("oracle");
    let cache = AnalysisCache::open(&oracle, &cfg);
    let db = read_bundle(&dir.join("bundle")).expect("read the bundle");
    wmtree::accumulate_cached(&db, &names, filter, &cfg.tree, &site_meta, 1, &cache)
        .expect("accumulate the whole database");
    cache.commit().expect("commit the oracle");
    let expect = cache_files(&oracle);
    assert!(expect
        .iter()
        .any(|(name, bytes)| name.starts_with("sites-") && !bytes.is_empty()));

    for workers in [1usize, 2, 8] {
        let wdir = dir.join(format!("cold-{workers}"));
        let cache = AnalysisCache::open(&wdir, &config(workers));
        let cold = cached_replay(workers, &dir.join("bundle"), &cache);
        assert_eq!(cold.sites_reused, 0);
        assert_eq!(
            cache_files(&wdir),
            expect,
            "TREECACHE/ after a streamed cold replay at {workers} workers"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `a.pipe_assert(b, what)` reads better at call sites than
/// `assert_identical(&b, &a, what)` with the arguments flipped.
impl Rendered {
    fn pipe_assert(&self, baseline: &Rendered, what: &str) {
        assert_identical(baseline, self, what);
    }
}
