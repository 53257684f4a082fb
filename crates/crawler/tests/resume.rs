//! Resume determinism: a crawl interrupted after `k` sites and resumed
//! must leave a bundle byte-identical to an uninterrupted run — the
//! core guarantee of the checkpointed archive format — and its stage
//! must see exactly the crawl's visits, one site at a time in universe
//! order: the recovered prefix replayed from the bundle, then every site
//! crawled after it.

use std::collections::BTreeMap;
use std::path::Path;
use wmtree_crawler::{standard_profiles, Commander, CrawlDb, CrawlOptions, ResumableOutcome};
use wmtree_telemetry::ProgressTracker;
use wmtree_webgen::{UniverseConfig, WebUniverse};

fn uni() -> WebUniverse {
    WebUniverse::generate(UniverseConfig {
        seed: 41,
        sites_per_bucket: [4, 2, 2, 2, 2],
        max_subpages: 6,
    })
}

fn options(workers: usize) -> CrawlOptions {
    CrawlOptions {
        max_pages_per_site: 6,
        workers,
        experiment_seed: 3,
        reliable: false,
        stateful: false,
    }
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("wmtree-crawler-resume-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every file of a bundle directory, name → bytes.
fn dir_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name().to_string_lossy().into_owned();
        out.insert(name, std::fs::read(entry.path()).unwrap());
    }
    out
}

/// What one [`Commander::record`] call's stage saw.
struct Staged {
    outcome: ResumableOutcome,
    /// Every database the stage was handed, merged in sink order.
    db: CrawlDb,
    /// The site of each database the stage was handed, in sink order
    /// (a site without pages has none: a crawl stages its empty
    /// database, a replay has nothing to hand out).
    sites: Vec<String>,
}

/// One [`Commander::record`] call whose stage hands each database on
/// unchanged.
fn record(cmd: &Commander, dir: &Path, cap: Option<usize>) -> Staged {
    let progress = ProgressTracker::new(1, 1);
    let stage = |db: CrawlDb| db;
    let mut db = CrawlDb::new(standard_profiles().len());
    let mut sites = Vec::new();
    let outcome = cmd
        .record(dir, cap, &progress, Some(&stage), |site| {
            let mut names: Vec<String> = site.pages().map(|p| p.site.clone()).collect();
            names.dedup();
            assert!(names.len() <= 1, "one site per stage call: {names:?}");
            sites.extend(names);
            db.merge(site);
            Ok(())
        })
        .unwrap();
    Staged { outcome, db, sites }
}

/// The sites of the universe that have pages in `db`, in universe
/// order.
fn universe_order(u: &WebUniverse, db: &CrawlDb) -> Vec<String> {
    let crawled: std::collections::BTreeSet<&str> = db.pages().map(|p| p.site.as_str()).collect();
    u.sites()
        .iter()
        .filter(|s| crawled.contains(s.domain.as_str()))
        .map(|s| s.domain.clone())
        .collect()
}

fn json(db: &CrawlDb) -> String {
    serde_json::to_string(db).unwrap()
}

#[test]
fn interrupted_resumed_bundle_is_byte_identical_to_uninterrupted() {
    let u = uni();
    let cmd = Commander::new(&u, standard_profiles(), options(2));

    // Uninterrupted reference run.
    let straight = tmp("straight");
    let reference = record(&cmd, &straight, None);
    assert!(matches!(
        reference.outcome,
        ResumableOutcome::Complete { .. }
    ));

    // Interrupted run: stop after 3 sites, then resume in chunks of 4
    // until done. Capped calls stage nothing; the call that completes
    // the bundle stages the recovered prefix site by site, then its own
    // sites.
    let chunked = tmp("chunked");
    let mut staged = record(&cmd, &chunked, Some(3));
    let mut rounds = 0;
    let last = loop {
        match staged.outcome {
            ResumableOutcome::Complete { ref manifest } => {
                assert!(manifest.complete);
                break staged;
            }
            ResumableOutcome::Partial {
                sites_done,
                sites_total,
                ref manifest,
            } => {
                assert!(!manifest.complete);
                assert!(sites_done < sites_total, "{sites_done} < {sites_total}");
                assert!(staged.sites.is_empty(), "a capped call stages nothing");
                assert_eq!(staged.db.page_count(), 0);
                rounds += 1;
                assert!(rounds < 20, "resume loop must terminate");
                staged = record(&cmd, &chunked, Some(4));
            }
        }
    };
    assert!(rounds >= 2, "the cap must actually interrupt the crawl");
    assert_eq!(
        last.sites,
        universe_order(&u, &reference.db),
        "the recovered prefix is staged first, then the crawled sites, each once"
    );

    assert_eq!(
        dir_bytes(&straight),
        dir_bytes(&chunked),
        "resumed bundle must be byte-identical to the uninterrupted one"
    );
    assert_eq!(
        json(&reference.db),
        json(&last.db),
        "recovered visits plus the staged sites must match the uninterrupted crawl"
    );
}

#[test]
fn worker_count_does_not_change_the_bundle() {
    let u = uni();
    let one = tmp("workers1");
    let eight = tmp("workers8");
    record(
        &Commander::new(&u, standard_profiles(), options(1)),
        &one,
        None,
    );
    record(
        &Commander::new(&u, standard_profiles(), options(8)),
        &eight,
        None,
    );
    assert_eq!(dir_bytes(&one), dir_bytes(&eight));
}

#[test]
fn resumable_crawl_matches_plain_run() {
    let u = uni();
    let cmd = Commander::new(&u, standard_profiles(), options(2));
    let plain = cmd.run();
    let dir = tmp("vsplain");
    let staged = record(&cmd, &dir, None);
    assert!(matches!(staged.outcome, ResumableOutcome::Complete { .. }));
    assert_eq!(
        staged.sites,
        universe_order(&u, &plain),
        "a fresh bundle stages each site once, in universe order"
    );
    assert_eq!(
        json(&plain),
        json(&staged.db),
        "resumable crawl must stage the same visits as run()"
    );
}

#[test]
fn rerun_on_complete_bundle_replays_without_crawling() {
    let u = uni();
    let cmd = Commander::new(&u, standard_profiles(), options(2));
    let dir = tmp("replay");
    let first = record(&cmd, &dir, None);
    let before = dir_bytes(&dir);
    let second = record(&cmd, &dir, None);
    assert!(
        matches!(second.outcome, ResumableOutcome::Complete { .. }),
        "complete bundle must replay as Complete"
    );
    assert_eq!(before, dir_bytes(&dir), "replay must not touch the archive");
    assert_eq!(
        second.sites,
        universe_order(&u, &first.db),
        "the bundle is replayed site by site, each once, in log order"
    );
    assert_eq!(json(&first.db), json(&second.db));
}

#[test]
fn bundle_bytes_ignore_worker_count_and_interruption_points() {
    let u = uni();
    let reference = tmp("points-reference");
    record(
        &Commander::new(&u, standard_profiles(), options(1)),
        &reference,
        None,
    );
    let expect = dir_bytes(&reference);
    // Stop after `first` sites, then resume `then` sites at a time.
    for workers in [1usize, 2, 8] {
        for (first, then) in [(1, 4), (5, 100)] {
            let dir = tmp(&format!("points-{workers}-{first}"));
            let cmd = Commander::new(&u, standard_profiles(), options(workers));
            let mut cap = first;
            while let ResumableOutcome::Partial { .. } = record(&cmd, &dir, Some(cap)).outcome {
                cap = then;
            }
            assert_eq!(
                dir_bytes(&dir),
                expect,
                "{workers} workers, interrupted after {first} then every {then} sites"
            );
        }
    }
}

#[test]
fn window_crawls_without_a_stage_match_staged_crawls() {
    // The stage never touches the archive: a window crawl, resumed in
    // batches without one, writes the staged crawl's bytes.
    let u = uni();
    let staged = tmp("window-staged");
    record(
        &Commander::new(&u, standard_profiles(), options(2)),
        &staged,
        None,
    );
    let dir = tmp("window-bare");
    let cmd = Commander::new(&u, standard_profiles(), options(2));
    let progress = ProgressTracker::new(u.sites().len(), 2);
    while let ResumableOutcome::Partial { .. } =
        cmd.record_window(&dir, Some(3), &progress).unwrap()
    {}
    assert_eq!(dir_bytes(&dir), dir_bytes(&staged));
}
