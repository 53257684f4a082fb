//! Resume determinism: a crawl interrupted after `k` sites and resumed
//! must leave a bundle byte-identical to an uninterrupted run — the
//! core guarantee of the checkpointed archive format.

use std::collections::BTreeMap;
use std::path::Path;
use wmtree_crawler::{standard_profiles, Commander, CrawlOptions, ResumableOutcome};
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

#[test]
fn interrupted_resumed_bundle_is_byte_identical_to_uninterrupted() {
    let u = uni();
    let cmd = Commander::new(&u, standard_profiles(), options(2));

    // Uninterrupted reference run.
    let straight = tmp("straight");
    let ResumableOutcome::Complete { db: ref_db, .. } = cmd.run_resumable(&straight, None).unwrap()
    else {
        panic!("uncapped run must complete");
    };

    // Interrupted run: stop after 3 sites, then resume in chunks of 4
    // until done.
    let chunked = tmp("chunked");
    let mut outcome = cmd.run_resumable(&chunked, Some(3)).unwrap();
    let mut rounds = 0;
    let db = loop {
        match outcome {
            ResumableOutcome::Complete { db, manifest } => {
                assert!(manifest.complete);
                break db;
            }
            ResumableOutcome::Partial {
                sites_done,
                sites_total,
                manifest,
            } => {
                assert!(!manifest.complete);
                assert!(sites_done < sites_total, "{sites_done} < {sites_total}");
                rounds += 1;
                assert!(rounds < 20, "resume loop must terminate");
                outcome = cmd.run_resumable(&chunked, Some(4)).unwrap();
            }
        }
    };
    assert!(rounds >= 2, "the cap must actually interrupt the crawl");

    assert_eq!(
        dir_bytes(&straight),
        dir_bytes(&chunked),
        "resumed bundle must be byte-identical to the uninterrupted one"
    );
    assert_eq!(
        serde_json::to_string(&ref_db).unwrap(),
        serde_json::to_string(&db).unwrap(),
        "recovered database must match the uninterrupted one"
    );
}

#[test]
fn worker_count_does_not_change_the_bundle() {
    let u = uni();
    let one = tmp("workers1");
    let eight = tmp("workers8");
    Commander::new(&u, standard_profiles(), options(1))
        .run_resumable(&one, None)
        .unwrap();
    Commander::new(&u, standard_profiles(), options(8))
        .run_resumable(&eight, None)
        .unwrap();
    assert_eq!(dir_bytes(&one), dir_bytes(&eight));
}

#[test]
fn resumable_crawl_matches_plain_run() {
    let u = uni();
    let cmd = Commander::new(&u, standard_profiles(), options(2));
    let plain = cmd.run();
    let dir = tmp("vsplain");
    let ResumableOutcome::Complete { db, .. } = cmd.run_resumable(&dir, None).unwrap() else {
        panic!("uncapped run must complete");
    };
    assert_eq!(
        serde_json::to_string(&plain).unwrap(),
        serde_json::to_string(&db).unwrap(),
        "resumable crawl must produce the same database as run()"
    );
}

#[test]
fn rerun_on_complete_bundle_replays_without_crawling() {
    let u = uni();
    let cmd = Commander::new(&u, standard_profiles(), options(2));
    let dir = tmp("replay");
    let ResumableOutcome::Complete { db: first, .. } = cmd.run_resumable(&dir, None).unwrap()
    else {
        panic!("uncapped run must complete");
    };
    let before = dir_bytes(&dir);
    let ResumableOutcome::Complete { db: second, .. } = cmd.run_resumable(&dir, None).unwrap()
    else {
        panic!("complete bundle must replay as Complete");
    };
    assert_eq!(before, dir_bytes(&dir), "replay must not touch the archive");
    assert_eq!(
        serde_json::to_string(&first).unwrap(),
        serde_json::to_string(&second).unwrap()
    );
}

#[test]
fn bundle_bytes_ignore_worker_count_and_interruption_points() {
    let u = uni();
    let reference = tmp("points-reference");
    Commander::new(&u, standard_profiles(), options(1))
        .run_resumable(&reference, None)
        .unwrap();
    let expect = dir_bytes(&reference);
    // Stop after `first` sites, then resume `then` sites at a time.
    for workers in [1usize, 2, 8] {
        for (first, then) in [(1, 4), (5, 100)] {
            let dir = tmp(&format!("points-{workers}-{first}"));
            let cmd = Commander::new(&u, standard_profiles(), options(workers));
            let mut cap = first;
            while let ResumableOutcome::Partial { .. } = cmd.run_resumable(&dir, Some(cap)).unwrap()
            {
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
