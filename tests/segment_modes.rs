//! Fail-fast and lenient readers of segment logs agree. One random
//! mutation of one segment file — a flipped bit, a truncation, appended
//! junk, or two swapped lines — must never panic either reader, and:
//!
//! * a bundle fails `read_bundle` exactly when `verify_bundle` finds a
//!   defect other than a crash leftover or an unfinished crawl, and a
//!   cached replay, which analyses sites as they stream out, fails
//!   exactly when `read_bundle` does, with the same error;
//! * a tree cache opens empty whenever `verify_cache` finds a framing
//!   defect, and keeps every committed record when it finds none.

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use wmtree::browser::VisitResult;
use wmtree::bundle::{verify_bundle, BundleMeta, SegmentDefect};
use wmtree::crawler::{read_bundle, standard_profiles, write_bundle, CrawlDb, PageKey};
use wmtree::net::ResourceType;
use wmtree::tree::cache::{verify_cache, CacheVerifyIssue, TreeCache};
use wmtree::tree::DepTree;
use wmtree::url::{Party, Url};
use wmtree::{AnalysisCache, Experiment, ExperimentConfig, Scale};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wmtree-segment-modes-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Apply mutation `kind` (flip, truncate, append, swap) to `file`,
/// steered by `a`, `b` and `bit`.
fn mutate(file: &Path, kind: u8, a: usize, b: usize, bit: u8) {
    let mut bytes = std::fs::read(file).expect("read segment");
    match kind % 4 {
        0 if !bytes.is_empty() => {
            let at = a % bytes.len();
            bytes[at] ^= 1 << (bit % 8);
        }
        1 => bytes.truncate(a % (bytes.len() + 1)),
        2 => {
            bytes.extend_from_slice(format!("{a:016x} junk").as_bytes());
            if bit.is_multiple_of(2) {
                bytes.push(b'\n');
            }
        }
        _ => {
            let mut lines: Vec<&[u8]> = bytes.split_inclusive(|&c| c == b'\n').collect();
            if !lines.is_empty() {
                let (i, j) = (a % lines.len(), b % lines.len());
                lines.swap(i, j);
            }
            bytes = lines.concat();
        }
    }
    std::fs::write(file, bytes).expect("write segment");
}

fn small_db() -> CrawlDb {
    let mut db = CrawlDb::new(2);
    for site in ["a.com", "b.com"] {
        for page in 0..2u64 {
            let url = format!("https://www.{site}/p{page}");
            for profile in 0..2 {
                let mut visit = VisitResult::failed(Url::parse(&url).expect("url parses"));
                visit.duration_ms = page * 2 + profile as u64;
                let key = PageKey {
                    site: site.to_string(),
                    url: url.clone(),
                };
                db.insert(key, profile, visit);
            }
        }
    }
    db
}

/// An experiment whose bundle identity is the one `small_db` is
/// written under — two profiles named `A` and `B`, seed 1 — so it
/// replays those bundles.
fn small_experiment() -> &'static Experiment {
    static EXPERIMENT: OnceLock<Experiment> = OnceLock::new();
    EXPERIMENT.get_or_init(|| {
        let mut profiles = standard_profiles();
        profiles.truncate(2);
        profiles[0].name = "A".into();
        profiles[1].name = "B".into();
        let mut cfg = ExperimentConfig::at_scale(Scale::Tiny).with_profiles(profiles);
        cfg.experiment_seed = 1;
        Experiment::new(cfg)
    })
}

fn small_cache(dir: &Path) -> usize {
    let cache = TreeCache::open(dir, 9);
    let n = 3;
    for i in 0..n {
        let mut tree = DepTree::new_rooted(format!("https://www.s{i}.com/"));
        tree.attach(
            0,
            format!("https://cdn.s{i}.com/app.js"),
            ResourceType::Script,
            Party::Third,
            i % 2 == 0,
        );
        cache.insert_site(i as u64 + 100, &vec![tree; i]);
    }
    cache.commit().expect("commit cache");
    n
}

proptest! {
    #[test]
    fn bundle_readers_agree(file in 0usize..2, kind in 0u8..4, a in 0usize..100_000, b in 0usize..100_000, bit in 0u8..8) {
        let dir = tmp(&format!("bundle-{file}-{kind}-{a}-{b}-{bit}"));
        let meta = BundleMeta {
            n_profiles: 2,
            profiles: vec!["A".into(), "B".into()],
            experiment_seed: 1,
        };
        write_bundle(&small_db(), &dir, meta).expect("write bundle");
        mutate(&dir.join(["objects-000.seg", "visits-000.seg"][file]), kind, a, b, bit);

        let report = verify_bundle(&dir).expect("segments stay readable");
        let read = read_bundle(&dir);
        let read_err = read.as_ref().err().map(|e| e.to_string());
        prop_assert_eq!(
            read.is_ok(),
            report.is_clean(),
            "read_bundle: {:?}; verify_bundle: {:?}",
            read.err().map(|e| e.to_string()),
            report.issues
        );
        let exp = small_experiment();
        let cache_dir = dir.with_extension("cache");
        let _ = std::fs::remove_dir_all(&cache_dir);
        let cache = AnalysisCache::open(&cache_dir, exp.config());
        let replay = exp.replay_from_bundle_cached(&dir, &cache);
        prop_assert_eq!(replay.err().map(|e| e.to_string()), read_err);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&cache_dir);
    }

    #[test]
    fn cache_open_discards_whenever_verify_finds_a_framing_defect(kind in 0u8..4, a in 0usize..100_000, b in 0usize..100_000, bit in 0u8..8) {
        let dir = tmp(&format!("cache-{kind}-{a}-{b}-{bit}"));
        let n = small_cache(&dir);
        mutate(&dir.join("sites-000.seg"), kind, a, b, bit);

        let report = verify_cache(&dir).expect("cache dir stays scannable");
        let framing = report.issues.iter().any(|i| {
            matches!(i, CacheVerifyIssue::Segment(d) if !matches!(d, SegmentDefect::TrailingBytes { .. }))
        });
        let only_leftovers = report.issues.iter().all(|i| {
            matches!(i, CacheVerifyIssue::Segment(SegmentDefect::TrailingBytes { .. }))
        });
        let cache = TreeCache::open(&dir, 9);
        if framing {
            prop_assert_eq!(cache.site_count(), 0, "{:?}", report.issues);
        }
        if only_leftovers {
            prop_assert_eq!(cache.site_count(), n, "{:?}", report.issues);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
