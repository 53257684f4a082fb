//! A replay streams: sites are analysed as soon as the loader hands
//! them out, before the end-of-log checks have run. A defect those
//! checks find — a corrupt last object record, or an orphan object
//! appended to the log — must still fail the replay with exactly the
//! error `read_bundle` gives, after sites were staged, and without
//! committing anything to the tree cache. So must an object of the
//! first site that does not decode, which a worker finds while the
//! loader has a later defect still ahead: the first defect in log order
//! wins at every worker count.
//!
//!
//! A site recorded under two checkpoints, whole or split between them,
//! is a defect of the visit log too: `verify_bundle` reports it, and
//! every replay refuses it with `read_bundle`'s error, located at the
//! site's first record under its second checkpoint and naming the page,
//! and commits no cache.
//!
//! Tree-cache counters are process-global, so this file owns its
//! process and runs the cases that read them in one test.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use wmtree::browser::VisitResult;
use wmtree::bundle::hash::{chain_fold, chain_start, from_hex, line_checksum, object_hash, to_hex};
use wmtree::bundle::{
    object, verify_bundle, BundleError, BundleWriter, EncodedSite, Manifest, SegmentDefect,
    VerifyIssue,
};
use wmtree::crawler::{read_bundle, PageKey};
use wmtree::telemetry::MetricValue;
use wmtree::tree::cache::TreeCache;
use wmtree::url::Url;
use wmtree::{cache_fingerprint, AnalysisCache, BundleRun, Experiment, ExperimentConfig, Scale};

fn fresh(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wmtree-streamed-replay-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every file of a directory, name → bytes.
fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("list directory")
        .map(|entry| {
            let path = entry.expect("dir entry").path();
            let name = path.file_name().expect("file name").to_string_lossy();
            (name.into_owned(), std::fs::read(&path).expect("read file"))
        })
        .collect()
}

/// The last object segment of the bundle at `dir`, and its lines.
fn last_object_segment(dir: &Path) -> (String, Vec<String>) {
    let manifest = Manifest::load(dir).expect("manifest");
    let name = manifest
        .object_segments
        .last()
        .expect("objects")
        .name
        .clone();
    let text = std::fs::read_to_string(dir.join(&name)).expect("read segment");
    (name, text.lines().map(str::to_string).collect())
}

/// Flip one payload byte of the last line of the last object segment:
/// its checksum no longer matches.
fn corrupt_last_object(dir: &Path) {
    let (name, lines) = last_object_segment(dir);
    let mut bytes = std::fs::read(dir.join(&name)).expect("read segment");
    let last_line_start = bytes.len() - 1 - lines.last().expect("a line").len();
    bytes[last_line_start + 20] ^= 1;
    std::fs::write(dir.join(&name), bytes).expect("write segment");
}

/// Append a well-framed object no visit references to the last object
/// segment, with the manifest's records, chain and object count
/// updated to cover it: only the end-of-log orphan check can refuse it.
fn append_orphan(dir: &Path) {
    let mut manifest = Manifest::load(dir).expect("manifest");
    let (name, _) = last_object_segment(dir);
    let orphan = VisitResult::failed(Url::parse("https://orphan.example/").expect("url"));
    let payload = object::encode(&orphan).expect("encode the orphan");
    let line = format!("{} {payload}", to_hex(line_checksum(payload.as_bytes())));
    let mut text = std::fs::read_to_string(dir.join(&name)).expect("read segment");
    text.push_str(&line);
    text.push('\n');
    std::fs::write(dir.join(&name), text).expect("write segment");
    let meta = manifest.object_segments.last_mut().expect("objects");
    let chain = from_hex(&meta.chain).expect("hex chain");
    meta.chain = to_hex(chain_fold(chain, line.as_bytes()));
    meta.records += 1;
    manifest.objects += 1;
    manifest.store(dir).expect("store manifest");
}

/// Rewrite the payloads of segment `name` with `edit`, each line framed
/// with its checksum, and the segment's chain updated in the manifest.
fn rewrite_segment(dir: &Path, name: &str, edit: impl FnOnce(&mut Vec<String>)) {
    let text = std::fs::read_to_string(dir.join(name)).expect("read segment");
    let mut payloads: Vec<String> = text.lines().map(|line| line[17..].to_string()).collect();
    edit(&mut payloads);
    let lines: Vec<String> = payloads
        .iter()
        .map(|p| format!("{} {p}", to_hex(line_checksum(p.as_bytes()))))
        .collect();
    std::fs::write(dir.join(name), lines.join("\n") + "\n").expect("write segment");
    let chain = lines.iter().fold(chain_start(), |chain, line| {
        chain_fold(chain, line.as_bytes())
    });
    let mut manifest = Manifest::load(dir).expect("manifest");
    for meta in manifest
        .visit_segments
        .iter_mut()
        .chain(manifest.object_segments.iter_mut())
        .filter(|meta| meta.name == name)
    {
        meta.chain = to_hex(chain);
    }
    manifest.store(dir).expect("store manifest");
}

/// Re-address the first stored object, one of the first site's, to a
/// framed payload that does not decode, with its line checksum, the
/// segment's chain and the visit records referencing it updated: only
/// decoding the object can refuse it. Then corrupt the last object line
/// as well, a defect the loader finds after the first site has left.
fn undecodable_first_object(dir: &Path) {
    let manifest = Manifest::load(dir).expect("manifest");
    let payload = "[\"not a visit\"]";
    let mut old = 0;
    rewrite_segment(dir, &manifest.object_segments[0].name, |objects| {
        old = object_hash(objects[0].as_bytes());
        objects[0] = payload.to_string();
    });
    let (old, new) = (to_hex(old), to_hex(object_hash(payload.as_bytes())));
    for meta in &manifest.visit_segments {
        rewrite_segment(dir, &meta.name, |records| {
            for record in records.iter_mut() {
                *record = record.replace(&old, &new);
            }
        });
    }
    corrupt_last_object(dir);
}

fn counter(metrics: &wmtree::telemetry::Snapshot, name: &str) -> u64 {
    match metrics.metrics.get(name) {
        Some(MetricValue::Counter(n)) => *n,
        _ => 0,
    }
}

/// A named way to damage a bundle.
type Defect = (&'static str, fn(&Path));

#[test]
fn a_late_defect_fails_a_streamed_replay_and_commits_nothing() {
    let cfg = ExperimentConfig::at_scale(Scale::Tiny);
    let exp = Experiment::new(cfg.clone());
    let root = fresh("late-defect");
    let defects: [Defect; 3] = [
        ("corrupt", corrupt_last_object),
        ("orphan", append_orphan),
        ("undecodable", undecodable_first_object),
    ];
    for (case, defect) in defects {
        // A cache holding the records of the first three sites: a cold
        // replay of the partial bundle after three sites commits them.
        let bundle = root.join(format!("{case}-bundle"));
        let cache_dir = root.join(format!("{case}-cache"));
        match exp.run_to_bundle(&bundle, Some(3)) {
            Ok(BundleRun::Partial { sites_done: 3, .. }) => {}
            other => panic!("a cap of 3 stops after 3 sites: {other:?}"),
        }
        let cache = AnalysisCache::open(&cache_dir, &cfg);
        exp.replay_from_bundle_cached(&bundle, &cache)
            .expect("replay the partial bundle");
        drop(cache);
        let committed = TreeCache::open(&cache_dir, cache_fingerprint(&cfg)).site_count();
        assert!(committed > 0, "{case}: the prefix has sites with pages");
        match exp.run_to_bundle(&bundle, None) {
            Ok(BundleRun::Complete { .. }) => {}
            other => panic!("the resumed record completes: {other:?}"),
        }
        defect(&bundle);
        let (segment, lines) = last_object_segment(&bundle);
        let expect = read_bundle(&bundle).expect_err("the defect fails read_bundle");
        match (case, &expect) {
            (
                "corrupt",
                BundleError::Corrupt {
                    segment: s, line, ..
                },
            ) => {
                assert_eq!((s, *line), (&segment, lines.len()), "{expect}")
            }
            ("orphan", BundleError::ManifestMismatch { detail, .. }) => {
                assert!(detail.contains("never referenced"), "{expect}")
            }
            (
                "undecodable",
                BundleError::Corrupt {
                    segment: s, line, ..
                },
            ) => {
                let first = &Manifest::load(&bundle).expect("manifest").object_segments[0];
                assert_eq!((s, *line), (&first.name, 1), "{expect}")
            }
            _ => panic!("{case}: unexpected {expect:?}"),
        }
        let same_error = |err: BundleError, how: &str| {
            assert_eq!(err.to_string(), expect.to_string(), "{case}: {how}");
            assert_eq!(
                std::mem::discriminant(&err),
                std::mem::discriminant(&expect),
                "{case}: {how}"
            );
        };

        // Cold cached and cache-free replays fail the same way at any
        // worker count, and the cold cache commits nothing.
        for workers in [1usize, 2, 8] {
            let cfg = ExperimentConfig {
                workers,
                ..cfg.clone()
            };
            let exp = Experiment::new(cfg.clone());
            let cold_dir = root.join(format!("{case}-cold-{workers}"));
            let cold = AnalysisCache::open(&cold_dir, &cfg);
            let how = format!("cold cached replay at {workers} workers");
            match exp.replay_from_bundle_cached(&bundle, &cold) {
                Ok(_) => panic!("{case}: {how} succeeded"),
                Err(err) => same_error(err, &how),
            }
            drop(cold);
            assert!(!cold_dir.join("CACHE.json").exists(), "{case}: {how}");
            let how = format!("cache-free replay at {workers} workers");
            match exp.replay_from_bundle(&bundle) {
                Ok(_) => panic!("{case}: {how} succeeded"),
                Err(err) => same_error(err, &how),
            }
        }

        let before = files(&cache_dir);
        let cache = AnalysisCache::open(&cache_dir, &cfg);
        let metrics = wmtree::telemetry::global().snapshot();
        let err = exp
            .replay_from_bundle_cached(&bundle, &cache)
            .expect_err("the defect fails the replay");
        let metrics = wmtree::telemetry::global().snapshot().since(&metrics);
        same_error(err, "cached replay");
        // A late defect lets every site before it be staged; the first
        // site's own defect stops the replay at that site.
        if case != "undecodable" {
            assert!(
                counter(&metrics, "tree.cache.site.miss") > 0,
                "{case}: sites past the cached prefix were staged before the error"
            );
            assert!(counter(&metrics, "tree.cache.site.hit") > 0, "{case}");
        }
        drop(cache);
        assert_eq!(files(&cache_dir), before, "{case}: TREECACHE/ is untouched");
        let reopened = TreeCache::open(&cache_dir, cache_fingerprint(&cfg));
        assert_eq!(reopened.site_count(), committed, "{case}");
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Write the sites of the bundle at `from` into a new bundle at `to`,
/// one checkpoint each in site order, except that `split` decides
/// which of the first site's profiles each of its checkpoints holds.
/// Returns the first page of the first site and the line, in the visit
/// log, of that site's first record under its second checkpoint.
fn rewrite_sites(from: &Path, to: &Path, split: &[fn(usize) -> bool]) -> (PageKey, usize) {
    let db = read_bundle(from).expect("read the recording");
    let meta = Manifest::load(from).expect("manifest").meta;
    let mut writer = BundleWriter::create(to, meta).expect("create the bundle");
    let pages: Vec<&PageKey> = db.pages().collect();
    let sites: Vec<&[&PageKey]> = pages.chunk_by(|a, b| a.site == b.site).collect();
    let all: fn(usize) -> bool = |_| true;
    let firsts = split.iter().map(|&keep| (sites[0], keep));
    let mut line = 1;
    for (i, (site, keep)) in firsts
        .chain(sites[1..].iter().map(|&s| (s, all)))
        .enumerate()
    {
        let db = &db;
        let visits: Vec<_> = site
            .iter()
            .flat_map(|&page| {
                (0..db.n_profiles()).filter_map(move |profile| {
                    let visit = db.visit_any(page, profile)?;
                    keep(profile).then(|| (page.url.clone(), profile, visit))
                })
            })
            .collect();
        if i == 0 {
            line += visits.len() + 1;
        }
        let encoded = EncodedSite::encode(&site[0].site, visits).expect("encode the site");
        writer.append(encoded).expect("append the site");
    }
    writer.finish().expect("finish the bundle");
    (sites[0][0].clone(), line)
}

/// The first site twice, whole.
fn first_site_twice(from: &Path, to: &Path) -> (PageKey, usize) {
    rewrite_sites(from, to, &[|_| true, |_| true])
}

/// The first site split over two checkpoints: profile 0's visits, then
/// the other profiles'.
fn first_site_split(from: &Path, to: &Path) -> (PageKey, usize) {
    rewrite_sites(from, to, &[|p| p == 0, |p| p != 0])
}

/// A named way to record the first site under two checkpoints.
type Doubling = (&'static str, fn(&Path, &Path) -> (PageKey, usize));

#[test]
fn a_page_recorded_twice_fails_every_replay_against_the_visit_log() {
    let cfg = ExperimentConfig::at_scale(Scale::Tiny);
    let root = fresh("recorded-twice");
    let recorded = root.join("recorded");
    match Experiment::new(cfg.clone()).run_to_bundle(&recorded, None) {
        Ok(BundleRun::Complete { .. }) => {}
        other => panic!("the record completes: {other:?}"),
    }
    let doublings: [Doubling; 2] = [("twice", first_site_twice), ("split", first_site_split)];
    for (case, doubling) in doublings {
        let bundle = root.join(case);
        let (page, line) = doubling(&recorded, &bundle);
        let located = |segment: &str, at: usize| segment == "visits-000.seg" && at == line;

        // The audit behind `check-artifacts` reports the record.
        let report = verify_bundle(&bundle).expect("verify the bundle");
        assert!(
            matches!(report.issues.as_slice(),
                [VerifyIssue::Segment(SegmentDefect::Corrupt { segment, line, .. })]
                    if located(segment, *line)),
            "{case}: {:?}",
            report.issues
        );

        let expect = read_bundle(&bundle).expect_err("read_bundle refuses the second checkpoint");
        let text = expect.to_string();
        assert!(
            matches!(&expect, BundleError::Corrupt { segment, line, .. } if located(segment, *line))
                && text.contains(&format!("{} / {}", page.site, page.url)),
            "{case}: {text}"
        );

        for workers in [1usize, 2, 8] {
            let cfg = ExperimentConfig {
                workers,
                ..cfg.clone()
            };
            let exp = Experiment::new(cfg.clone());
            let cache_dir = root.join(format!("{case}-cache-{workers}"));
            let cache = AnalysisCache::open(&cache_dir, &cfg);
            let cached = exp.replay_from_bundle_cached(&bundle, &cache);
            drop(cache);
            let plain = exp.replay_from_bundle(&bundle);
            for (how, result) in [("cached", cached.err()), ("cache-free", plain.err())] {
                let err = result.unwrap_or_else(|| {
                    panic!("{case}: {how} replay at {workers} workers succeeded")
                });
                assert_eq!(
                    err.to_string(),
                    text,
                    "{case}: {how} replay at {workers} workers"
                );
                assert!(matches!(err, BundleError::Corrupt { .. }), "{case}: {how}");
            }
            assert!(
                !cache_dir.join("CACHE.json").exists(),
                "{case}: the cached replay at {workers} workers committed its cache"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}
