//! The crawl, pinned to the values of one recorded bundle.
//!
//! A Tiny experiment recorded into a bundle must reproduce the manifest
//! below at any worker count. Each segment's `chain` folds the checksum
//! of every record in it, so one changed byte in any visit record (a
//! request URL, a call stack, a cookie, a timing) changes a chain.
//!
//! These constants move only with a deliberate change to the crawl
//! model: what the synthetic web serves, what the browser fetches and
//! records, or the bundle format. A refactor or an optimisation of the
//! crawl must leave every one of them as it is.

use wmtree::bundle::Manifest;
use wmtree::{BundleRun, Experiment, ExperimentConfig, Scale};

const VISIT_RECORDS: u64 = 570;
const OBJECTS: u64 = 554;
const DEDUP_HITS: u64 = 16;
/// `(name, records, chain)` of each visit segment.
const VISIT_SEGMENTS: &[(&str, u64, &str)] = &[("visits-000.seg", 600, "1e2170b793725535")];
/// `(name, records, chain)` of each object segment.
const OBJECT_SEGMENTS: &[(&str, u64, &str)] = &[("objects-000.seg", 554, "6888d3adebdb31f7")];

fn segments(list: &[wmtree::bundle::SegmentMeta]) -> Vec<(&str, u64, &str)> {
    list.iter()
        .map(|s| (s.name.as_str(), s.records, s.chain.as_str()))
        .collect()
}

#[test]
fn tiny_bundle_reproduces_the_pinned_manifest() {
    for workers in [1, 3] {
        let dir =
            std::env::temp_dir().join(format!("wmtree-crawl-pin-{workers}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = ExperimentConfig::at_scale(Scale::Tiny);
        config.workers = workers;
        match Experiment::new(config).run_to_bundle(&dir, None) {
            Ok(BundleRun::Complete { .. }) => {}
            Ok(BundleRun::Partial { sites_done, .. }) => {
                panic!("workers {workers}: uncapped run stopped at {sites_done} sites")
            }
            Err(e) => panic!("workers {workers}: recording failed: {e}"),
        }
        let manifest = Manifest::load(&dir).expect("manifest");
        let _ = std::fs::remove_dir_all(&dir);
        assert!(manifest.complete, "workers {workers}");
        assert_eq!(
            (
                manifest.visit_records,
                manifest.objects,
                manifest.dedup_hits
            ),
            (VISIT_RECORDS, OBJECTS, DEDUP_HITS),
            "workers {workers}: visit records, objects, dedup hits"
        );
        assert_eq!(
            segments(&manifest.visit_segments),
            VISIT_SEGMENTS,
            "workers {workers}: visit segments"
        );
        assert_eq!(
            segments(&manifest.object_segments),
            OBJECT_SEGMENTS,
            "workers {workers}: object segments"
        );
    }
}
