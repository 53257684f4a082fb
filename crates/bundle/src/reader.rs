//! The one bundle loader, shared by replay (`read_bundle` in
//! `wmtree-crawler`, through [`read_visits`]) and by
//! [`BundleWriter::resume`](crate::BundleWriter::resume).
//!
//! Both logs are read fail-fast through [`LogScan`]. The visit log
//! drives: each object is resolved when a visit record first references
//! it (the writer appends an object *before* its first reference, so one
//! forward pass over both logs suffices, holding only the unique
//! payloads in memory), and the object log is then read to its end so
//! every committed record and chain is verified. Visits reach the
//! caller site by site, at each checkpoint.

use crate::error::BundleError;
use crate::manifest::Manifest;
use crate::record::{duplicate_object, BadRecord, BundleVisit, LogEntry, ObjectEntry, Record};
use crate::segment::{LogScan, RecordLoc, SegmentDefect};
use crate::writer::{OBJECTS_PREFIX, VISITS_PREFIX};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use wmtree_browser::VisitResult;

/// What the committed logs hold, to check against what the manifest
/// declares.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    /// Visit records.
    pub(crate) visit_records: u64,
    /// Checkpoint records.
    pub(crate) checkpoints: u64,
    /// Visit records after the last checkpoint.
    pub(crate) pending: u64,
    /// Unique stored objects.
    pub(crate) objects: u64,
}

impl Tally {
    /// Every disagreement with `manifest`, in a fixed order. The
    /// committed region must end at a checkpoint: the manifest is only
    /// ever stored right after one.
    pub(crate) fn defects(&self, manifest: &Manifest) -> Vec<SegmentDefect> {
        let mismatch = |segment: &str, detail: String| SegmentDefect::ManifestMismatch {
            segment: segment.to_string(),
            detail,
        };
        let mut out = Vec::new();
        if self.pending > 0 {
            out.push(mismatch(
                VISITS_PREFIX,
                format!(
                    "{} committed visit record(s) after the last checkpoint",
                    self.pending
                ),
            ));
        }
        for (prefix, field, declared, actual) in [
            (
                VISITS_PREFIX,
                "visit_records",
                manifest.visit_records,
                self.visit_records,
            ),
            (
                VISITS_PREFIX,
                "checkpoints",
                manifest.checkpoints,
                self.checkpoints,
            ),
            (OBJECTS_PREFIX, "objects", manifest.objects, self.objects),
        ] {
            if declared != actual {
                out.push(mismatch(
                    prefix,
                    format!("manifest declares {declared} {field}, log holds {actual}"),
                ));
            }
        }
        out
    }
}

/// What [`load`] recovered besides the visits it handed out.
#[derive(Debug)]
pub(crate) struct Loaded {
    /// Checkpointed sites.
    pub(crate) sites: BTreeSet<String>,
    /// Content addresses of every stored object.
    pub(crate) index: BTreeSet<u64>,
    /// The finished scans of the visit and object logs, for recovery.
    pub(crate) logs: [LogScan; 2],
}

/// Read and verify every committed record of the bundle at `dir`:
/// checksums, chains, content addresses, profile indices, references,
/// counts and the checkpoint boundary. Each checkpointed visit goes to
/// `sink` in log order. Crash leftovers past the committed region are
/// skipped; any other defect is an error naming where it is.
pub(crate) fn load(
    dir: &Path,
    manifest: &Manifest,
    mut sink: impl FnMut(BundleVisit),
) -> Result<Loaded, BundleError> {
    let mut visits = LogScan::new(dir, VISITS_PREFIX, &manifest.visit_segments);
    let mut objects = LogScan::new(dir, OBJECTS_PREFIX, &manifest.object_segments);
    let n_profiles = manifest.meta.n_profiles;
    let mut store: BTreeMap<u64, VisitResult> = BTreeMap::new();
    let mut referenced: BTreeSet<u64> = BTreeSet::new();
    let mut sites = BTreeSet::new();
    let mut pending: Vec<BundleVisit> = Vec::new();
    let mut tally = Tally::default();
    while let Some((loc, payload)) = visits.next_record()? {
        let (vr, hash) = match Record::decode(payload, n_profiles) {
            Ok(LogEntry::Visit(vr, hash)) => (vr, hash),
            Ok(LogEntry::Checkpoint(cp)) => {
                tally.checkpoints += 1;
                sites.insert(cp.site);
                pending.drain(..).for_each(&mut sink);
                continue;
            }
            Err(BadRecord::Corrupt(detail)) => {
                return Err(SegmentDefect::corrupt(&loc, detail).into())
            }
            Err(BadRecord::ProfileOutOfRange(profile)) => {
                let detail = format!(
                    "profile index {profile} out of range (bundle has {n_profiles} profiles)"
                );
                return Err(SegmentDefect::corrupt(&loc, detail).into());
            }
        };
        tally.visit_records += 1;
        let visit = loop {
            if let Some(visit) = store.get(&hash) {
                break visit.clone();
            }
            let Some((loc, payload)) = objects.next_record()? else {
                return Err(BundleError::DanglingObject {
                    segment: loc.segment,
                    line: loc.line,
                    object: vr.object,
                });
            };
            store_object(&mut store, &loc, payload)?;
        };
        referenced.insert(hash);
        pending.push(BundleVisit {
            site: vr.site,
            url: vr.url,
            profile: vr.profile,
            object: hash,
            visit,
        });
    }
    while let Some((loc, payload)) = objects.next_record()? {
        store_object(&mut store, &loc, payload)?;
    }
    tally.pending = pending.len() as u64;
    tally.objects = store.len() as u64;
    if let Some(defect) = tally.defects(manifest).into_iter().next() {
        return Err(defect.into());
    }
    if let Some(orphan) = store.keys().find(|h| !referenced.contains(h)) {
        return Err(BundleError::ManifestMismatch {
            segment: OBJECTS_PREFIX.to_string(),
            detail: format!(
                "object {} is stored but never referenced",
                crate::hash::to_hex(*orphan)
            ),
        });
    }
    Ok(Loaded {
        sites,
        index: store.into_keys().collect(),
        logs: [visits, objects],
    })
}

/// Decode one object entry into the store; a second entry for the same
/// address is corruption.
fn store_object(
    store: &mut BTreeMap<u64, VisitResult>,
    loc: &RecordLoc,
    payload: &str,
) -> Result<(), BundleError> {
    let (hash, visit) = ObjectEntry::decode(payload).map_err(|d| SegmentDefect::corrupt(loc, d))?;
    if store.insert(hash, visit).is_some() {
        return Err(SegmentDefect::corrupt(loc, duplicate_object(hash)).into());
    }
    Ok(())
}

/// Replay a bundle: load and verify every committed record of the
/// bundle at `dir` whose `manifest` the caller loaded, handing each
/// checkpointed visit to `sink` in log order. Works on partial bundles
/// too — they replay their checkpointed prefix. The first defect is an
/// error naming its segment (and line and byte offset, where it has
/// them).
pub fn read_visits(
    dir: &Path,
    manifest: &Manifest,
    sink: impl FnMut(BundleVisit),
) -> Result<(), BundleError> {
    load(dir, manifest, sink).map(drop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::object_hash;
    use crate::writer::tests::{forge_object, tmp, visit, write_small};

    fn read_all(dir: &Path) -> Result<Vec<BundleVisit>, BundleError> {
        let manifest = Manifest::load(dir)?;
        let mut out = Vec::new();
        read_visits(dir, &manifest, |bv| out.push(bv))?;
        Ok(out)
    }

    #[test]
    fn reads_visits_in_log_order() {
        let dir = tmp("reader-stream");
        write_small(&dir, true);
        let all = read_all(&dir).unwrap();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].site, "a.com");
        assert_eq!(all[0].profile, 0);
        assert_eq!(all[0].visit, visit(1));
        assert_eq!(all[1].visit, visit(2));
        assert_eq!(all[2].site, "b.com");
        assert_eq!(all[2].visit, visit(1), "dedup'd payload resolves");
    }

    #[test]
    fn corrupt_visit_record_surfaces_location() {
        let dir = tmp("reader-corrupt");
        write_small(&dir, true);
        // Flip a byte inside the first record's payload.
        let seg = dir.join("visits-000.seg");
        let mut bytes = std::fs::read(&seg).unwrap();
        bytes[20] ^= 1;
        std::fs::write(&seg, &bytes).unwrap();
        match read_all(&dir).unwrap_err() {
            BundleError::Corrupt {
                segment,
                line,
                offset,
                ..
            } => assert_eq!((segment.as_str(), line, offset), ("visits-000.seg", 1, 0)),
            other => panic!("expected Corrupt, got {other}"),
        }
    }

    #[test]
    fn missing_object_is_dangling() {
        let dir = tmp("reader-dangling");
        write_small(&dir, true);
        // Drop the object store from the manifest: the reference dangles.
        let mut manifest = Manifest::load(&dir).unwrap();
        manifest.object_segments.clear();
        manifest.objects = 0;
        manifest.store(&dir).unwrap();
        let err = read_all(&dir).unwrap_err();
        assert!(matches!(err, BundleError::DanglingObject { .. }), "{err}");
    }

    #[test]
    fn orphan_object_is_rejected() {
        let dir = tmp("reader-orphan");
        write_small(&dir, true);
        let v = visit(99);
        forge_object(
            &dir,
            object_hash(serde_json::to_string(&v).unwrap().as_bytes()),
            v,
        );
        let err = read_all(&dir).unwrap_err();
        assert!(err.to_string().contains("never referenced"), "{err}");
    }

    #[test]
    fn profile_out_of_range_is_rejected() {
        let dir = tmp("reader-profile");
        write_small(&dir, true);
        // The same bundle claims one profile fewer: the visit by
        // profile 1 on line 2 is out of range.
        let mut manifest = Manifest::load(&dir).unwrap();
        manifest.meta.n_profiles = 1;
        manifest.store(&dir).unwrap();
        match read_all(&dir).unwrap_err() {
            BundleError::Corrupt {
                line: 2, detail, ..
            } => {
                assert!(detail.contains("out of range"), "{detail}")
            }
            other => panic!("expected Corrupt at line 2, got {other}"),
        }
    }
}
