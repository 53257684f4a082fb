//! [`BundleWriter`] — checkpointed, resumable archive recording.
//!
//! The write protocol makes the *site* the unit of durability:
//!
//! 1. append the site's missing payloads to the object store
//!    (content-addressed, deduplicated),
//! 2. append one visit record per `(page, profile)` visit,
//! 3. append a checkpoint record,
//! 4. flush both logs and atomically rewrite the manifest.
//!
//! A crash between checkpoints leaves trailing bytes (or stray segments)
//! the manifest does not cover; [`BundleWriter::resume`] verifies the
//! covered prefix with replay's loader, truncates the leftovers, and
//! continues appending — producing final files byte-identical to an
//! uninterrupted run.

use crate::error::BundleError;
use crate::hash::{object_hash, to_hex};
use crate::manifest::{BundleMeta, Manifest, DEFAULT_SEGMENT_CAPACITY};
use crate::reader::load;
use crate::record::{BundleVisit, Checkpoint, ObjectEntry, Record, VisitRef};
use crate::segment::LogWriter;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use wmtree_browser::VisitResult;

/// File-name prefix of the visit log.
pub(crate) const VISITS_PREFIX: &str = "visits";
/// File-name prefix of the object store.
pub(crate) const OBJECTS_PREFIX: &str = "objects";

/// What [`BundleWriter::resume`] recovered from a partial bundle.
#[derive(Debug, Default)]
pub struct ResumeState {
    /// Sites already checkpointed — the crawl skips these.
    pub sites: BTreeSet<String>,
    /// Every checkpointed visit, payloads resolved, in log order —
    /// ready to rebuild the in-memory database.
    pub visits: Vec<BundleVisit>,
}

/// Checkpointed archive writer. See the module docs for the protocol.
#[derive(Debug)]
pub struct BundleWriter {
    dir: PathBuf,
    manifest: Manifest,
    visits: LogWriter,
    objects: LogWriter,
    /// Content hashes already stored (the dedup index).
    index: BTreeSet<u64>,
}

impl BundleWriter {
    /// Create a fresh bundle at `dir` (the directory is created if
    /// missing). Fails with [`BundleError::AlreadyExists`] if a
    /// manifest is already present — resume instead.
    pub fn create(dir: &Path, meta: BundleMeta) -> Result<BundleWriter, BundleError> {
        if Manifest::exists(dir) {
            return Err(BundleError::AlreadyExists {
                dir: dir.to_path_buf(),
            });
        }
        std::fs::create_dir_all(dir).map_err(|e| BundleError::io(dir, e))?;
        let manifest = Manifest::new(meta, DEFAULT_SEGMENT_CAPACITY);
        manifest.store(dir)?;
        Ok(BundleWriter {
            dir: dir.to_path_buf(),
            visits: LogWriter::create(dir, VISITS_PREFIX, DEFAULT_SEGMENT_CAPACITY),
            objects: LogWriter::create(dir, OBJECTS_PREFIX, DEFAULT_SEGMENT_CAPACITY),
            manifest,
            index: BTreeSet::new(),
        })
    }

    /// Reopen a partial bundle for appending: check `meta` against the
    /// manifest, load and verify every committed record through the
    /// same loader replay uses, and only then truncate uncommitted
    /// crash leftovers. Returns the dedup index inside the writer plus
    /// the already-recorded sites and visits.
    pub fn resume(
        dir: &Path,
        meta: BundleMeta,
    ) -> Result<(BundleWriter, ResumeState), BundleError> {
        let _span = wmtree_telemetry::span("bundle.resume.verify");
        let manifest = Manifest::load(dir)?;
        manifest.check_meta(&meta)?;
        let mut visits = Vec::new();
        let loaded = load(dir, &manifest, |bv| visits.push(bv))?;
        for log in &loaded.logs {
            log.truncate()?;
        }

        let capacity = manifest.segment_capacity;
        let writer = BundleWriter {
            dir: dir.to_path_buf(),
            visits: LogWriter::resume(
                dir,
                VISITS_PREFIX,
                capacity,
                manifest.visit_segments.clone(),
            ),
            objects: LogWriter::resume(
                dir,
                OBJECTS_PREFIX,
                capacity,
                manifest.object_segments.clone(),
            ),
            manifest,
            index: loaded.index,
        };
        let state = ResumeState {
            sites: loaded.sites,
            visits,
        };
        Ok((writer, state))
    }

    /// The manifest as of the last checkpoint (plus in-memory updates
    /// of the current, uncommitted site).
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Append one completed site and commit it: object payloads, visit
    /// records, a checkpoint record, then the manifest rewrite. The
    /// iteration order of `visits` must be deterministic — it defines
    /// the archive's bytes.
    pub fn append_site<'a>(
        &mut self,
        site: &str,
        visits: impl IntoIterator<Item = (String, usize, &'a VisitResult)>,
    ) -> Result<usize, BundleError> {
        // Scope guard only: the span's clock reads stay inside
        // telemetry's own snapshot, never the segment bytes.
        let _span = wmtree_telemetry::span("bundle.checkpoint"); // wmtree-lint: allow(WM0301)
        let mut count = 0usize;
        for (url, profile, visit) in visits {
            let canonical = serde_json::to_string(visit)
                .map_err(|e| BundleError::json("serializing visit payload", e))?;
            let hash = object_hash(canonical.as_bytes());
            if self.index.insert(hash) {
                let entry = ObjectEntry {
                    hash: to_hex(hash),
                    visit: visit.clone(),
                };
                let payload = serde_json::to_string(&entry)
                    .map_err(|e| BundleError::json("serializing object entry", e))?;
                self.objects.append(&payload)?;
                self.manifest.objects += 1;
                wmtree_telemetry::counter!("bundle.objects.stored").inc();
            } else {
                self.manifest.dedup_hits += 1;
                wmtree_telemetry::counter!("bundle.objects.dedup_hits").inc();
            }
            let record = Record::Visit(VisitRef {
                site: site.to_string(),
                url,
                profile,
                object: to_hex(hash),
            });
            let payload = serde_json::to_string(&record)
                .map_err(|e| BundleError::json("serializing visit record", e))?;
            self.visits.append(&payload)?;
            self.manifest.visit_records += 1;
            count += 1;
            wmtree_telemetry::counter!("bundle.records.written").inc();
        }
        let checkpoint = Record::Checkpoint(Checkpoint {
            site: site.to_string(),
            visits: count,
        });
        let payload = serde_json::to_string(&checkpoint)
            .map_err(|e| BundleError::json("serializing checkpoint record", e))?;
        self.visits.append(&payload)?;
        self.manifest.checkpoints += 1;
        self.commit()?;
        wmtree_telemetry::counter!("bundle.checkpoints").inc();
        Ok(count)
    }

    /// Flush the logs and atomically rewrite the manifest.
    fn commit(&mut self) -> Result<(), BundleError> {
        self.objects.flush()?;
        self.visits.flush()?;
        self.manifest.visit_segments = self.visits.metas().to_vec();
        self.manifest.object_segments = self.objects.metas().to_vec();
        self.manifest.store(&self.dir)
    }

    /// Mark the bundle complete and write the final manifest.
    pub fn finish(mut self) -> Result<Manifest, BundleError> {
        self.manifest.complete = true;
        self.commit()?;
        Ok(self.manifest)
    }

    /// Commit without marking complete — an orderly stop mid-crawl
    /// (e.g. a site cap), leaving a resumable partial bundle.
    pub fn suspend(mut self) -> Result<Manifest, BundleError> {
        self.commit()?;
        Ok(self.manifest)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    //! The writer's tests, and the fixtures the crate's other tests share.

    use super::*;
    use crate::hash::{chain_fold, from_hex, line_checksum};
    use wmtree_url::Url;

    /// The two-profile experiment every fixture bundle records.
    pub(crate) fn meta() -> BundleMeta {
        BundleMeta {
            n_profiles: 2,
            profiles: vec!["A".into(), "B".into()],
            experiment_seed: 7,
        }
    }

    /// A failed visit, made distinct by its duration.
    pub(crate) fn visit(n: u64) -> VisitResult {
        let mut v = VisitResult::failed(Url::parse("https://www.a.com/").unwrap());
        v.duration_ms = n;
        v
    }

    /// A scratch path for the test `name`, emptied.
    pub(crate) fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wmtree-bundle-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Two sites: `a.com` visited by both profiles with two distinct
    /// payloads, then `b.com` reusing the first payload (a dedup hit).
    pub(crate) fn write_small(dir: &Path, finish: bool) {
        let mut w = BundleWriter::create(dir, meta()).unwrap();
        let (va, vb) = (visit(1), visit(2));
        let page = |site: &str| format!("https://www.{site}/");
        w.append_site(
            "a.com",
            vec![(page("a.com"), 0, &va), (page("a.com"), 1, &vb)],
        )
        .unwrap();
        w.append_site("b.com", vec![(page("b.com"), 0, &va)])
            .unwrap();
        if finish {
            w.finish().unwrap();
        } else {
            w.suspend().unwrap();
        }
    }

    /// Append a correctly framed object entry for `visit` under the address
    /// `hash` to the last object segment and pin it in the manifest.
    /// Returns the new line's number and start offset.
    pub(crate) fn forge_object(dir: &Path, hash: u64, visit: VisitResult) -> (usize, u64) {
        let mut manifest = Manifest::load(dir).unwrap();
        let entry = serde_json::to_string(&ObjectEntry {
            hash: to_hex(hash),
            visit,
        })
        .unwrap();
        let line = format!("{} {entry}", to_hex(line_checksum(entry.as_bytes())));
        let m = manifest.object_segments.last_mut().unwrap();
        let seg = dir.join(&m.name);
        let mut bytes = std::fs::read(&seg).unwrap();
        let offset = bytes.len() as u64;
        bytes.extend_from_slice(format!("{line}\n").as_bytes());
        std::fs::write(&seg, &bytes).unwrap();
        m.chain = to_hex(chain_fold(from_hex(&m.chain).unwrap(), line.as_bytes()));
        m.records += 1;
        let line_no = m.records as usize;
        manifest.objects += 1;
        manifest.store(dir).unwrap();
        (line_no, offset)
    }

    #[test]
    fn create_refuses_existing_bundle() {
        let dir = tmp("writer-exists");
        let w = BundleWriter::create(&dir, meta()).unwrap();
        drop(w);
        assert!(matches!(
            BundleWriter::create(&dir, meta()),
            Err(BundleError::AlreadyExists { .. })
        ));
    }

    #[test]
    fn dedup_shares_identical_payloads() {
        let dir = tmp("writer-dedup");
        let mut w = BundleWriter::create(&dir, meta()).unwrap();
        let v = visit(1);
        // Both profiles see the identical payload → one object, one hit.
        w.append_site(
            "a.com",
            vec![
                ("https://www.a.com/".to_string(), 0, &v),
                ("https://www.a.com/".to_string(), 1, &v),
            ],
        )
        .unwrap();
        let m = w.finish().unwrap();
        assert_eq!(m.objects, 1);
        assert_eq!(m.dedup_hits, 1);
        assert_eq!(m.visit_records, 2);
        assert_eq!(m.checkpoints, 1);
        assert!(m.complete);
        assert_eq!(m.dedup_ratio(), 0.5);
    }

    #[test]
    fn resume_recovers_sites_and_visits_and_index() {
        let dir = tmp("writer-resume");
        let mut w = BundleWriter::create(&dir, meta()).unwrap();
        let v = visit(1);
        w.append_site("a.com", vec![("https://www.a.com/".to_string(), 0, &v)])
            .unwrap();
        w.suspend().unwrap();

        let (mut w2, state) = BundleWriter::resume(&dir, meta()).unwrap();
        assert_eq!(state.sites.len(), 1);
        assert!(state.sites.contains("a.com"));
        assert_eq!(state.visits.len(), 1);
        assert_eq!(state.visits[0].visit, v);
        // The recovered index still dedups against pre-crash objects.
        w2.append_site("b.com", vec![("https://www.b.com/".to_string(), 0, &v)])
            .unwrap();
        let m = w2.finish().unwrap();
        assert_eq!(m.objects, 1, "identical payload dedups across resume");
        assert_eq!(m.dedup_hits, 1);
    }

    #[test]
    fn resume_rejects_wrong_meta() {
        let dir = tmp("writer-wrongmeta");
        let w = BundleWriter::create(&dir, meta()).unwrap();
        drop(w);
        let mut other = meta();
        other.experiment_seed = 99;
        assert!(matches!(
            BundleWriter::resume(&dir, other),
            Err(BundleError::MetaMismatch { .. })
        ));
    }

    #[test]
    fn resume_truncates_uncommitted_tail() {
        let dir = tmp("writer-tail");
        let mut w = BundleWriter::create(&dir, meta()).unwrap();
        let v = visit(1);
        w.append_site("a.com", vec![("https://www.a.com/".to_string(), 0, &v)])
            .unwrap();
        w.suspend().unwrap();
        // Simulate a crash mid-site: torn records past the commit in
        // both logs, and a stray segment from a rotation.
        let mut committed = Vec::new();
        for name in ["visits-000.seg", "objects-000.seg"] {
            let seg = dir.join(name);
            let mut bytes = std::fs::read(&seg).unwrap();
            committed.push((seg.clone(), bytes.len() as u64));
            bytes.extend_from_slice(b"0000000000000000 {\"torn\":tr");
            std::fs::write(&seg, &bytes).unwrap();
        }
        let stray = dir.join("visits-001.seg");
        std::fs::write(&stray, b"junk\n").unwrap();

        let (w2, state) = BundleWriter::resume(&dir, meta()).unwrap();
        drop(w2);
        assert_eq!(state.visits.len(), 1);
        for (seg, len) in committed {
            assert_eq!(
                std::fs::metadata(&seg).unwrap().len(),
                len,
                "uncommitted tail of {} must be truncated",
                seg.display()
            );
        }
        assert!(!stray.exists(), "stray segment must be deleted");
    }

    #[test]
    fn resume_refuses_corruption_and_truncates_nothing() {
        let dir = tmp("writer-refuse");
        let mut w = BundleWriter::create(&dir, meta()).unwrap();
        let v = visit(1);
        w.append_site("a.com", vec![("https://www.a.com/".to_string(), 0, &v)])
            .unwrap();
        w.suspend().unwrap();
        // A torn tail on the visit log, and a flipped byte inside the
        // committed object log: the object log fails after the visit log
        // verified, and neither file may be cut.
        let visits = dir.join("visits-000.seg");
        let mut bytes = std::fs::read(&visits).unwrap();
        bytes.extend_from_slice(b"torn");
        std::fs::write(&visits, &bytes).unwrap();
        let objects = dir.join("objects-000.seg");
        let mut obj = std::fs::read(&objects).unwrap();
        obj[30] ^= 1;
        std::fs::write(&objects, &obj).unwrap();

        let err = BundleWriter::resume(&dir, meta()).unwrap_err();
        assert!(
            matches!(&err, BundleError::Corrupt { segment, .. } if segment == "objects-000.seg"),
            "{err}"
        );
        assert_eq!(std::fs::read(&visits).unwrap(), bytes, "nothing truncated");
    }
}
