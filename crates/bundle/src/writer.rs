//! [`BundleWriter`] — checkpointed, resumable archive recording.
//!
//! Appending a site has two halves. [`EncodedSite::encode`] is pure: it
//! encodes each visit once as its object ([`crate::object::encode`]),
//! content-addresses those bytes, and builds the site's objects, visit
//! records and checkpoint record. It touches no writer state, so crawl
//! workers encode their own sites in parallel. [`BundleWriter::append`]
//! is the ordered half, and makes the *site* the unit of durability:
//!
//! 1. append the site's missing payloads to the object store
//!    (content-addressed, deduplicated against every stored object),
//! 2. append one visit record per `(page, profile)` visit,
//! 3. append the checkpoint record,
//! 4. flush both logs and atomically rewrite the manifest.
//!
//! The archive's bytes depend only on the order of the appends, never
//! on where or when a site was encoded.
//!
//! A crash between checkpoints leaves trailing bytes (or stray segments)
//! the manifest does not cover; [`BundleWriter::resume`] verifies the
//! covered prefix with replay's loader at [`Depth::Address`] — every
//! committed byte is checked, no object is parsed — truncates the
//! leftovers, and continues appending, producing final files
//! byte-identical to an uninterrupted run.

use crate::error::BundleError;
use crate::hash::{object_hash, to_hex};
use crate::manifest::{BundleMeta, Manifest, DEFAULT_SEGMENT_CAPACITY};
use crate::object::{self, Depth};
use crate::reader::{fail_fast, load};
use crate::record::{Checkpoint, Record, VisitRef};
use crate::segment::LogWriter;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use wmtree_browser::VisitResult;

/// File-name prefix of the visit log.
pub(crate) const VISITS_PREFIX: &str = "visits";
/// File-name prefix of the object store.
pub(crate) const OBJECTS_PREFIX: &str = "objects";

/// One site encoded for [`BundleWriter::append`].
#[derive(Debug)]
pub struct EncodedSite {
    /// The site's visits, in append order.
    visits: Vec<EncodedVisit>,
    /// The checkpoint record closing the site.
    checkpoint: String,
}

/// One visit of an [`EncodedSite`].
#[derive(Debug)]
struct EncodedVisit {
    /// Content address of the object payload.
    hash: u64,
    /// The object payload, appended unless the store has `hash`.
    object: String,
    /// The visit-log payload referencing `hash`.
    record: String,
}

impl EncodedSite {
    /// Encode one completed site: each visit encoded once as its
    /// object payload ([`object::encode`]), its content address taken
    /// over exactly those bytes, and every payload the site will append
    /// built. The iteration order of `visits` must be deterministic —
    /// it defines the archive's bytes.
    pub fn encode<'a>(
        site: &str,
        visits: impl IntoIterator<Item = (String, usize, &'a VisitResult)>,
    ) -> Result<EncodedSite, BundleError> {
        // Scope guard only: the span's clock reads stay inside
        // telemetry's own snapshot, never the segment bytes.
        let _span = wmtree_telemetry::span("bundle.encode"); // wmtree-lint: allow(WM0301)
        let mut encoded = Vec::new();
        for (url, profile, visit) in visits {
            // One encoding per visit: the bytes hashed are the bytes
            // stored.
            let object = object::encode(visit).map_err(|detail| {
                BundleError::json("encoding visit payload", serde::Error::new(detail).into())
            })?;
            let hash = object_hash(object.as_bytes());
            let record = serde_json::to_string(&Record::Visit(VisitRef {
                site: site.to_string(),
                url,
                profile,
                object: to_hex(hash),
            }))
            .map_err(|e| BundleError::json("serializing visit record", e))?;
            encoded.push(EncodedVisit {
                hash,
                object,
                record,
            });
        }
        let checkpoint = serde_json::to_string(&Record::Checkpoint(Checkpoint {
            site: site.to_string(),
            visits: encoded.len(),
        }))
        .map_err(|e| BundleError::json("serializing checkpoint record", e))?;
        Ok(EncodedSite {
            visits: encoded,
            checkpoint,
        })
    }
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
    /// manifest, verify every committed record through the same loader
    /// replay uses — at [`Depth::Address`], parsing no object — and only
    /// then truncate uncommitted crash leftovers. Returns the writer,
    /// with the dedup index inside, and the already-checkpointed sites,
    /// which the crawl skips.
    pub fn resume(
        dir: &Path,
        meta: BundleMeta,
    ) -> Result<(BundleWriter, BTreeSet<String>), BundleError> {
        let _span = wmtree_telemetry::span("bundle.resume.verify");
        let manifest = Manifest::load(dir)?;
        manifest.check_meta(&meta)?;
        let plan = |logged: &[_]| vec![Depth::Address; logged.len()];
        let loaded = load(
            dir,
            &manifest,
            plan,
            |_| Ok(()),
            |_| Ok(()),
            fail_fast(&manifest),
        )?;
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
        Ok((writer, loaded.sites))
    }

    /// The manifest as of the last checkpoint (plus in-memory updates
    /// of the current, uncommitted site).
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Append one encoded site and commit it: the object payloads the
    /// store lacks, the visit records, the checkpoint record, then the
    /// manifest rewrite. Sites must arrive in a deterministic order —
    /// it defines the archive's bytes.
    pub fn append(&mut self, site: EncodedSite) -> Result<(), BundleError> {
        let _span = wmtree_telemetry::span("bundle.checkpoint");
        for visit in &site.visits {
            if self.index.insert(visit.hash) {
                self.objects.append(&visit.object)?;
                self.manifest.objects += 1;
                wmtree_telemetry::counter!("bundle.objects.stored").inc();
            } else {
                self.manifest.dedup_hits += 1;
                wmtree_telemetry::counter!("bundle.objects.dedup_hits").inc();
            }
            self.visits.append(&visit.record)?;
            self.manifest.visit_records += 1;
            wmtree_telemetry::counter!("bundle.records.written").inc();
        }
        self.visits.append(&site.checkpoint)?;
        self.manifest.checkpoints += 1;
        self.commit()?;
        wmtree_telemetry::counter!("bundle.checkpoints").inc();
        Ok(())
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

    /// Encode `site` and append it to `w` through the one append path.
    pub(crate) fn append_site(
        w: &mut BundleWriter,
        site: &str,
        visits: Vec<(String, usize, &VisitResult)>,
    ) {
        w.append(EncodedSite::encode(site, visits).unwrap())
            .unwrap();
    }

    /// Two sites: `a.com` visited by both profiles with two distinct
    /// payloads, then `b.com` reusing the first payload (a dedup hit).
    pub(crate) fn write_small(dir: &Path, finish: bool) {
        let mut w = BundleWriter::create(dir, meta()).unwrap();
        let (va, vb) = (visit(1), visit(2));
        let page = |site: &str| format!("https://www.{site}/");
        append_site(
            &mut w,
            "a.com",
            vec![(page("a.com"), 0, &va), (page("a.com"), 1, &vb)],
        );
        append_site(&mut w, "b.com", vec![(page("b.com"), 0, &va)]);
        if finish {
            w.finish().unwrap();
        } else {
            w.suspend().unwrap();
        }
    }

    /// Append `payload` as a correctly framed object record to the last
    /// object segment and pin it in the manifest. Returns the new
    /// line's number and start offset.
    pub(crate) fn forge_object(dir: &Path, payload: &str) -> (usize, u64) {
        let mut manifest = Manifest::load(dir).unwrap();
        let line = format!("{} {payload}", to_hex(line_checksum(payload.as_bytes())));
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
        append_site(
            &mut w,
            "a.com",
            vec![
                ("https://www.a.com/".to_string(), 0, &v),
                ("https://www.a.com/".to_string(), 1, &v),
            ],
        );
        let m = w.finish().unwrap();
        assert_eq!(m.objects, 1);
        assert_eq!(m.dedup_hits, 1);
        assert_eq!(m.visit_records, 2);
        assert_eq!(m.checkpoints, 1);
        assert!(m.complete);
        assert_eq!(m.dedup_ratio(), 0.5);
    }

    #[test]
    fn resume_recovers_sites_and_index() {
        let dir = tmp("writer-resume");
        let mut w = BundleWriter::create(&dir, meta()).unwrap();
        let v = visit(1);
        append_site(
            &mut w,
            "a.com",
            vec![("https://www.a.com/".to_string(), 0, &v)],
        );
        w.suspend().unwrap();

        let (mut w2, sites) = BundleWriter::resume(&dir, meta()).unwrap();
        assert_eq!(sites.len(), 1);
        assert!(sites.contains("a.com"));
        // The recovered index still dedups against pre-crash objects.
        append_site(
            &mut w2,
            "b.com",
            vec![("https://www.b.com/".to_string(), 0, &v)],
        );
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
        append_site(
            &mut w,
            "a.com",
            vec![("https://www.a.com/".to_string(), 0, &v)],
        );
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

        let (w2, sites) = BundleWriter::resume(&dir, meta()).unwrap();
        drop(w2);
        assert_eq!(sites.len(), 1);
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
        append_site(
            &mut w,
            "a.com",
            vec![("https://www.a.com/".to_string(), 0, &v)],
        );
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
