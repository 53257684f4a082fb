//! The one bundle loader, shared by replay (`read_bundle` in
//! `wmtree-crawler`, through [`read_visits`]) and by
//! [`BundleWriter::resume`](crate::BundleWriter::resume).
//!
//! Both logs are read fail-fast through [`LogScan`], each exactly once.
//! The visit log comes first: it is small (coordinates and content
//! addresses only), and reading it whole tells the loader which visits
//! reference each object. The object log is then scanned on the
//! calling thread (checksums and chains) in rounds of bounded batches.
//! Scoped threads decode one round's batches (content address, then
//! parse) while the calling thread scans the next round, and the
//! results are applied strictly in log order: each object is moved into
//! the last visit that references it, and only the earlier references
//! of a deduplicated payload get clones. Counts, dedup moves and the
//! first defect in log order are the same at any decode width. No
//! payload is held twice, and nothing reaches the caller before every
//! committed record, chain, count and reference has been checked.

use crate::error::BundleError;
use crate::manifest::Manifest;
use crate::record::{
    duplicate_object, BadRecord, BundleVisit, LogEntry, ObjectEntry, Record, VisitRef,
};
use crate::segment::{LogScan, RecordLoc, SegmentDefect};
use crate::writer::{OBJECTS_PREFIX, VISITS_PREFIX};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::{mpsc, Mutex, PoisonError};
use wmtree_browser::VisitResult;

/// Object payload bytes per decode batch: enough parsing to dwarf a
/// thread spawn, and few enough bytes that the batches in flight stay
/// a sliver of the bundle.
const BATCH_BYTES: usize = 1 << 20;

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

/// One visit record of the log, waiting for its payload.
struct Pending {
    loc: RecordLoc,
    visit: VisitRef,
    object: u64,
    payload: Option<VisitResult>,
}

/// Read and verify every committed record of the bundle at `dir`:
/// checksums, chains, content addresses, profile indices, references,
/// counts and the checkpoint boundary. Then each checkpointed visit
/// goes to `sink` in log order. Crash leftovers past the committed
/// region are skipped; any other defect is an error naming where it is.
/// Objects decode as wide as the host's available parallelism.
pub(crate) fn load(
    dir: &Path,
    manifest: &Manifest,
    sink: impl FnMut(BundleVisit),
) -> Result<Loaded, BundleError> {
    let width = std::thread::available_parallelism().map_or(1, |n| n.get());
    load_with(dir, manifest, sink, width, BATCH_BYTES)
}

/// [`load`], decoding objects in batches of about `batch_bytes` bytes,
/// `width` batches at a time.
fn load_with(
    dir: &Path,
    manifest: &Manifest,
    mut sink: impl FnMut(BundleVisit),
    width: usize,
    batch_bytes: usize,
) -> Result<Loaded, BundleError> {
    let mut visit_log = LogScan::new(dir, VISITS_PREFIX, &manifest.visit_segments);
    let mut object_log = LogScan::new(dir, OBJECTS_PREFIX, &manifest.object_segments);
    let n_profiles = manifest.meta.n_profiles;
    let mut visits: Vec<Pending> = Vec::new();
    // Visits before the last checkpoint.
    let mut committed = 0;
    let mut sites = BTreeSet::new();
    let mut tally = Tally::default();
    while let Some((loc, payload)) = visit_log.next_record()? {
        match Record::decode(payload, n_profiles) {
            Ok(LogEntry::Visit(visit, object)) => visits.push(Pending {
                loc,
                visit,
                object,
                payload: None,
            }),
            Ok(LogEntry::Checkpoint(cp)) => {
                tally.checkpoints += 1;
                sites.insert(cp.site);
                committed = visits.len();
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
        }
    }
    tally.visit_records = visits.len() as u64;
    tally.pending = (visits.len() - committed) as u64;

    // The visits that reference each object, in log order.
    let mut wanted: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, pending) in visits.iter().enumerate() {
        wanted.entry(pending.object).or_default().push(i);
    }
    let mut index = BTreeSet::new();
    let mut orphan = None;
    decode_objects(&mut object_log, width, batch_bytes, |loc, hash, payload| {
        if !index.insert(hash) {
            return Err(SegmentDefect::corrupt(&loc, duplicate_object(hash)).into());
        }
        match wanted.remove(&hash).as_deref() {
            Some([earlier @ .., last]) => {
                for &i in earlier {
                    visits[i].payload = Some(payload.clone());
                }
                visits[*last].payload = Some(payload);
            }
            _ => {
                orphan.get_or_insert(hash);
            }
        }
        Ok(())
    })?;
    if let Some(dangling) = visits.iter().find(|p| p.payload.is_none()) {
        return Err(BundleError::DanglingObject {
            segment: dangling.loc.segment.clone(),
            line: dangling.loc.line,
            object: dangling.visit.object.clone(),
        });
    }
    tally.objects = index.len() as u64;
    if let Some(defect) = tally.defects(manifest).into_iter().next() {
        return Err(defect.into());
    }
    if let Some(orphan) = orphan {
        return Err(BundleError::ManifestMismatch {
            segment: OBJECTS_PREFIX.to_string(),
            detail: format!(
                "object {} is stored but never referenced",
                crate::hash::to_hex(orphan)
            ),
        });
    }
    for pending in visits.into_iter().take(committed) {
        if let Some(visit) = pending.payload {
            sink(BundleVisit {
                site: pending.visit.site,
                url: pending.visit.url,
                profile: pending.visit.profile,
                object: pending.object,
                visit,
            });
        }
    }
    Ok(Loaded {
        sites,
        index,
        logs: [visit_log, object_log],
    })
}

/// A batch of checksummed object records, in log order.
type Batch = Vec<(RecordLoc, String)>;

/// Scan the next batch of the object log: records until their payloads
/// reach `batch_bytes`, or the scan stops. Also returns how it stopped:
/// `Ok(true)` at the end of the log, `Err` at a scan defect.
fn scan_batch(log: &mut LogScan, batch_bytes: usize) -> (Batch, Result<bool, BundleError>) {
    let mut batch = Vec::new();
    let mut bytes = 0;
    while bytes < batch_bytes {
        match log.next_record() {
            Ok(Some((loc, payload))) => {
                bytes += payload.len();
                batch.push((loc, payload.to_owned()));
            }
            Ok(None) => return (batch, Ok(true)),
            Err(e) => return (batch, Err(e)),
        }
    }
    (batch, Ok(false))
}

/// Decode one batch of object entries: content address, then parse.
fn decode_batch(batch: &Batch) -> Vec<Result<(u64, VisitResult), String>> {
    let _span = wmtree_telemetry::span("bundle.decode");
    batch
        .iter()
        .map(|(_, payload)| ObjectEntry::decode(payload))
        .collect()
}

/// Decode every committed object of `log` and `apply` each, strictly
/// in log order. `width` scoped threads decode batches of about
/// `batch_bytes` payload bytes while the calling thread scans ahead,
/// with at most `2 × width` batches in flight. The first defect in log
/// order, whether a scan, decode or `apply` error, is returned.
fn decode_objects(
    log: &mut LogScan,
    width: usize,
    batch_bytes: usize,
    mut apply: impl FnMut(RecordLoc, u64, VisitResult) -> Result<(), BundleError>,
) -> Result<(), BundleError> {
    let width = width.max(1);
    let (to_decode, queue) = mpsc::channel::<(usize, Batch)>();
    let queue = Mutex::new(queue);
    let (decoded_tx, decoded) = mpsc::channel();
    std::thread::scope(|scope| {
        for _ in 0..width {
            let (queue, decoded_tx) = (&queue, decoded_tx.clone());
            scope.spawn(move || loop {
                let next = queue.lock().unwrap_or_else(PoisonError::into_inner).recv();
                let Ok((seq, batch)) = next else { return };
                // A panic goes back as this batch's result, to be raised
                // in log order, so the calling thread never waits for a
                // batch no worker will send.
                let results = std::panic::catch_unwind(|| decode_batch(&batch));
                if decoded_tx.send((seq, batch, results)).is_err() {
                    return;
                }
            });
        }
        drop(decoded_tx);
        // Owned here, so every way out of this closure closes the queue
        // and the workers end before the scope joins them.
        let to_decode = to_decode;
        let (mut sent, mut applied) = (0, 0);
        let mut end = Ok(false);
        let mut ready = BTreeMap::new();
        loop {
            while matches!(end, Ok(false)) && sent - applied < 2 * width {
                let (batch, stop) = scan_batch(log, batch_bytes);
                end = stop;
                if !batch.is_empty() {
                    // The queue's receiver outlives this loop.
                    let _ = to_decode.send((sent, batch));
                    sent += 1;
                }
            }
            if applied == sent {
                // Every record before a scan defect is applied: now it
                // is the first defect.
                return end.map(drop);
            }
            let (batch, results) = loop {
                if let Some(next) = ready.remove(&applied) {
                    break next;
                }
                let Ok((seq, batch, results)) = decoded.recv() else {
                    unreachable!("decode workers run until the queue closes");
                };
                ready.insert(seq, (batch, results));
            };
            let results = results.unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for ((loc, _), result) in batch.into_iter().zip(results) {
                let (hash, visit) = result.map_err(|d| SegmentDefect::corrupt(&loc, d))?;
                apply(loc, hash, visit)?;
            }
            applied += 1;
        }
    })
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
    use crate::hash::{from_hex, line_checksum, object_hash, to_hex};
    use crate::writer::tests::{append_site, forge_object, meta, tmp, visit, write_small};
    use crate::writer::BundleWriter;

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

    /// What the loader hands out at decode `width` with batches of
    /// `batch_bytes`: every visit, or the error's text.
    fn read_at(dir: &Path, width: usize, batch_bytes: usize) -> Result<Vec<BundleVisit>, String> {
        let manifest = Manifest::load(dir).map_err(|e| e.to_string())?;
        let mut out = Vec::new();
        load_with(dir, &manifest, |bv| out.push(bv), width, batch_bytes)
            .map_err(|e| e.to_string())?;
        Ok(out)
    }

    /// Eight sites of two distinct visits each: sixteen small objects,
    /// one per line of `objects-000.seg`.
    fn write_many(dir: &Path) {
        let mut w = BundleWriter::create(dir, meta()).unwrap();
        let visits: Vec<VisitResult> = (0..16).map(visit).collect();
        for (i, pair) in visits.chunks(2).enumerate() {
            let site = format!("s{i}.com");
            let page = format!("https://www.{site}/");
            append_site(
                &mut w,
                &site,
                vec![(page.clone(), 0, &pair[0]), (page, 1, &pair[1])],
            );
        }
        w.finish().unwrap();
    }

    /// The sequential reading (one batch) is what every decode width
    /// and batch size must reproduce, visits or first error alike.
    fn assert_width_invariant(dir: &Path) -> Result<Vec<BundleVisit>, String> {
        let expect = read_at(dir, 1, usize::MAX);
        // One record per batch, a few per batch, and one batch.
        for batch_bytes in [1, 600, 1 << 20] {
            for width in [1, 2, 8] {
                assert_eq!(
                    read_at(dir, width, batch_bytes),
                    expect,
                    "width {width}, batches of {batch_bytes} bytes"
                );
            }
        }
        expect
    }

    #[test]
    fn decode_width_never_changes_the_visits() {
        let dir = tmp("reader-widths");
        write_many(&dir);
        let all = assert_width_invariant(&dir).unwrap();
        assert_eq!(all.len(), 16);
        for (i, bv) in all.iter().enumerate() {
            assert_eq!(bv.visit, visit(i as u64), "visit {i} in log order");
        }
    }

    #[test]
    fn early_bad_address_wins_over_a_later_chain_mismatch() {
        let dir = tmp("reader-widths-address");
        write_many(&dir);
        // Re-address line 2 and re-frame it with a valid checksum: the
        // line verifies, its content address does not, and the
        // segment's chain no longer matches the manifest at its end.
        let seg = dir.join("objects-000.seg");
        let text = std::fs::read_to_string(&seg).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        let entry = &lines[1][17..];
        let address = &entry[9..25];
        let payload = entry.replacen(address, &to_hex(!from_hex(address).unwrap()), 1);
        lines[1] = format!("{} {payload}", to_hex(line_checksum(payload.as_bytes())));
        std::fs::write(&seg, lines.join("\n") + "\n").unwrap();

        let err = assert_width_invariant(&dir).unwrap_err();
        assert!(err.contains("objects-000.seg line 2"), "{err}");
        assert!(err.contains("content address mismatch"), "{err}");
    }

    #[test]
    fn duplicate_across_batches_is_the_first_error() {
        let dir = tmp("reader-widths-duplicate");
        write_many(&dir);
        // A second copy of line 1's object as line 17: at one record
        // per batch, the copies decode in different batches.
        let v = visit(0);
        let (line, _) = forge_object(
            &dir,
            object_hash(serde_json::to_string(&v).unwrap().as_bytes()),
            v,
        );
        assert_eq!(line, 17);
        let err = assert_width_invariant(&dir).unwrap_err();
        assert!(err.contains("objects-000.seg line 17"), "{err}");
        assert!(err.contains("duplicate object"), "{err}");
    }
}
