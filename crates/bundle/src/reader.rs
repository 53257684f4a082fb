//! The one bundle loader, shared by replay (`read_bundle` in
//! `wmtree-crawler` through [`read_visits`], and the tree-cache-aware
//! reader in `wmtree` through [`read_visits_at`]) and by
//! [`BundleWriter::resume`](crate::BundleWriter::resume).
//!
//! Both logs are read fail-fast through [`LogScan`], each exactly once.
//! The visit log comes first: it is small (coordinates and content
//! addresses only), and reading it whole tells the loader which visits
//! reference each object. The caller's plan then names the [`Depth`]
//! each checkpointed visit needs, and each object is decoded once, at
//! the deepest depth of the visits that reference it. The object log is
//! scanned on the calling thread (checksums and chains) in rounds of
//! bounded batches. Scoped threads decode one round's batches (content
//! address, then parse to the object's depth) while the calling thread
//! scans the next round, and the results are applied strictly in log
//! order: each object is moved into the first visit that references it,
//! and only the later references of a deduplicated payload get clones.
//! Counts, dedup moves and the first defect in log order are the same
//! at any decode width and any plan. No payload is held twice, and
//! nothing reaches the caller before every committed record, chain,
//! content address, count and reference has been checked.

use crate::error::BundleError;
use crate::hash::{object_hash, to_hex};
use crate::manifest::Manifest;
use crate::object::{decode_at, Depth};
use crate::record::{duplicate_object, BadRecord, BundleVisit, LogEntry, Record};
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

/// One visit record of the log: the `(site, page, profile)` coordinates
/// and the content address of the stored payload — all the log says
/// before any object is read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoggedVisit {
    /// Registerable domain of the site.
    pub site: String,
    /// Full page URL.
    pub url: String,
    /// Profile index.
    pub profile: usize,
    /// Content address of the visit's object.
    pub object: u64,
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
/// counts and the checkpoint boundary. `plan` sees the checkpointed
/// visits, in log order, before any object is read, and names the
/// depth each one needs; each object is decoded once, at the deepest
/// depth of the visits that reference it. Then every checkpointed
/// visit planned deeper than [`Depth::Address`] goes to `sink` in log
/// order. Crash leftovers past the committed region are skipped; any
/// other defect is an error naming where it is. Objects decode as wide
/// as the host's available parallelism.
pub(crate) fn load(
    dir: &Path,
    manifest: &Manifest,
    plan: impl FnOnce(&[LoggedVisit]) -> Vec<Depth>,
    sink: impl FnMut(BundleVisit),
) -> Result<Loaded, BundleError> {
    let width = std::thread::available_parallelism().map_or(1, |n| n.get());
    load_with(dir, manifest, plan, sink, width, BATCH_BYTES)
}

/// [`load`], decoding objects in batches of about `batch_bytes` bytes,
/// `width` batches at a time.
fn load_with(
    dir: &Path,
    manifest: &Manifest,
    plan: impl FnOnce(&[LoggedVisit]) -> Vec<Depth>,
    mut sink: impl FnMut(BundleVisit),
    width: usize,
    batch_bytes: usize,
) -> Result<Loaded, BundleError> {
    let mut visit_log = LogScan::new(dir, VISITS_PREFIX, &manifest.visit_segments);
    let mut object_log = LogScan::new(dir, OBJECTS_PREFIX, &manifest.object_segments);
    let n_profiles = manifest.meta.n_profiles;
    let mut visits: Vec<LoggedVisit> = Vec::new();
    let mut locs: Vec<RecordLoc> = Vec::new();
    // Visits before the last checkpoint.
    let mut committed = 0;
    let mut sites = BTreeSet::new();
    let mut tally = Tally::default();
    while let Some((loc, payload)) = visit_log.next_record()? {
        match Record::decode(payload, n_profiles) {
            Ok(LogEntry::Visit(visit, object)) => {
                visits.push(LoggedVisit {
                    site: visit.site,
                    url: visit.url,
                    profile: visit.profile,
                    object,
                });
                locs.push(loc);
            }
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

    // The depth of each visit (past the checkpoint: none), and of each
    // object with the visits that reference it, in log order.
    let mut depths = plan(&visits[..committed]);
    depths.resize(committed, Depth::Address);
    depths.resize(visits.len(), Depth::Address);
    let mut wanted: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    let mut depth_of: BTreeMap<u64, Depth> = BTreeMap::new();
    for (i, visit) in visits.iter().enumerate() {
        wanted.entry(visit.object).or_default().push(i);
        let depth = depth_of.entry(visit.object).or_insert(Depth::Address);
        *depth = (*depth).max(depths[i]);
    }
    let mut payloads: Vec<Option<VisitResult>> = vec![None; visits.len()];
    let mut index = BTreeSet::new();
    let mut orphan = None;
    decode_objects(
        &mut object_log,
        &depth_of,
        width,
        batch_bytes,
        |loc, hash, payload| {
            if !index.insert(hash) {
                return Err(SegmentDefect::corrupt(&loc, duplicate_object(hash)).into());
            }
            match wanted.remove(&hash) {
                Some(refs) => {
                    let mut refs = refs.into_iter().filter(|&i| depths[i] > Depth::Address);
                    if let (Some(payload), Some(first)) = (payload, refs.next()) {
                        for i in refs {
                            payloads[i] = Some(payload.clone());
                        }
                        payloads[first] = Some(payload);
                    }
                }
                None => {
                    orphan.get_or_insert(hash);
                }
            }
            Ok(())
        },
    )?;
    if let Some(&first) = wanted.values().filter_map(|refs| refs.first()).min() {
        return Err(BundleError::DanglingObject {
            segment: locs[first].segment.clone(),
            line: locs[first].line,
            object: to_hex(visits[first].object),
        });
    }
    tally.objects = index.len() as u64;
    if let Some(defect) = tally.defects(manifest).into_iter().next() {
        return Err(defect.into());
    }
    if let Some(orphan) = orphan {
        return Err(BundleError::ManifestMismatch {
            segment: OBJECTS_PREFIX.to_string(),
            detail: format!("object {} is stored but never referenced", to_hex(orphan)),
        });
    }
    for (visit, payload) in visits.into_iter().zip(payloads).take(committed) {
        if let Some(payload) = payload {
            sink(BundleVisit {
                site: visit.site,
                url: visit.url,
                profile: visit.profile,
                object: visit.object,
                visit: payload,
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

/// What decoding one object gives: its content address, and its visit
/// when it was parsed.
type Decoded = Result<(u64, Option<VisitResult>), String>;

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

/// Decode one batch of objects: each payload's content address, then
/// its visit at the depth `depth_of` names for that address.
fn decode_batch(batch: &Batch, depth_of: &BTreeMap<u64, Depth>) -> Vec<Decoded> {
    let _span = wmtree_telemetry::span("bundle.decode");
    batch
        .iter()
        .map(|(_, payload)| {
            let hash = object_hash(payload.as_bytes());
            let depth = depth_of.get(&hash).copied().unwrap_or(Depth::Address);
            decode_at(payload, depth).map(|visit| (hash, visit))
        })
        .collect()
}

/// Decode every committed object of `log` and `apply` each, strictly
/// in log order. `width` scoped threads decode batches of about
/// `batch_bytes` payload bytes while the calling thread scans ahead,
/// with at most `2 × width` batches in flight. The first defect in log
/// order, whether a scan, decode or `apply` error, is returned.
fn decode_objects(
    log: &mut LogScan,
    depth_of: &BTreeMap<u64, Depth>,
    width: usize,
    batch_bytes: usize,
    mut apply: impl FnMut(RecordLoc, u64, Option<VisitResult>) -> Result<(), BundleError>,
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
                let results = std::panic::catch_unwind(|| decode_batch(&batch, depth_of));
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
/// checkpointed visit, decoded in full, to `sink` in log order. Works
/// on partial bundles too — they replay their checkpointed prefix. The
/// first defect is an error naming its segment (and line and byte
/// offset, where it has them).
pub fn read_visits(
    dir: &Path,
    manifest: &Manifest,
    sink: impl FnMut(BundleVisit),
) -> Result<(), BundleError> {
    read_visits_at(
        dir,
        manifest,
        |visits| vec![Depth::Full; visits.len()],
        sink,
    )
}

/// [`read_visits`], decoding each object only as deep as `plan` asks:
/// it sees every checkpointed visit record, in log order, before any
/// object is read, and returns one [`Depth`] per record. Every byte is
/// verified whatever the depths; visits planned at
/// [`Depth::Address`] are not handed to `sink`, and a visit planned at
/// [`Depth::Header`] arrives with its `requests` and `frames` empty
/// unless another visit of the same object asked for it in full.
pub fn read_visits_at(
    dir: &Path,
    manifest: &Manifest,
    plan: impl FnOnce(&[LoggedVisit]) -> Vec<Depth>,
    sink: impl FnMut(BundleVisit),
) -> Result<(), BundleError> {
    load(dir, manifest, plan, sink).map(drop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::{chain_fold, chain_start, line_checksum, to_hex};
    use crate::object::encode;
    use crate::object::tests::{header_of, rich_visit};
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
        forge_object(&dir, &encode(&visit(99)).unwrap());
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
        let full = |visits: &[LoggedVisit]| vec![Depth::Full; visits.len()];
        load_with(dir, &manifest, full, |bv| out.push(bv), width, batch_bytes)
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

    /// Rewrite the lines of segment `name` with `edit`, each line
    /// re-framed with a valid checksum, and re-chain the segment in the
    /// manifest when `rechain`. Returns the edited payloads.
    pub(crate) fn rewrite(
        dir: &Path,
        name: &str,
        rechain: bool,
        edit: impl FnOnce(&mut Vec<String>),
    ) -> Vec<String> {
        let seg = dir.join(name);
        let text = std::fs::read_to_string(&seg).unwrap();
        let mut payloads: Vec<String> = text.lines().map(|l| l[17..].to_string()).collect();
        edit(&mut payloads);
        let lines: Vec<String> = payloads
            .iter()
            .map(|p| format!("{} {p}", to_hex(line_checksum(p.as_bytes()))))
            .collect();
        std::fs::write(&seg, lines.join("\n") + "\n").unwrap();
        if rechain {
            let mut manifest = Manifest::load(dir).unwrap();
            let chain = lines
                .iter()
                .fold(chain_start(), |c, l| chain_fold(c, l.as_bytes()));
            for m in manifest
                .visit_segments
                .iter_mut()
                .chain(manifest.object_segments.iter_mut())
                .filter(|m| m.name == name)
            {
                m.chain = to_hex(chain);
            }
            manifest.store(dir).unwrap();
        }
        payloads
    }

    /// Replace the payload of object line `line` (one-based) of
    /// `objects-000.seg` with `payload`, and point the visit records at
    /// the new address, the visit log re-chained so it stays clean. The
    /// object segment is re-chained when `rechain`.
    pub(crate) fn readdress(dir: &Path, line: usize, payload: &str, rechain: bool) {
        let mut old = 0;
        rewrite(dir, "objects-000.seg", rechain, |objects| {
            old = crate::hash::object_hash(objects[line - 1].as_bytes());
            objects[line - 1] = payload.to_string();
        });
        let new = crate::hash::object_hash(payload.as_bytes());
        rewrite(dir, "visits-000.seg", true, |records| {
            for r in records.iter_mut() {
                *r = r.replace(&to_hex(old), &to_hex(new));
            }
        });
    }

    #[test]
    fn early_corrupt_object_wins_over_a_later_chain_mismatch() {
        let dir = tmp("reader-widths-address");
        write_many(&dir);
        // Re-address line 2 to a payload that does not decode: the line
        // verifies and its visit record resolves, so the parser is
        // reached, while the segment's chain no longer matches the
        // manifest at its end.
        readdress(&dir, 2, "[[\"https\",\"www.a.com\",\"/\"],7", false);
        let err = assert_width_invariant(&dir).unwrap_err();
        assert!(err.contains("objects-000.seg line 2"), "{err}");
        assert!(err.contains("unparseable visit payload"), "{err}");
    }

    #[test]
    fn changed_object_bytes_dangle_their_references() {
        let dir = tmp("reader-readdressed");
        write_many(&dir);
        // A well-framed object whose bytes changed has a new address:
        // the visits of the old one dangle (the chain is fixed, so the
        // reference is the first defect).
        let payloads = rewrite(&dir, "objects-000.seg", true, |objects| {
            objects[1] = encode(&visit(99)).unwrap();
        });
        assert_eq!(payloads.len(), 16);
        let err = assert_width_invariant(&dir).unwrap_err();
        assert!(err.contains("visits-000.seg line 2"), "{err}");
        assert!(err.contains("never recorded"), "{err}");
    }

    #[test]
    fn duplicate_across_batches_is_the_first_error() {
        let dir = tmp("reader-widths-duplicate");
        write_many(&dir);
        // A second copy of line 1's object as line 17: at one record
        // per batch, the copies decode in different batches.
        let (line, _) = forge_object(&dir, &encode(&visit(0)).unwrap());
        assert_eq!(line, 17);
        let err = assert_width_invariant(&dir).unwrap_err();
        assert!(err.contains("objects-000.seg line 17"), "{err}");
        assert!(err.contains("duplicate object"), "{err}");
    }

    /// The loader at `depth` for every visit: each visit handed out, or
    /// the error.
    fn read_at_depth(dir: &Path, depth: Depth) -> Result<Vec<BundleVisit>, BundleError> {
        let manifest = Manifest::load(dir)?;
        let mut out = Vec::new();
        let plan = |visits: &[LoggedVisit]| vec![depth; visits.len()];
        load(dir, &manifest, plan, |bv| out.push(bv))?;
        Ok(out)
    }

    /// One site whose two visits store two rich objects, and a second
    /// site whose visit shares the first object.
    fn write_rich(dir: &Path) -> [VisitResult; 2] {
        let visits = [rich_visit(1), rich_visit(2)];
        let mut w = BundleWriter::create(dir, meta()).unwrap();
        let page = |site: &str| format!("https://www.{site}/");
        append_site(
            &mut w,
            "a.com",
            vec![
                (page("a.com"), 0, &visits[0]),
                (page("a.com"), 1, &visits[1]),
            ],
        );
        append_site(&mut w, "b.com", vec![(page("b.com"), 0, &visits[0])]);
        w.finish().unwrap();
        visits
    }

    #[test]
    fn each_object_decodes_once_at_the_deepest_depth_it_is_planned() {
        let dir = tmp("reader-depths");
        let [first, second] = write_rich(&dir);
        let manifest = Manifest::load(&dir).unwrap();
        // Visit 0 and visit 2 share the first object; visit 1 alone has
        // the second.
        let cases = [
            ([Depth::Header; 3], vec![false, false, false]),
            (
                [Depth::Header, Depth::Full, Depth::Address],
                vec![false, true],
            ),
            (
                [Depth::Address, Depth::Header, Depth::Full],
                vec![false, true],
            ),
            (
                [Depth::Full, Depth::Header, Depth::Header],
                vec![true, false, true],
            ),
            ([Depth::Address; 3], vec![]),
        ];
        let full = |i: usize| {
            if i == 1 {
                second.clone()
            } else {
                first.clone()
            }
        };
        for (plan, wanted) in cases {
            let mut out = Vec::new();
            let seen = std::cell::RefCell::new(Vec::new());
            load(
                &dir,
                &manifest,
                |visits| {
                    seen.borrow_mut()
                        .extend(visits.iter().map(|v| v.site.clone()));
                    plan.to_vec()
                },
                |bv| out.push(bv),
            )
            .unwrap();
            assert_eq!(*seen.borrow(), ["a.com", "a.com", "b.com"]);
            let delivered: Vec<usize> = (0..3).filter(|&i| plan[i] > Depth::Address).collect();
            assert_eq!(out.len(), delivered.len(), "{plan:?}");
            for ((bv, i), full_object) in out.iter().zip(delivered).zip(wanted) {
                // An object planned in full anywhere is decoded in full
                // for every visit of it.
                let expect = if full_object {
                    full(i)
                } else {
                    header_of(full(i))
                };
                assert_eq!(bv.visit, expect, "{plan:?} visit {i}");
            }
        }
    }

    /// A mutation of a valid payload: arbitrary bytes, a flipped bit, a
    /// truncation, a splice, or (when `kind` ≥ 4) a structural edit the
    /// full decoder must refuse: an out-of-range table index, an
    /// out-of-range tag, or a row one element short or long.
    fn mutate(payload: &str, donor: &str, kind: u8, a: usize, b: usize, bytes: &[u8]) -> String {
        use serde_json::Value as V;
        let mut raw = payload.as_bytes().to_vec();
        let len = raw.len();
        match kind {
            0 => raw = bytes.to_vec(),
            1 => raw[a % len] ^= 1 << (b % 8),
            2 => raw.truncate(a % (len + 1)),
            3 => {
                let donor = donor.as_bytes();
                let from = b % (donor.len() + 1);
                let to = (from + b % 64).min(donor.len());
                raw.splice(
                    a % (len + 1)..a % (len + 1),
                    donor[from..to].iter().copied(),
                );
            }
            _ => {
                let mut value: V = serde_json::from_str(payload).unwrap();
                let V::Seq(items) = &mut value else {
                    unreachable!("an object is an array")
                };
                let V::Seq(requests) = &mut items[8] else {
                    unreachable!("requests are an array")
                };
                let n = requests.len();
                let V::Seq(row) = &mut requests[a % n] else {
                    unreachable!("a request is an array")
                };
                let big = V::U64(1000 + b as u64 % 1000);
                match (kind, b % 3) {
                    (4, 0) => row[1] = big,
                    (4, 1) => row[5] = big,
                    (4, _) => row[11] = V::Seq(vec![big]),
                    (5, 0) => row[2] = V::U64(13 + b as u64 % 100),
                    (5, _) => row[6] = V::U64(6 + b as u64 % 100),
                    (_, 0) => drop(row.pop()),
                    (_, _) => row.push(V::Null),
                }
                return serde_json::to_string(&value).unwrap();
            }
        }
        String::from_utf8_lossy(&raw).replace(['\n', '\r'], " ")
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// Mutated objects, re-addressed so their visit record resolves
        /// and the parser is reached, never panic the loader: at either
        /// depth the outcome is the visits or a `Corrupt` error at the
        /// object's line — and a structural edit is always refused by
        /// the full decoder.
        #[test]
        fn object_decoder_never_panics(
            kind in 0u8..7,
            a in proptest::prelude::any::<usize>(),
            b in proptest::prelude::any::<usize>(),
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..64),
        ) {
            let dir = tmp(&format!("reader-never-panics-{kind}-{a}-{b}"));
            write_rich(&dir);
            let payloads = rewrite(&dir, "objects-000.seg", false, |_| {});
            let mutated = mutate(&payloads[0], &payloads[1], kind, a, b, &bytes);
            readdress(&dir, 1, &mutated, true);
            for depth in [Depth::Header, Depth::Full] {
                match read_at_depth(&dir, depth) {
                    Ok(_) => proptest::prop_assert!(
                        kind < 4 || depth == Depth::Header,
                        "{depth:?} decoded a structural edit: {mutated}"
                    ),
                    Err(BundleError::Corrupt { segment, line, detail, .. }) => {
                        proptest::prop_assert_eq!(segment.as_str(), "objects-000.seg");
                        proptest::prop_assert_eq!(line, 1, "{}", detail);
                    }
                    Err(other) => proptest::prop_assert!(false, "{depth:?}: {other}"),
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
