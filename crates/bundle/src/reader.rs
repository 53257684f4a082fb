//! The one bundle loader, shared by replay ([`read_sites`], which feeds
//! the stage workers of `wmtree-crawler`'s `replay_sites`) and by
//! [`BundleWriter::resume`](crate::BundleWriter::resume). It runs on the
//! calling thread and parses no object.
//!
//! Both logs are read fail-fast through [`LogScan`], each exactly once.
//! The visit log comes first: it is small (coordinates and content
//! addresses only), and reading it whole tells the loader which visits
//! reference each object and which visits each checkpoint closes. The
//! caller's plan then names the [`Depth`] each checkpointed visit
//! needs; an object's depth is the deepest of the visits that reference
//! it. The object log comes next: each record's checksum, chain and
//! content address, and the duplicate check.
//!
//! A site leaves as soon as every object its visits reference has been
//! scanned, in log order and still encoded ([`StoredSite`]): each
//! object it needs with its record location and depth. A payload is
//! moved to the last site that needs it and cloned for earlier ones, so
//! it is held only while a site still to leave references it.
//! [`StoredSite::decode`] parses each of a site's objects once, on
//! whichever thread takes the site. The checks that need the whole log
//! — dangling references, manifest counts, orphans, stray segments,
//! segment chains and the checkpoint boundary — run once the object log
//! is read: sites may have left by then, so a caller commits nothing it
//! derived from them until the load returns `Ok`.

use crate::error::BundleError;
use crate::hash::{object_hash, to_hex};
use crate::manifest::Manifest;
use crate::object::{decode_at, Depth};
use crate::record::{duplicate_object, BadRecord, BundleVisit, LogEntry, Record, SiteRule};
use crate::segment::{LogScan, RecordLoc, SegmentDefect};
use crate::writer::{OBJECTS_PREFIX, VISITS_PREFIX};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

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

/// A checkpointed site as the loader hands it out: its visits planned
/// deeper than [`Depth::Address`], in log order, and the objects they
/// reference, checksummed and content-addressed but not parsed.
#[derive(Debug)]
pub struct StoredSite {
    /// The visits, in log order.
    visits: Vec<LoggedVisit>,
    /// The distinct objects the visits reference, in object-log order.
    objects: Vec<StoredObject>,
}

/// A verified object on its way to the sites that reference it.
#[derive(Debug, Clone)]
struct StoredObject {
    /// Its content address.
    object: u64,
    /// Its position in the object log.
    seq: usize,
    /// Its record, to locate a decode defect.
    loc: RecordLoc,
    /// The deepest depth planned for it.
    depth: Depth,
    /// Its payload.
    payload: String,
}

impl StoredSite {
    /// Decode the site: each of its objects once, in log order, at the
    /// deepest depth planned for the object (a visit planned at
    /// [`Depth::Header`] arrives with its `requests` and `frames` empty
    /// unless a visit of the same object asked for it in full), joined
    /// with its visits in log order. The payload goes to the last visit
    /// of the object and earlier visits get clones. An object that does
    /// not decode is a `Corrupt` error at its record.
    pub fn decode(self) -> Result<Vec<BundleVisit>, BundleError> {
        let _span = wmtree_telemetry::span("bundle.decode");
        let mut decoded = BTreeMap::new();
        for stored in &self.objects {
            let visit = decode_at(&stored.payload, stored.depth)
                .map_err(|detail| SegmentDefect::corrupt(&stored.loc, detail))?;
            decoded.insert(stored.object, visit);
        }
        let last: BTreeMap<u64, usize> = self
            .visits
            .iter()
            .enumerate()
            .map(|(i, visit)| (visit.object, i))
            .collect();
        let mut out = Vec::with_capacity(self.visits.len());
        for (i, visit) in self.visits.into_iter().enumerate() {
            let payload = if last[&visit.object] == i {
                decoded.remove(&visit.object).flatten()
            } else {
                decoded[&visit.object].clone()
            };
            let Some(payload) = payload else {
                unreachable!("a site holds only objects planned past the address")
            };
            out.push(BundleVisit {
                site: visit.site,
                url: visit.url,
                profile: visit.profile,
                object: visit.object,
                visit: payload,
            });
        }
        Ok(out)
    }
}

/// What [`load`] recovered besides the sites it handed out.
#[derive(Debug)]
pub(crate) struct Loaded {
    /// Checkpointed sites.
    pub(crate) sites: BTreeSet<String>,
    /// Content addresses of every stored object.
    pub(crate) index: BTreeSet<u64>,
    /// The finished scans of the visit and object logs, for recovery.
    pub(crate) logs: [LogScan; 2],
}

/// The checkpointed sites on their way out of [`load`]: which objects
/// each still waits for, and the payloads a site still to leave needs.
struct SiteStream<'v> {
    /// Every visit record of the log.
    visits: &'v mut [LoggedVisit],
    /// The depth planned for each visit (past the last checkpoint:
    /// [`Depth::Address`]).
    depths: &'v [Depth],
    /// The visit count at each checkpoint: site `s` is the visits
    /// `ends[s - 1]..ends[s]`.
    ends: Vec<usize>,
    /// Per site, the distinct objects it references that are not
    /// scanned yet.
    waiting: Vec<usize>,
    /// Per object, the sites still to leave that need its payload.
    uses: BTreeMap<u64, usize>,
    /// Scanned objects that sites still to leave need.
    kept: BTreeMap<u64, StoredObject>,
    /// The next site to leave.
    next: usize,
}

impl<'v> SiteStream<'v> {
    /// The stream over the sites `ends` delimits, with `wanted` the
    /// visits referencing each object.
    fn new(
        visits: &'v mut [LoggedVisit],
        depths: &'v [Depth],
        ends: Vec<usize>,
        wanted: &BTreeMap<u64, Vec<usize>>,
    ) -> SiteStream<'v> {
        let mut waiting = vec![0; ends.len()];
        let mut uses = BTreeMap::new();
        for (&object, refs) in wanted {
            let (mut waits, mut needs) = (None, None);
            for &i in refs {
                // `ends` is sorted: the first end past `i` is its site.
                let site = ends.partition_point(|&end| end <= i);
                if site == ends.len() {
                    continue;
                }
                if waits != Some(site) {
                    waiting[site] += 1;
                    waits = Some(site);
                }
                if depths[i] > Depth::Address && needs != Some(site) {
                    *uses.entry(object).or_insert(0) += 1;
                    needs = Some(site);
                }
            }
        }
        SiteStream {
            visits,
            depths,
            ends,
            waiting,
            uses,
            kept: BTreeMap::new(),
            next: 0,
        }
    }

    /// Apply the `seq`th object of the log, scanned at `loc`: `refs` are
    /// the visits referencing it, in log order. Its payload is kept if a
    /// site needs it.
    fn apply(&mut self, object: u64, refs: &[usize], seq: usize, loc: RecordLoc, payload: &str) {
        let mut last = None;
        for &i in refs {
            let site = self.ends.partition_point(|&end| end <= i);
            if site < self.ends.len() && last != Some(site) {
                self.waiting[site] -= 1;
                last = Some(site);
            }
        }
        if self.uses.contains_key(&object) {
            let depth = refs.iter().map(|&i| self.depths[i]).max();
            let stored = StoredObject {
                object,
                seq,
                loc,
                depth: depth.unwrap_or(Depth::Address),
                payload: payload.to_owned(),
            };
            self.kept.insert(object, stored);
        }
    }

    /// Hand every site whose objects are all scanned to `sink`, in log
    /// order, up to the first that still waits.
    fn flush(
        &mut self,
        sink: &mut impl FnMut(StoredSite) -> Result<(), BundleError>,
    ) -> Result<(), BundleError> {
        while self.next < self.ends.len() && self.waiting[self.next] == 0 {
            let start = self.next.checked_sub(1).map_or(0, |s| self.ends[s]);
            let range = start..self.ends[self.next];
            self.next += 1;
            let mut site = StoredSite {
                visits: Vec::new(),
                objects: Vec::new(),
            };
            for i in range.filter(|&i| self.depths[i] > Depth::Address) {
                let visit = &mut self.visits[i];
                let object = visit.object;
                if site.objects.iter().all(|stored| stored.object != object) {
                    let Some(uses) = self.uses.get_mut(&object) else {
                        unreachable!("a visit planned past the address counts as a use")
                    };
                    *uses -= 1;
                    let stored = if *uses == 0 {
                        self.uses.remove(&object);
                        self.kept.remove(&object)
                    } else {
                        self.kept.get(&object).cloned()
                    };
                    let Some(stored) = stored else {
                        unreachable!("a scanned object a site needs is kept")
                    };
                    site.objects.push(stored);
                }
                site.visits.push(LoggedVisit {
                    site: std::mem::take(&mut visit.site),
                    url: std::mem::take(&mut visit.url),
                    profile: visit.profile,
                    object,
                });
            }
            if !site.visits.is_empty() {
                site.objects.sort_by_key(|stored| stored.seq);
                sink(site)?;
            }
        }
        Ok(())
    }
}

/// Read and verify every committed record of the bundle at `dir`:
/// checksums, chains, content addresses, profile indices, the visit
/// log's site rule, references, counts and the checkpoint boundary.
/// `plan` sees the checkpointed visits, in log order, before any object
/// is read, and names the depth each one needs. Each checkpointed site goes to `sink`, in log
/// order, as soon as the objects its visits reference are scanned: its
/// visits planned deeper than [`Depth::Address`], with those objects
/// still encoded (a site with none is skipped). Crash leftovers past
/// the committed region are skipped; any other defect, or the first
/// `sink` error, is the error, naming where it is.
pub(crate) fn load(
    dir: &Path,
    manifest: &Manifest,
    plan: impl FnOnce(&[LoggedVisit]) -> Vec<Depth>,
    mut sink: impl FnMut(StoredSite) -> Result<(), BundleError>,
) -> Result<Loaded, BundleError> {
    let mut visit_log = LogScan::new(dir, VISITS_PREFIX, &manifest.visit_segments);
    let mut object_log = LogScan::new(dir, OBJECTS_PREFIX, &manifest.object_segments);
    let n_profiles = manifest.meta.n_profiles;
    let mut visits: Vec<LoggedVisit> = Vec::new();
    let mut locs: Vec<RecordLoc> = Vec::new();
    // The visit count at each checkpoint.
    let mut ends = Vec::new();
    let mut rule = SiteRule::default();
    let mut tally = Tally::default();
    while let Some((loc, payload)) = visit_log.next_record()? {
        let located = |detail| SegmentDefect::corrupt(&loc, detail);
        match Record::decode(payload, n_profiles) {
            Ok(LogEntry::Visit(visit, object)) => {
                rule.visit(&visit.site, &visit.url, visit.profile)
                    .map_err(located)?;
                visits.push(LoggedVisit {
                    site: visit.site,
                    url: visit.url,
                    profile: visit.profile,
                    object,
                });
                locs.push(loc);
            }
            Ok(LogEntry::Checkpoint(cp)) => {
                rule.checkpoint(&cp).map_err(located)?;
                tally.checkpoints += 1;
                ends.push(visits.len());
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
    // Visits before the last checkpoint.
    let committed = ends.last().copied().unwrap_or(0);
    tally.visit_records = visits.len() as u64;
    tally.pending = (visits.len() - committed) as u64;

    // The depth of each visit (past the checkpoint: none), and the
    // visits that reference each object, in log order.
    let mut depths = plan(&visits[..committed]);
    depths.resize(committed, Depth::Address);
    depths.resize(visits.len(), Depth::Address);
    let mut wanted: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, visit) in visits.iter().enumerate() {
        wanted.entry(visit.object).or_default().push(i);
    }
    let mut stream = SiteStream::new(&mut visits, &depths, ends, &wanted);
    // Sites with no visit wait for nothing.
    stream.flush(&mut sink)?;
    let mut index = BTreeSet::new();
    let mut orphan = None;
    while let Some((loc, payload)) = object_log.next_record()? {
        let hash = object_hash(payload.as_bytes());
        if !index.insert(hash) {
            return Err(SegmentDefect::corrupt(&loc, duplicate_object(hash)).into());
        }
        match wanted.remove(&hash) {
            Some(refs) => {
                stream.apply(hash, &refs, index.len(), loc, payload);
                stream.flush(&mut sink)?;
            }
            None => {
                orphan.get_or_insert(hash);
            }
        }
    }
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
    Ok(Loaded {
        sites: rule.closed,
        index,
        logs: [visit_log, object_log],
    })
}

/// Replay a bundle site by site: load and verify every committed
/// record of the bundle at `dir` whose `manifest` the caller loaded.
/// `plan` sees every checkpointed visit record, in log order, before
/// any object is read, and returns one [`Depth`] per record. Each
/// checkpointed site goes to `sink`, in log order, as soon as every
/// object its visits reference is checksummed and content-addressed:
/// its visits planned deeper than [`Depth::Address`], with their
/// objects still encoded, for [`StoredSite::decode`] to parse as deep
/// as `plan` asked. Works on partial bundles too — they replay their
/// checkpointed prefix.
///
/// Every byte is verified whatever the depths, but the checks that need
/// the whole log (dangling references, counts, orphans, chains, stray
/// segments, the checkpoint boundary) decide the result only after the
/// last site has left: whatever a caller derives from the sites stays
/// provisional until this returns `Ok`. The first defect, or the first
/// `sink` error, is the error, naming its segment (and line and byte
/// offset, where it has them).
pub fn read_sites(
    dir: &Path,
    manifest: &Manifest,
    plan: impl FnOnce(&[LoggedVisit]) -> Vec<Depth>,
    sink: impl FnMut(StoredSite) -> Result<(), BundleError>,
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
    use wmtree_browser::VisitResult;

    /// Every visit planned at `Full`.
    fn full(visits: &[LoggedVisit]) -> Vec<Depth> {
        vec![Depth::Full; visits.len()]
    }

    /// The loader at `depth` for every visit, each site decoded as it
    /// leaves, as a one-worker replay does: every visit, or the error.
    fn read_at_depth(dir: &Path, depth: Depth) -> Result<Vec<BundleVisit>, BundleError> {
        let manifest = Manifest::load(dir)?;
        let mut out = Vec::new();
        let plan = |visits: &[LoggedVisit]| vec![depth; visits.len()];
        read_sites(dir, &manifest, plan, |site| {
            out.extend(site.decode()?);
            Ok(())
        })?;
        Ok(out)
    }

    fn read_all(dir: &Path) -> Result<Vec<BundleVisit>, BundleError> {
        read_at_depth(dir, Depth::Full)
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

    /// The sites the loader hands out, as `(site, visits)` in the order
    /// they left, and how the load ended.
    fn stream(dir: &Path) -> (Vec<(String, usize)>, Result<(), String>) {
        let manifest = Manifest::load(dir).unwrap();
        let mut left = Vec::new();
        let end = read_sites(dir, &manifest, full, |site| {
            let visits = site.decode()?;
            assert!(
                visits.iter().all(|bv| bv.site == visits[0].site),
                "one site"
            );
            left.push((visits[0].site.clone(), visits.len()));
            Ok(())
        });
        (left, end.map_err(|e| e.to_string()))
    }

    #[test]
    fn sites_leave_in_log_order_with_their_visits() {
        let dir = tmp("reader-sites");
        write_many(&dir);
        let expect: Vec<(String, usize)> = (0..8).map(|i| (format!("s{i}.com"), 2)).collect();
        assert_eq!(stream(&dir), (expect, Ok(())));
        let all = read_all(&dir).unwrap();
        assert_eq!(all.len(), 16);
        for (i, bv) in all.iter().enumerate() {
            assert_eq!(bv.visit, visit(i as u64), "visit {i} in log order");
        }
    }

    #[test]
    fn sites_leave_before_a_late_defect_decides_the_load() {
        let dir = tmp("reader-late-defect");
        write_many(&dir);
        // Flip a payload byte of the last object line: its checksum no
        // longer matches, so the last site never leaves, the seven
        // before it have, and the load fails at that line.
        let seg = dir.join("objects-000.seg");
        let mut bytes = std::fs::read(&seg).unwrap();
        let at = bytes.len() - 3;
        bytes[at] ^= 1;
        std::fs::write(&seg, &bytes).unwrap();
        let early: Vec<(String, usize)> = (0..7).map(|i| (format!("s{i}.com"), 2)).collect();
        let (left, end) = stream(&dir);
        assert_eq!(left, early);
        let err = end.unwrap_err();
        assert!(err.contains("objects-000.seg line 16"), "{err}");

        // An orphan appended to the log: every site leaves, then the
        // end-of-log check fails the load.
        let dir = tmp("reader-late-orphan");
        write_many(&dir);
        forge_object(&dir, &encode(&visit(99)).unwrap());
        let (left, end) = stream(&dir);
        assert_eq!(left.len(), 8);
        assert!(end.unwrap_err().contains("never referenced"));
    }

    #[test]
    fn a_sink_error_stops_the_load() {
        let dir = tmp("reader-sink-error");
        write_many(&dir);
        let manifest = Manifest::load(&dir).unwrap();
        let mut left = 0;
        let err = read_sites(&dir, &manifest, full, |_| {
            left += 1;
            if left == 3 {
                return Err(BundleError::NotFound { dir: dir.clone() });
            }
            Ok(())
        })
        .unwrap_err();
        assert!(matches!(err, BundleError::NotFound { .. }), "{err}");
        assert_eq!(left, 3, "no site leaves after the sink's error");
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
    fn the_site_rule_locates_its_first_defect_for_the_loader_and_the_audit() {
        // `write_small`'s visit log: a.com's two visits (profiles 0 and
        // 1) and its checkpoint, then b.com's one visit and checkpoint.
        type Edit = fn(&mut Vec<String>);
        let cases: [(&str, usize, &str, Edit); 5] = [
            ("count", 3, "counts 3 visit record(s), closes 2", |log| {
                log[2] = log[2].replace("\"visits\":2", "\"visits\":3")
            }),
            ("foreign", 2, "among the visit records of a.com", |log| {
                log[1] = log[1].replace("a.com\"", "b.com\"")
            }),
            (
                "twice",
                2,
                "second visit of a.com / https://www.a.com/ by profile 0",
                |log| log[1] = log[1].replace("\"profile\":1", "\"profile\":0"),
            ),
            (
                "closed",
                4,
                "follows the checkpoint that closed a.com",
                |log| {
                    for record in &mut log[3..] {
                        *record = record.replace("b.com", "a.com");
                    }
                },
            ),
            (
                "relabeled",
                3,
                "checkpoint of c.com closes the visit records of a.com",
                |log| log[2] = log[2].replace("a.com", "c.com"),
            ),
        ];
        for (case, line, detail, edit) in cases {
            let dir = tmp(&format!("reader-site-rule-{case}"));
            write_small(&dir, true);
            rewrite(&dir, "visits-000.seg", true, edit);
            let err = read_all(&dir).expect_err(case);
            let located = |segment: &str, at: usize, what: &str| {
                segment == "visits-000.seg" && at == line && what.contains(detail)
            };
            assert!(
                matches!(&err, BundleError::Corrupt { segment, line, detail, .. }
                    if located(segment, *line, detail)),
                "{case}: {err}"
            );
            let issues = crate::verify_bundle(&dir).unwrap().issues;
            assert!(
                matches!(issues.as_slice(),
                    [crate::VerifyIssue::Segment(SegmentDefect::Corrupt { segment, line, detail, .. })]
                        if located(segment, *line, detail)),
                "{case}: {issues:?}"
            );
        }
    }

    #[test]
    fn early_corrupt_object_wins_over_a_later_chain_mismatch() {
        let dir = tmp("reader-early-corrupt");
        write_many(&dir);
        // Re-address line 2 to a payload that does not decode: the line
        // verifies and its visit record resolves, so the parser is
        // reached, while the segment's chain no longer matches the
        // manifest at its end.
        readdress(&dir, 2, "[[\"https\",\"www.a.com\",\"/\"],7", false);
        let err = read_all(&dir).unwrap_err().to_string();
        assert!(err.contains("objects-000.seg line 2"), "{err}");
        assert!(err.contains("unparseable visit payload"), "{err}");
    }

    #[test]
    fn a_site_reports_its_first_undecodable_object_in_log_order() {
        let dir = tmp("reader-site-order");
        let mut w = BundleWriter::create(&dir, meta()).unwrap();
        let (first, second) = (visit(1), visit(2));
        append_site(
            &mut w,
            "a.com",
            vec![("https://www.a.com/".into(), 0, &first)],
        );
        // b.com stores line 2, then references line 1.
        let page = "https://www.b.com/".to_string();
        append_site(
            &mut w,
            "b.com",
            vec![(page.clone(), 0, &second), (page, 1, &first)],
        );
        w.finish().unwrap();
        readdress(&dir, 1, "[1]", true);
        readdress(&dir, 2, "[2]", true);
        // Only b.com leaves: it decodes line 1 first, though its visits
        // reference line 2 first.
        let manifest = Manifest::load(&dir).unwrap();
        let plan = |visits: &[LoggedVisit]| {
            let depth = |v: &LoggedVisit| match v.site.as_str() {
                "b.com" => Depth::Full,
                _ => Depth::Address,
            };
            visits.iter().map(depth).collect()
        };
        let err = read_sites(&dir, &manifest, plan, |site| site.decode().map(drop)).unwrap_err();
        assert!(err.to_string().contains("objects-000.seg line 1"), "{err}");
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
        let err = read_all(&dir).unwrap_err().to_string();
        assert!(err.contains("visits-000.seg line 2"), "{err}");
        assert!(err.contains("never recorded"), "{err}");
    }

    #[test]
    fn a_duplicate_object_is_the_first_error() {
        let dir = tmp("reader-duplicate");
        write_many(&dir);
        // A second copy of line 1's object as line 17.
        let (line, _) = forge_object(&dir, &encode(&visit(0)).unwrap());
        assert_eq!(line, 17);
        let err = read_all(&dir).unwrap_err().to_string();
        assert!(err.contains("objects-000.seg line 17"), "{err}");
        assert!(err.contains("duplicate object"), "{err}");
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
    fn each_object_decodes_at_the_deepest_depth_it_is_planned() {
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
            read_sites(
                &dir,
                &manifest,
                |visits| {
                    seen.borrow_mut()
                        .extend(visits.iter().map(|v| v.site.clone()));
                    plan.to_vec()
                },
                |site| {
                    out.extend(site.decode()?);
                    Ok(())
                },
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
