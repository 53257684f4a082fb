//! Full structural verification of a bundle — the machinery behind
//! `wmtree-lint check-artifacts` on bundle directories and the CI
//! integrity gate.
//!
//! Unlike the fail-fast loader, verification is *lenient*: it walks the
//! same [`LogScan`] as replay but collects every defect it finds, so one
//! flipped byte does not hide an unrelated dangling reference further on.

use crate::error::BundleError;
use crate::hash::{object_hash, to_hex};
use crate::manifest::Manifest;
use crate::object::{decode_at, Depth};
use crate::reader::Tally;
use crate::record::{duplicate_object, BadRecord, LogEntry, Record};
use crate::segment::{LogScan, RecordLoc, Scanned, SegmentDefect};
use crate::writer::{OBJECTS_PREFIX, VISITS_PREFIX};
use std::collections::BTreeSet;
use std::path::Path;

/// One defect found by [`verify_bundle`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyIssue {
    /// A segment-log defect: a record that fails its checksum or does
    /// not decode, a manifest disagreement (count, chain, or checkpoint
    /// structure), or uncommitted bytes past the committed region
    /// ([`SegmentDefect::TrailingBytes`], harmless, removed on resume).
    Segment(SegmentDefect),
    /// A visit record references an object the store never recorded.
    DanglingObject {
        /// Segment file name of the referencing record.
        segment: String,
        /// One-based line number of the referencing record.
        line: usize,
        /// The unresolvable content hash (hex).
        object: String,
    },
    /// A stored object is never referenced by any visit record.
    OrphanObject {
        /// The unreferenced content hash (hex).
        object: String,
    },
    /// A visit record's profile index exceeds the manifest's count.
    ProfileOutOfRange {
        /// Segment file name.
        segment: String,
        /// One-based line number.
        line: usize,
        /// The offending profile index.
        profile: usize,
    },
    /// The bundle is a partial (resumable) crawl, not a finished run.
    Incomplete,
}

/// The outcome of [`verify_bundle`].
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Every defect found, in scan order.
    pub issues: Vec<VerifyIssue>,
    /// Visit records actually present and parseable.
    pub visit_records: u64,
    /// Checkpoint records actually present.
    pub checkpoints: u64,
    /// Unique objects actually present.
    pub objects: u64,
    /// Whether the manifest marks the bundle complete.
    pub complete: bool,
}

impl VerifyReport {
    /// No integrity defects. [`VerifyIssue::Incomplete`] and
    /// [`SegmentDefect::TrailingBytes`] are *states*, not corruption,
    /// and do not count against cleanliness. A bundle is clean exactly
    /// when the fail-fast loader reads it.
    pub fn is_clean(&self) -> bool {
        self.issues.iter().all(|i| {
            matches!(
                i,
                VerifyIssue::Incomplete | VerifyIssue::Segment(SegmentDefect::TrailingBytes { .. })
            )
        })
    }
}

/// Verify a bundle end to end: per-record checksums, per-segment chains
/// against the manifest, object-store content addresses, referential
/// integrity (no dangling references), orphan detection, checkpoint
/// structure, count agreement, and leftovers past the committed set.
/// I/O failures (unreadable files) are `Err`; every *integrity* defect
/// lands in the report.
pub fn verify_bundle(dir: &Path) -> Result<VerifyReport, BundleError> {
    let _span = wmtree_telemetry::span("bundle.verify");
    let manifest = Manifest::load(dir)?;
    let mut issues = Vec::new();
    if !manifest.complete {
        issues.push(VerifyIssue::Incomplete);
    }
    let corrupt =
        |loc: &RecordLoc, detail: String| VerifyIssue::Segment(SegmentDefect::corrupt(loc, detail));

    // Pass 1 — object store: every payload decodes in full, and no
    // content address is stored twice.
    let mut stored: BTreeSet<u64> = BTreeSet::new();
    let mut objects = LogScan::new(dir, OBJECTS_PREFIX, &manifest.object_segments);
    while let Some(item) = objects.next_item() {
        match item? {
            Scanned::Defect(defect) => issues.push(VerifyIssue::Segment(defect)),
            Scanned::Record(loc, payload) => {
                let hash = object_hash(payload.as_bytes());
                if let Err(detail) = decode_at(payload, Depth::Full) {
                    issues.push(corrupt(&loc, detail));
                } else if !stored.insert(hash) {
                    issues.push(corrupt(&loc, duplicate_object(hash)));
                }
            }
        }
    }

    // Pass 2 — visit log: structure, references, checkpoint shape.
    let mut referenced: BTreeSet<u64> = BTreeSet::new();
    let mut tally = Tally {
        objects: stored.len() as u64,
        ..Tally::default()
    };
    let mut visits = LogScan::new(dir, VISITS_PREFIX, &manifest.visit_segments);
    while let Some(item) = visits.next_item() {
        let (loc, payload) = match item? {
            Scanned::Defect(defect) => {
                issues.push(VerifyIssue::Segment(defect));
                continue;
            }
            Scanned::Record(loc, payload) => (loc, payload),
        };
        match Record::decode(payload, manifest.meta.n_profiles) {
            Err(BadRecord::Corrupt(detail)) => issues.push(corrupt(&loc, detail)),
            Ok(LogEntry::Checkpoint(_)) => {
                tally.checkpoints += 1;
                tally.pending = 0;
            }
            Err(BadRecord::ProfileOutOfRange(profile)) => {
                tally.visit_records += 1;
                tally.pending += 1;
                issues.push(VerifyIssue::ProfileOutOfRange {
                    segment: loc.segment,
                    line: loc.line,
                    profile,
                });
            }
            Ok(LogEntry::Visit(vr, hash)) => {
                tally.visit_records += 1;
                tally.pending += 1;
                if stored.contains(&hash) {
                    referenced.insert(hash);
                } else {
                    issues.push(VerifyIssue::DanglingObject {
                        segment: loc.segment,
                        line: loc.line,
                        object: vr.object,
                    });
                }
            }
        }
    }
    issues.extend(
        tally
            .defects(&manifest)
            .into_iter()
            .map(VerifyIssue::Segment),
    );
    for orphan in stored.difference(&referenced) {
        issues.push(VerifyIssue::OrphanObject {
            object: to_hex(*orphan),
        });
    }
    Ok(VerifyReport {
        issues,
        visit_records: tally.visit_records,
        checkpoints: tally.checkpoints,
        objects: tally.objects,
        complete: manifest.complete,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::encode;
    use crate::writer::tests::{forge_object, tmp, visit, write_small};

    #[test]
    fn finished_bundle_is_clean() {
        let dir = tmp("verify-clean");
        write_small(&dir, true);
        let report = verify_bundle(&dir).unwrap();
        assert!(report.issues.is_empty(), "{:?}", report.issues);
        assert!(report.is_clean());
        assert_eq!(report.visit_records, 3);
        assert_eq!(report.checkpoints, 2);
        assert_eq!(report.objects, 2);
    }

    #[test]
    fn partial_bundle_reports_incomplete_but_clean() {
        let dir = tmp("verify-partial");
        write_small(&dir, false);
        let report = verify_bundle(&dir).unwrap();
        assert_eq!(report.issues, vec![VerifyIssue::Incomplete]);
        assert!(report.is_clean());
    }

    #[test]
    fn flipped_byte_reports_corrupt_and_chain_mismatch() {
        let dir = tmp("verify-flip");
        write_small(&dir, true);
        let seg = dir.join("visits-000.seg");
        let mut bytes = std::fs::read(&seg).unwrap();
        bytes[25] ^= 1;
        std::fs::write(&seg, &bytes).unwrap();
        let report = verify_bundle(&dir).unwrap();
        assert!(!report.is_clean());
        assert!(report
            .issues
            .iter()
            .any(|i| matches!(i, VerifyIssue::Segment(SegmentDefect::Corrupt { segment, line: 1, .. }) if segment == "visits-000.seg")),
            "{:?}", report.issues);
        // The chain no longer matches either — both defects reported.
        assert!(report.issues.iter().any(|i| matches!(
            i,
            VerifyIssue::Segment(SegmentDefect::ManifestMismatch { .. })
        )));
    }

    #[test]
    fn orphan_object_detected() {
        let dir = tmp("verify-orphan");
        write_small(&dir, true);
        forge_object(&dir, &encode(&visit(99)).unwrap());
        let report = verify_bundle(&dir).unwrap();
        assert!(
            report
                .issues
                .iter()
                .any(|i| matches!(i, VerifyIssue::OrphanObject { .. })),
            "{:?}",
            report.issues
        );
    }

    #[test]
    fn record_defects_carry_their_byte_offset() {
        let dir = tmp("verify-offset");
        write_small(&dir, true);
        // Framed and chained correctly, but no object payload.
        let (line, offset) = forge_object(&dir, "[\"not a visit\"]");
        assert!(offset > 0);
        let report = verify_bundle(&dir).unwrap();
        assert!(
            report.issues.iter().any(|i| matches!(
                i,
                VerifyIssue::Segment(SegmentDefect::Corrupt { segment, line: l, offset: o, detail })
                    if segment == "objects-000.seg" && *l == line && *o == offset
                        && detail.contains("unparseable visit payload")
            )),
            "line {line} at byte {offset}: {:?}",
            report.issues
        );
    }

    #[test]
    fn stray_segment_is_a_trailing_bytes_warning() {
        let dir = tmp("verify-stray");
        write_small(&dir, true);
        std::fs::write(dir.join("visits-001.seg"), b"junk\n").unwrap();
        let report = verify_bundle(&dir).unwrap();
        assert_eq!(
            report.issues,
            vec![VerifyIssue::Segment(SegmentDefect::TrailingBytes {
                segment: "visits-001.seg".into(),
                bytes: 5,
            })]
        );
        assert!(report.is_clean());
    }

    #[test]
    fn dangling_reference_detected() {
        let dir = tmp("verify-dangling");
        write_small(&dir, true);
        // Drop the object store from the manifest: all three references
        // dangle.
        let mut manifest = Manifest::load(&dir).unwrap();
        manifest.object_segments.clear();
        manifest.objects = 0;
        manifest.store(&dir).unwrap();
        let report = verify_bundle(&dir).unwrap();
        assert_eq!(
            report
                .issues
                .iter()
                .filter(|i| matches!(i, VerifyIssue::DanglingObject { .. }))
                .count(),
            3,
            "{:?}",
            report.issues
        );
    }
}
