//! Full structural verification of a bundle — the machinery behind
//! `wmtree-lint check-artifacts` on bundle directories and the CI
//! integrity gate.
//!
//! Verification is the bundle loader run to the end: the same scan,
//! in the same order, as every replay, only collecting each defect
//! instead of stopping at the first, so one flipped byte does not hide
//! an unrelated dangling reference further on, and a bundle verifies
//! clean exactly when every replay reads it.

use crate::error::BundleError;
use crate::manifest::Manifest;
use crate::object::{decode_at, Depth};
use crate::reader::{load, LoggedVisit};
use crate::segment::SegmentDefect;
use crate::writer::OBJECTS_PREFIX;
use std::path::Path;

/// One defect found by the bundle loader, as [`verify_bundle`] reports
/// it.
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
        /// Byte offset of the record start.
        offset: u64,
        /// The offending profile index.
        profile: usize,
    },
    /// The bundle is a partial (resumable) crawl, not a finished run.
    Incomplete,
}

impl VerifyIssue {
    /// The error a reader stops at for this issue, or `None` for a state
    /// that is no defect: an unfinished crawl, or crash leftovers.
    /// `n_profiles` is the bundle's profile count.
    pub(crate) fn into_error(self, n_profiles: usize) -> Option<BundleError> {
        Some(match self {
            VerifyIssue::Incomplete | VerifyIssue::Segment(SegmentDefect::TrailingBytes { .. }) => {
                return None
            }
            VerifyIssue::Segment(defect) => defect.into(),
            VerifyIssue::DanglingObject {
                segment,
                line,
                object,
            } => BundleError::DanglingObject {
                segment,
                line,
                object,
            },
            VerifyIssue::OrphanObject { object } => BundleError::ManifestMismatch {
                segment: OBJECTS_PREFIX.to_string(),
                detail: format!("object {object} is stored but never referenced"),
            },
            VerifyIssue::ProfileOutOfRange {
                segment,
                line,
                offset,
                profile,
            } => BundleError::Corrupt {
                segment,
                line,
                offset,
                detail: format!(
                    "profile index {profile} out of range (bundle has {n_profiles} profiles)"
                ),
            },
        })
    }
}

/// The outcome of [`verify_bundle`].
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Every defect found, in the loader's scan order.
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
    /// when every replay reads it.
    pub fn is_clean(&self) -> bool {
        self.issues.iter().all(|i| {
            matches!(
                i,
                VerifyIssue::Incomplete | VerifyIssue::Segment(SegmentDefect::TrailingBytes { .. })
            )
        })
    }
}

/// Verify a bundle end to end: run the loader every replay runs —
/// per-record checksums, per-segment chains against the manifest, the
/// visit log's site rule, profile indices, content addresses and
/// duplicates, references, counts, the checkpoint boundary, orphans,
/// and leftovers past the committed set — to the end, with every visit
/// planned at [`Depth::Address`] and every stored object, orphans
/// included, decoded in full as it is scanned. Nothing is truncated.
/// I/O failures (unreadable files) are `Err`; every *integrity* defect
/// lands in the report, in the loader's scan order.
pub fn verify_bundle(dir: &Path) -> Result<VerifyReport, BundleError> {
    let _span = wmtree_telemetry::span("bundle.verify");
    let manifest = Manifest::load(dir)?;
    let mut issues = Vec::new();
    if !manifest.complete {
        issues.push(VerifyIssue::Incomplete);
    }
    let plan = |visits: &[LoggedVisit]| vec![Depth::Address; visits.len()];
    let decode = |payload: &str| decode_at(payload, Depth::Full).map(drop);
    let loaded = load(
        dir,
        &manifest,
        plan,
        |_| Ok(()),
        decode,
        |issue| {
            issues.push(issue);
            Ok(())
        },
    )?;
    Ok(VerifyReport {
        issues,
        visit_records: loaded.tally.visit_records,
        checkpoints: loaded.tally.checkpoints,
        objects: loaded.tally.objects,
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
