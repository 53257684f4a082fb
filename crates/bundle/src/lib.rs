//! `wmtree-bundle` — content-addressed record/replay crawl archives.
//!
//! A *bundle* is an on-disk archive of one crawl run:
//!
//! - **Object store** — every [`wmtree_browser::VisitResult`] payload is
//!   serialized canonically, content-addressed with a stable 64-bit
//!   hash, and stored exactly once. Identical visit outcomes (common
//!   for failure records and idle profiles) are deduplicated.
//! - **Visit log** — an append-only sequence of small reference records
//!   `(site, url, profile, object-hash)` plus per-site *checkpoint*
//!   records, framed one per line with a checksum header.
//! - **Manifest** — `MANIFEST.json`, rewritten atomically after every
//!   checkpoint, pins the record count and rolling chain checksum of
//!   every segment. The manifest is the commit point: bytes beyond the
//!   manifest-covered prefix are uncommitted crash leftovers.
//!
//! [`BundleWriter`] checkpoints after every completed site, so a crawl
//! killed mid-run leaves a consistent partial bundle. Resuming truncates
//! uncommitted bytes and continues appending — the resumed bundle is
//! byte-identical to one written by an uninterrupted run.
//!
//! Segment logs have one reader, [`segment::LogScan`], which yields
//! records and framing defects alike. Replay ([`read_visits`]) and
//! [`BundleWriter::resume`] share one fail-fast loader over it: the
//! first defect surfaces as an error naming the segment, line, and byte
//! offset. [`verify_bundle`], the check behind `wmtree-lint
//! check-artifacts`, scans the same way but leniently, collecting every
//! defect.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atomic;
pub mod error;
pub mod hash;
pub mod manifest;
pub mod reader;
pub mod record;
pub mod segment;
pub mod store;
pub mod verify;
pub mod writer;

pub use atomic::atomic_replace;
pub use error::BundleError;
pub use hash::bundle_content_hash;
pub use manifest::{BundleMeta, Manifest, SegmentMeta, DEFAULT_SEGMENT_CAPACITY};
pub use reader::read_visits;
pub use record::{BundleVisit, Checkpoint, ObjectEntry, Record, VisitRef};
pub use segment::SegmentDefect;
pub use store::{BundleStore, BundleSummary};
pub use verify::{verify_bundle, VerifyIssue, VerifyReport};
pub use writer::{BundleWriter, ResumeState};
