//! `wmtree-bundle` — content-addressed record/replay crawl archives.
//!
//! A *bundle* is an on-disk archive of one crawl run:
//!
//! - **Object store** — every [`wmtree_browser::VisitResult`] payload is
//!   encoded once as a self-contained format-v3 object ([`object`]: a
//!   positional JSON array with its own string and URL table),
//!   content-addressed with a 64-bit hash of exactly those bytes, and
//!   stored exactly once. Identical visit outcomes (common for failure
//!   records and idle profiles) are deduplicated.
//! - **Visit log** — an append-only sequence of small reference records
//!   `(site, url, profile, object-hash)` plus per-site *checkpoint*
//!   records, framed one per line with a checksum header.
//! - **Manifest** — `MANIFEST.json`, rewritten atomically after every
//!   checkpoint, pins the record count and rolling chain checksum of
//!   every segment. The manifest is the commit point: bytes beyond the
//!   manifest-covered prefix are uncommitted crash leftovers.
//!
//! A site is encoded on its own ([`EncodedSite::encode`], pure, so
//! crawl workers do it in parallel) and then appended in order
//! ([`BundleWriter::append`]), which checkpoints after every completed
//! site, so a crawl killed mid-run leaves a consistent partial bundle.
//! Resuming truncates uncommitted bytes and continues appending — the
//! resumed bundle is byte-identical to one written by an uninterrupted
//! run.
//!
//! Segment logs have one reader, [`segment::LogScan`], which yields
//! records and framing defects alike, and bundles one loader over it,
//! which reads each log once on the calling thread, parses no object,
//! and hands out each checkpointed site, in log order, as soon as its
//! objects are verified, still encoded ([`StoredSite`]): each payload
//! it needs, moved to the last site that needs it, with the deepest
//! [`Depth`] planned for it (the address alone, the header, or the
//! whole visit). [`StoredSite::decode`] parses a site's objects on
//! whichever thread takes the site — in a replay, the worker that
//! analyses it. The checks that need the whole log decide the result
//! at its end. The loader hands every defect it finds, in its one scan
//! order, to its caller: replay ([`read_sites`]) and
//! [`BundleWriter::resume`] stop at the first that is not a crash
//! leftover, an error naming the segment, line, and byte offset;
//! [`verify_bundle`], the check behind `wmtree-lint check-artifacts`,
//! runs it to the end, decoding every object in full and collecting
//! every defect.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atomic;
pub mod error;
pub mod hash;
pub mod manifest;
pub mod object;
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
pub use object::Depth;
pub use reader::{read_sites, LoggedVisit, StoredSite};
pub use record::{BundleVisit, Checkpoint, Record, VisitRef};
pub use segment::SegmentDefect;
pub use store::{BundleStore, BundleSummary};
pub use verify::{verify_bundle, VerifyIssue, VerifyReport};
pub use writer::{BundleWriter, EncodedSite};
