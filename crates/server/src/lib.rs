//! `wmtree-server` — the long-running measurement service.
//!
//! Turns the one-shot `repro` pipeline into a service: clients submit
//! crawl jobs over HTTP, a persistent queue (`JOBS.json`, same atomic
//! rewrite discipline as a bundle's `MANIFEST.json`) runs them through
//! the resumable bundle writer, and finished corpora are served back —
//! reports, CSV exports, per-site tree diffs — by *replaying* the
//! recorded bundles on demand.
//!
//! Determinism does the heavy lifting everywhere:
//!
//! - **Crash safety is resume, not redo.** A job is crawled in
//!   site-batches into a checkpointed bundle; if the process dies, the
//!   restarted server flips `Running` jobs to `Interrupted` and
//!   resumes them from the last checkpoint. The finished bundle is
//!   byte-identical to an uninterrupted run.
//! - **The bundle content hash is the ETag.** Every replay-derived
//!   response is a pure function of the bundle bytes, so the hash on
//!   the job record is a strong validator: `If-None-Match`
//!   revalidation answers `304` without touching the archive.
//! - **The cache needs no invalidation.** Replays are keyed by content
//!   hash; a hash can never map to two different responses, so entries
//!   are only ever evicted for capacity (LRU), never for staleness.
//!
//! The serving path performs no wall-clock reads (enforced by
//! `wmtree-lint` WM0101): timeouts are socket deadlines, cache
//! recency is a logical tick, and no thread polls — each blocks on the
//! event it serves (see [`server`]) — so the service stays inside the
//! same determinism budget as the pipeline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod error;
pub mod http;
pub mod jobs;
pub mod server;

pub use cache::{CachedReplay, ReplayCache};
pub use error::ServerError;
pub use http::{Request, Response};
pub use jobs::{JobRecord, JobSpec, JobState, JobStore, JobsFile, JOBS_FILE, JOBS_VERSION};
pub use server::{Server, ServerConfig, ServerHandle};
