//! OpenWPM-like measurement framework.
//!
//! Reproduces the experimental machinery of the paper (§3.1 and
//! Appendix C): a **commander** orchestrates several **clients** (one
//! per browser profile), synchronizing visits at the *site* level —
//! every profile starts a site at the same time but walks its pages
//! independently ("semi-parallel"). Results land in an in-memory
//! [`CrawlDb`] (standing in for the paper's BigQuery store), keyed by
//! `(profile, page)`.
//!
//! * [`Profile`] — the five Table 1 configurations (*Old*, *Sim1*,
//!   *Sim2*, *NoAction*, *Headless*) plus custom ones.
//! * [`discover_pages`] — the subpage-collection pre-crawl (§3.1.2:
//!   25 first-party links per site, recursive if the landing page is
//!   short).
//! * [`Commander`] — runs the measurement over a
//!   [`wmtree_webgen::WebUniverse`], optionally fanning sites out over
//!   worker threads (std scoped threads; the work is CPU-bound
//!   simulation, so threads — not async — are the right tool).
//! * [`CrawlDb`] — vetting (§3.2: keep only pages successfully crawled
//!   by *all* profiles) and per-profile accounting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bundle_io;
mod commander;
mod db;
mod discovery;
pub mod export;
mod profile;

pub use bundle_io::{read_bundle, write_bundle};
pub use commander::{replay_sites, Commander, CrawlOptions, ResumableOutcome};
pub use db::{CrawlDb, MergeError, PageKey, ProfileStats};
pub use discovery::discover_pages;
pub use profile::{standard_profiles, Profile, ProfileId, STANDARD_PROFILES};

// Re-export the visit result type that CrawlDb stores, so downstream
// crates (tree building, analysis) need only depend on the crawler.
pub use wmtree_browser::{FrameRecord, RequestRecord, StackEntry, TriggerSource, VisitResult};
