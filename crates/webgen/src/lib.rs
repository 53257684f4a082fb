//! Deterministic synthetic web universe.
//!
//! The IMC'23 paper crawls the live Web. A Rust reproduction cannot
//! (and a reproducible one *should not*) — so this crate builds the
//! closest synthetic equivalent: a **universe** of rank-listed sites
//! whose pages embed first-party assets and a realistic third-party
//! ecosystem (analytics, tag managers, ad networks with header-bidding
//! chains, social widgets, consent managers, CDNs, cookie syncing).
//!
//! The universe is *deterministic in structure* — which services a site
//! embeds derives from the universe seed, so every crawler profile sees
//! the same site — while *per-visit nondeterminism* (ad rotation, A/B
//! tests, session identifiers, lazy loading) derives from a per-visit
//! seed, exactly the variance sources the paper identifies:
//!
//! * ad chains rotate per visit and reach deep tree levels (§4.1/§4.2),
//! * session IDs appear as query values (§3.2's URL normalization),
//! * lazily loaded content requires user interaction (§4.4, NoAction),
//! * some behaviour is gated on browser version or headless mode (§4.4),
//! * cookie-sync redirect chains vary per visit (§4.1).
//!
//! The core entry point is [`WebUniverse::serve`]: given a URL and a
//! [`VisitCtx`], it returns what the "server" responds — a document with
//! embedded elements, a script with actions, a redirect, a leaf asset —
//! which the `wmtree-browser` engine then walks like a rendering engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod content;
pub mod inventory;
mod seed;
pub mod serve;
pub mod tranco;
mod universe;

pub use content::{Condition, Content, Embed, SpawnSpec};
pub use seed::{stable_hash, SeedMixer, StableHasher};
pub use universe::{RankBucket, SiteSpec, UniverseConfig, VisitCtx, WebUniverse};
