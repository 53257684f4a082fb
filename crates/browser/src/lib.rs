//! Simulated browser engine.
//!
//! This crate models the part of Firefox that the paper's OpenWPM
//! instrumentation observes: the fetch pipeline. Given a page URL, a
//! [`BrowserConfig`] (version, user interaction, headless — the Table 1
//! knobs) and a [`wmtree_webgen::WebUniverse`] to fetch from, the engine
//! produces a [`VisitResult`] containing:
//!
//! * one [`RequestRecord`] per observed HTTP(S)/WS request, with the
//!   JavaScript **call stack** (latest entry = issuer), the **frame
//!   hierarchy** (parent frame of every request), and **redirect**
//!   provenance — the three signals §3.2 uses to build dependency trees;
//! * the `Set-Cookie` lines and the final cookie jar (for §5.2);
//! * success/timeout state (visits fail ~10% of the time, §4).
//!
//! The engine runs on a **virtual clock**: network latency comes from the
//! seeded [`wmtree_net::conditions::NetworkConditions`] model, keystroke
//! interaction (Page Down/Tab/End, §3.1.1) happens at a fixed virtual
//! time after the load settles, and the paper's 30-second page timeout
//! truncates everything scheduled past it. Two visits with the same seed
//! and config produce byte-identical results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod engine;
pub mod har;
mod placeholder;
mod record;

pub use config::BrowserConfig;
pub use engine::{Browser, Navigation};
pub use placeholder::VisitIds;
pub use record::{FrameRecord, RequestRecord, StackEntry, TriggerSource, VisitResult};
