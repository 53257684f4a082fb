//! Dependency-tree construction from observed HTTP traffic.
//!
//! Implements §3.2 of the paper. A visited page is modeled as a tree:
//! nodes are loaded resources (identified by their **normalized URL** —
//! query-parameter values dropped, keys kept), edges are the HTTP
//! requests that caused the load. Trees are assembled from the three
//! signals OpenWPM records:
//!
//! 1. **(nested) iframe structures** — a request belongs to a frame;
//!    frames know their parent frame;
//! 2. **JavaScript call stacks** — the *latest entry* names the script
//!    (or stylesheet; Firefox reports CSS the same way) that issued the
//!    request;
//! 3. **HTTP redirects** — a redirect hop's parent is the redirecting
//!    URL.
//!
//! Resources that none of the signals attribute are attached to the
//! tree's root (the visited page), exactly as the paper prescribes.
//!
//! [`TreeConfig`] exposes the paper's design choices as ablation knobs:
//! URL normalization on/off and latest-entry vs. full-stack-walk call
//! stack attribution (§3.2 argues for latest-entry).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod build;
pub mod cache;
pub mod diff;
mod tree;

pub use build::{build_tree, CallStackMode, TreeConfig};
pub use cache::{verify_cache, CacheVerifyIssue, CacheVerifyReport, TreeCache};
pub use diff::{diff_trees, DiffEntry, NodeDisposition, TreeDiff};
pub use tree::{DepTree, Node, NodeId, TreeMetrics};
