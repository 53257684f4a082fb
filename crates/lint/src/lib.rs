//! `wmtree-lint` — determinism-and-invariant static analysis for the
//! wmtree workspace.
//!
//! The paper's argument (Demir et al., IMC 2023) rests on separating
//! *setup-induced* differences from the Web's own non-determinism, so
//! this reproduction is only credible if the pipeline is provably
//! deterministic under a fixed seed. PR 1's byte-identity tests caught
//! wall-clock time and hash-iteration order leaking into results once;
//! this crate forbids those bug classes *statically* instead of
//! catching each instance per-test.
//!
//! Two layers share one diagnostics core ([`diag`]):
//!
//! * **Layer 1 — source lints** (`WM01xx`, [`rules`] + [`engine`]): a
//!   token-level Rust lexer ([`lexer`]) scans every workspace crate and
//!   enforces the project invariants — no wall-clock reads outside
//!   telemetry/bench, no hash-order iteration in result-producing
//!   crates, no entropy-seeded RNGs, no environment dependence, no
//!   `unwrap()`/`expect()` in pipeline code.
//! * **Layer 2 — artifact checks** (`WM02xx`, [`artifact`]): the same
//!   diagnostics validate built artifacts — `DepTree` structure,
//!   `CrawlDb` referential integrity, configuration ranges.
//! * **Layer 3 — determinism taint analysis** (`WM03xx`, [`graph`] +
//!   [`taint`]): a workspace-wide pass that builds a cross-crate call
//!   graph from the lexer's symbol tables and proves nondeterminism
//!   sources (reusing the layer-1 detectors, crate exemptions ignored)
//!   cannot flow through function calls into serializing sinks,
//!   rendering the full source→…→sink call path when one does.
//!
//! The engine fans per-file work out over scoped threads with a
//! deterministic slot-per-item merge (`par_map_min`, the workspace's
//! only per-item fan-out), and caches per-file facts
//! keyed by a `stable_hash` of contents ([`cache`]) so unchanged files
//! skip lexing. Findings also render as SARIF 2.1.0 ([`sarif`]) for CI
//! annotation.
//!
//! Findings render rustc-style ([`render::render_pretty`]) or as stable
//! JSON ([`render::render_json`]); `// wmtree-lint: allow(WMxxxx)`
//! suppresses inline, and a checked-in baseline file
//! ([`baseline::Baseline`]) grandfathers anything deliberately kept.
//!
//! ```
//! use wmtree_lint::lexer::SourceFile;
//! use wmtree_lint::engine::lint_file;
//! use wmtree_lint::rules::all_rules;
//!
//! let src = "fn f() { let t = Instant::now(); }";
//! let file = SourceFile::parse("crates/tree/src/x.rs", "tree", src, false);
//! let (findings, _suppressed) = lint_file(&file, &all_rules());
//! assert_eq!(findings[0].code.as_str(), "WM0101");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod baseline;
pub mod cache;
pub mod diag;
pub mod engine;
pub mod graph;
pub mod lexer;
mod par;
pub mod render;
pub mod rules;
pub mod sarif;
pub mod taint;

pub use baseline::Baseline;
pub use diag::{Code, Diagnostic, Location, Severity, Span};
pub use engine::{lint_workspace, lint_workspace_with, LintOptions, LintOutcome};
