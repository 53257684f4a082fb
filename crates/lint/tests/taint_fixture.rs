//! The acceptance-criteria negative fixture: a `SystemTime::now()`
//! value flowing from an exempt crate through a call chain into a
//! report-writing function must be flagged with a rendered multi-hop
//! call path.
//!
//! The fixture is a real on-disk mini-workspace (temp dir), so the test
//! exercises discovery → lexing → symbol extraction → graph resolution
//! → taint propagation → rendering end to end, not just the taint API.

use std::path::PathBuf;
use wmtree_lint::render::render_pretty;
use wmtree_lint::{lint_workspace, Baseline, Location, Severity};

/// Write the three-crate fixture and return its root.
fn fixture_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("wmtree-lint-taint-fixture-{tag}"));
    let _ = std::fs::remove_dir_all(&root);
    for (rel, src) in [
        (
            "crates/telemetry/src/clock.rs",
            // The source: a wall-clock read in a crate WM0101 exempts.
            "pub fn stamp() -> u64 {\n    let t = SystemTime::now();\n    0\n}\n",
        ),
        (
            "crates/core/src/mid.rs",
            // The middle hop: cross-crate call into telemetry.
            "pub fn annotate() -> u64 {\n    wmtree_telemetry::clock::stamp()\n}\n",
        ),
        (
            "crates/core/src/report.rs",
            // The sink: serializes and writes, two hops from the clock.
            "pub fn write_report(rows: &[u64]) {\n    let tag = crate::mid::annotate();\n    \
             let body = serde_json::to_string(rows);\n    std::fs::write(\"report.json\", body);\n}\n",
        ),
    ] {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        std::fs::write(&path, src).expect("write fixture");
    }
    root
}

#[test]
fn clock_flow_into_report_writer_is_flagged_with_path() {
    let root = fixture_root("flow");
    let outcome = lint_workspace(&root, &Baseline::empty()).expect("scan fixture");
    assert_eq!(outcome.files_scanned, 3);

    let flows: Vec<_> = outcome
        .findings
        .iter()
        .filter(|d| d.code.as_str() == "WM0301")
        .collect();
    assert_eq!(
        flows.len(),
        1,
        "expected exactly one WM0301 flow:\n{}",
        render_pretty(&outcome.findings)
    );
    let d = flows[0];
    assert_eq!(d.severity, Severity::Error);
    assert!(
        d.message.contains("core::report::write_report"),
        "{}",
        d.message
    );

    // Primary span: the call in the sink fn that starts the path.
    let Location::Source(span) = &d.location else {
        panic!("source location expected");
    };
    assert_eq!(span.file, "crates/core/src/report.rs");
    assert!(span.text.contains("annotate"), "{}", span.text);

    // The rendered path must be multi-hop: sink -> mid -> source.
    let path_note = d
        .notes
        .iter()
        .find(|n| n.starts_with("tainted call path:"))
        .expect("path note");
    assert_eq!(
        path_note,
        "tainted call path: core::report::write_report -> core::mid::annotate \
         -> telemetry::clock::stamp"
    );
    assert!(
        d.notes
            .iter()
            .any(|n| n.contains("source: wall-clock read `SystemTime::now`")),
        "{:?}",
        d.notes
    );
    assert!(
        d.notes
            .iter()
            .any(|n| n.contains("sink: `serde_json::to_string`")),
        "{:?}",
        d.notes
    );

    // The pretty renderer shows the whole chain as rustc-style notes.
    let text = render_pretty(&outcome.findings);
    assert!(text.contains("error[WM0301]"), "{text}");
    assert!(text.contains("= note: tainted call path:"), "{text}");

    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn allow_at_sink_call_suppresses_the_flow() {
    let root = fixture_root("allow");
    // Re-write the sink with a justified allow at the flagged call.
    std::fs::write(
        root.join("crates/core/src/report.rs"),
        "pub fn write_report(rows: &[u64]) {\n    \
         let tag = crate::mid::annotate(); // wmtree-lint: allow(WM0301)\n    \
         let body = serde_json::to_string(rows);\n    std::fs::write(\"report.json\", body);\n}\n",
    )
    .expect("rewrite sink");
    let outcome = lint_workspace(&root, &Baseline::empty()).expect("scan fixture");
    assert!(
        outcome.findings.iter().all(|d| d.code.as_str() != "WM0301"),
        "{}",
        render_pretty(&outcome.findings)
    );
    // The allow is *used*, so WM0310 must not fire either.
    assert!(
        outcome.findings.iter().all(|d| d.code.as_str() != "WM0310"),
        "{}",
        render_pretty(&outcome.findings)
    );
    assert!(outcome.suppressed >= 1);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn stale_allow_is_flagged_unused() {
    let root = fixture_root("stale");
    // Break the chain (no more taint) but keep an allow behind.
    std::fs::write(
        root.join("crates/core/src/mid.rs"),
        "pub fn annotate() -> u64 {\n    7\n}\n",
    )
    .expect("rewrite mid");
    std::fs::write(
        root.join("crates/core/src/report.rs"),
        "pub fn write_report(rows: &[u64]) {\n    \
         let tag = crate::mid::annotate(); // wmtree-lint: allow(WM0301)\n    \
         let body = serde_json::to_string(rows);\n    std::fs::write(\"report.json\", body);\n}\n",
    )
    .expect("rewrite sink");
    let outcome = lint_workspace(&root, &Baseline::empty()).expect("scan fixture");
    let stale: Vec<_> = outcome
        .findings
        .iter()
        .filter(|d| d.code.as_str() == "WM0310")
        .collect();
    assert_eq!(
        stale.len(),
        1,
        "expected the stale allow flagged:\n{}",
        render_pretty(&outcome.findings)
    );
    assert_eq!(stale[0].severity, Severity::Warning);
    std::fs::remove_dir_all(&root).ok();
}

/// Write a workspace of `(path, source)` files and return its root.
fn workspace(tag: &str, files: &[(&str, &str)]) -> PathBuf {
    let root = std::env::temp_dir().join(format!("wmtree-lint-taint-fixture-{tag}"));
    let _ = std::fs::remove_dir_all(&root);
    for (rel, src) in files {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        std::fs::write(&path, src).expect("write fixture");
    }
    root
}

/// The WM0301 flows of a workspace, pretty-rendered.
fn flows(root: &std::path::Path) -> Vec<String> {
    let outcome = lint_workspace(root, &Baseline::empty()).expect("scan fixture");
    outcome
        .findings
        .iter()
        .filter(|d| d.code.as_str() == "WM0301")
        .map(|d| render_pretty(std::slice::from_ref(d)))
        .collect()
}

#[test]
fn a_call_through_a_local_binding_is_no_call_of_a_same_named_fn() {
    // `Report::render` reads the clock through telemetry's `stamp`; the
    // CSV writer calls each table's renderer through a loop binding
    // that happens to be called `render` too.
    let clock = (
        "crates/telemetry/src/clock.rs",
        "pub fn stamp() -> u64 {\n    let t = Instant::now();\n    0\n}\n",
    );
    let report = (
        "crates/core/src/report.rs",
        "use wmtree_telemetry::clock::stamp;\n\n\
         impl Report {\n    pub fn render(&self) -> String {\n        \
         let at = stamp();\n        String::new()\n    }\n}\n",
    );
    let export = |body: &str| {
        format!("impl Report {{\n    pub fn write_csv_dir(&self) {{\n        {body}\n    }}\n}}\n")
    };
    let bound = export("for &(name, render) in CSVS.iter() { fs::write(name, render(self)); }");
    let root = workspace(
        "local-binding",
        &[clock, report, ("crates/core/src/export.rs", &bound)],
    );
    let found = flows(&root);
    assert!(found.is_empty(), "{}", found.join("\n"));
    std::fs::remove_dir_all(&root).ok();

    // The same loop calling `Report::render` itself is a real flow.
    let direct = export("for name in NAMES.iter() { fs::write(name, self.render()); }");
    let root = workspace(
        "local-binding-control",
        &[clock, report, ("crates/core/src/export.rs", &direct)],
    );
    let found = flows(&root);
    assert_eq!(found.len(), 1, "{}", found.join("\n"));
    assert!(
        found[0].contains("core::export::Report::write_csv_dir"),
        "{}",
        found[0]
    );
    std::fs::remove_dir_all(&root).ok();
}
