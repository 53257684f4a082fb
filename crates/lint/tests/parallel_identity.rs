//! Satellite: `wmtree-lint lint --workers {1,2,8}` produces
//! byte-identical pretty and JSON output.
//!
//! The engine fans per-file work out over its scoped `par_map_min`
//! with a slot-per-item merge, so
//! worker count must be invisible in the bytes — the same invariant the
//! lint itself enforces on the pipeline.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use wmtree_lint::engine::{lint_workspace_with, LintOptions};
use wmtree_lint::render::{render_json, render_pretty};
use wmtree_lint::Baseline;

/// The workspace root, two levels above this crate's manifest.
fn repo_root() -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p
}

fn load_baseline(root: &Path) -> Baseline {
    match std::fs::read_to_string(root.join("lint-baseline.txt")) {
        Ok(s) => Baseline::parse(&s),
        Err(_) => Baseline::empty(),
    }
}

#[test]
fn worker_count_is_invisible_in_api_output() {
    let root = repo_root();
    let baseline = load_baseline(&root);
    let run = |workers: usize| {
        let options = LintOptions {
            workers,
            use_cache: false,
            cache_path: None,
        };
        let outcome = lint_workspace_with(&root, &baseline, &options).expect("scan");
        (
            render_pretty(&outcome.findings),
            render_json(&outcome.findings),
            outcome.files_scanned,
            outcome.suppressed,
        )
    };
    let base = run(1);
    for workers in [2usize, 8] {
        let got = run(workers);
        assert_eq!(got.0, base.0, "pretty output differs at workers={workers}");
        assert_eq!(got.1, base.1, "JSON output differs at workers={workers}");
        assert_eq!(got.2, base.2, "files_scanned differs at workers={workers}");
        assert_eq!(got.3, base.3, "suppressed differs at workers={workers}");
    }
}

fn run_bin(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wmtree-lint"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("spawn wmtree-lint")
}

#[test]
fn worker_count_is_invisible_in_binary_output() {
    // --no-cache so the runs measure the fan-out path itself, not cache
    // replay; JSON and SARIF go to stdout, pretty findings too.
    for format in ["json", "sarif", "pretty"] {
        let base = run_bin(&["lint", "--no-cache", "--workers", "1", "--format", format]);
        assert!(
            base.status.success(),
            "workers=1 format={format} failed: {}",
            String::from_utf8_lossy(&base.stderr)
        );
        for workers in ["2", "8"] {
            let got = run_bin(&[
                "lint",
                "--no-cache",
                "--workers",
                workers,
                "--format",
                format,
            ]);
            assert!(got.status.success());
            assert_eq!(
                got.stdout, base.stdout,
                "stdout differs at workers={workers} format={format}"
            );
        }
    }
}
