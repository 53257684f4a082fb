//! `repro` flag validation at the process boundary: an unknown flag, a
//! value flag without its value, or a numeric flag with a value that is
//! not a number, or an artifact flag whose value names no artifact, must
//! stop the run with exit code 2 and a message naming the flag, not fall
//! back to a default. `--help` exits 0 and names every flag its command
//! accepts.

use std::process::{Command, Output};
use wmtree_bench::{FlagTable, FLAGS, SERVE_FLAGS};

/// Run `repro` with `args` in a fresh working directory, which is
/// returned so a test can check what the run left behind.
fn repro(name: &str, args: &[&str]) -> (Output, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("wmtree-cli-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create working directory");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("run repro");
    (out, dir)
}

fn assert_rejected(out: &Output, flag: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(flag), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "no report may be printed");
}

#[test]
fn non_numeric_workers_exits_2_naming_the_flag() {
    let (out, _) = repro("workers", &["--scale", "tiny", "--workers", "abc"]);
    assert_rejected(&out, "--workers");
}

#[test]
fn every_value_is_checked_before_an_artifact_prints() {
    let (out, _) = repro("fig-6-workers", &["--fig", "6", "--workers", "abc"]);
    assert_rejected(&out, "--workers");
    let (out, _) = repro("table-1-scale", &["--table", "1", "--scale", "bogus"]);
    assert_rejected(&out, "--scale");
    let (out, _) = repro(
        "list-max-sites",
        &["--list-bundles", ".", "--max-sites", "x"],
    );
    assert_rejected(&out, "--max-sites");
}

#[test]
fn unknown_flag_exits_2_naming_the_flag() {
    let (out, _) = repro("unknown", &["--scale", "tiny", "--wokers", "2"]);
    assert_rejected(&out, "--wokers");
    let (out, _) = repro(
        "unknown-serve",
        &["serve", "--root", "store", "--cahce", "2"],
    );
    assert_rejected(&out, "--cahce");
    for (flag, value) in [("--table", "9"), ("--fig", "9"), ("--case", "cookie")] {
        let (out, _) = repro(&format!("unknown{flag}"), &["--scale", "tiny", flag, value]);
        assert_rejected(&out, flag);
    }
}

#[test]
fn value_flag_followed_by_a_flag_exits_2_naming_it() {
    let (out, dir) = repro(
        "missing-value",
        &["--scale", "tiny", "--json", "--table", "2"],
    );
    assert_rejected(&out, "--json");
    assert!(
        std::fs::read_dir(&dir)
            .expect("list working directory")
            .next()
            .is_none(),
        "no report file may be written"
    );
    let (out, _) = repro("trailing-value", &["--scale", "tiny", "--workers"]);
    assert_rejected(&out, "--workers");
}

#[test]
fn table_1_prints_without_a_crawl() {
    let (out, _) = repro("table-1", &["--scale", "tiny", "--table", "1"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(stderr.is_empty(), "stderr: {stderr}");
    assert!(out.stdout.starts_with(b"== Table 1"));
}

/// `repro` run with `args` must print a usage naming every flag of
/// `table`, and exit 0.
fn assert_help(name: &str, args: &[&str], table: FlagTable) {
    let (out, _) = repro(name, args);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    for (flag, value) in table {
        let shown = match value {
            Some(value) => format!("[{flag} {value}]"),
            None => format!("[{flag}]"),
        };
        assert!(
            stdout.contains(&shown),
            "{args:?} must show {shown}: {stdout}"
        );
    }
}

#[test]
fn serve_help_exits_0() {
    assert_help("serve-help", &["serve", "--help"], SERVE_FLAGS);
    assert_help("serve-h", &["serve", "-h"], SERVE_FLAGS);
}

#[test]
fn help_names_every_flag_of_its_command() {
    assert_help("help", &["--help"], FLAGS);
    assert_help("h", &["-h"], FLAGS);
    // The main help also shows the serve command's usage.
    assert_help("help-serve", &["--help"], SERVE_FLAGS);
}

#[test]
fn a_capped_bundle_run_writes_its_telemetry() {
    let (out, dir) = repro(
        "capped-telemetry",
        &[
            "--scale",
            "tiny",
            "--bundle",
            "b",
            "--max-sites",
            "2",
            "--telemetry",
            "t",
        ],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(stderr.contains("checkpointed at 2/"), "stderr: {stderr}");
    let text = std::fs::read_to_string(dir.join("t").join("telemetry.json"))
        .unwrap_or_else(|e| panic!("no telemetry.json ({e}); stderr: {stderr}"));
    let at = |needle: &str| {
        text.find(needle)
            .unwrap_or_else(|| panic!("no {needle} in telemetry.json: {text}"))
    };
    assert!(
        at("\"name\": \"generate\"") < at("\"name\": \"crawl\""),
        "{text}"
    );
    at("\"sites_done\": 2,");
    at("\"crawler.sites.crawled\"");
}
