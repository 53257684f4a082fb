//! `repro` flag validation at the process boundary: an unknown flag, a
//! value flag without its value, or a numeric flag with a value that is
//! not a number must stop the run with exit code 2 and a message naming
//! the flag, not fall back to a default.

use std::process::{Command, Output};

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
fn unknown_flag_exits_2_naming_the_flag() {
    let (out, _) = repro("unknown", &["--scale", "tiny", "--wokers", "2"]);
    assert_rejected(&out, "--wokers");
    let (out, _) = repro(
        "unknown-serve",
        &["serve", "--root", "store", "--cahce", "2"],
    );
    assert_rejected(&out, "--cahce");
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
