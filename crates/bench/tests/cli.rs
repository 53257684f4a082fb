//! `repro` flag validation at the process boundary: a numeric flag
//! with a value that is not a number must stop the run with exit code
//! 2 and a message naming the flag, not fall back to a default.

use std::process::Command;

#[test]
fn non_numeric_workers_exits_2_naming_the_flag() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--scale", "tiny", "--workers", "abc"])
        .output()
        .expect("run repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--workers"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "no report may be printed");
}
