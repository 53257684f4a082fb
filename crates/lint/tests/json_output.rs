//! End-to-end runs of the `wmtree-lint` binary.
//!
//! The satellite requirement behind these tests: `wmtree-lint --format
//! json` must be byte-identical across runs, so dashboards and CI can
//! diff its output without normalization.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wmtree-lint"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("spawn wmtree-lint")
}

#[test]
fn lint_json_is_byte_identical_across_runs() {
    let a = run(&["lint", "--format", "json"]);
    let b = run(&["lint", "--format", "json"]);
    assert!(
        a.status.success(),
        "lint failed:\n{}{}",
        String::from_utf8_lossy(&a.stdout),
        String::from_utf8_lossy(&a.stderr)
    );
    assert_eq!(a.stdout, b.stdout, "JSON output must be byte-identical");

    let text = String::from_utf8(a.stdout).expect("utf8 output");
    assert!(text.starts_with("{\"version\":1,\"findings\":["), "{text}");
    assert!(text.ends_with('\n'));
    // The hand-built output must still be valid JSON.
    let v: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    assert!(v.get("summary").is_some(), "{text}");
}

#[test]
fn lint_pretty_reports_clean_workspace() {
    let out = run(&["lint"]);
    assert!(out.status.success());
    // Pretty mode prints findings to stdout and the summary to stderr.
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("clean: no findings"), "{err}");
    assert!(err.contains("scanned"), "{err}");
}

#[test]
fn rules_subcommand_lists_all_three_layers() {
    let out = run(&["rules"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for code in ["WM0101", "WM0102", "WM0103", "WM0104", "WM0105"] {
        assert!(text.contains(code), "missing source lint {code}:\n{text}");
    }
    for code in ["WM0201", "WM0211", "WM0221"] {
        assert!(
            text.contains(code),
            "missing artifact check {code}:\n{text}"
        );
    }
    for code in [
        "WM0301", "WM0302", "WM0303", "WM0304", "WM0305", "WM0306", "WM0307", "WM0308", "WM0309",
        "WM0310",
    ] {
        assert!(text.contains(code), "missing taint rule {code}:\n{text}");
    }
    assert!(
        text.contains("determinism taint analysis"),
        "missing layer-3 header:\n{text}"
    );
}

#[test]
fn explain_describes_a_taint_rule() {
    let out = run(&["--explain", "WM0301"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("WM0301"), "{text}");
    // The taint explainer lists the source/sink/sanitizer model.
    for heading in ["sources", "sinks", "sanitizers"] {
        assert!(text.contains(heading), "missing {heading} section:\n{text}");
    }
}

#[test]
fn sarif_output_is_stable_and_valid() {
    let a = run(&["lint", "--format", "sarif", "--no-cache"]);
    let b = run(&["lint", "--format", "sarif", "--no-cache"]);
    assert!(a.status.success());
    assert_eq!(a.stdout, b.stdout, "SARIF output must be byte-identical");
    let text = String::from_utf8(a.stdout).expect("utf8 output");
    let v: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    assert_eq!(
        v.get("version").and_then(|x| x.as_str()),
        Some("2.1.0"),
        "{text}"
    );
    let runs = match v.get("runs") {
        Some(serde_json::Value::Seq(runs)) => runs,
        other => panic!("runs array expected, got {other:?}"),
    };
    let rules = match runs
        .first()
        .and_then(|r| r.get("tool"))
        .and_then(|t| t.get("driver"))
        .and_then(|d| d.get("rules"))
    {
        Some(serde_json::Value::Seq(rules)) => rules,
        other => panic!("rules array expected, got {other:?}"),
    };
    let ids: Vec<&str> = rules
        .iter()
        .filter_map(|r| r.get("id").and_then(|i| i.as_str()))
        .collect();
    for code in ["WM0101", "WM0201", "WM0301", "WM0310"] {
        assert!(ids.contains(&code), "SARIF rules missing {code}: {ids:?}");
    }
}

#[test]
fn check_artifacts_accepts_known_good_tree() {
    use wmtree_net::ResourceType;
    use wmtree_url::Party;

    let mut t = wmtree_tree::TreeBuilder::new("https://www.a.com/".into());
    let s = t.attach(
        0,
        "https://cdn.a.com/app.js".into(),
        ResourceType::Script,
        Party::First,
        false,
    );
    t.attach(
        s,
        "https://ads.b.net/px.gif".into(),
        ResourceType::Image,
        Party::Third,
        true,
    );
    let dir = std::env::temp_dir().join("wmtree-lint-artifact-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("tree.json");
    std::fs::write(
        &path,
        serde_json::to_string(&t.finish()).expect("serialize"),
    )
    .expect("write fixture");

    let out = run(&["check-artifacts", path.to_str().expect("utf8 path")]);
    assert!(
        out.status.success(),
        "stdout: {} stderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Write `doc` as `tree.json` in a fresh temp dir named `tag` and run
/// `check-artifacts` on it.
fn check_tree_doc(tag: &str, doc: &str) -> Output {
    let dir = std::env::temp_dir().join(format!("wmtree-lint-tree-{tag}"));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("tree.json");
    std::fs::write(&path, doc).expect("write fixture");
    run(&["check-artifacts", path.to_str().expect("utf8 path")])
}

#[test]
fn check_artifacts_reads_the_old_tree_layout() {
    // Trees once serialized their key index beside the nodes; the
    // index is skipped and the nodes check as before.
    let out = check_tree_doc(
        "old-layout",
        r#"{"nodes":[{"key":"https://www.a.com/","resource_type":"MainFrame","party":"First","tracking":false,"depth":0,"parent":null,"children":[1]},{"key":"https://cdn.a.com/app.js","resource_type":"Script","party":"First","tracking":false,"depth":1,"parent":0,"children":[2]},{"key":"https://ads.b.net/px.gif","resource_type":"Image","party":"Third","tracking":true,"depth":2,"parent":1,"children":[]}],"by_key":{"https://ads.b.net/px.gif":2,"https://cdn.a.com/app.js":1,"https://www.a.com/":0}}"#,
    );
    assert!(
        out.status.success(),
        "stdout: {} stderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn check_artifacts_flags_a_repeated_node_key() {
    let out = check_tree_doc(
        "repeated-key",
        r#"{"nodes":[{"key":"https://www.a.com/","resource_type":"MainFrame","party":"First","tracking":false,"depth":0,"parent":null,"children":[1]},{"key":"https://www.a.com/","resource_type":"Script","party":"First","tracking":false,"depth":1,"parent":0,"children":[]}]}"#,
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout: {stdout}");
    assert!(stdout.contains("WM0203"), "{stdout}");
    assert!(stdout.contains("node[1]"), "{stdout}");
}
