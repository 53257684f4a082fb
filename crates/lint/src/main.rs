//! `wmtree-lint` — the CLI for all three analysis layers.
//!
//! ```sh
//! wmtree-lint lint                        # source + taint lints, parallel + cached
//! wmtree-lint lint --format json          # stable JSON (byte-identical runs)
//! wmtree-lint lint --format sarif         # SARIF 2.1.0 for CI annotation
//! wmtree-lint lint --workers 8            # explicit fan-out (output identical)
//! wmtree-lint lint --no-cache             # ignore the incremental cache
//! wmtree-lint lint --deny-warnings        # CI mode: warnings fail too
//! wmtree-lint lint --write-baseline       # grandfather current findings
//! wmtree-lint check-artifacts PATH...     # layer-2 checks on JSON artifacts
//! #                                         (a directory = a bundle archive)
//! wmtree-lint rules                       # print the rule catalog
//! wmtree-lint --explain WM0301            # one code's full description
//! ```
//!
//! Exit codes: 0 clean, 1 findings, 2 usage or I/O error.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use wmtree_lint::artifact;
use wmtree_lint::baseline::Baseline;
use wmtree_lint::diag::{sort_diagnostics, Diagnostic, Severity};
use wmtree_lint::engine::{lint_workspace_with, LintOptions};
use wmtree_lint::render::{render_json, render_pretty, render_summary};
use wmtree_lint::rules::catalog;
use wmtree_lint::sarif::render_sarif;
use wmtree_lint::taint;

/// Default baseline location, relative to the workspace root.
const BASELINE_FILE: &str = "lint-baseline.txt";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => cmd_lint(&args[1..]),
        Some("check-artifacts") => cmd_check_artifacts(&args[1..]),
        Some("rules") => cmd_rules(),
        Some("--explain") | Some("explain") => cmd_explain(args.get(1).map(String::as_str)),
        Some("--help") | Some("-h") | None => {
            print_help();
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("error: unknown subcommand `{other}`\n");
            print_help();
            ExitCode::from(2)
        }
    }
}

fn print_help() {
    println!(
        "wmtree-lint — determinism-and-invariant static analysis\n\n\
         USAGE:\n  wmtree-lint lint [--root DIR] [--format pretty|json|sarif] \
         [--baseline FILE]\n                   [--workers N] [--no-cache] [--cache-file FILE]\n\
         \x20                  [--deny-warnings] [--write-baseline]\n  \
         wmtree-lint check-artifacts [--format pretty|json|sarif] [--deny-warnings] PATH...\n  \
         wmtree-lint rules\n  \
         wmtree-lint --explain CODE\n\n\
         Layers: WM01xx source lints, WM02xx artifact checks, WM03xx cross-crate\n\
         determinism taint analysis (source -> ... -> sink call paths).\n\n\
         Artifact files are JSON: a DepTree, a CrawlDb, a UniverseConfig, or a\n\
         BrowserConfig (the kind is detected from the document's fields).\n\
         A directory is checked as a bundle archive (MANIFEST.json + segments)."
    );
}

/// Output format shared by both finding-emitting subcommands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OutputFormat {
    Pretty,
    Json,
    Sarif,
}

/// Shared flag parsing for both subcommands.
struct CommonArgs {
    format: OutputFormat,
    deny_warnings: bool,
    root: Option<PathBuf>,
    baseline: Option<PathBuf>,
    write_baseline: bool,
    workers: Option<usize>,
    no_cache: bool,
    cache_file: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<CommonArgs, String> {
    let mut out = CommonArgs {
        format: OutputFormat::Pretty,
        deny_warnings: false,
        root: None,
        baseline: None,
        write_baseline: false,
        workers: None,
        no_cache: false,
        cache_file: None,
        positional: Vec::new(),
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--format" => {
                i += 1;
                match args.get(i).map(String::as_str) {
                    Some("json") => out.format = OutputFormat::Json,
                    Some("pretty") => out.format = OutputFormat::Pretty,
                    Some("sarif") => out.format = OutputFormat::Sarif,
                    other => {
                        return Err(format!("--format needs pretty|json|sarif, got {other:?}"))
                    }
                }
            }
            "--deny-warnings" => out.deny_warnings = true,
            "--write-baseline" => out.write_baseline = true,
            "--no-cache" => out.no_cache = true,
            "--workers" => {
                i += 1;
                match args.get(i).and_then(|w| w.parse::<usize>().ok()) {
                    Some(n) if n >= 1 => out.workers = Some(n),
                    _ => return Err("--workers needs an integer >= 1".into()),
                }
            }
            "--cache-file" => {
                i += 1;
                match args.get(i) {
                    Some(f) => out.cache_file = Some(PathBuf::from(f)),
                    None => return Err("--cache-file needs a file".into()),
                }
            }
            "--root" => {
                i += 1;
                match args.get(i) {
                    Some(dir) => out.root = Some(PathBuf::from(dir)),
                    None => return Err("--root needs a directory".into()),
                }
            }
            "--baseline" => {
                i += 1;
                match args.get(i) {
                    Some(f) => out.baseline = Some(PathBuf::from(f)),
                    None => return Err("--baseline needs a file".into()),
                }
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            pos => out.positional.push(pos.to_string()),
        }
        i += 1;
    }
    Ok(out)
}

/// Find the workspace root: the nearest ancestor of the current
/// directory whose `Cargo.toml` declares `[workspace]`.
fn find_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn cmd_lint(args: &[String]) -> ExitCode {
    let parsed = match parse_args(args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(root) = parsed.root.clone().or_else(find_root) else {
        eprintln!("error: no workspace root found (run inside the repo or pass --root)");
        return ExitCode::from(2);
    };
    let baseline_path = parsed
        .baseline
        .clone()
        .unwrap_or_else(|| root.join(BASELINE_FILE));
    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => Baseline::parse(&text),
        Err(_) => Baseline::empty(),
    };
    let options = LintOptions {
        workers: parsed.workers.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }),
        use_cache: !parsed.no_cache,
        cache_path: parsed.cache_file.clone(),
    };
    let outcome = match lint_workspace_with(&root, &baseline, &options) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: workspace scan failed: {e}");
            return ExitCode::from(2);
        }
    };
    if parsed.write_baseline {
        let mut lines: Vec<String> = outcome
            .findings
            .iter()
            .filter_map(Baseline::format_entry)
            .collect();
        lines.sort();
        let header = "# wmtree-lint baseline — findings deliberately grandfathered.\n\
                      # Format: CODE path :: offending line (trimmed). Keep this file empty\n\
                      # if possible; every entry needs a justification in its PR.\n";
        let body = format!("{header}{}", lines.join("\n"));
        let body = if lines.is_empty() {
            header.to_string()
        } else {
            format!("{body}\n")
        };
        if let Err(e) = std::fs::write(&baseline_path, body) {
            eprintln!(
                "error: cannot write baseline {}: {e}",
                baseline_path.display()
            );
            return ExitCode::from(2);
        }
        eprintln!(
            "wrote {} entr(ies) to {}",
            lines.len(),
            baseline_path.display()
        );
        return ExitCode::SUCCESS;
    }
    if parsed.format == OutputFormat::Pretty {
        eprintln!(
            "scanned {} files ({} suppressed inline, {} baselined, \
             cache: {} hit(s) / {} miss(es))",
            outcome.files_scanned,
            outcome.suppressed,
            outcome.baselined,
            outcome.cache_hits,
            outcome.cache_misses
        );
    }
    emit(&outcome.findings, parsed.format, parsed.deny_warnings)
}

fn cmd_check_artifacts(args: &[String]) -> ExitCode {
    let parsed = match parse_args(args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if parsed.positional.is_empty() {
        eprintln!("error: check-artifacts needs at least one JSON artifact file");
        return ExitCode::from(2);
    }
    let mut diags = Vec::new();
    for file in &parsed.positional {
        let path = Path::new(file);
        // A directory is a bundle archive; anything else is a JSON file.
        if path.is_dir() {
            // A directory holding JOBS.json is a server job store, one
            // holding SHARDS.json is a shard plan (each checked with
            // its per-job/per-shard bundles); anything else is a
            // bundle.
            let check = if path.join(wmtree_server::JOBS_FILE).is_file() {
                artifact::check_jobs_dir(path, file)
            } else if path.join(wmtree_shard::SHARDS_FILE).is_file() {
                artifact::check_shard_dir(path, file)
            } else {
                artifact::check_bundle(path, file)
            };
            match check {
                Ok(found) => diags.extend(found),
                Err(e) => {
                    eprintln!("error: {file}: {e}");
                    return ExitCode::from(2);
                }
            }
            continue;
        }
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read {file}: {e}");
                return ExitCode::from(2);
            }
        };
        match check_artifact_file(path, &text) {
            Ok(found) => diags.extend(found),
            Err(e) => {
                eprintln!("error: {file}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    sort_diagnostics(&mut diags);
    emit(&diags, parsed.format, parsed.deny_warnings)
}

/// Detect the artifact kind from the document's fields and run the
/// matching layer-2 check.
fn check_artifact_file(path: &Path, text: &str) -> Result<Vec<Diagnostic>, String> {
    let origin = path.display().to_string();
    let value: serde_json::Value =
        serde_json::from_str(text).map_err(|e| format!("not valid JSON: {e}"))?;
    if value.get("nodes").is_some() {
        let tree: wmtree_tree::DepTree =
            serde_json::from_str(text).map_err(|e| format!("not a DepTree: {e}"))?;
        return Ok(artifact::check_dep_tree(&tree, &origin));
    }
    if value.get("n_profiles").is_some() && value.get("visits").is_some() {
        let db: wmtree_crawler::CrawlDb =
            serde_json::from_str(text).map_err(|e| format!("not a CrawlDb: {e}"))?;
        return Ok(artifact::check_crawl_db(&db, &origin));
    }
    if value.get("sites_per_bucket").is_some() {
        let cfg: wmtree_webgen::UniverseConfig =
            serde_json::from_str(text).map_err(|e| format!("not a UniverseConfig: {e}"))?;
        return Ok(artifact::check_universe_config(&cfg, &origin));
    }
    if value.get("visit_failure_rate").is_some() {
        let cfg: wmtree_browser::BrowserConfig =
            serde_json::from_str(text).map_err(|e| format!("not a BrowserConfig: {e}"))?;
        return Ok(artifact::check_browser_config(&cfg, &origin));
    }
    Err(
        "unrecognized artifact (expected a DepTree, CrawlDb, UniverseConfig, \
         or BrowserConfig JSON document)"
            .into(),
    )
}

fn cmd_rules() -> ExitCode {
    println!("Layer 1 — source lints (WM01xx):");
    for meta in catalog() {
        let scope = match meta.only {
            Some(list) => format!("only: {}", list.join(", ")),
            None if meta.exempt.is_empty() => "all crates".to_string(),
            None => format!("all except: {}", meta.exempt.join(", ")),
        };
        println!(
            "  {} {:<20} {:<9} [{}] {}",
            meta.code.as_str(),
            meta.name,
            meta.severity.label(),
            scope,
            meta.summary
        );
    }
    println!("\nLayer 2 — artifact checks (WM02xx):");
    for (code, name, summary) in artifact::ARTIFACT_CHECKS {
        println!("  {code} {name:<22} {summary}");
    }
    println!("\nLayer 3 — determinism taint analysis (WM03xx):");
    for meta in taint::catalog() {
        println!(
            "  {} {:<24} {:<9} {}",
            meta.code.as_str(),
            meta.name,
            meta.severity.label(),
            meta.summary
        );
    }
    ExitCode::SUCCESS
}

/// `--explain CODE`: one code's full description.
fn cmd_explain(code: Option<&str>) -> ExitCode {
    let Some(code) = code else {
        eprintln!("error: --explain needs a code (e.g. WM0301)");
        return ExitCode::from(2);
    };
    for meta in catalog() {
        if meta.code.as_str() == code {
            println!("{} ({}) — {}", meta.code.as_str(), meta.name, meta.summary);
            println!("severity: {}", meta.severity.label());
            println!("layer: 1 (source lint)");
            println!("rationale: {}", meta.rationale);
            return ExitCode::SUCCESS;
        }
    }
    for (c, name, summary) in artifact::ARTIFACT_CHECKS {
        if *c == code {
            println!("{c} ({name}) — {summary}");
            println!("layer: 2 (artifact check)");
            return ExitCode::SUCCESS;
        }
    }
    for meta in taint::catalog() {
        if meta.code.as_str() == code {
            println!("{} ({}) — {}", meta.code.as_str(), meta.name, meta.summary);
            println!("severity: {}", meta.severity.label());
            println!("layer: 3 (determinism taint analysis)");
            println!("rationale: {}", meta.rationale);
            println!(
                "sources: wall-clock reads, hash iteration, entropy RNG, env reads, \
                 raw thread spawns (the WM01xx detectors, crate exemptions ignored)"
            );
            println!(
                "sinks: serde_json::to_string/to_string_pretty/to_writer/to_vec, \
                 fs::write, fs::rename, File::create, write_all, write_fmt \
                 (outside telemetry/bench)"
            );
            println!(
                "sanitizers: canonical sorts / total_cmp / BTree collections, \
                 stable_hash, seeded RNG constructors (from_seed, seed_from_u64, \
                 SeedMixer)"
            );
            return ExitCode::SUCCESS;
        }
    }
    eprintln!("error: unknown code `{code}` (see `wmtree-lint rules`)");
    ExitCode::from(2)
}

/// Render findings and pick the exit code.
fn emit(diags: &[Diagnostic], format: OutputFormat, deny_warnings: bool) -> ExitCode {
    match format {
        OutputFormat::Json => print!("{}", render_json(diags)),
        OutputFormat::Sarif => print!("{}", render_sarif(diags)),
        OutputFormat::Pretty => {
            print!("{}", render_pretty(diags));
            eprintln!("{}", render_summary(diags));
        }
    }
    let errors = diags.iter().any(|d| d.severity == Severity::Error);
    let warnings = diags.iter().any(|d| d.severity == Severity::Warning);
    if errors || (deny_warnings && warnings) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
