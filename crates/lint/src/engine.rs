//! The lint engine: file discovery, per-file rule dispatch (parallel,
//! cached), the workspace-wide taint pass, and suppression/baseline
//! filtering.
//!
//! Per-file work (lex → layer-1 rules → fact extraction) fans out over
//! `par_map_min` with the slot-per-item merge, so the output is
//! byte-identical for every worker count — the engine dogfoods the same
//! deterministic-merge rule it lints for. With
//! [`LintOptions::use_cache`], per-file results are keyed by a
//! `stable_hash` of the file's bytes ([`crate::cache`]); the cross-file
//! taint pass always re-runs over the (possibly cached) facts.

use crate::baseline::Baseline;
use crate::cache::{content_hash, Cache, CacheEntry, CachedDiag, DEFAULT_CACHE_PATH};
use crate::diag::{sort_diagnostics, Diagnostic, Location};
use crate::graph::FileFacts;
use crate::lexer::SourceFile;
use crate::par::par_map_min;
use crate::rules::{all_rules, Rule};
use crate::taint;
use std::io;
use std::path::{Path, PathBuf};

/// One file scheduled for linting.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct LintTarget {
    /// Absolute path on disk.
    pub abs: PathBuf,
    /// Workspace-relative path (`/`-separated; what diagnostics show).
    pub rel: String,
    /// Owning crate (`"tree"`, ..., `"suite"` for the umbrella crate).
    pub crate_name: String,
    /// Whole file is test/bench/example context.
    pub is_test_file: bool,
}

/// How to run the workspace lint.
#[derive(Debug, Clone)]
pub struct LintOptions {
    /// Worker threads for per-file fan-out (1 = sequential).
    pub workers: usize,
    /// Consult and update the incremental cache.
    pub use_cache: bool,
    /// Cache location; `None` → `target/wmtree-lint-cache.json` under
    /// the workspace root.
    pub cache_path: Option<PathBuf>,
}

impl Default for LintOptions {
    /// Sequential, uncached — the semantics [`lint_workspace`] always
    /// had; the CLI opts into parallelism and caching explicitly.
    fn default() -> Self {
        LintOptions {
            workers: 1,
            use_cache: false,
            cache_path: None,
        }
    }
}

/// The result of a workspace lint run.
#[derive(Debug, Default)]
pub struct LintOutcome {
    /// Findings that survived suppressions and the baseline, in
    /// canonical (deterministic) order.
    pub findings: Vec<Diagnostic>,
    /// Raw hits silenced by inline `wmtree-lint: allow(..)` comments.
    pub suppressed: usize,
    /// Raw hits absorbed by the baseline file.
    pub baselined: usize,
    /// Files scanned.
    pub files_scanned: usize,
    /// Files served from the incremental cache.
    pub cache_hits: usize,
    /// Files lexed and linted fresh.
    pub cache_misses: usize,
}

/// Discover every lintable file under a workspace root, sorted so runs
/// are deterministic.
///
/// Scanned: `crates/*/src/**` (production), `crates/*/tests|benches/**`
/// (test context), the umbrella `src/**` (production), `tests/**` and
/// `examples/**` (test context). `vendor/` and `target/` are never
/// scanned — the shims are API stand-ins, not pipeline code.
pub fn discover_targets(root: &Path) -> io::Result<Vec<LintTarget>> {
    let mut targets = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for dir in crate_dirs {
            let crate_name = dir
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            collect_rs(root, &dir.join("src"), &crate_name, false, &mut targets)?;
            collect_rs(root, &dir.join("tests"), &crate_name, true, &mut targets)?;
            collect_rs(root, &dir.join("benches"), &crate_name, true, &mut targets)?;
        }
    }
    collect_rs(root, &root.join("src"), "suite", false, &mut targets)?;
    collect_rs(root, &root.join("tests"), "suite", true, &mut targets)?;
    collect_rs(root, &root.join("examples"), "suite", true, &mut targets)?;
    targets.sort();
    Ok(targets)
}

/// Recursively collect `.rs` files under `dir` (silently absent dirs ok).
fn collect_rs(
    root: &Path,
    dir: &Path,
    crate_name: &str,
    is_test: bool,
    out: &mut Vec<LintTarget>,
) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(root, &path, crate_name, is_test, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            out.push(LintTarget {
                abs: path,
                rel,
                crate_name: crate_name.to_string(),
                is_test_file: is_test,
            });
        }
    }
    Ok(())
}

/// Lint one lexed file with a rule set. Returns `(kept, suppressed)`.
pub fn lint_file(file: &SourceFile, rules: &[Box<dyn Rule>]) -> (Vec<Diagnostic>, usize) {
    let mut kept = Vec::new();
    let mut suppressed = 0usize;
    for rule in rules {
        let meta = rule.meta();
        if !meta.applies_to(&file.crate_name) {
            continue;
        }
        for d in rule.check(file) {
            let line = match &d.location {
                Location::Source(s) => s.line,
                Location::Artifact(_) => 0,
            };
            if meta.test_exempt && file.is_test(line) {
                continue;
            }
            if file.is_suppressed(meta.code.as_str(), line) {
                suppressed += 1;
                continue;
            }
            kept.push(d);
        }
    }
    (kept, suppressed)
}

/// Per-file result of the fan-out stage.
struct FileResult {
    diags: Vec<Diagnostic>,
    suppressed: usize,
    facts: FileFacts,
    hash: String,
    cache_hit: bool,
}

/// Process one file: from the cache when its content hash matches,
/// freshly otherwise.
fn process_file(target: &LintTarget, content: &str, cache: Option<&Cache>) -> FileResult {
    let hash = content_hash(content.as_bytes());
    if let Some(entry) = cache.and_then(|c| c.lookup(&target.rel, &hash)) {
        return FileResult {
            diags: entry.diags.iter().filter_map(CachedDiag::restore).collect(),
            suppressed: entry.suppressed as usize,
            facts: entry.facts.clone(),
            hash,
            cache_hit: true,
        };
    }
    let file = SourceFile::parse(
        target.rel.clone(),
        target.crate_name.clone(),
        content,
        target.is_test_file,
    );
    let (diags, suppressed) = lint_file(&file, &all_rules());
    FileResult {
        diags,
        suppressed,
        facts: FileFacts::collect(&file),
        hash,
        cache_hit: false,
    }
}

/// Lint the whole workspace under `root` against a baseline, with
/// explicit worker/cache options.
///
/// The per-file stage (layer 1 + fact extraction) fans out and merges
/// slot-per-item; the taint pass (layer 3) then runs once over all
/// facts. Findings are byte-identical for every worker count and for
/// cold vs. warm caches.
pub fn lint_workspace_with(
    root: &Path,
    baseline: &Baseline,
    options: &LintOptions,
) -> io::Result<LintOutcome> {
    let targets = discover_targets(root)?;
    let mut contents: Vec<String> = Vec::with_capacity(targets.len());
    for target in &targets {
        contents.push(std::fs::read_to_string(&target.abs)?);
    }
    let mut cache = if options.use_cache {
        let path = options
            .cache_path
            .clone()
            .unwrap_or_else(|| root.join(DEFAULT_CACHE_PATH));
        Some(Cache::load(&path))
    } else {
        None
    };

    let work: Vec<(usize, &LintTarget)> = targets.iter().enumerate().collect();
    let cache_ref = cache.as_ref();
    // Floor of 8 files per worker: a file is milliseconds of lexing and
    // rule dispatch, so a fan-out pays for its spawn and join early.
    let results: Vec<FileResult> = par_map_min(&work, options.workers, 8, |&(i, target)| {
        process_file(target, &contents[i], cache_ref)
    });

    let mut outcome = LintOutcome {
        files_scanned: targets.len(),
        ..LintOutcome::default()
    };
    let mut findings: Vec<Diagnostic> = Vec::new();
    let mut facts: Vec<FileFacts> = Vec::with_capacity(results.len());
    for (target, result) in targets.iter().zip(results) {
        outcome.suppressed += result.suppressed;
        if result.cache_hit {
            outcome.cache_hits += 1;
        } else {
            outcome.cache_misses += 1;
        }
        if let Some(cache) = cache.as_mut() {
            cache.record(
                &target.rel,
                CacheEntry {
                    hash: result.hash.clone(),
                    diags: result
                        .diags
                        .iter()
                        .filter_map(CachedDiag::capture)
                        .collect(),
                    suppressed: result.suppressed as u64,
                    facts: result.facts.clone(),
                },
            );
        }
        findings.extend(result.diags);
        facts.push(result.facts);
    }

    // Layer 3: cross-file, always fresh (the facts may be cached; the
    // graph and fixpoint are cheap and cannot be cached per-file).
    let taint_outcome = taint::analyze(&facts);
    outcome.suppressed += taint_outcome.suppressed;
    findings.extend(taint_outcome.findings);

    for d in findings {
        if baseline.covers(&d) {
            outcome.baselined += 1;
        } else {
            outcome.findings.push(d);
        }
    }
    sort_diagnostics(&mut outcome.findings);

    if let Some(cache) = &cache {
        // Best-effort: a read-only checkout must not fail the lint.
        let _ = cache.save();
    }
    Ok(outcome)
}

/// Lint the whole workspace under `root` against a baseline
/// (sequential, uncached — see [`lint_workspace_with`]).
pub fn lint_workspace(root: &Path, baseline: &Baseline) -> io::Result<LintOutcome> {
    lint_workspace_with(root, baseline, &LintOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppression_and_test_exemption() {
        let src = "\
fn prod() {
    let a = x.unwrap(); // wmtree-lint: allow(WM0105)
    let b = y.unwrap();
}

#[cfg(test)]
mod tests {
    fn t() {
        let c = z.unwrap();
    }
}";
        let file = SourceFile::parse("crates/analysis/src/x.rs", "analysis", src, false);
        let (kept, suppressed) = lint_file(&file, &all_rules());
        assert_eq!(suppressed, 1, "inline allow silences line 2");
        assert_eq!(kept.len(), 1, "only the bare unwrap on line 3 remains");
        assert_eq!(kept[0].location.display(), "crates/analysis/src/x.rs:3:15");
    }

    #[test]
    fn rule_crate_scoping() {
        // Telemetry may read the clock; tree may not.
        let src = "fn f() { let t = Instant::now(); }";
        let telem = SourceFile::parse("t.rs", "telemetry", src, false);
        let tree = SourceFile::parse("t.rs", "tree", src, false);
        assert!(lint_file(&telem, &all_rules()).0.is_empty());
        assert_eq!(lint_file(&tree, &all_rules()).0.len(), 1);
    }

    #[test]
    fn whole_test_file_exempt_from_unwrap_but_not_clock() {
        let src = "fn helper() { let a = x.unwrap(); let t = Instant::now(); }";
        let f = SourceFile::parse("crates/tree/tests/p.rs", "tree", src, true);
        let (kept, _) = lint_file(&f, &all_rules());
        assert_eq!(kept.len(), 1, "{kept:?}");
        assert_eq!(kept[0].code.as_str(), "WM0101");
    }

    #[test]
    fn default_options_are_sequential_and_uncached() {
        let opts = LintOptions::default();
        assert_eq!(opts.workers, 1);
        assert!(!opts.use_cache);
        assert!(opts.cache_path.is_none());
    }
}
