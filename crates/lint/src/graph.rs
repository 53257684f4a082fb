//! Layer-3 inputs: per-file facts and the cross-crate call graph.
//!
//! [`FileFacts`] is everything the taint pass ([`crate::taint`]) needs
//! from one source file, extracted once from the lexed token stream and
//! fully serializable — this is what the incremental cache
//! ([`crate::cache`]) stores so unchanged files skip lexing entirely.
//!
//! [`build_graph`] resolves every call site against the workspace-wide
//! symbol table into a call graph whose node order is canonical (sorted
//! by qualified key, then file, then line), so the taint fixpoint is
//! insensitive to file discovery order. Resolution deliberately
//! under-approximates: a call that cannot be resolved *uniquely* —
//! std/vendor functions, ambiguous method names, turbofish calls —
//! produces no edge rather than a guessed one, and the conservative
//! warnings WM0307/WM0308 surface the cases where that could hide a
//! flow.

use crate::diag::Span;
use crate::lexer::{extract_symbols, SourceFile};
use crate::rules::span_at;
use crate::taint::{classify_sink, sanitized_kinds, source_rules, TaintKind};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One nondeterminism source inside a function body, classified by
/// reusing the WM01xx detectors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SourceHit {
    /// Which taint the source introduces.
    pub kind: TaintKind,
    /// Where the source sits.
    pub span: Span,
    /// The WM01xx message (e.g. "wall-clock read `Instant::now` ...").
    pub detail: String,
}

/// One serialization/write primitive inside a function body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SinkOp {
    /// What the primitive is (`"serde_json::to_string"`, `"fs::write"`,
    /// `"write_all"`, ...).
    pub what: String,
    /// Where the call sits.
    pub span: Span,
}

/// One call site inside a function body, ready for resolution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CallRef {
    /// Path segments, last one the called name.
    pub segments: Vec<String>,
    /// Preceded by `.` — a method call.
    pub is_method: bool,
    /// Where the call sits (spans the whole path).
    pub span: Span,
}

/// One function definition with its taint-relevant facts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FnFact {
    /// Fully-qualified key: `crate::module::…::Type::name`.
    pub key: String,
    /// The function's bare name.
    pub name: String,
    /// Scope segments of `key` without the final name (crate first).
    pub scope: Vec<String>,
    /// 1-based line of the `fn` name.
    pub line: usize,
    /// 1-based column of the `fn` name.
    pub col: usize,
    /// The declaration line's text (for diagnostics anchored at the fn).
    pub line_text: String,
    /// Defined in test context (`#[cfg(test)]`, `tests/`, ...).
    pub is_test: bool,
    /// Nondeterminism sources in the body.
    pub sources: Vec<SourceHit>,
    /// Serialization/write primitives in the body.
    pub sinks: Vec<SinkOp>,
    /// Taint kinds this body sanitizes (canonical sorts, reseeding).
    pub sanitizes: Vec<TaintKind>,
    /// Call sites in the body, in source order.
    pub calls: Vec<CallRef>,
}

/// One `use` import (for alias expansion during resolution).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImportFact {
    /// Full path segments.
    pub segments: Vec<String>,
    /// Locally bound name.
    pub alias: String,
}

/// One inline suppression with the context the taint pass needs to
/// honor it without re-lexing the file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SuppressionFact {
    /// 1-based line of the comment.
    pub line: usize,
    /// Codes it allows.
    pub codes: Vec<String>,
    /// The comment trails code on its own line (covers that line only);
    /// otherwise it covers the next line too.
    pub trailing: bool,
    /// The line's text (for WM0310 rendering).
    pub text: String,
    /// The suppression sits in test context.
    pub is_test: bool,
}

impl SuppressionFact {
    /// Does this suppression cover `code` at `line`? Mirrors
    /// [`SourceFile::is_suppressed`].
    pub fn covers(&self, code: &str, line: usize) -> bool {
        let lines_match = if self.trailing {
            self.line == line
        } else {
            self.line == line || self.line + 1 == line
        };
        lines_match && self.codes.iter().any(|c| c == code)
    }
}

/// Everything the taint pass needs from one file. Serializable so the
/// incremental cache can restore it without re-lexing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FileFacts {
    /// Workspace-relative path.
    pub path: String,
    /// Owning crate.
    pub crate_name: String,
    /// Module path derived from the file's location (`foo/bar.rs` →
    /// `["foo", "bar"]`; `lib.rs`/`main.rs`/`mod.rs` contribute none).
    pub module: Vec<String>,
    /// Function facts, in source order.
    pub fns: Vec<FnFact>,
    /// Imports, in source order.
    pub imports: Vec<ImportFact>,
    /// Inline suppressions.
    pub suppressions: Vec<SuppressionFact>,
}

impl FileFacts {
    /// Extract facts from a lexed file: symbol table, per-fn source /
    /// sink / sanitizer classification, imports, suppressions.
    pub fn collect(file: &SourceFile) -> FileFacts {
        let symbols = extract_symbols(&file.tokens);
        let module = module_path_of(&file.path);
        let toks = &file.tokens;

        let mut fns: Vec<FnFact> = Vec::new();
        // Body line ranges aligned with `symbols.fns` (None for
        // signatures, which get no FnFact).
        let mut fact_of_sym: Vec<Option<usize>> = Vec::with_capacity(symbols.fns.len());
        for def in &symbols.fns {
            let Some((open, close)) = def.body else {
                fact_of_sym.push(None);
                continue;
            };
            let mut scope: Vec<String> = Vec::with_capacity(1 + module.len() + def.path.len());
            scope.push(file.crate_name.clone());
            scope.extend(module.iter().cloned());
            scope.extend(def.path.iter().cloned());
            let key = format!("{}::{}", scope.join("::"), def.name);
            let mut sanitizes = sanitized_kinds(&toks[open..=close]);
            sanitizes.sort();
            sanitizes.dedup();
            fact_of_sym.push(Some(fns.len()));
            fns.push(FnFact {
                key,
                name: def.name.clone(),
                scope,
                line: def.line,
                col: def.col,
                line_text: file.line_text(def.line).to_string(),
                is_test: file.is_test(def.line),
                sources: Vec::new(),
                sinks: Vec::new(),
                sanitizes,
                calls: Vec::new(),
            });
        }

        // Sinks and calls, assigned to the innermost enclosing fn.
        for call in &symbols.calls {
            let Some(sym_idx) = symbols.enclosing_fn(call.end_idx) else {
                continue;
            };
            let Some(fact_idx) = fact_of_sym[sym_idx] else {
                continue;
            };
            let span = span_at(file, toks, call.start_idx, call.end_idx);
            if let Some(what) = classify_sink(&call.segments, call.is_method) {
                fns[fact_idx].sinks.push(SinkOp {
                    what,
                    span: span.clone(),
                });
            }
            // A plain call of a name the body binds calls that local,
            // whatever fn shares its name: it gets no edge.
            if let [name] = &call.segments[..] {
                if !call.is_method && symbols.fns[sym_idx].binds(name, call.start_idx) {
                    continue;
                }
            }
            fns[fact_idx].calls.push(CallRef {
                segments: call.segments.clone(),
                is_method: call.is_method,
                span,
            });
        }

        // Sources: the WM01xx detectors run as classifiers — crate
        // applicability and test exemption deliberately ignored, since
        // a clock read in an *exempt* crate (telemetry) is exactly the
        // cross-crate source the taint pass exists to track.
        for (rule, kind) in source_rules() {
            for d in rule.check(file) {
                let crate::diag::Location::Source(span) = &d.location else {
                    continue;
                };
                let Some(fact_idx) = fns
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| {
                        let Some(Some((open, close))) = symbols
                            .fns
                            .iter()
                            .zip(&fact_of_sym)
                            .find_map(|(def, fi)| (*fi == Some(*i)).then_some(def.body))
                        else {
                            return false;
                        };
                        toks[open].line <= span.line && span.line <= toks[close].line
                    })
                    .map(|(i, _)| i)
                    .next_back()
                else {
                    continue;
                };
                fns[fact_idx].sources.push(SourceHit {
                    kind,
                    span: span.clone(),
                    detail: d.message.clone(),
                });
            }
        }

        FileFacts {
            path: file.path.clone(),
            crate_name: file.crate_name.clone(),
            module,
            fns,
            imports: symbols
                .imports
                .iter()
                .map(|u| ImportFact {
                    segments: u.segments.clone(),
                    alias: u.alias.clone(),
                })
                .collect(),
            suppressions: file
                .suppressions
                .iter()
                .map(|s| SuppressionFact {
                    line: s.line,
                    codes: s.codes.clone(),
                    trailing: file.line_has_code(s.line),
                    text: file.line_text(s.line).to_string(),
                    is_test: file.is_test(s.line),
                })
                .collect(),
        }
    }

    /// Is `code` suppressed at the 1-based line?
    pub fn is_suppressed(&self, code: &str, line: usize) -> bool {
        self.suppressions.iter().any(|s| s.covers(code, line))
    }
}

/// Module path from a workspace-relative file path: the components
/// after the `src`/`tests`/`benches`/`examples` marker, minus
/// `lib`/`main`/`mod` terminals.
pub fn module_path_of(rel: &str) -> Vec<String> {
    let parts: Vec<&str> = rel.split('/').collect();
    let Some(marker) = parts
        .iter()
        .position(|p| matches!(*p, "src" | "tests" | "benches" | "examples"))
    else {
        return Vec::new();
    };
    let mut module: Vec<String> = parts[marker + 1..]
        .iter()
        .map(|p| p.strip_suffix(".rs").unwrap_or(p).to_string())
        .collect();
    if matches!(
        module.last().map(String::as_str),
        Some("lib") | Some("main") | Some("mod")
    ) {
        module.pop();
    }
    module
}

/// One resolved call edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Callee node index.
    pub callee: usize,
    /// Index into the caller [`FnFact::calls`] (for the call-site span).
    pub call: usize,
}

/// The workspace call graph over non-test functions, in canonical node
/// order.
#[derive(Debug)]
pub struct CallGraph {
    /// `(file index, fn index)` into the facts slice, sorted by
    /// `(key, file path, line)` — canonical regardless of input order.
    pub nodes: Vec<(usize, usize)>,
    /// Qualified key per node.
    pub keys: Vec<String>,
    /// Forward edges (caller → callees), sorted per node.
    pub fwd: Vec<Vec<Edge>>,
    /// Reverse adjacency (callee → callers), sorted per node.
    pub rev: Vec<Vec<usize>>,
    /// Per node, per call site: the resolved callee (None = no edge).
    pub resolved: Vec<Vec<Option<usize>>>,
}

impl CallGraph {
    /// The [`FnFact`] behind a node.
    pub fn fact<'a>(&self, facts: &'a [FileFacts], node: usize) -> &'a FnFact {
        let (fi, fni) = self.nodes[node];
        &facts[fi].fns[fni]
    }

    /// The [`FileFacts`] behind a node.
    pub fn file<'a>(&self, facts: &'a [FileFacts], node: usize) -> &'a FileFacts {
        &facts[self.nodes[node].0]
    }
}

/// Map an extern-crate path segment to its workspace crate name
/// (`wmtree_analysis` → `analysis`, `wmtree` → `core`).
fn extern_crate_of(segment: &str) -> Option<String> {
    if segment == "wmtree" {
        return Some("core".to_string());
    }
    segment.strip_prefix("wmtree_").map(|rest| rest.to_string())
}

/// Build the canonical call graph over every non-test fn in `facts`.
/// The result is identical for any permutation of `facts` (and of each
/// file's fns) because nodes are sorted by key before edges resolve.
pub fn build_graph(facts: &[FileFacts]) -> CallGraph {
    let mut nodes: Vec<(usize, usize)> = Vec::new();
    for (fi, file) in facts.iter().enumerate() {
        for (fni, f) in file.fns.iter().enumerate() {
            if !f.is_test {
                nodes.push((fi, fni));
            }
        }
    }
    nodes.sort_by(|&(af, an), &(bf, bn)| {
        let a = &facts[af].fns[an];
        let b = &facts[bf].fns[bn];
        (&a.key, &facts[af].path, a.line).cmp(&(&b.key, &facts[bf].path, b.line))
    });
    let keys: Vec<String> = nodes
        .iter()
        .map(|&(fi, fni)| facts[fi].fns[fni].key.clone())
        .collect();

    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut by_path: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (n, &(fi, fni)) in nodes.iter().enumerate() {
        let f = &facts[fi].fns[fni];
        by_name.entry(f.name.as_str()).or_default().push(n);
        by_path.entry(f.key.as_str()).or_default().push(n);
    }

    let mut fwd: Vec<Vec<Edge>> = vec![Vec::new(); nodes.len()];
    let mut rev: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    let mut resolved: Vec<Vec<Option<usize>>> = vec![Vec::new(); nodes.len()];
    for n in 0..nodes.len() {
        let (fi, fni) = nodes[n];
        let caller = &facts[fi].fns[fni];
        let file = &facts[fi];
        for (ci, call) in caller.calls.iter().enumerate() {
            let target = resolve(call, caller, file, fi, &nodes, facts, &by_name, &by_path);
            resolved[n].push(target);
            if let Some(m) = target {
                if m != n {
                    fwd[n].push(Edge {
                        callee: m,
                        call: ci,
                    });
                    rev[m].push(n);
                }
            }
        }
        fwd[n].sort_by_key(|e| (e.callee, e.call));
    }
    for r in &mut rev {
        r.sort_unstable();
        r.dedup();
    }
    CallGraph {
        nodes,
        keys,
        fwd,
        rev,
        resolved,
    }
}

/// Resolve one call site to a node, or `None` if no *unique* target
/// exists.
#[allow(clippy::too_many_arguments)]
fn resolve(
    call: &CallRef,
    caller: &FnFact,
    file: &FileFacts,
    caller_file: usize,
    nodes: &[(usize, usize)],
    facts: &[FileFacts],
    by_name: &BTreeMap<&str, Vec<usize>>,
    by_path: &BTreeMap<&str, Vec<usize>>,
) -> Option<usize> {
    let name = call.segments.last()?;
    let candidates = by_name.get(name.as_str())?;

    // Normalize the path prefix: alias expansion, crate/self/super/Self,
    // extern `wmtree_*` crate names. `None` means a std/vendor path.
    let segs = qualify(&call.segments, caller, file)?;

    if segs.len() == 1 && !call.is_method {
        // Plain call: sibling in the same module beats same file beats
        // same crate beats a globally unique name.
        let sibling = {
            let mut s = caller.scope.clone();
            s.push(name.clone());
            s.join("::")
        };
        if let Some(hits) = by_path.get(sibling.as_str()) {
            if hits.len() == 1 {
                return Some(hits[0]);
            }
            return None;
        }
        let module_key = {
            let mut s = vec![file.crate_name.clone()];
            s.extend(file.module.iter().cloned());
            s.push(name.clone());
            s.join("::")
        };
        if let Some(hits) = by_path.get(module_key.as_str()) {
            if hits.len() == 1 {
                return Some(hits[0]);
            }
            return None;
        }
        return pick_by_scope(candidates, caller_file, &file.crate_name, nodes, facts);
    }

    if call.is_method {
        // Method call: name-only suffix; require a unique target at the
        // closest scope.
        return pick_by_scope(candidates, caller_file, &file.crate_name, nodes, facts);
    }

    // Qualified call: match the normalized path as a key suffix.
    let suffix = segs.join("::");
    let dotted = format!("::{suffix}");
    let matching: Vec<usize> = candidates
        .iter()
        .copied()
        .filter(|&m| {
            let (fi, fni) = nodes[m];
            let key = &facts[fi].fns[fni].key;
            key == &suffix || key.ends_with(&dotted)
        })
        .collect();
    match matching.len() {
        0 => None,
        1 => Some(matching[0]),
        _ => {
            // Prefer an exact key, then a same-crate match.
            let exact: Vec<usize> = matching
                .iter()
                .copied()
                .filter(|&m| {
                    let (fi, fni) = nodes[m];
                    facts[fi].fns[fni].key == suffix
                })
                .collect();
            if exact.len() == 1 {
                return Some(exact[0]);
            }
            let same_crate: Vec<usize> = matching
                .iter()
                .copied()
                .filter(|&m| facts[nodes[m].0].crate_name == file.crate_name)
                .collect();
            if same_crate.len() == 1 {
                return Some(same_crate[0]);
            }
            None
        }
    }
}

/// Unique candidate at the closest scope: same file, then same crate,
/// then anywhere.
fn pick_by_scope(
    candidates: &[usize],
    caller_file: usize,
    caller_crate: &str,
    nodes: &[(usize, usize)],
    facts: &[FileFacts],
) -> Option<usize> {
    let same_file: Vec<usize> = candidates
        .iter()
        .copied()
        .filter(|&m| nodes[m].0 == caller_file)
        .collect();
    if !same_file.is_empty() {
        return (same_file.len() == 1).then_some(same_file[0]);
    }
    let same_crate: Vec<usize> = candidates
        .iter()
        .copied()
        .filter(|&m| facts[nodes[m].0].crate_name == caller_crate)
        .collect();
    if !same_crate.is_empty() {
        return (same_crate.len() == 1).then_some(same_crate[0]);
    }
    (candidates.len() == 1).then_some(candidates[0])
}

/// Normalize a call path's leading segments. Returns `None` when the
/// path is explicitly external (`std::`, `alloc::`).
fn qualify(segments: &[String], caller: &FnFact, file: &FileFacts) -> Option<Vec<String>> {
    let mut segs: Vec<String> = segments.to_vec();
    // Alias expansion: `use wmtree_telemetry::clock;` + `clock::f()`.
    if segs.len() > 1 {
        if let Some(imp) = file.imports.iter().find(|u| u.alias == segs[0]) {
            let mut expanded = imp.segments.clone();
            expanded.extend(segs.drain(1..));
            segs = expanded;
        }
    } else if !segs.is_empty() {
        // A plain name imported directly: `use a::b::f;` + `f()`.
        if let Some(imp) = file
            .imports
            .iter()
            .find(|u| u.alias == segs[0] && u.segments.len() > 1)
        {
            segs = imp.segments.clone();
        }
    }
    match segs.first().map(String::as_str) {
        Some("std") | Some("alloc") => return None,
        Some("crate") => {
            segs[0] = file.crate_name.clone();
        }
        Some("self") => {
            let mut s = vec![file.crate_name.clone()];
            s.extend(file.module.iter().cloned());
            s.extend(segs.drain(1..));
            segs = s;
        }
        Some("super") => {
            let mut s = vec![file.crate_name.clone()];
            let keep = file.module.len().saturating_sub(1);
            s.extend(file.module.iter().take(keep).cloned());
            s.extend(segs.drain(1..));
            segs = s;
        }
        Some("Self") => {
            let mut s = caller.scope.clone();
            s.extend(segs.drain(1..));
            segs = s;
        }
        Some(first) => {
            if let Some(krate) = extern_crate_of(first) {
                segs[0] = krate;
            }
        }
        None => return None,
    }
    Some(segs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn facts(path: &str, crate_name: &str, src: &str) -> FileFacts {
        FileFacts::collect(&SourceFile::parse(path, crate_name, src, false))
    }

    #[test]
    fn module_paths() {
        assert_eq!(
            module_path_of("crates/tree/src/lib.rs"),
            Vec::<String>::new()
        );
        assert_eq!(
            module_path_of("crates/lint/src/rules/mod.rs"),
            vec!["rules"]
        );
        assert_eq!(
            module_path_of("crates/lint/src/rules/wall_clock.rs"),
            vec!["rules", "wall_clock"]
        );
        assert_eq!(module_path_of("src/lib.rs"), Vec::<String>::new());
        assert_eq!(module_path_of("tests/end_to_end.rs"), vec!["end_to_end"]);
    }

    #[test]
    fn collect_classifies_sources_sinks_sanitizers() {
        let src = r#"
pub fn clocky() -> u64 {
    let t = SystemTime::now();
    0
}
pub fn writer(rows: &[u64]) {
    let body = serde_json::to_string(rows);
    std::fs::write("out.json", body);
}
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.total_cmp(b));
    v
}
"#;
        let f = facts("crates/core/src/x.rs", "core", src);
        assert_eq!(f.fns.len(), 3);
        assert_eq!(f.fns[0].key, "core::x::clocky");
        assert_eq!(f.fns[0].sources.len(), 1);
        assert_eq!(f.fns[0].sources[0].kind, TaintKind::WallClock);
        let sink_whats: Vec<&str> = f.fns[1].sinks.iter().map(|s| s.what.as_str()).collect();
        assert_eq!(sink_whats, vec!["serde_json::to_string", "fs::write"]);
        assert!(f.fns[2].sanitizes.contains(&TaintKind::HashIter));
    }

    #[test]
    fn graph_resolves_cross_crate_and_local_calls() {
        let clock = facts(
            "crates/telemetry/src/clock.rs",
            "telemetry",
            "pub fn now_ms() -> u64 { 0 }",
        );
        let user = facts(
            "crates/core/src/use_it.rs",
            "core",
            "pub fn sample() -> u64 { wmtree_telemetry::clock::now_ms() + local() }\n\
             fn local() -> u64 { 1 }",
        );
        let all = vec![clock, user];
        let g = build_graph(&all);
        let sample = g
            .keys
            .iter()
            .position(|k| k == "core::use_it::sample")
            .unwrap();
        let callees: Vec<&str> = g.fwd[sample]
            .iter()
            .map(|e| g.keys[e.callee].as_str())
            .collect();
        assert_eq!(
            callees,
            vec!["core::use_it::local", "telemetry::clock::now_ms"]
        );
    }

    #[test]
    fn graph_is_input_order_insensitive() {
        let a = facts("crates/core/src/a.rs", "core", "pub fn f() { g(); }");
        let b = facts("crates/core/src/b.rs", "core", "pub fn g() { h(); }");
        let c = facts("crates/core/src/c.rs", "core", "pub fn h() {}");
        let fwd_of = |order: Vec<FileFacts>| {
            let g = build_graph(&order);
            (g.keys.clone(), g.fwd.clone())
        };
        let x = fwd_of(vec![a.clone(), b.clone(), c.clone()]);
        let y = fwd_of(vec![c, a, b]);
        assert_eq!(x, y);
    }

    #[test]
    fn ambiguous_methods_resolve_to_no_edge() {
        let a = facts(
            "crates/core/src/a.rs",
            "core",
            "impl A { pub fn finish(&self) {} }",
        );
        let b = facts(
            "crates/core/src/b.rs",
            "core",
            "impl B { pub fn finish(&self) {} }\npub fn run(x: &X) { x.finish(); }",
        );
        let all = vec![a, b];
        let g = build_graph(&all);
        let run = g.keys.iter().position(|k| k == "core::b::run").unwrap();
        // `B::finish` is in the same file, so the method resolves there
        // (closest scope); had both been elsewhere it would be dropped.
        let callees: Vec<&str> = g.fwd[run]
            .iter()
            .map(|e| g.keys[e.callee].as_str())
            .collect();
        assert_eq!(callees, vec!["core::b::B::finish"]);
    }

    #[test]
    fn imports_qualify_plain_calls() {
        let provider = facts(
            "crates/telemetry/src/clock.rs",
            "telemetry",
            "pub fn now_ms() -> u64 { 0 }",
        );
        let user = facts(
            "crates/core/src/u.rs",
            "core",
            "use wmtree_telemetry::clock::now_ms;\npub fn f() -> u64 { now_ms() }",
        );
        let all = vec![provider, user];
        let g = build_graph(&all);
        let f = g.keys.iter().position(|k| k == "core::u::f").unwrap();
        let callees: Vec<&str> = g.fwd[f].iter().map(|e| g.keys[e.callee].as_str()).collect();
        assert_eq!(callees, vec!["telemetry::clock::now_ms"]);
    }
}
