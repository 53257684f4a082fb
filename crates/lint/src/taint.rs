//! Layer 3 — workspace-wide determinism taint analysis (`WM03xx`).
//!
//! The WM01xx lints prove each *file* clean in its own crate's terms,
//! but crate exemptions are load-bearing: `telemetry` may read the
//! clock because its output never enters results. Nothing per-file can
//! prove that boundary holds — that a clock read in an exempt crate
//! does not flow through three calls into a function that serializes a
//! report. This pass closes that gap: it seeds taint at nondeterminism
//! sources (reusing the WM01xx detectors as classifiers, *ignoring*
//! their crate exemptions), propagates it caller-ward over the
//! [`crate::graph`] call graph with a worklist fixpoint, stops at
//! sanctioned sanitizers (canonical sorts, `total_cmp`, `stable_hash`,
//! seeded RNG constructors), and reports every serializing function the
//! taint reaches, rendering the full source→…→sink call path.
//!
//! Propagation is deliberately conservative in one direction and
//! under-approximating in the other: any caller of a tainted function
//! is tainted (return values and side effects are not distinguished),
//! but a call that cannot be resolved to a *unique* definition creates
//! no edge (WM0307/WM0308 warn where that could hide a flow).

use crate::diag::{Code, Diagnostic, Severity, Span};
use crate::graph::{build_graph, CallGraph, FileFacts};
use crate::lexer::{Token, TokenKind};
use crate::rules::{EnvDep, HashIter, Rule, ThreadSpawn, UnseededRng, WallClock};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, VecDeque};

/// What kind of nondeterminism a taint carries. One BFS runs per kind,
/// because sanitizers are kind-specific (a sort launders iteration
/// order, not wall-clock time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum TaintKind {
    /// `SystemTime::now` / `Instant::now` (WM0101 detector).
    WallClock,
    /// `HashMap`/`HashSet` iteration order (WM0102 detector).
    HashIter,
    /// Entropy-seeded RNG (WM0103 detector).
    EntropyRng,
    /// `env::var` / thread-identity reads (WM0104 detector).
    EnvRead,
    /// Raw `thread::spawn` scheduling (WM0106 detector).
    ThreadSpawn,
}

impl TaintKind {
    /// Every kind, in code order (WM0301..WM0305).
    pub const ALL: [TaintKind; 5] = [
        TaintKind::WallClock,
        TaintKind::HashIter,
        TaintKind::EntropyRng,
        TaintKind::EnvRead,
        TaintKind::ThreadSpawn,
    ];

    /// The per-kind flow code (WM0301..WM0305).
    pub fn code(&self) -> Code {
        match self {
            TaintKind::WallClock => Code("WM0301"),
            TaintKind::HashIter => Code("WM0302"),
            TaintKind::EntropyRng => Code("WM0303"),
            TaintKind::EnvRead => Code("WM0304"),
            TaintKind::ThreadSpawn => Code("WM0305"),
        }
    }

    /// Human description of the nondeterminism.
    pub fn describe(&self) -> &'static str {
        match self {
            TaintKind::WallClock => "wall-clock time",
            TaintKind::HashIter => "hash-map iteration order",
            TaintKind::EntropyRng => "entropy-seeded randomness",
            TaintKind::EnvRead => "process-environment input",
            TaintKind::ThreadSpawn => "detached-thread scheduling",
        }
    }
}

/// The WM01xx detectors reused as source classifiers, with the taint
/// kind each one seeds. WM0105 (`unwrap`) is absent: an unwrap is a
/// robustness defect, not a nondeterminism source.
pub fn source_rules() -> Vec<(Box<dyn Rule>, TaintKind)> {
    vec![
        (Box::new(WallClock) as Box<dyn Rule>, TaintKind::WallClock),
        (Box::new(HashIter), TaintKind::HashIter),
        (Box::new(UnseededRng), TaintKind::EntropyRng),
        (Box::new(EnvDep), TaintKind::EnvRead),
        (Box::new(ThreadSpawn), TaintKind::ThreadSpawn),
    ]
}

/// Crates whose functions are never sinks: their outputs (progress
/// lines, bench timings) are measurement-harness artifacts, not
/// results. This mirrors the WM0101 exemption — and the taint pass
/// exists precisely to prove flows *out of* these crates still get
/// caught at the pipeline-side sink.
const SINK_EXEMPT_CRATES: &[&str] = &["telemetry", "bench"];

/// Fully-qualified keys that are sanctioned sanitizers: never seeded,
/// never tainted, never propagate.
const SANCTIONED_FNS: &[&str] = &["webgen::seed::stable_hash"];

/// Classify a call site as a serialization/write primitive. Returns the
/// canonical sink label, or `None`.
pub fn classify_sink(segments: &[String], is_method: bool) -> Option<String> {
    let name = segments.last()?.as_str();
    if matches!(name, "write_all" | "write_fmt") {
        return Some(name.to_string());
    }
    if is_method || segments.len() < 2 {
        return None;
    }
    let prev = segments[segments.len() - 2].as_str();
    match (prev, name) {
        ("serde_json", "to_string" | "to_string_pretty" | "to_writer" | "to_vec")
        | ("fs", "write" | "rename")
        | ("File", "create") => Some(format!("{prev}::{name}")),
        _ => None,
    }
}

/// Token names that sanitize hash-iteration taint: canonical orderings
/// the artifact checks (WM02xx) already treat as sanctioned.
const HASH_SANITIZERS: &[&str] = &[
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "total_cmp",
    "BTreeMap",
    "BTreeSet",
];

/// Token names that sanitize entropy taint: seeded construction and the
/// workspace's seed-derivation helpers.
const RNG_SANITIZERS: &[&str] = &["from_seed", "seed_from_u64", "SeedMixer", "stable_hash"];

/// Which taint kinds a function body sanitizes, judged from its tokens.
/// A body that canonically sorts before returning launders iteration
/// order for its callers; a body that reseeds deterministically
/// launders entropy.
pub fn sanitized_kinds(body: &[Token]) -> Vec<TaintKind> {
    let mut out = Vec::new();
    for t in body {
        if t.kind != TokenKind::Ident {
            continue;
        }
        if HASH_SANITIZERS.contains(&t.text.as_str()) {
            out.push(TaintKind::HashIter);
        }
        if RNG_SANITIZERS.contains(&t.text.as_str()) {
            out.push(TaintKind::EntropyRng);
        }
    }
    out
}

/// Static description of one WM03xx code (drives `rules`, `--explain`,
/// and the DESIGN.md §11 catalog).
#[derive(Debug, Clone, Copy)]
pub struct TaintMeta {
    /// Stable code.
    pub code: Code,
    /// Kebab-case name.
    pub name: &'static str,
    /// One-line summary.
    pub summary: &'static str,
    /// Why the code exists.
    pub rationale: &'static str,
    /// Severity of findings.
    pub severity: Severity,
}

/// The WM03xx catalog, in code order.
pub fn catalog() -> Vec<TaintMeta> {
    vec![
        TaintMeta {
            code: Code("WM0301"),
            name: "clock-to-sink",
            summary: "wall-clock time flows into a serializing function",
            rationale: "a timestamp that crosses from telemetry into a report makes \
                        reruns diverge byte-for-byte — the exact leak PR 1's \
                        byte-identity tests caught dynamically",
            severity: Severity::Error,
        },
        TaintMeta {
            code: Code("WM0302"),
            name: "hash-order-to-sink",
            summary: "hash-map iteration order flows into a serializing function",
            rationale: "HashMap order is randomized per process; serialized output \
                        must pass through a canonical sort or BTree first",
            severity: Severity::Error,
        },
        TaintMeta {
            code: Code("WM0303"),
            name: "entropy-to-sink",
            summary: "entropy-seeded randomness flows into a serializing function",
            rationale: "results must be a pure function of the experiment seed; \
                        OS entropy breaks replay equivalence",
            severity: Severity::Error,
        },
        TaintMeta {
            code: Code("WM0304"),
            name: "env-to-sink",
            summary: "process-environment input flows into a serializing function",
            rationale: "environment variables and thread identity are setup \
                        parameters — the paper's core warning — and must not \
                        shape serialized results",
            severity: Severity::Error,
        },
        TaintMeta {
            code: Code("WM0305"),
            name: "spawn-to-sink",
            summary: "detached-thread scheduling flows into a serializing function",
            rationale: "a detached spawn races deterministic merge order; only \
                        joining pools (the ordered crawl loop, the lint's \
                        per-file map) may feed sinks",
            severity: Severity::Error,
        },
        TaintMeta {
            code: Code("WM0306"),
            name: "source-in-sink",
            summary: "a serializing function itself reads a nondeterminism source",
            rationale: "the zero-hop case of WM0301–WM0305: the writer is the \
                        leak, no call path needed",
            severity: Severity::Error,
        },
        TaintMeta {
            code: Code("WM0307"),
            name: "ambiguous-source-symbol",
            summary: "duplicate fully-qualified fn key where a duplicate has sources",
            rationale: "call resolution drops ambiguous targets; a duplicate key \
                        hiding a source could silence a real flow",
            severity: Severity::Warning,
        },
        TaintMeta {
            code: Code("WM0308"),
            name: "unresolved-source-call",
            summary: "a serializing function calls an unresolvable source-like name",
            rationale: "`.now()` or entropy constructors that resolution cannot \
                        pin down would silently escape propagation",
            severity: Severity::Warning,
        },
        TaintMeta {
            code: Code("WM0309"),
            name: "shadowed-sanitizer",
            summary: "a fn named `stable_hash` outside `webgen::seed`",
            rationale: "the sanctioned sanitizer is trusted by name; a shadow \
                        with different semantics would launder taint it \
                        does not actually remove",
            severity: Severity::Warning,
        },
        TaintMeta {
            code: Code("WM0310"),
            name: "unused-taint-allow",
            summary: "an `allow(WM03xx)` suppression that suppresses nothing",
            rationale: "stale allows outlive the flow they justified and will \
                        silently swallow the next real one",
            severity: Severity::Warning,
        },
    ]
}

/// Result of the taint pass.
#[derive(Debug, Default)]
pub struct TaintOutcome {
    /// Findings (unsorted; the engine sorts the merged batch).
    pub findings: Vec<Diagnostic>,
    /// Findings silenced by inline `allow(..)` comments.
    pub suppressed: usize,
}

/// Names whose *unresolved* calls inside a serializing function warrant
/// WM0308: clock-like methods and entropy constructors.
const SOURCE_LIKE_METHODS: &[&str] = &["now"];
const SOURCE_LIKE_FNS: &[&str] = &["thread_rng", "from_entropy", "from_os_rng", "getrandom"];

/// Run the full layer-3 pass over per-file facts: graph construction,
/// per-kind propagation, and the conservative warnings. Output is
/// identical for any permutation of `facts` (canonical node order).
pub fn analyze(facts: &[FileFacts]) -> TaintOutcome {
    let graph = build_graph(facts);
    let n = graph.nodes.len();
    let mut out = TaintOutcome::default();
    // Suppressions consumed by a WM03xx finding, for WM0310:
    // (file index, suppression index, code).
    let mut used_allows: BTreeSet<(usize, usize, &'static str)> = BTreeSet::new();

    let sanctioned = |node: usize| -> bool { SANCTIONED_FNS.contains(&graph.keys[node].as_str()) };
    let sink_eligible = |node: usize| -> bool {
        let file = graph.file(facts, node);
        !SINK_EXEMPT_CRATES.contains(&file.crate_name.as_str())
            && !graph.fact(facts, node).sinks.is_empty()
    };

    // One BFS per taint kind, caller-ward over the reverse edges.
    for kind in TaintKind::ALL {
        let mut dist: Vec<usize> = vec![usize::MAX; n];
        let mut parent: Vec<Option<(usize, Span)>> = vec![None; n];
        let mut queue: VecDeque<usize> = VecDeque::new();
        for (node, d) in dist.iter_mut().enumerate() {
            let fact = graph.fact(facts, node);
            if fact.sources.iter().any(|s| s.kind == kind)
                && !fact.sanitizes.contains(&kind)
                && !sanctioned(node)
            {
                *d = 0;
                queue.push_back(node);
            }
        }
        while let Some(m) = queue.pop_front() {
            for &caller in &graph.rev[m] {
                if dist[caller] != usize::MAX
                    || graph.fact(facts, caller).sanitizes.contains(&kind)
                    || sanctioned(caller)
                {
                    continue;
                }
                // The call site in the caller that reaches `m` (first
                // such edge — fwd edges are sorted).
                let Some(edge) = graph.fwd[caller].iter().find(|e| e.callee == m) else {
                    continue;
                };
                let span = graph.fact(facts, caller).calls[edge.call].span.clone();
                dist[caller] = dist[m] + 1;
                parent[caller] = Some((m, span));
                queue.push_back(caller);
            }
        }

        // Findings: every tainted sink-bearing function.
        for (node, &d) in dist.iter().enumerate() {
            if d == usize::MAX || !sink_eligible(node) {
                continue;
            }
            let diag = if d == 0 {
                zero_hop_finding(facts, &graph, node, kind)
            } else {
                flow_finding(facts, &graph, node, kind, &parent)
            };
            file_finding(facts, &graph, node, diag, &mut out, &mut used_allows);
        }
    }

    conservative_warnings(facts, &graph, &mut out, &mut used_allows);
    unused_allow_warnings(facts, &mut out, &used_allows);
    out
}

/// WM0306: the sink function itself reads the source.
fn zero_hop_finding(
    facts: &[FileFacts],
    graph: &CallGraph,
    node: usize,
    kind: TaintKind,
) -> Diagnostic {
    let fact = graph.fact(facts, node);
    let source = first_source(fact, kind);
    let sink = first_sink(fact);
    Diagnostic::source(
        Code("WM0306"),
        Severity::Error,
        source.span.clone(),
        format!(
            "`{}` writes serialized output but itself reads {}",
            fact.key,
            kind.describe()
        ),
    )
    .with_note(format!("source: {}", source.detail))
    .with_note(format!(
        "sink: `{}` at {}:{}:{}",
        sink.what, sink.span.file, sink.span.line, sink.span.col
    ))
    .with_note(
        "canonicalize the value (sort / stable_hash / seeded RNG) before it is \
         serialized, or justify with `// wmtree-lint: allow(WM0306)`",
    )
}

/// WM0301–WM0305: a multi-hop flow into a sink function. The primary
/// span is the call in the sink that starts the tainted path, so an
/// inline `allow(..)` sits exactly on the call being justified.
fn flow_finding(
    facts: &[FileFacts],
    graph: &CallGraph,
    node: usize,
    kind: TaintKind,
    parent: &[Option<(usize, Span)>],
) -> Diagnostic {
    // Walk sink → … → source via parent pointers.
    let mut chain: Vec<usize> = vec![node];
    let mut hops: Vec<(usize, usize, Span)> = Vec::new(); // (caller, callee, call span)
    let mut cur = node;
    while let Some((callee, span)) = &parent[cur] {
        hops.push((cur, *callee, span.clone()));
        chain.push(*callee);
        cur = *callee;
    }
    let source_node = *chain.last().expect("chain starts at the sink node"); // wmtree-lint: allow(WM0105)
    let source_fact = graph.fact(facts, source_node);
    let source = first_source(source_fact, kind);
    let sink_fact = graph.fact(facts, node);
    let sink = first_sink(sink_fact);
    let first_span = hops[0].2.clone();

    let mut d = Diagnostic::source(
        kind.code(),
        Severity::Error,
        first_span,
        format!(
            "nondeterministic {} flows into `{}`, which writes serialized output",
            kind.describe(),
            sink_fact.key
        ),
    );
    let path: Vec<&str> = chain.iter().map(|&c| graph.keys[c].as_str()).collect();
    d = d.with_note(format!("tainted call path: {}", path.join(" -> ")));
    // Per-hop locations, middle elided when the chain is long.
    const MAX_HOPS: usize = 6;
    let elided = hops.len().saturating_sub(MAX_HOPS);
    for (i, (caller, callee, span)) in hops.iter().enumerate() {
        if elided > 0 && i >= MAX_HOPS - 1 && i < hops.len() - 1 {
            if i == MAX_HOPS - 1 {
                d = d.with_note(format!("(… {} intermediate call(s) elided)", elided));
            }
            continue;
        }
        d = d.with_note(format!(
            "`{}` calls `{}` at {}:{}:{}",
            graph.keys[*caller],
            graph.fact(facts, *callee).name,
            span.file,
            span.line,
            span.col
        ));
    }
    d.with_note(format!("source: {}", source.detail))
        .with_note(format!(
            "source at {}:{}:{}",
            source.span.file, source.span.line, source.span.col
        ))
        .with_note(format!(
            "sink: `{}` at {}:{}:{}",
            sink.what, sink.span.file, sink.span.line, sink.span.col
        ))
        .with_note(format!(
            "canonicalize before the value crosses into serialization, or justify \
             with `// wmtree-lint: allow({})` at the flagged call",
            kind.code()
        ))
}

/// The source hit of `kind` with the smallest position.
fn first_source(fact: &crate::graph::FnFact, kind: TaintKind) -> &crate::graph::SourceHit {
    fact.sources
        .iter()
        .filter(|s| s.kind == kind)
        .min_by_key(|s| (s.span.line, s.span.col))
        .expect("tainted seed has a source of its kind") // wmtree-lint: allow(WM0105)
}

/// The sink op with the smallest position.
fn first_sink(fact: &crate::graph::FnFact) -> &crate::graph::SinkOp {
    fact.sinks
        .iter()
        .min_by_key(|s| (s.span.line, s.span.col))
        .expect("sink-eligible fn has a sink op") // wmtree-lint: allow(WM0105)
}

/// Route one finding through inline suppressions, recording which allow
/// consumed it (for WM0310).
fn file_finding(
    facts: &[FileFacts],
    graph: &CallGraph,
    node: usize,
    diag: Diagnostic,
    out: &mut TaintOutcome,
    used_allows: &mut BTreeSet<(usize, usize, &'static str)>,
) {
    let file_idx = graph.nodes[node].0;
    push_finding(facts, file_idx, diag, out, used_allows);
}

/// Suppression-check `diag` against its file and either record the
/// consumed allow or emit the finding.
fn push_finding(
    facts: &[FileFacts],
    file_idx: usize,
    diag: Diagnostic,
    out: &mut TaintOutcome,
    used_allows: &mut BTreeSet<(usize, usize, &'static str)>,
) {
    let crate::diag::Location::Source(span) = &diag.location else {
        out.findings.push(diag);
        return;
    };
    let file = &facts[file_idx];
    for (si, supp) in file.suppressions.iter().enumerate() {
        if supp.covers(diag.code.as_str(), span.line) {
            used_allows.insert((file_idx, si, diag.code.as_str()));
            out.suppressed += 1;
            return;
        }
    }
    out.findings.push(diag);
}

/// WM0307/WM0308/WM0309 — the warnings that surface where the
/// under-approximating resolution could hide a flow.
fn conservative_warnings(
    facts: &[FileFacts],
    graph: &CallGraph,
    out: &mut TaintOutcome,
    used_allows: &mut BTreeSet<(usize, usize, &'static str)>,
) {
    // WM0307: duplicate fully-qualified keys where a duplicate carries
    // sources. Resolution refuses ambiguous targets, so such a source
    // can never propagate — say so instead of staying silent.
    let mut i = 0;
    while i < graph.nodes.len() {
        let mut j = i + 1;
        while j < graph.nodes.len() && graph.keys[j] == graph.keys[i] {
            j += 1;
        }
        if j - i > 1 && (i..j).any(|m| !graph.fact(facts, m).sources.is_empty()) {
            let fact = graph.fact(facts, i);
            let others: Vec<String> = (i + 1..j)
                .map(|m| {
                    let f = graph.fact(facts, m);
                    format!("{}:{}", graph.file(facts, m).path, f.line)
                })
                .collect();
            let d = Diagnostic::source(
                Code("WM0307"),
                Severity::Warning,
                fn_decl_span(graph.file(facts, i), fact),
                format!(
                    "`{}` is defined {} times and a definition reads a \
                     nondeterminism source; taint cannot resolve calls to it",
                    fact.key,
                    j - i
                ),
            )
            .with_note(format!("also defined at {}", others.join(", ")))
            .with_note("rename one definition so call resolution is unambiguous");
            push_finding(facts, graph.nodes[i].0, d, out, used_allows);
        }
        i = j;
    }

    for node in 0..graph.nodes.len() {
        let fact = graph.fact(facts, node);
        let file = graph.file(facts, node);
        let file_idx = graph.nodes[node].0;

        // WM0309: a shadow of the sanctioned sanitizer name.
        if fact.name == "stable_hash" && !SANCTIONED_FNS.contains(&fact.key.as_str()) {
            let d = Diagnostic::source(
                Code("WM0309"),
                Severity::Warning,
                fn_decl_span(file, fact),
                format!(
                    "`{}` shadows the sanctioned sanitizer `webgen::seed::stable_hash`",
                    fact.key
                ),
            )
            .with_note(
                "taint trusts `stable_hash` by name as a deterministic \
                 canonicalizer; a shadow with different semantics would \
                 launder taint it does not remove — rename it",
            );
            push_finding(facts, file_idx, d, out, used_allows);
        }

        // WM0308: unresolved source-like calls inside a serializing fn.
        if SINK_EXEMPT_CRATES.contains(&file.crate_name.as_str()) || fact.sinks.is_empty() {
            continue;
        }
        for (ci, call) in fact.calls.iter().enumerate() {
            if graph.resolved[node][ci].is_some() {
                continue;
            }
            let Some(name) = call.segments.last() else {
                continue;
            };
            let source_like = (call.is_method && SOURCE_LIKE_METHODS.contains(&name.as_str()))
                || SOURCE_LIKE_FNS.contains(&name.as_str());
            if !source_like {
                continue;
            }
            let d = Diagnostic::source(
                Code("WM0308"),
                Severity::Warning,
                call.span.clone(),
                format!(
                    "`{}` writes serialized output and calls `{}`, which looks \
                     like a nondeterminism source but cannot be resolved",
                    fact.key, name
                ),
            )
            .with_note(
                "taint propagation drops unresolvable calls; qualify the path \
                 (or import the fn directly) so the flow can be tracked",
            );
            push_finding(facts, file_idx, d, out, used_allows);
        }
    }
}

/// WM0310: `allow(WM03xx)` comments that suppressed nothing this run.
fn unused_allow_warnings(
    facts: &[FileFacts],
    out: &mut TaintOutcome,
    used_allows: &BTreeSet<(usize, usize, &'static str)>,
) {
    for (fi, file) in facts.iter().enumerate() {
        for (si, supp) in file.suppressions.iter().enumerate() {
            if supp.is_test {
                continue;
            }
            for code in &supp.codes {
                if !code.starts_with("WM03") || code == "WM0310" {
                    continue;
                }
                if used_allows
                    .iter()
                    .any(|(f, s, c)| *f == fi && *s == si && c == code)
                {
                    continue;
                }
                let span = Span {
                    file: file.path.clone(),
                    line: supp.line,
                    col: 1,
                    text: supp.text.clone(),
                    len: supp.text.trim_end().chars().count().max(1),
                };
                let d = Diagnostic::source(
                    Code("WM0310"),
                    Severity::Warning,
                    span,
                    format!("`allow({code})` suppresses nothing — no {code} finding here"),
                )
                .with_note(
                    "stale allows silently swallow the next real flow; remove the \
                     suppression or re-justify it",
                );
                // WM0310 itself honors a covering allow(WM0310), counted
                // as suppressed without feeding back into usage tracking.
                if file.is_suppressed("WM0310", supp.line) {
                    out.suppressed += 1;
                } else {
                    out.findings.push(d);
                }
            }
        }
    }
}

/// Span anchored at a fn's declaration line.
fn fn_decl_span(file: &FileFacts, fact: &crate::graph::FnFact) -> Span {
    Span {
        file: file.path.clone(),
        line: fact.line,
        col: fact.col,
        text: fact.line_text.clone(),
        len: fact.name.chars().count().max(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::SourceFile;

    fn facts(path: &str, crate_name: &str, src: &str) -> FileFacts {
        FileFacts::collect(&SourceFile::parse(path, crate_name, src, false))
    }

    #[test]
    fn sink_classification() {
        let seg = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert_eq!(
            classify_sink(&seg(&["serde_json", "to_string"]), false).as_deref(),
            Some("serde_json::to_string")
        );
        assert_eq!(
            classify_sink(&seg(&["std", "fs", "write"]), false).as_deref(),
            Some("fs::write")
        );
        assert_eq!(
            classify_sink(&seg(&["write_all"]), true).as_deref(),
            Some("write_all")
        );
        assert_eq!(classify_sink(&seg(&["to_string"]), true), None);
        assert_eq!(classify_sink(&seg(&["fs", "read"]), false), None);
    }

    #[test]
    fn multi_hop_flow_is_flagged_with_path() {
        let clock = facts(
            "crates/telemetry/src/clock.rs",
            "telemetry",
            "pub fn stamp() -> u64 { SystemTime::now(); 0 }",
        );
        let mid = facts(
            "crates/core/src/mid.rs",
            "core",
            "pub fn annotate() -> u64 { wmtree_telemetry::clock::stamp() }",
        );
        let sink = facts(
            "crates/core/src/report.rs",
            "core",
            "pub fn write_report(rows: &[u64]) {\n\
             \x20   let tag = crate::mid::annotate();\n\
             \x20   let body = serde_json::to_string(rows);\n\
             \x20   std::fs::write(\"report.json\", body);\n\
             }",
        );
        let out = analyze(&[clock, mid, sink]);
        let flows: Vec<&Diagnostic> = out
            .findings
            .iter()
            .filter(|d| d.code.as_str() == "WM0301")
            .collect();
        assert_eq!(flows.len(), 1, "findings: {:?}", out.findings);
        let d = flows[0];
        assert!(d.message.contains("core::report::write_report"));
        let path_note = d
            .notes
            .iter()
            .find(|n| n.starts_with("tainted call path:"))
            .expect("path note"); // wmtree-lint: allow(WM0105)
        assert_eq!(
            path_note,
            "tainted call path: core::report::write_report -> core::mid::annotate \
             -> telemetry::clock::stamp"
        );
    }

    #[test]
    fn sanitizer_stops_propagation() {
        let hash = facts(
            "crates/core/src/h.rs",
            "core",
            "pub fn collect_keys() -> Vec<u32> {\n\
             \x20   let m: HashMap<u32, u32> = HashMap::new();\n\
             \x20   m.iter().map(|(k, _)| *k).collect()\n\
             }\n\
             pub fn canonical() -> Vec<u32> {\n\
             \x20   let mut v = collect_keys(); v.sort(); v\n\
             }\n\
             pub fn write_it() {\n\
             \x20   let v = canonical();\n\
             \x20   std::fs::write(\"x\", serde_json::to_string(&v));\n\
             }",
        );
        let out = analyze(&[hash]);
        assert!(
            out.findings.iter().all(|d| d.code.as_str() != "WM0302"),
            "sort() in `canonical` must stop hash-order taint: {:?}",
            out.findings
        );
    }

    #[test]
    fn zero_hop_source_in_sink_is_wm0306() {
        let f = facts(
            "crates/core/src/z.rs",
            "core",
            "pub fn dump(rows: &[u64]) {\n\
             \x20   let t = SystemTime::now();\n\
             \x20   std::fs::write(\"x\", serde_json::to_string(rows));\n\
             }",
        );
        let out = analyze(&[f]);
        assert!(
            out.findings.iter().any(|d| d.code.as_str() == "WM0306"),
            "{:?}",
            out.findings
        );
    }

    #[test]
    fn suppression_consumes_and_unused_allow_warns() {
        let suppressed = facts(
            "crates/core/src/s.rs",
            "core",
            "pub fn dump(rows: &[u64]) {\n\
             \x20   // wmtree-lint: allow(WM0306)\n\
             \x20   let t = SystemTime::now();\n\
             \x20   std::fs::write(\"x\", serde_json::to_string(rows));\n\
             }",
        );
        let out = analyze(&[suppressed]);
        assert!(out.findings.iter().all(|d| d.code.as_str() != "WM0306"));
        assert_eq!(out.suppressed, 1);

        let stale = facts(
            "crates/core/src/t.rs",
            "core",
            "// wmtree-lint: allow(WM0301)\npub fn quiet() -> u64 { 7 }",
        );
        let out = analyze(&[stale]);
        assert!(
            out.findings.iter().any(|d| d.code.as_str() == "WM0310"),
            "{:?}",
            out.findings
        );
    }

    #[test]
    fn telemetry_sinks_are_exempt() {
        let f = facts(
            "crates/telemetry/src/snap.rs",
            "telemetry",
            "pub fn snapshot() {\n\
             \x20   let t = Instant::now();\n\
             \x20   std::fs::write(\"progress.json\", serde_json::to_string(&1));\n\
             }",
        );
        let out = analyze(&[f]);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    #[test]
    fn catalog_is_code_sorted_unique_and_complete() {
        let cat = catalog();
        assert_eq!(cat.len(), 10);
        let codes: Vec<&str> = cat.iter().map(|m| m.code.as_str()).collect();
        let mut sorted = codes.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(codes, sorted);
        assert_eq!(codes.first(), Some(&"WM0301"));
        assert_eq!(codes.last(), Some(&"WM0310"));
    }
}
