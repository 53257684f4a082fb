//! WM0102 — iteration over `HashMap`/`HashSet` in result-producing
//! crates.
//!
//! `std`'s hash containers iterate in a randomized order (SipHash keyed
//! per-process), so any loop over one that feeds serialized output
//! makes two identical runs produce different bytes. The rule is a
//! three-step heuristic over the token stream:
//!
//! 1. **Track hash bindings.** Every `let` binding (or struct field)
//!    whose declared or constructed type mentions `HashMap`/`HashSet`
//!    is recorded by name; `BTreeMap`/`BTreeSet` bindings are recorded
//!    separately as *ordered* names.
//! 2. **Find iteration sites.** A site is `name.iter()`, `.keys()`,
//!    `.values()`, `.values_mut()`, `.iter_mut()`, `.into_iter()`,
//!    `.drain()` on a tracked hash name, or a `for .. in` header whose
//!    iterated expression contains one.
//! 3. **Look for an order sink.** The site is fine if its statement (for
//!    method chains) or loop body plus the three following lines (for
//!    `for` loops) restores or never needed an order: a `sort*` call, a
//!    collect into / insert into a `BTree*` container, or an
//!    order-insensitive reduction (`sum`, `count`, `len`, `min`, `max`,
//!    `all`, `any`, or a `+=` accumulation).
//!
//! The heuristic under-approximates (a hash map received as a function
//! parameter is not tracked) and over-approximates (a sink anywhere in
//! the window counts); both are deliberate — the rule exists to keep
//! hash iteration *out of result crates entirely*, and the escape hatch
//! is an inline `allow` with a written justification.

use super::{span_at, Rule, RuleMeta, RESULT_CRATES};
use crate::diag::{Code, Diagnostic, Severity};
use crate::lexer::{SourceFile, Token, TokenKind};

/// The WM0102 rule value.
pub struct HashIter;

const META: RuleMeta = RuleMeta {
    code: Code("WM0102"),
    name: "hash-iteration",
    summary: "iterating a `HashMap`/`HashSet` in a result-producing crate",
    rationale: "hash iteration order is randomized per process; anything it \
                feeds into CSV/JSON output breaks byte-identity across runs",
    only: Some(RESULT_CRATES),
    exempt: &[],
    test_exempt: true,
    severity: Severity::Error,
};

/// Iterator-producing methods on hash containers.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "drain",
];

/// Order-insensitive reductions: consuming an unordered iterator with
/// these cannot leak the order into the result.
const REDUCTIONS: &[&str] = &[
    "sum",
    "count",
    "len",
    "min",
    "max",
    "min_by",
    "max_by",
    "min_by_key",
    "max_by_key",
    "all",
    "any",
    "product",
];

impl Rule for HashIter {
    fn meta(&self) -> &RuleMeta {
        &META
    }

    fn check(&self, file: &SourceFile) -> Vec<Diagnostic> {
        let toks = &file.tokens;
        let (hash_names, ordered_names) = collect_bindings(toks);
        if hash_names.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::new();

        for i in 0..toks.len() {
            // Method-call site: name . iter_method (
            if toks[i].kind == TokenKind::Ident
                && hash_names.contains(&toks[i].text)
                && toks.get(i + 1).is_some_and(|t| t.is_punct("."))
                && toks
                    .get(i + 2)
                    .is_some_and(|t| ITER_METHODS.iter().any(|m| t.is_ident(m)))
                && toks.get(i + 3).is_some_and(|t| t.is_punct("("))
            {
                // Skip if this is itself inside a `for` header — the
                // `for` handler below owns that case (its sink window is
                // the loop body, not the statement).
                if in_for_header(toks, i) {
                    continue;
                }
                // The sink window is the whole statement — including
                // what's *before* the site, so an annotated
                // `let ordered: BTreeMap<_, _> = m.iter()...` counts.
                let start = statement_start(toks, i);
                let end = statement_end(toks, i);
                if !window_has_sink(&toks[start..end], &ordered_names) {
                    out.push(finding(file, toks, i, i + 2));
                }
            }
            // `for` site: for .. in <expr contains hash name> { body }
            if toks[i].is_ident("for") {
                let Some(in_idx) = find_forward(toks, i, 24, "in") else {
                    continue;
                };
                let Some(body_open) = toks[in_idx..]
                    .iter()
                    .position(|t| t.is_punct("{"))
                    .map(|p| p + in_idx)
                else {
                    continue;
                };
                let header = &toks[in_idx + 1..body_open];
                let Some(name_off) = header
                    .iter()
                    .position(|t| t.kind == TokenKind::Ident && hash_names.contains(&t.text))
                else {
                    continue;
                };
                let name_idx = in_idx + 1 + name_off;
                let body_close = match_brace(toks, body_open);
                // Sink window: loop body plus three lines after it (a
                // `rows.sort()` right after the loop is the idiom).
                let after_line = toks.get(body_close).map(|t| t.line + 3).unwrap_or(0);
                let mut end = body_close;
                while end < toks.len() && toks[end].line <= after_line {
                    end += 1;
                }
                if !window_has_sink(&toks[body_open..end], &ordered_names) {
                    out.push(finding(file, toks, name_idx, name_idx));
                }
            }
        }
        out
    }
}

fn finding(file: &SourceFile, toks: &[Token], idx: usize, end_idx: usize) -> Diagnostic {
    Diagnostic::source(
        META.code,
        META.severity,
        span_at(file, toks, idx, end_idx),
        format!(
            "iteration over hash container `{}` in a result-producing crate",
            toks[idx].text
        ),
    )
    .with_note(
        "hash order is randomized per process; collect into a `BTreeMap`/`BTreeSet`, \
         sort before use, or reduce order-insensitively",
    )
}

/// Record names bound to hash containers and to ordered containers.
fn collect_bindings(toks: &[Token]) -> (Vec<String>, Vec<String>) {
    let mut hash = Vec::new();
    let mut ordered = Vec::new();
    for i in 0..toks.len() {
        let is_hash = toks[i].is_ident("HashMap") || toks[i].is_ident("HashSet");
        let is_ordered = toks[i].is_ident("BTreeMap")
            || toks[i].is_ident("BTreeSet")
            || toks[i].is_ident("BinaryHeap");
        if !is_hash && !is_ordered {
            continue;
        }
        if let Some(name) = binding_name(toks, i) {
            if is_hash && !hash.contains(&name) {
                hash.push(name);
            } else if is_ordered && !ordered.contains(&name) {
                ordered.push(name);
            }
        }
    }
    (hash, ordered)
}

/// Walk back from a container-type token to the name it is bound to:
/// `let [mut] NAME [: Type] = ...Container...;` or a struct field
/// `NAME : Container<...>`. Returns `None` for unbound uses (casts,
/// function signatures).
fn binding_name(toks: &[Token], type_idx: usize) -> Option<String> {
    // Struct-field / annotated-let form: NAME : [std :: collections ::] Container
    let mut j = type_idx;
    while j >= 2
        && (toks[j - 1].is_punct("::")
            || toks[j - 1].is_ident("std")
            || toks[j - 1].is_ident("collections"))
    {
        j -= 1;
    }
    if j >= 2 && toks[j - 1].is_punct(":") && toks[j - 2].kind == TokenKind::Ident {
        return Some(toks[j - 2].text.clone());
    }
    // Initializer form: let [mut] NAME = ... Container ... (same statement).
    let mut k = type_idx;
    let mut steps = 0;
    while k > 0 && steps < 40 {
        k -= 1;
        steps += 1;
        let t = &toks[k];
        if t.is_punct(";") || t.is_punct("{") || t.is_punct("}") {
            return None;
        }
        if t.is_ident("let") {
            let mut n = k + 1;
            if toks.get(n).is_some_and(|t| t.is_ident("mut")) {
                n += 1;
            }
            return toks
                .get(n)
                .filter(|t| t.kind == TokenKind::Ident)
                .map(|t| t.text.clone());
        }
    }
    None
}

/// Is the token at `idx` part of a `for .. in ..` header (between `in`
/// and the loop's opening brace)?
fn in_for_header(toks: &[Token], idx: usize) -> bool {
    let mut k = idx;
    let mut steps = 0;
    while k > 0 && steps < 24 {
        k -= 1;
        steps += 1;
        let t = &toks[k];
        if t.is_punct("{") || t.is_punct("}") || t.is_punct(";") {
            return false;
        }
        if t.is_ident("in") {
            // Confirm a `for` precedes the `in`.
            let mut m = k;
            let mut s2 = 0;
            while m > 0 && s2 < 24 {
                m -= 1;
                s2 += 1;
                if toks[m].is_ident("for") {
                    return true;
                }
                if toks[m].is_punct("{") || toks[m].is_punct(";") {
                    return false;
                }
            }
            return false;
        }
    }
    false
}

/// First index > `from` (within `limit` tokens) whose ident is `what`.
fn find_forward(toks: &[Token], from: usize, limit: usize, what: &str) -> Option<usize> {
    toks.iter()
        .enumerate()
        .skip(from + 1)
        .take(limit)
        .find(|(_, t)| t.is_ident(what))
        .map(|(i, _)| i)
}

/// Index of the first token of the statement containing `idx`: just
/// past the previous `;`, `{`, or `}`.
fn statement_start(toks: &[Token], idx: usize) -> usize {
    let mut k = idx;
    while k > 0 {
        let t = &toks[k - 1];
        if t.is_punct(";") || t.is_punct("{") || t.is_punct("}") {
            return k;
        }
        k -= 1;
    }
    0
}

/// Index just past the statement containing `idx`: the first `;` at
/// brace depth 0 relative to the start, or the enclosing block's end.
fn statement_end(toks: &[Token], idx: usize) -> usize {
    let mut depth = 0i32;
    for (off, t) in toks[idx..].iter().enumerate() {
        if t.is_punct("{") || t.is_punct("(") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            depth -= 1;
        } else if t.is_punct("}") {
            depth -= 1;
            if depth < 0 {
                return idx + off;
            }
        } else if t.is_punct(";") && depth <= 0 {
            return idx + off;
        }
    }
    toks.len()
}

/// Index of the `}` matching the `{` at `open`.
fn match_brace(toks: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    for (off, t) in toks[open..].iter().enumerate() {
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth -= 1;
            if depth == 0 {
                return open + off;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Does the window contain an order sink?
fn window_has_sink(window: &[Token], ordered_names: &[String]) -> bool {
    for (i, t) in window.iter().enumerate() {
        if t.kind == TokenKind::Ident {
            if t.text.starts_with("sort") || t.text == "sorted" {
                return true;
            }
            if t.text == "BTreeMap" || t.text == "BTreeSet" || t.text == "BinaryHeap" {
                return true;
            }
            if REDUCTIONS.contains(&t.text.as_str()) {
                return true;
            }
            if ordered_names.contains(&t.text) {
                return true;
            }
        }
        // `+=` accumulation: `+` immediately followed by `=`.
        if t.is_punct("+")
            && window
                .get(i + 1)
                .is_some_and(|n| n.is_punct("=") && n.line == t.line && n.col == t.col + 1)
        {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str) -> Vec<Diagnostic> {
        HashIter.check(&SourceFile::parse("x.rs", "analysis", src, false))
    }

    #[test]
    fn positive_for_loop_feeding_output() {
        let src = r#"
            fn f() {
                let mut counts: HashMap<String, usize> = HashMap::new();
                for (k, v) in counts.iter() {
                    writeln!(out, "{k},{v}");
                }
            }
        "#;
        let hits = lint(src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].message.contains("counts"));
    }

    #[test]
    fn positive_chain_collected_into_vec() {
        let src = r#"
            fn f() -> Vec<String> {
                let set: HashSet<String> = HashSet::new();
                set.iter().cloned().collect()
            }
        "#;
        assert_eq!(lint(src).len(), 1);
    }

    #[test]
    fn negative_sorted_after_loop() {
        let src = r#"
            fn f() {
                let mut counts: HashMap<String, usize> = HashMap::new();
                let mut rows = Vec::new();
                for (k, v) in counts.iter() {
                    rows.push((k.clone(), *v));
                }
                rows.sort();
            }
        "#;
        assert!(lint(src).is_empty());
    }

    #[test]
    fn negative_collect_into_btreemap() {
        let src = r#"
            fn f() {
                let counts: HashMap<String, usize> = HashMap::new();
                let ordered: BTreeMap<_, _> = counts.iter().collect();
            }
        "#;
        assert!(lint(src).is_empty());
    }

    #[test]
    fn negative_order_insensitive_reduction() {
        let src = r#"
            fn f() -> usize {
                let set = HashSet::new();
                set.iter().count()
            }
        "#;
        assert!(lint(src).is_empty());
    }

    #[test]
    fn negative_lookup_only_use() {
        let src = r#"
            fn f() {
                let ids: HashMap<String, usize> = HashMap::new();
                let id = ids.get("k").copied();
                ids.len();
            }
        "#;
        assert!(lint(src).is_empty());
    }

    #[test]
    fn negative_btree_iteration_is_fine() {
        let src = r#"
            fn f() {
                let m: BTreeMap<String, usize> = BTreeMap::new();
                for (k, v) in m.iter() {
                    writeln!(out, "{k},{v}");
                }
            }
        "#;
        assert!(lint(src).is_empty());
    }

    #[test]
    fn positive_for_over_reference() {
        let src = r#"
            fn f() {
                let seen = HashSet::new();
                for k in &seen {
                    out.push(k.clone());
                }
            }
        "#;
        assert_eq!(lint(src).len(), 1);
    }

    #[test]
    fn negative_accumulation_in_loop() {
        let src = r#"
            fn f() -> usize {
                let m: HashMap<String, usize> = HashMap::new();
                let mut total = 0;
                for v in m.values() {
                    total += v;
                }
                total
            }
        "#;
        assert!(lint(src).is_empty());
    }
}
