//! WM0106 — detached `thread::spawn` outside the sanctioned worker pools.

use super::{span_at, Rule, RuleMeta};
use crate::diag::{Code, Diagnostic, Severity};
use crate::lexer::SourceFile;

/// Flags raw `thread::spawn(..)` anywhere in the workspace. All
/// parallelism must go through the scoped worker pools (the crawler's
/// ordered crawl/replay loop, the lint engine's per-file map, the
/// server's joined threads), which join their workers and merge results
/// in a deterministic order. A detached spawn can outlive the stage that
/// started it, race result merging, and silently reorder output —
/// exactly the class of bug the worker-count byte-identity tests exist
/// to catch. Scoped `scope.spawn(..)` is not flagged: `thread::scope`
/// joins at the end of the scope by construction.
pub struct ThreadSpawn;

const META: RuleMeta = RuleMeta {
    code: Code("WM0106"),
    name: "thread-spawn",
    summary: "raw `thread::spawn` outside the sanctioned worker pools",
    rationale: "detached threads outlive their stage and race deterministic \
                result merging; run the work as a per-site stage of the \
                crawler's ordered loop, which joins and merges in input order",
    only: None,
    exempt: &[],
    // Test code must not leak threads either — a detached thread in a
    // test races the process exit and other tests' assertions.
    test_exempt: false,
    severity: Severity::Error,
};

impl Rule for ThreadSpawn {
    fn meta(&self) -> &RuleMeta {
        &META
    }

    fn check(&self, file: &SourceFile) -> Vec<Diagnostic> {
        let toks = &file.tokens;
        let mut out = Vec::new();
        for i in 0..toks.len() {
            if toks[i].is_ident("thread")
                && toks.get(i + 1).is_some_and(|t| t.is_punct("::"))
                && toks.get(i + 2).is_some_and(|t| t.is_ident("spawn"))
            {
                let d = Diagnostic::source(
                    META.code,
                    META.severity,
                    span_at(file, toks, i, i + 2),
                    "detached `thread::spawn` outside a sanctioned worker pool".to_string(),
                )
                .with_note(
                    "spawn through a joining scope instead: a per-site stage of \
                     the crawler's ordered loop (`Commander::crawl`, \
                     `replay_sites`), or `std::thread::scope` with handles \
                     joined before the stage returns",
                );
                out.push(d);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str) -> Vec<Diagnostic> {
        ThreadSpawn.check(&SourceFile::parse("x.rs", "analysis", src, false))
    }

    #[test]
    fn positive_bare_and_pathed_spawn() {
        let src = "fn f() { thread::spawn(|| {}); std::thread::spawn(work); }";
        let hits = lint(src);
        assert_eq!(hits.len(), 2);
        assert!(hits[0].message.contains("thread::spawn"));
    }

    #[test]
    fn negative_scoped_spawn_and_scope() {
        // Scoped spawns join by construction; `thread::scope` itself is fine.
        let src = r#"
            fn f(items: &[u32]) {
                std::thread::scope(|scope| {
                    let h = scope.spawn(|| {});
                    h.join().unwrap();
                });
            }
        "#;
        assert!(lint(src).is_empty());
    }

    #[test]
    fn negative_comments_and_strings() {
        let src = r#"
            // thread::spawn in a comment is fine
            fn f() { let s = "thread::spawn"; }
        "#;
        assert!(lint(src).is_empty());
    }
}
