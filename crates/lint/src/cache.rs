//! Incremental lint cache: per-file findings and facts keyed by a
//! `stable_hash` of the file's contents.
//!
//! Layer-1 findings and suppression counts are a pure function of one
//! file's bytes (crate name and test-ness ride along in the key via the
//! relative path), so they cache per file. The layer-3 taint pass is
//! cross-file and is *never* cached — instead its per-file inputs
//! ([`FileFacts`]) are, so a warm run skips lexing and rule dispatch
//! entirely and only re-runs the (cheap, in-memory) graph + fixpoint.
//!
//! The cache lives at `target/wmtree-lint-cache.json` by default. It is
//! an optimization, never a source of truth: a missing, corrupt, or
//! fingerprint-mismatched cache degrades to a cold run, and the file is
//! rewritten atomically (temp + rename) from only the files seen this
//! run, so deleted files age out on the next save.

use crate::diag::{Code, Diagnostic, Location, Severity, Span};
use crate::graph::FileFacts;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// Bumped whenever the cached representation or any rule's semantics
/// change, so stale caches self-invalidate.
const FORMAT_VERSION: u32 = 2;

/// Default cache location relative to the workspace root.
pub const DEFAULT_CACHE_PATH: &str = "target/wmtree-lint-cache.json";

/// Seed for content hashing (ASCII "WMLINT").
const HASH_SEED: u64 = 0x574D_4C49_4E54;

/// Hex content hash of a file's bytes.
pub fn content_hash(bytes: &[u8]) -> String {
    format!("{:016x}", wmtree_webgen::stable_hash(HASH_SEED, bytes))
}

/// Fingerprint of the rule set: format version plus every code of every
/// layer. A rule added, removed, or recoded invalidates the whole cache.
pub fn fingerprint() -> String {
    let mut codes: Vec<&str> = crate::rules::catalog()
        .iter()
        .map(|m| m.code.as_str())
        .collect();
    codes.extend(crate::taint::catalog().iter().map(|m| m.code.as_str()));
    format!("v{FORMAT_VERSION}:{}", codes.join(","))
}

/// Map a code string back to its static [`Code`]. Cached diagnostics
/// with unknown codes (from a future version) are dropped.
fn known_code(s: &str) -> Option<Code> {
    crate::rules::catalog()
        .iter()
        .map(|m| m.code)
        .chain(crate::taint::catalog().iter().map(|m| m.code))
        .find(|c| c.as_str() == s)
}

/// One cached source-lint diagnostic (codes as strings — [`Code`] holds
/// a `&'static str` and cannot be deserialized directly).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CachedDiag {
    /// Rule code (`"WM0101"`).
    pub code: String,
    /// `"error"` or `"warning"`.
    pub severity: String,
    /// The source span.
    pub span: Span,
    /// Primary message.
    pub message: String,
    /// Notes.
    pub notes: Vec<String>,
}

impl CachedDiag {
    /// Capture a diagnostic for the cache. Artifact-located diagnostics
    /// never reach here (layer 1 only emits source spans).
    pub fn capture(d: &Diagnostic) -> Option<CachedDiag> {
        let Location::Source(span) = &d.location else {
            return None;
        };
        Some(CachedDiag {
            code: d.code.as_str().to_string(),
            severity: d.severity.label().to_string(),
            span: span.clone(),
            message: d.message.clone(),
            notes: d.notes.clone(),
        })
    }

    /// Restore the diagnostic. `None` if the code is no longer known.
    pub fn restore(&self) -> Option<Diagnostic> {
        let code = known_code(&self.code)?;
        let severity = if self.severity == "warning" {
            Severity::Warning
        } else {
            Severity::Error
        };
        let mut d = Diagnostic::source(code, severity, self.span.clone(), self.message.clone());
        d.notes = self.notes.clone();
        Some(d)
    }
}

/// Everything cached for one file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheEntry {
    /// Content hash the entry is valid for.
    pub hash: String,
    /// Layer-1 findings (post-suppression, pre-baseline).
    pub diags: Vec<CachedDiag>,
    /// Hits silenced by inline allows.
    pub suppressed: u64,
    /// Layer-3 inputs.
    pub facts: FileFacts,
}

/// On-disk shape.
#[derive(Debug, Serialize, Deserialize)]
struct CacheDoc {
    version: u32,
    fingerprint: String,
    files: BTreeMap<String, CacheEntry>,
}

/// The loaded cache plus the entries accumulated this run.
#[derive(Debug)]
pub struct Cache {
    path: PathBuf,
    fingerprint: String,
    old: BTreeMap<String, CacheEntry>,
    new: BTreeMap<String, CacheEntry>,
}

impl Cache {
    /// Load the cache at `path`, tolerating absence, corruption, and
    /// fingerprint mismatch (all degrade to an empty cache).
    pub fn load(path: &Path) -> Cache {
        let fingerprint = fingerprint();
        let old = std::fs::read_to_string(path)
            .ok()
            .and_then(|text| serde_json::from_str::<CacheDoc>(&text).ok())
            .filter(|doc| doc.version == FORMAT_VERSION && doc.fingerprint == fingerprint)
            .map(|doc| doc.files)
            .unwrap_or_default();
        Cache {
            path: path.to_path_buf(),
            fingerprint,
            old,
            new: BTreeMap::new(),
        }
    }

    /// The entry for `rel` if its content hash still matches.
    pub fn lookup(&self, rel: &str, hash: &str) -> Option<&CacheEntry> {
        self.old.get(rel).filter(|e| e.hash == hash)
    }

    /// Record this run's entry for `rel` (hit or fresh — the saved file
    /// holds exactly the files seen this run).
    pub fn record(&mut self, rel: &str, entry: CacheEntry) {
        self.new.insert(rel.to_string(), entry);
    }

    /// Write the cache atomically. The parent directory is created if
    /// needed.
    pub fn save(&self) -> io::Result<()> {
        if let Some(parent) = self.path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let doc = CacheDoc {
            version: FORMAT_VERSION,
            fingerprint: self.fingerprint.clone(),
            files: self.new.clone(),
        };
        let body = serde_json::to_string(&doc)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        wmtree_bundle::atomic_replace(&self.path, body.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::SourceFile;

    fn entry(src: &str) -> CacheEntry {
        let file = SourceFile::parse("crates/core/src/x.rs", "core", src, false);
        CacheEntry {
            hash: content_hash(src.as_bytes()),
            diags: Vec::new(),
            suppressed: 0,
            facts: FileFacts::collect(&file),
        }
    }

    #[test]
    fn roundtrip_and_invalidation() {
        let dir = std::env::temp_dir().join("wmtree-lint-cache-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");
        let src = "pub fn f() -> u64 { 7 }";

        let mut cache = Cache::load(&path);
        assert!(cache
            .lookup("a.rs", &content_hash(src.as_bytes()))
            .is_none());
        cache.record("a.rs", entry(src));
        cache.save().unwrap();

        let cache = Cache::load(&path);
        let hash = content_hash(src.as_bytes());
        let hit = cache.lookup("a.rs", &hash).expect("warm hit");
        assert_eq!(hit.facts.fns[0].key, "core::x::f");
        // A different content hash misses.
        assert!(cache.lookup("a.rs", &content_hash(b"changed")).is_none());

        // Corruption degrades to empty.
        std::fs::write(&path, "{not json").unwrap();
        let cache = Cache::load(&path);
        assert!(cache.lookup("a.rs", &hash).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cached_diag_roundtrip() {
        let span = Span {
            file: "crates/core/src/x.rs".into(),
            line: 3,
            col: 5,
            text: "let t = Instant::now();".into(),
            len: 12,
        };
        let d = Diagnostic::source(Code("WM0101"), Severity::Error, span, "clock").with_note("n");
        let cached = CachedDiag::capture(&d).unwrap();
        assert_eq!(cached.restore().unwrap(), d);

        let unknown = CachedDiag {
            code: "WM9999".into(),
            ..cached
        };
        assert!(unknown.restore().is_none(), "unknown codes are dropped");
    }

    #[test]
    fn fingerprint_covers_all_layers() {
        let fp = fingerprint();
        assert!(fp.contains("WM0101") && fp.contains("WM0310"));
    }
}
