//! Raw-data release: JSONL export/import of a crawl database.
//!
//! The paper releases its raw measurement data (Appendix A); this module
//! is the equivalent facility. Each line is one `(page, profile, visit)`
//! record, so the file streams, greps, and diffs like the flat exports
//! measurement pipelines exchange — and a database round-trips exactly.

use crate::db::{CrawlDb, PageKey};
use serde::{Deserialize, Serialize};
use std::io::{BufRead, Write};
use wmtree_browser::VisitResult;

/// One JSONL line: a single profile's visit of a single page.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VisitRecordLine {
    /// Site (eTLD+1).
    pub site: String,
    /// Page URL.
    pub url: String,
    /// Profile index (Table 1 order).
    pub profile: usize,
    /// The visit.
    pub visit: VisitResult,
}

/// Errors from export/import. Line numbers are one-based, matching what
/// editors and `grep -n` display.
#[derive(Debug)]
pub enum ExportError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A line failed to parse.
    Parse {
        /// One-based line number.
        line: usize,
        /// Underlying JSON error.
        source: serde_json::Error,
    },
    /// A record references a profile index out of range.
    ProfileOutOfRange {
        /// One-based line number.
        line: usize,
        /// The offending profile index.
        profile: usize,
    },
    /// Two records claim the same `(page, profile)` slot — a hand-edited
    /// or concatenated export; importing would silently drop one.
    Duplicate {
        /// One-based line number of the second occurrence.
        line: usize,
        /// Site of the doubly-recorded page.
        site: String,
        /// URL of the doubly-recorded page.
        url: String,
        /// The doubly-recorded profile index.
        profile: usize,
    },
    /// A profile navigated a page the crawl did not load, so the visit
    /// has no record to write: the database came from a crawl that loads
    /// only the pages vetting keeps.
    Unloaded {
        /// Site of the page.
        site: String,
        /// URL of the page.
        url: String,
        /// The profile index.
        profile: usize,
    },
}

impl std::fmt::Display for ExportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExportError::Io(e) => write!(f, "i/o error: {e}"),
            ExportError::Parse { line, source } => write!(f, "line {line}: {source}"),
            ExportError::ProfileOutOfRange { line, profile } => {
                write!(f, "line {line}: profile index {profile} out of range")
            }
            ExportError::Duplicate {
                line,
                site,
                url,
                profile,
            } => write!(
                f,
                "line {line}: duplicate record for profile {profile} on {site} / {url}"
            ),
            ExportError::Unloaded { site, url, profile } => write!(
                f,
                "profile {profile} navigated {site} / {url} but the crawl did not load it: \
                 no record to export"
            ),
        }
    }
}

impl std::error::Error for ExportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExportError::Io(e) => Some(e),
            ExportError::Parse { source, .. } => Some(source),
            ExportError::ProfileOutOfRange { .. }
            | ExportError::Duplicate { .. }
            | ExportError::Unloaded { .. } => None,
        }
    }
}

impl From<std::io::Error> for ExportError {
    fn from(e: std::io::Error) -> Self {
        ExportError::Io(e)
    }
}

/// Write every recorded visit as JSONL. Records appear in deterministic
/// `(page, profile)` order. A database holding a visit the crawl
/// navigated but did not load is refused before anything is written.
pub fn write_jsonl<W: Write>(db: &CrawlDb, mut out: W) -> Result<usize, ExportError> {
    let pages: Vec<PageKey> = db.pages().cloned().collect();
    for page in &pages {
        if let Some(profile) = (0..db.n_profiles()).find(|&p| db.unloaded(page, p)) {
            return Err(ExportError::Unloaded {
                site: page.site.clone(),
                url: page.url.clone(),
                profile,
            });
        }
    }
    let mut written = 0usize;
    // Iterate pages in order; include failed visits too (a raw-data
    // release documents failures).
    for page in pages {
        for profile in 0..db.n_profiles() {
            if let Some(visit) = db.visit_any(&page, profile) {
                let line = VisitRecordLine {
                    site: page.site.clone(),
                    url: page.url.clone(),
                    profile,
                    visit: visit.clone(),
                };
                serde_json::to_writer(&mut out, &line).map_err(|source| ExportError::Parse {
                    line: written + 1,
                    source,
                })?;
                out.write_all(b"\n")?;
                written += 1;
            }
        }
    }
    Ok(written)
}

/// Read a JSONL export back into a database with `n_profiles` profiles.
///
/// Input order does not matter: records land in the database's
/// canonical `(page, profile)` order, so export → import → export is
/// byte-identical even for hand-edited (reordered) files. Two records
/// claiming the same `(page, profile)` slot are rejected rather than
/// silently last-writer-wins.
pub fn read_jsonl<R: BufRead>(input: R, n_profiles: usize) -> Result<CrawlDb, ExportError> {
    let mut db = CrawlDb::new(n_profiles);
    for (i, line) in input.lines().enumerate() {
        let lineno = i + 1;
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let record: VisitRecordLine =
            serde_json::from_str(&line).map_err(|source| ExportError::Parse {
                line: lineno,
                source,
            })?;
        if record.profile >= n_profiles {
            return Err(ExportError::ProfileOutOfRange {
                line: lineno,
                profile: record.profile,
            });
        }
        let key = PageKey {
            site: record.site,
            url: record.url,
        };
        if db.visit_any(&key, record.profile).is_some() {
            return Err(ExportError::Duplicate {
                line: lineno,
                site: key.site,
                url: key.url,
                profile: record.profile,
            });
        }
        db.insert(key, record.profile, record.visit);
    }
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::standard_profiles;
    use crate::{Commander, CrawlOptions};
    use wmtree_webgen::{UniverseConfig, WebUniverse};

    fn options() -> CrawlOptions {
        CrawlOptions {
            max_pages_per_site: 3,
            workers: 1,
            experiment_seed: 5,
            reliable: false,
            stateful: false,
        }
    }

    fn small_db() -> CrawlDb {
        let u = WebUniverse::generate(UniverseConfig {
            seed: 81,
            sites_per_bucket: [2, 1, 1, 1, 1],
            max_subpages: 3,
        });
        Commander::new(&u, standard_profiles(), options()).run()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let db = small_db();
        let mut buf = Vec::new();
        let written = write_jsonl(&db, &mut buf).unwrap();
        assert!(written > 10);
        let back = read_jsonl(std::io::Cursor::new(&buf), db.n_profiles()).unwrap();
        assert_eq!(back.page_count(), db.page_count());
        assert_eq!(back.total_successful_visits(), db.total_successful_visits());
        // Vetted sets identical.
        let a: Vec<_> = db
            .vetted_pages()
            .into_iter()
            .map(|(p, _)| p.clone())
            .collect();
        let b: Vec<_> = back
            .vetted_pages()
            .into_iter()
            .map(|(p, _)| p.clone())
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn unloaded_visits_are_refused_before_anything_is_written() {
        let u = WebUniverse::generate(UniverseConfig {
            seed: 81,
            sites_per_bucket: [2, 1, 1, 1, 1],
            max_subpages: 3,
        });
        let mut db = CrawlDb::new(5);
        let progress = wmtree_telemetry::ProgressTracker::new(u.sites().len(), 1);
        Commander::new(&u, standard_profiles(), options())
            .crawl(&progress, |site| site, |site| db.try_merge(site))
            .unwrap();
        let mut buf = Vec::new();
        let err = write_jsonl(&db, &mut buf).expect_err("a navigated-only visit has no record");
        assert!(matches!(err, ExportError::Unloaded { .. }), "{err}");
        assert!(buf.is_empty());
    }

    #[test]
    fn failed_visits_are_exported_too() {
        let db = small_db();
        let mut buf = Vec::new();
        write_jsonl(&db, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.lines().any(|l| l.contains("\"success\":false")));
    }

    #[test]
    fn bad_profile_index_rejected() {
        let db = small_db();
        let mut buf = Vec::new();
        write_jsonl(&db, &mut buf).unwrap();
        let err = read_jsonl(std::io::Cursor::new(&buf), 2).unwrap_err();
        assert!(matches!(err, ExportError::ProfileOutOfRange { .. }));
    }

    #[test]
    fn garbage_line_reported_with_one_based_number() {
        let input = "not json\n";
        let err = read_jsonl(std::io::Cursor::new(input), 5).unwrap_err();
        match err {
            ExportError::Parse { line, .. } => assert_eq!(line, 1),
            other => panic!("unexpected {other}"),
        }
        // A later line reports its own (one-based) position.
        let db = small_db();
        let mut buf = Vec::new();
        write_jsonl(&db, &mut buf).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        text.push_str("not json\n");
        let n_lines = text.lines().count();
        let err = read_jsonl(std::io::Cursor::new(text.as_bytes()), db.n_profiles()).unwrap_err();
        match err {
            ExportError::Parse { line, .. } => assert_eq!(line, n_lines),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn parse_error_exposes_source_chain() {
        let err = read_jsonl(std::io::Cursor::new("not json\n"), 5).unwrap_err();
        let source = std::error::Error::source(&err);
        assert!(source.is_some(), "Parse must expose its JSON cause");
        assert!(!source.unwrap().to_string().is_empty());
    }

    #[test]
    fn shuffled_import_reexports_byte_identically() {
        // A hand-edited (reordered) export must import into the same
        // canonical database: export → shuffle → import → export is
        // byte-identical to the original export.
        let db = small_db();
        let mut buf = Vec::new();
        write_jsonl(&db, &mut buf).unwrap();
        let canonical = String::from_utf8(buf).unwrap();
        let mut lines: Vec<&str> = canonical.lines().collect();
        lines.reverse();
        let shuffled = format!("{}\n", lines.join("\n"));
        let back = read_jsonl(std::io::Cursor::new(shuffled.as_bytes()), db.n_profiles()).unwrap();
        let mut again = Vec::new();
        write_jsonl(&back, &mut again).unwrap();
        assert_eq!(String::from_utf8(again).unwrap(), canonical);
    }

    #[test]
    fn duplicate_record_rejected_with_location() {
        let db = small_db();
        let mut buf = Vec::new();
        write_jsonl(&db, &mut buf).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        let first = text.lines().next().unwrap().to_string();
        let n_lines = text.lines().count();
        text.push_str(&first);
        text.push('\n');
        let err = read_jsonl(std::io::Cursor::new(text.as_bytes()), db.n_profiles()).unwrap_err();
        match err {
            ExportError::Duplicate { line, profile, .. } => {
                assert_eq!(line, n_lines + 1);
                assert_eq!(profile, 0);
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn empty_lines_skipped() {
        let db = small_db();
        let mut buf = Vec::new();
        write_jsonl(&db, &mut buf).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        text.push('\n');
        text.push('\n');
        let back = read_jsonl(std::io::Cursor::new(text.as_bytes()), db.n_profiles()).unwrap();
        assert_eq!(back.page_count(), db.page_count());
    }
}
