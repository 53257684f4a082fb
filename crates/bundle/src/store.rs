//! The bundle store: a directory whose subdirectories are bundles.
//!
//! `wmtree-server` keeps every job's archive under one root; the CLI's
//! `--list-bundles` and the server's `GET /bundles` both enumerate that
//! root through [`BundleStore::list`], so the two views can never
//! disagree. Listing is byte-stable: entries come back sorted by
//! subdirectory name, and each carries the bundle's content hash — the
//! stable address everything served from the archive is cached under.

use crate::error::BundleError;
use crate::hash::bundle_content_hash;
use crate::manifest::Manifest;
use serde::Serialize;
use std::path::Path;

/// Summary of one bundle inside a store directory.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct BundleSummary {
    /// Subdirectory name, relative to the store root.
    pub dir: String,
    /// Bundle content hash (hex) — the ETag of everything replayed
    /// from this archive.
    pub hash: String,
    /// Whether the recorded crawl covered every site.
    pub complete: bool,
    /// Committed site checkpoints (= fully crawled sites).
    pub sites: u64,
    /// Committed visit records.
    pub visit_records: u64,
    /// Unique objects in the content-addressed store.
    pub objects: u64,
}

/// Namespace for store-level operations over a directory of bundles.
#[derive(Debug)]
pub struct BundleStore;

impl BundleStore {
    /// Enumerate the bundles directly under `dir`, sorted by
    /// subdirectory name. Subdirectories without a `MANIFEST.json` are
    /// skipped (the store may hold `JOBS.json` and other sidecars); a
    /// bundle that fails to load surfaces its error.
    pub fn list(dir: &Path) -> Result<Vec<BundleSummary>, BundleError> {
        let entries = std::fs::read_dir(dir).map_err(|e| BundleError::io(dir, e))?;
        let mut names: Vec<String> = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| BundleError::io(dir, e))?;
            let path = entry.path();
            if path.is_dir() && Manifest::exists(&path) {
                names.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        names.sort();
        names
            .into_iter()
            .map(|name| {
                let path = dir.join(&name);
                let manifest = Manifest::load(&path)?;
                Ok(BundleSummary {
                    hash: bundle_content_hash(&path)?,
                    complete: manifest.complete,
                    sites: manifest.checkpoints,
                    visit_records: manifest.visit_records,
                    objects: manifest.objects,
                    dir: name,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::tests::{append_site, meta, tmp, visit};
    use crate::writer::BundleWriter;

    #[test]
    fn lists_multi_bundle_directory_sorted_with_counts() {
        let root = tmp("store-multi");
        // Two bundles (one complete, one suspended), written in reverse
        // name order to prove the listing sorts.
        let mut w = BundleWriter::create(&root.join("job-001"), meta()).unwrap();
        let v = visit(1);
        append_site(
            &mut w,
            "b.com",
            vec![("https://www.b.com/".to_string(), 0, &v)],
        );
        w.suspend().unwrap();

        let mut w = BundleWriter::create(&root.join("job-000"), meta()).unwrap();
        append_site(
            &mut w,
            "a.com",
            vec![("https://www.a.com/".to_string(), 0, &v)],
        );
        append_site(
            &mut w,
            "c.com",
            vec![("https://www.c.com/".to_string(), 1, &v)],
        );
        w.finish().unwrap();

        // Noise the listing must skip: a sidecar file and a plain dir.
        std::fs::write(root.join("JOBS.json"), "{}").unwrap();
        std::fs::create_dir_all(root.join("scratch")).unwrap();

        let list = BundleStore::list(&root).unwrap();
        assert_eq!(list.len(), 2);
        assert_eq!(list[0].dir, "job-000");
        assert_eq!(list[1].dir, "job-001");
        assert!(list[0].complete);
        assert!(!list[1].complete);
        assert_eq!(list[0].sites, 2);
        assert_eq!(list[1].sites, 1);
        assert_eq!(list[0].visit_records, 2);
        for b in &list {
            assert_eq!(
                b.hash,
                crate::hash::bundle_content_hash(&root.join(&b.dir)).unwrap()
            );
        }
    }

    #[test]
    fn empty_store_lists_nothing() {
        let root = tmp("store-empty");
        std::fs::create_dir_all(&root).unwrap();
        assert_eq!(BundleStore::list(&root).unwrap(), Vec::new());
    }

    #[test]
    fn missing_store_is_an_io_error() {
        let root = tmp("store-gone").join("nope");
        assert!(matches!(
            BundleStore::list(&root),
            Err(BundleError::Io { .. })
        ));
    }
}
