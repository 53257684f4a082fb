//! [`CrawlDb`] ⇄ bundle conversions.
//!
//! A finished database can be archived as a complete bundle
//! ([`write_bundle`]) and a bundle — complete or partial — can be
//! rebuilt into a database ([`read_bundle`]). Both directions preserve
//! every `(page, profile)` visit exactly: the round-trip is the
//! identity (proven by property tests in `tests/`).

use crate::db::{CrawlDb, PageKey};
use std::path::Path;
use wmtree_browser::VisitResult;
use wmtree_bundle::{read_visits, BundleError, BundleMeta, BundleWriter, Manifest};

/// The canonical append order of a database's visits: pages in
/// `(site, url)` order, profiles in index order — the same order
/// [`crate::export::write_jsonl`] uses, so archives are deterministic.
pub(crate) fn ordered_visits(db: &CrawlDb) -> Vec<(String, usize, &VisitResult)> {
    let mut out = Vec::new();
    for page in db.pages() {
        for profile in 0..db.n_profiles() {
            if let Some(visit) = db.visit_any(page, profile) {
                out.push((page.url.clone(), profile, visit));
            }
        }
    }
    out
}

/// Archive a database as a complete bundle at `dir` (one checkpoint per
/// site, sites in lexicographic order). Fails if `dir` already holds a
/// bundle.
pub fn write_bundle(db: &CrawlDb, dir: &Path, meta: BundleMeta) -> Result<Manifest, BundleError> {
    let _span = wmtree_telemetry::span("bundle.write_db");
    let mut writer = BundleWriter::create(dir, meta)?;
    let pages: Vec<PageKey> = db.pages().cloned().collect();
    let mut i = 0;
    while i < pages.len() {
        // Pages of one site are contiguous in (site, url) order.
        let site = pages[i].site.clone();
        let mut j = i;
        while j < pages.len() && pages[j].site == site {
            j += 1;
        }
        let mut visits = Vec::new();
        for page in &pages[i..j] {
            for profile in 0..db.n_profiles() {
                if let Some(visit) = db.visit_any(page, profile) {
                    visits.push((page.url.clone(), profile, visit));
                }
            }
        }
        writer.append_site(&site, visits)?;
        i = j;
    }
    writer.finish()
}

/// Rebuild a database from a bundle through the loader resume shares,
/// verifying every committed record on the way. Works on partial
/// bundles too — they rebuild the checkpointed prefix.
pub fn read_bundle(dir: &Path) -> Result<CrawlDb, BundleError> {
    let _span = wmtree_telemetry::span("bundle.read_db");
    let manifest = Manifest::load(dir)?;
    let mut db = CrawlDb::new(manifest.meta.n_profiles);
    read_visits(dir, &manifest, |bv| {
        // The loader verified the content address against the payload,
        // so the hash is vouched-for: downstream tree caching keys off
        // it without re-hashing.
        db.insert_hashed(
            PageKey {
                site: bv.site,
                url: bv.url,
            },
            bv.profile,
            bv.visit,
            bv.object,
        );
    })?;
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::standard_profiles;
    use crate::{Commander, CrawlOptions};
    use wmtree_webgen::{UniverseConfig, WebUniverse};

    fn small_db() -> CrawlDb {
        let u = WebUniverse::generate(UniverseConfig {
            seed: 81,
            sites_per_bucket: [2, 1, 1, 1, 1],
            max_subpages: 3,
        });
        Commander::new(
            &u,
            standard_profiles(),
            CrawlOptions {
                max_pages_per_site: 3,
                workers: 1,
                experiment_seed: 5,
                reliable: false,
                stateful: false,
            },
        )
        .run()
    }

    fn meta() -> BundleMeta {
        BundleMeta {
            n_profiles: 5,
            profiles: standard_profiles().iter().map(|p| p.name.clone()).collect(),
            experiment_seed: 5,
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("wmtree-crawler-bundle-io-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn db_roundtrips_through_bundle() {
        let db = small_db();
        let dir = tmp("roundtrip");
        let manifest = write_bundle(&db, &dir, meta()).unwrap();
        assert!(manifest.complete);
        assert!(manifest.dedup_hits > 0, "failure records should dedup");
        let back = read_bundle(&dir).unwrap();
        let a = serde_json::to_string(&db).unwrap();
        let b = serde_json::to_string(&back).unwrap();
        assert_eq!(a, b, "bundle round-trip must be the identity");
    }

    /// Rewrite the lines of a bundle's last object segment, leaving the
    /// manifest describing the original bytes.
    fn tamper_last_object_segment(dir: &Path, edit: impl FnOnce(&mut Vec<String>)) -> String {
        let manifest = Manifest::load(dir).unwrap();
        let name = manifest.object_segments.last().unwrap().name.clone();
        let text = std::fs::read_to_string(dir.join(&name)).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        edit(&mut lines);
        std::fs::write(dir.join(&name), lines.join("\n") + "\n").unwrap();
        name
    }

    #[test]
    fn tampered_last_object_segment_is_rejected() {
        let db = small_db();
        let swapped = tmp("swapped");
        write_bundle(&db, &swapped, meta()).unwrap();
        let name = tamper_last_object_segment(&swapped, |lines| lines.swap(0, 1));
        let err = read_bundle(&swapped).expect_err("swapped lines must not read back");
        assert!(err.to_string().contains(&name), "{err}");

        let recased = tmp("recased");
        write_bundle(&db, &recased, meta()).unwrap();
        let name = tamper_last_object_segment(&recased, |lines| {
            let line = lines
                .iter_mut()
                .find(|l| l[..16].contains(char::is_alphabetic))
                .unwrap();
            let at = line[..16].find(char::is_alphabetic).unwrap();
            let upper = line[at..at + 1].to_uppercase();
            line.replace_range(at..at + 1, &upper);
        });
        let err = read_bundle(&recased).expect_err("a re-cased checksum must not read back");
        assert!(err.to_string().contains(&name), "{err}");
    }

    #[test]
    fn bundle_matches_jsonl_record_count() {
        let db = small_db();
        let dir = tmp("counts");
        let manifest = write_bundle(&db, &dir, meta()).unwrap();
        let mut buf = Vec::new();
        let jsonl_records = crate::export::write_jsonl(&db, &mut buf).unwrap();
        assert_eq!(manifest.visit_records as usize, jsonl_records);
    }
}
