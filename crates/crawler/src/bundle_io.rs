//! [`CrawlDb`] ⇄ bundle conversions.
//!
//! A finished database can be archived as a complete bundle
//! ([`write_bundle`]) and a bundle — complete or partial — can be
//! rebuilt into a database ([`read_bundle`]), or replayed site by site
//! without one ([`replay_sites`]). Both directions preserve
//! every `(page, profile)` visit exactly: the round-trip is the
//! identity (proven by property tests in `tests/`).

use crate::db::{CrawlDb, PageKey};
use crate::{replay_sites, VisitResult};
use std::path::Path;
use wmtree_bundle::{
    BundleError, BundleMeta, BundleVisit, BundleWriter, Depth, EncodedSite, LoggedVisit, Manifest,
};

/// The recorded visit of `page` by `profile`, if any. A visit navigated
/// but never loaded is refused: a bundle would silently lack it.
fn archived<'d>(
    db: &'d CrawlDb,
    page: &PageKey,
    profile: usize,
) -> Result<Option<&'d VisitResult>, BundleError> {
    if db.unloaded(page, profile) {
        return Err(BundleError::UnloadedVisit {
            site: page.site.clone(),
            url: page.url.clone(),
            profile,
        });
    }
    Ok(db.visit_any(page, profile))
}

/// Encode the visits `db` holds on `pages`, all pages of `site`, in the
/// canonical append order: pages in `(site, url)` order, profiles in
/// index order — the same order [`crate::export::write_jsonl`] uses, so
/// archives are deterministic. Fails on a visit the crawl did not load.
pub(crate) fn encode_site<'a>(
    db: &CrawlDb,
    site: &str,
    pages: impl IntoIterator<Item = &'a PageKey>,
) -> Result<EncodedSite, BundleError> {
    let mut visits = Vec::new();
    for page in pages {
        for profile in 0..db.n_profiles() {
            if let Some(visit) = archived(db, page, profile)? {
                visits.push((page.url.clone(), profile, visit));
            }
        }
    }
    EncodedSite::encode(site, visits)
}

/// Archive a database as a complete bundle at `dir` (one checkpoint per
/// site, sites in lexicographic order), encoding and appending on the
/// calling thread. Fails if `dir` already holds a bundle, and before
/// writing anything if `db` holds a visit the crawl did not load (a
/// database of [`Commander::crawl`](crate::Commander::crawl)).
pub fn write_bundle(db: &CrawlDb, dir: &Path, meta: BundleMeta) -> Result<Manifest, BundleError> {
    let _span = wmtree_telemetry::span("bundle.write_db");
    let pages: Vec<&PageKey> = db.pages().collect();
    for &page in &pages {
        for profile in 0..db.n_profiles() {
            archived(db, page, profile)?;
        }
    }
    let mut writer = BundleWriter::create(dir, meta)?;
    // Pages of one site are contiguous in (site, url) order.
    for site in pages.chunk_by(|a, b| a.site == b.site) {
        writer.append(encode_site(db, &site[0].site, site.iter().copied())?)?;
    }
    writer.finish()
}

/// Rebuild a database from a bundle, verifying every committed record
/// on the way: a replay ([`replay_sites`]) on as many workers as the
/// host has cores, each site's database merged in log order. Works on
/// partial bundles too — they rebuild the checkpointed prefix. Nothing
/// is returned unless the whole bundle verified; the loader refuses a
/// site under two checkpoints and a page one profile visited twice, so
/// the sites' databases never overlap.
pub fn read_bundle(dir: &Path) -> Result<CrawlDb, BundleError> {
    let _span = wmtree_telemetry::span("bundle.read_db");
    let mut db = CrawlDb::new(Manifest::load(dir)?.meta.n_profiles);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let full = |visits: &[LoggedVisit]| vec![Depth::Full; visits.len()];
    replay_sites(
        dir,
        workers,
        full,
        |site| site,
        |site| {
            db.merge(site);
            Ok(())
        },
    )?;
    Ok(db)
}

/// The database of one site's visits, as a stage worker decodes them.
pub(crate) fn site_db(n_profiles: usize, visits: Vec<BundleVisit>) -> CrawlDb {
    let mut db = CrawlDb::new(n_profiles);
    for bv in visits {
        // The loader verified the content address against the payload,
        // so the hash is vouched-for: downstream tree caching keys off
        // it without re-hashing.
        let page = PageKey {
            site: bv.site,
            url: bv.url,
        };
        db.insert_hashed(page, bv.profile, bv.visit, bv.object);
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::standard_profiles;
    use crate::{Commander, CrawlOptions};
    use wmtree_telemetry::ProgressTracker;
    use wmtree_webgen::{UniverseConfig, WebUniverse};

    fn commander(u: &WebUniverse) -> Commander<'_> {
        Commander::new(
            u,
            standard_profiles(),
            CrawlOptions {
                max_pages_per_site: 3,
                workers: 1,
                experiment_seed: 5,
                reliable: false,
                stateful: false,
            },
        )
    }

    fn uni() -> WebUniverse {
        WebUniverse::generate(UniverseConfig {
            seed: 81,
            sites_per_bucket: [2, 1, 1, 1, 1],
            max_subpages: 3,
        })
    }

    fn small_db() -> CrawlDb {
        commander(&uni()).run()
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
    fn a_page_under_two_checkpoints_is_refused() {
        let db = small_db();
        let dir = tmp("twice");
        let mut writer = BundleWriter::create(&dir, meta()).unwrap();
        let pages: Vec<&PageKey> = db.pages().collect();
        let site = &pages[0].site;
        let first: Vec<&PageKey> = pages.iter().copied().filter(|p| &p.site == site).collect();
        for _ in 0..2 {
            writer
                .append(encode_site(&db, site, first.iter().copied()).unwrap())
                .unwrap();
        }
        writer.finish().unwrap();
        let err = read_bundle(&dir).expect_err("a doubly recorded visit must not read back");
        // The site's first record under its second checkpoint is the
        // defect: its first run of records and their checkpoint precede it.
        let records = first
            .iter()
            .flat_map(|&page| (0..db.n_profiles()).filter_map(|p| db.visit_any(page, p)))
            .count();
        assert!(
            matches!(&err, BundleError::Corrupt { segment, line, .. }
                if segment == "visits-000.seg" && *line == records + 2),
            "{err}"
        );
        let page = format!("{site} / {}", first[0].url);
        assert!(err.to_string().contains(&page), "{err}");
    }

    #[test]
    fn a_database_with_an_unloaded_visit_is_refused() {
        // The staged crawl loads no page some profile failed.
        let u = uni();
        let mut db = CrawlDb::new(5);
        let progress = ProgressTracker::new(u.sites().len(), 1);
        commander(&u)
            .crawl(&progress, |site| site, |site| db.try_merge(site))
            .unwrap();
        let (page, profile) = db
            .pages()
            .find_map(|page| (0..5).find(|&p| db.unloaded(page, p)).map(|p| (page, p)))
            .expect("some page is dropped");
        let names_it = |err: &BundleError| {
            matches!(err, BundleError::UnloadedVisit { site, url, profile: p }
                if *site == page.site && *url == page.url && *p == profile)
        };

        let dir = tmp("unloaded");
        let err = write_bundle(&db, &dir, meta()).expect_err("an unloaded visit has no record");
        assert!(names_it(&err), "{err}");
        assert!(err.to_string().contains(&page.url), "{err}");
        assert!(!dir.exists(), "nothing is written");

        let site: Vec<&PageKey> = db.pages().filter(|p| p.site == page.site).collect();
        let err = encode_site(&db, &page.site, site).expect_err("an unloaded visit has no record");
        assert!(names_it(&err), "{err}");
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
