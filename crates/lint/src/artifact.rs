//! Layer 2 — artifact checks (`WM02xx`).
//!
//! The same diagnostics core as the source lints, applied to *built*
//! artifacts: dependency trees, crawl databases, and experiment
//! configurations. The source lints forbid the code shapes that break
//! determinism; these checks prove the data shapes the pipeline emits
//! actually hold the invariants the analysis assumes.

use crate::diag::{Code, Diagnostic, Severity};
use wmtree::ExperimentConfig;
use wmtree_browser::BrowserConfig;
use wmtree_crawler::CrawlDb;
use wmtree_tree::DepTree;
use wmtree_webgen::UniverseConfig;

/// The paper's profile count (Table 1) and subpage cap (§3.1).
const PAPER_PROFILES: usize = 5;
const PAPER_SUBPAGE_CAP: usize = 25;

/// Catalog entry for an artifact check (drives `wmtree-lint rules` and
/// the DESIGN.md table).
pub const ARTIFACT_CHECKS: &[(&str, &str, &str)] = &[
    (
        "WM0201",
        "deptree-root",
        "a DepTree has exactly one root: node 0, no parent, depth 0",
    ),
    (
        "WM0202",
        "deptree-structure",
        "parents precede children (acyclic), depth(child)=depth(parent)+1, parent lists child",
    ),
    (
        "WM0203",
        "deptree-keys",
        "node keys are unique normalized URLs and the key index is consistent",
    ),
    (
        "WM0211",
        "crawldb-slots",
        "every page row has exactly n_profiles visit slots",
    ),
    (
        "WM0212",
        "crawldb-paper-profiles",
        "the database was built for the paper's five profiles (warning)",
    ),
    (
        "WM0213",
        "crawldb-referential",
        "site -> page -> visit integrity: page URL parses, belongs to its site, visits point back",
    ),
    (
        "WM0221",
        "config-probabilities",
        "every configured probability lies in [0, 1]",
    ),
    (
        "WM0222",
        "config-subpage-cap",
        "subpage caps do not exceed the paper's 25 pages per site",
    ),
    (
        "WM0231",
        "bundle-integrity",
        "record checksums, segment chains, and counts agree with the bundle manifest",
    ),
    (
        "WM0232",
        "bundle-references",
        "every visit record resolves: stored object, profile index in range",
    ),
    (
        "WM0233",
        "bundle-orphans",
        "no object is stored without a referencing visit record",
    ),
    (
        "WM0234",
        "bundle-incomplete",
        "the bundle records a finished crawl, not a resumable partial one (warning)",
    ),
    (
        "WM0235",
        "shards-coverage",
        "SHARDS.json rank ranges are disjoint, in order, and cover the whole universe",
    ),
    (
        "WM0236",
        "shards-dense-ids",
        "shard ids are dense (0..n, in rank order)",
    ),
    (
        "WM0237",
        "shards-bundle-hashes",
        "every recorded shard bundle content hash matches the archive on disk",
    ),
    (
        "WM0238",
        "shards-merged-sites",
        "the merged report's site count equals the sum of per-shard vetted site counts",
    ),
    (
        "WM0241",
        "jobs-dense-ids",
        "JOBS.json job ids are dense (0..n, in submission order) with unique bundle dirs",
    ),
    (
        "WM0242",
        "jobs-state-coherence",
        "job fields match the state: done => bundle hash, failed => error, queued => untouched",
    ),
    (
        "WM0243",
        "jobs-bundle-hashes",
        "every done job's bundle exists on disk and matches its recorded content hash",
    ),
    (
        "WM0244",
        "treecache-integrity",
        "cache segment checksums, chains, and record counts agree with CACHE.json",
    ),
    (
        "WM0245",
        "treecache-records",
        "every site record decodes: a well-formed key and the trees it declares",
    ),
    (
        "WM0246",
        "treecache-dense",
        "cache records are dense: no duplicate site keys",
    ),
];

/// Check a [`DepTree`]. `origin` names the artifact in diagnostics
/// (e.g. a file path or `"deptree"`).
pub fn check_dep_tree(tree: &DepTree, origin: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let nodes = tree.nodes();
    if nodes.is_empty() {
        out.push(Diagnostic::artifact(
            Code("WM0201"),
            Severity::Error,
            format!("{origin}:node[0]"),
            "tree has no nodes; even a failed visit has its page root",
        ));
        return out;
    }
    for (id, node) in nodes.iter().enumerate() {
        let at = format!("{origin}:node[{id}]");
        match node.parent {
            None => {
                if id != 0 {
                    out.push(Diagnostic::artifact(
                        Code("WM0201"),
                        Severity::Error,
                        at.clone(),
                        format!(
                            "node {id} (`{}`) has no parent but is not the root",
                            node.key
                        ),
                    ));
                }
                if node.depth != 0 {
                    out.push(Diagnostic::artifact(
                        Code("WM0202"),
                        Severity::Error,
                        at.clone(),
                        format!("root depth must be 0, found {}", node.depth),
                    ));
                }
            }
            Some(p) => {
                if p >= id {
                    // Arena order is the acyclicity proof: a parent
                    // introduced after its child could close a cycle.
                    out.push(Diagnostic::artifact(
                        Code("WM0202"),
                        Severity::Error,
                        at.clone(),
                        format!("parent {p} does not precede node {id} in the arena"),
                    ));
                    continue;
                }
                let parent = &nodes[p];
                if parent.depth + 1 != node.depth {
                    out.push(
                        Diagnostic::artifact(
                            Code("WM0202"),
                            Severity::Error,
                            at.clone(),
                            format!(
                                "depth({}) = {} but depth(parent {}) = {}",
                                id, node.depth, p, parent.depth
                            ),
                        )
                        .with_note("every edge must deepen by exactly one level"),
                    );
                }
                if !parent.children.contains(&id) {
                    out.push(Diagnostic::artifact(
                        Code("WM0202"),
                        Severity::Error,
                        at.clone(),
                        format!("parent {p} does not list {id} among its children"),
                    ));
                }
            }
        }
        // Key-index consistency doubles as uniqueness: duplicate keys
        // cannot both map back to their own id.
        if tree.find(&node.key) != Some(id) {
            out.push(
                Diagnostic::artifact(
                    Code("WM0203"),
                    Severity::Error,
                    at,
                    format!("key `{}` does not resolve back to node {id}", node.key),
                )
                .with_note("node keys must be unique normalized URLs (§3.2)"),
            );
        }
    }
    out
}

/// Check a [`CrawlDb`].
pub fn check_crawl_db(db: &CrawlDb, origin: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if db.n_profiles() != PAPER_PROFILES {
        out.push(
            Diagnostic::artifact(
                Code("WM0212"),
                Severity::Warning,
                format!("{origin}:n_profiles"),
                format!(
                    "database built for {} profiles; the paper's setup (Table 1) uses {}",
                    db.n_profiles(),
                    PAPER_PROFILES
                ),
            )
            .with_note("fine for ablations; the headline reproduction needs all five"),
        );
    }
    for page in db.pages() {
        let at = format!("{origin}:{}/{}", page.site, page.url);
        match db.profile_slot_count(page) {
            Some(n) if n == db.n_profiles() => {}
            Some(n) => out.push(Diagnostic::artifact(
                Code("WM0211"),
                Severity::Error,
                at.clone(),
                format!("page has {n} visit slots, expected {}", db.n_profiles()),
            )),
            None => unreachable!("pages() yields only recorded pages"),
        }
        // Referential integrity: the page URL must parse, belong to its
        // site, and every recorded visit must point back at the page.
        match wmtree_url::Url::parse(&page.url) {
            Err(e) => out.push(Diagnostic::artifact(
                Code("WM0213"),
                Severity::Error,
                at.clone(),
                format!("page URL does not parse: {e:?}"),
            )),
            Ok(url) => {
                if url.site() != page.site {
                    out.push(
                        Diagnostic::artifact(
                            Code("WM0213"),
                            Severity::Error,
                            at.clone(),
                            format!(
                                "page URL belongs to site `{}`, recorded under `{}`",
                                url.site(),
                                page.site
                            ),
                        )
                        .with_note("the site key must be the page URL's registrable domain"),
                    );
                }
                for profile in 0..db.n_profiles() {
                    if let Some(v) = db.visit_any(page, profile) {
                        if v.page_url.normalize_for_comparison() != url.normalize_for_comparison() {
                            out.push(Diagnostic::artifact(
                                Code("WM0213"),
                                Severity::Error,
                                format!("{at}:profile[{profile}]"),
                                format!(
                                    "visit records page URL `{}`, row is keyed `{}`",
                                    v.page_url.as_str(),
                                    page.url
                                ),
                            ));
                        }
                    }
                }
            }
        }
    }
    out
}

/// Check a bundle directory (`WM023x`): runs the bundle loader every
/// replay runs, to the end (`wmtree_bundle::verify_bundle`), and maps
/// every defect it finds to a diagnostic, so it fails exactly the
/// bundles a replay refuses. `Err` means the directory could not be
/// scanned at all (no manifest, unreadable files).
pub fn check_bundle(dir: &std::path::Path, origin: &str) -> Result<Vec<Diagnostic>, String> {
    let report = wmtree_bundle::verify_bundle(dir).map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    for issue in &report.issues {
        match issue {
            wmtree_bundle::VerifyIssue::Segment(defect) => out.push(segment_diagnostic(
                Code("WM0231"),
                origin,
                defect,
                "resuming the crawl",
            )),
            wmtree_bundle::VerifyIssue::DanglingObject {
                segment,
                line,
                object,
            } => out.push(
                Diagnostic::artifact(
                    Code("WM0232"),
                    Severity::Error,
                    format!("{origin}:{segment}:{line}"),
                    format!("visit record references object {object}, which the store never recorded"),
                )
                .with_note("content-addressed objects must be appended before their first reference"),
            ),
            wmtree_bundle::VerifyIssue::ProfileOutOfRange {
                segment,
                line,
                profile,
                ..
            } => out.push(Diagnostic::artifact(
                Code("WM0232"),
                Severity::Error,
                format!("{origin}:{segment}:{line}"),
                format!("profile index {profile} out of range for the bundle's profile roster"),
            )),
            wmtree_bundle::VerifyIssue::OrphanObject { object } => out.push(
                Diagnostic::artifact(
                    Code("WM0233"),
                    Severity::Error,
                    format!("{origin}:objects"),
                    format!("object {object} is stored but never referenced"),
                )
                .with_note("the writer only stores payloads on first reference; an orphan means tampering or a writer bug, and every replay refuses it"),
            ),
            wmtree_bundle::VerifyIssue::Incomplete => out.push(
                Diagnostic::artifact(
                    Code("WM0234"),
                    Severity::Warning,
                    format!("{origin}:MANIFEST.json"),
                    "bundle is a resumable partial crawl (complete = false)",
                )
                .with_note("resume the crawl or expect analyses over a site prefix"),
            ),
        }
    }
    let cache_dir = dir.join(wmtree_tree::cache::CACHE_DIR_NAME);
    if cache_dir.is_dir() {
        out.extend(check_tree_cache(
            &cache_dir,
            &format!("{origin}:{}", wmtree_tree::cache::CACHE_DIR_NAME),
        )?);
    }
    Ok(out)
}

/// A segment-log defect as a diagnostic under `code`: bundles (WM0231)
/// and tree caches (WM0244) share the framing, so they share this
/// mapping. `recovery` names what truncates crash leftovers.
fn segment_diagnostic(
    code: Code,
    origin: &str,
    defect: &wmtree_bundle::SegmentDefect,
    recovery: &str,
) -> Diagnostic {
    match defect {
        wmtree_bundle::SegmentDefect::Corrupt {
            segment,
            line,
            offset,
            detail,
        } => Diagnostic::artifact(
            code,
            Severity::Error,
            format!("{origin}:{segment}:{line}"),
            detail.clone(),
        )
        .with_note(format!("record starts at byte offset {offset}")),
        wmtree_bundle::SegmentDefect::ManifestMismatch { segment, detail } => Diagnostic::artifact(
            code,
            Severity::Error,
            format!("{origin}:{segment}"),
            format!("manifest disagreement: {detail}"),
        ),
        wmtree_bundle::SegmentDefect::TrailingBytes { segment, bytes } => Diagnostic::artifact(
            code,
            Severity::Warning,
            format!("{origin}:{segment}"),
            format!("{bytes} uncommitted byte(s) past the committed region"),
        )
        .with_note(format!("crash leftovers; {recovery} truncates them")),
    }
}

/// Check a tree cache directory (`WM0244`–`WM0246`), as written next
/// to a bundle by the incremental replay path (`TREECACHE/`). Maps
/// [`wmtree_tree::verify_cache`]'s read-only scan to diagnostics:
/// framing/chain/manifest defects (WM0244, uncommitted crash leftovers
/// are warnings), site records that do not decode (WM0245), and
/// duplicate site keys (WM0246). `Err` means the directory could not be
/// scanned at all.
pub fn check_tree_cache(dir: &std::path::Path, origin: &str) -> Result<Vec<Diagnostic>, String> {
    let report = wmtree_tree::verify_cache(dir)?;
    let mut out = Vec::new();
    for issue in &report.issues {
        match issue {
            wmtree_tree::CacheVerifyIssue::Segment(defect) => {
                let diag =
                    segment_diagnostic(Code("WM0244"), origin, defect, "the next cache open");
                out.push(if diag.severity == Severity::Error {
                    diag.with_note("a corrupt cache is discarded and rebuilt on the next open")
                } else {
                    diag
                });
            }
            wmtree_tree::CacheVerifyIssue::BadRecord {
                segment,
                line,
                detail,
            } => out.push(
                Diagnostic::artifact(
                    Code("WM0245"),
                    Severity::Error,
                    format!("{origin}:{segment}:{line}"),
                    detail.clone(),
                )
                .with_note("site records must decode to a key and valid trees"),
            ),
            wmtree_tree::CacheVerifyIssue::Duplicate {
                segment,
                line,
                detail,
            } => out.push(
                Diagnostic::artifact(
                    Code("WM0246"),
                    Severity::Error,
                    format!("{origin}:{segment}:{line}"),
                    detail.clone(),
                )
                .with_note("committed cache records must be dense: one distinct entry per line"),
            ),
        }
    }
    Ok(out)
}

/// Check a shard-plan directory (`WM0235`–`WM0238`): a `SHARDS.json`
/// manifest plus per-shard bundle directories. Verifies the partition
/// (disjoint, ordered rank ranges covering the universe; dense ids),
/// every recorded bundle content hash against the archive on disk,
/// and — when the directory holds a merged `report.json` — that the
/// merged report's vetted-site count equals the sum of the shards'.
/// `Err` means the directory could not be scanned at all (no plan,
/// unreadable files).
pub fn check_shard_dir(dir: &std::path::Path, origin: &str) -> Result<Vec<Diagnostic>, String> {
    let plan = wmtree_shard::ShardPlan::load(dir).map_err(|e| e.to_string())?;
    let at_plan = format!("{origin}:{}", wmtree_shard::SHARDS_FILE);
    let mut out = Vec::new();

    // WM0235 / WM0236 — the windows partition the universe, ids dense.
    for defect in plan.partition_defects() {
        let code = match defect.kind {
            wmtree_shard::DefectKind::Coverage => "WM0235",
            wmtree_shard::DefectKind::Ids => "WM0236",
        };
        let at = match defect.shard {
            Some(i) => format!("{at_plan}:shard[{i}]"),
            None => at_plan.clone(),
        };
        out.push(Diagnostic::artifact(
            Code(code),
            Severity::Error,
            at,
            defect.detail,
        ));
    }

    // WM0237 — recorded bundle hashes verify against the archives.
    let mut shard_vetted_sites: Option<usize> = Some(0);
    for spec in &plan.shards {
        let at = format!("{at_plan}:shard[{}]", spec.id);
        let bundle_dir = dir.join(&spec.dir);
        let Some(recorded) = spec.bundle_hash.as_deref() else {
            out.push(
                Diagnostic::artifact(
                    Code("WM0237"),
                    Severity::Warning,
                    at,
                    format!("shard {} has no recorded bundle hash", spec.id),
                )
                .with_note("not yet crawled to completion; the plan cannot be merged"),
            );
            shard_vetted_sites = None;
            continue;
        };
        match wmtree_bundle::bundle_content_hash(&bundle_dir) {
            Ok(actual) if actual == recorded => match vetted_sites(&bundle_dir) {
                Ok(sites) => {
                    if let Some(total) = shard_vetted_sites.as_mut() {
                        *total += sites;
                    }
                }
                Err(e) => {
                    out.push(Diagnostic::artifact(
                        Code("WM0237"),
                        Severity::Error,
                        format!("{origin}:{}", spec.dir),
                        format!("shard bundle does not replay: {e}"),
                    ));
                    shard_vetted_sites = None;
                }
            },
            Ok(actual) => {
                out.push(
                    Diagnostic::artifact(
                        Code("WM0237"),
                        Severity::Error,
                        format!("{origin}:{}", spec.dir),
                        format!("bundle content hash {actual} does not match recorded {recorded}"),
                    )
                    .with_note("the archive changed after its hash was recorded in SHARDS.json"),
                );
                shard_vetted_sites = None;
            }
            Err(e) => {
                out.push(Diagnostic::artifact(
                    Code("WM0237"),
                    Severity::Error,
                    format!("{origin}:{}", spec.dir),
                    format!("cannot hash shard bundle: {e}"),
                ));
                shard_vetted_sites = None;
            }
        }
        // Per-shard tree/site cache, written by the streaming merge.
        let cache_dir = bundle_dir.join(wmtree_tree::cache::CACHE_DIR_NAME);
        if cache_dir.is_dir() {
            out.extend(check_tree_cache(
                &cache_dir,
                &format!(
                    "{origin}:{}/{}",
                    spec.dir,
                    wmtree_tree::cache::CACHE_DIR_NAME
                ),
            )?);
        }
    }

    // WM0238 — merged report (if exported into the plan directory)
    // agrees with the sum of per-shard vetted site counts. Shards
    // partition the site space, so the per-shard counts are disjoint.
    let report_path = dir.join("report.json");
    if report_path.is_file() {
        let at = format!("{origin}:report.json");
        match std::fs::read_to_string(&report_path) {
            Ok(text) => match serde_json::from_str::<wmtree::report::Report>(&text) {
                Ok(report) => {
                    if let Some(total) = shard_vetted_sites {
                        if report.crawl.vetted_sites != total {
                            out.push(Diagnostic::artifact(
                                Code("WM0238"),
                                Severity::Error,
                                at,
                                format!(
                                    "merged report counts {} vetted sites, shards sum to {total}",
                                    report.crawl.vetted_sites
                                ),
                            ));
                        }
                    }
                }
                Err(e) => out.push(Diagnostic::artifact(
                    Code("WM0238"),
                    Severity::Error,
                    at,
                    format!("merged report does not parse: {e}"),
                )),
            },
            Err(e) => out.push(Diagnostic::artifact(
                Code("WM0238"),
                Severity::Error,
                at,
                format!("cannot read merged report: {e}"),
            )),
        }
    }

    Ok(out)
}

/// Sites of the bundle at `dir` that survive vetting, counted site by
/// site by a replay ([`wmtree_crawler::replay_sites`]) on as many
/// workers as the host has cores. Vetting reads only each visit's
/// success flag, so objects decode header-only; every committed byte is
/// still verified.
fn vetted_sites(dir: &std::path::Path) -> Result<usize, wmtree_bundle::BundleError> {
    let plan = |visits: &[_]| vec![wmtree_bundle::Depth::Header; visits.len()];
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut vetted = 0;
    wmtree_crawler::replay_sites(
        dir,
        workers,
        plan,
        |site| site.vetted_sites().len(),
        |site_vetted| {
            vetted += site_vetted;
            Ok(())
        },
    )?;
    Ok(vetted)
}

/// Check a job-store root (`WM0241`–`WM0243`): a `JOBS.json` queue
/// plus per-job bundle directories, as written by `wmtree-server`.
/// The file is parsed read-only — unlike `JobStore::open`, which
/// rewrites it for crash recovery, a lint must never mutate the
/// artifact it checks. `Err` means the store could not be scanned at
/// all (no queue file, unreadable, wrong version).
pub fn check_jobs_dir(dir: &std::path::Path, origin: &str) -> Result<Vec<Diagnostic>, String> {
    use wmtree_server::{JobState, JobsFile, JOBS_FILE, JOBS_VERSION};

    let path = dir.join(JOBS_FILE);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let file: JobsFile = serde_json::from_str(&text)
        .map_err(|e| format!("{} does not parse: {e}", path.display()))?;
    if file.version != JOBS_VERSION {
        return Err(format!(
            "{} has version {}, this build reads {JOBS_VERSION}",
            path.display(),
            file.version
        ));
    }
    let at_file = format!("{origin}:{JOBS_FILE}");
    let mut out = Vec::new();

    // WM0241 — what `JobStore::open` refuses: ids dense in submission
    // order, bundle dirs unique.
    for (i, detail) in file.defects() {
        out.push(
            Diagnostic::artifact(
                Code("WM0241"),
                Severity::Error,
                format!("{at_file}:job[{i}]"),
                detail,
            )
            .with_note("the server refuses to open this job store"),
        );
    }

    // WM0242 — field/state coherence.
    for job in &file.jobs {
        let at = format!("{at_file}:job[{}]", job.id);
        let state = job.state.label();
        match job.state {
            JobState::Done => {
                if job.bundle_hash.is_none() {
                    out.push(
                        Diagnostic::artifact(
                            Code("WM0242"),
                            Severity::Error,
                            at.clone(),
                            "done job has no recorded bundle hash",
                        )
                        .with_note("the hash is the ETag of everything served from the job"),
                    );
                }
                if job.sites_done != job.sites_total {
                    out.push(Diagnostic::artifact(
                        Code("WM0242"),
                        Severity::Error,
                        at.clone(),
                        format!(
                            "done job stopped at {}/{} sites",
                            job.sites_done, job.sites_total
                        ),
                    ));
                }
            }
            JobState::Failed => {
                if job.error.is_none() {
                    out.push(Diagnostic::artifact(
                        Code("WM0242"),
                        Severity::Error,
                        at.clone(),
                        "failed job records no error message",
                    ));
                }
            }
            JobState::Queued => {
                if job.bundle_hash.is_some() || job.sites_done != 0 {
                    out.push(Diagnostic::artifact(
                        Code("WM0242"),
                        Severity::Error,
                        at.clone(),
                        "queued job already records progress or a bundle hash",
                    ));
                }
            }
            JobState::Running | JobState::Interrupted => {}
        }
        if job.bundle_hash.is_some() && job.state != JobState::Done {
            out.push(Diagnostic::artifact(
                Code("WM0242"),
                Severity::Error,
                at.clone(),
                format!("{state} job records a bundle hash; only done jobs may"),
            ));
        }
        if job.sites_total > 0 && job.sites_done > job.sites_total {
            out.push(Diagnostic::artifact(
                Code("WM0242"),
                Severity::Error,
                at,
                format!(
                    "sites_done {} exceeds sites_total {}",
                    job.sites_done, job.sites_total
                ),
            ));
        }
    }

    // WM0243 — done jobs' bundles exist and verify against the hash.
    for job in &file.jobs {
        if job.state != JobState::Done {
            continue;
        }
        let Some(recorded) = job.bundle_hash.as_deref() else {
            continue; // already a WM0242
        };
        let at = format!("{origin}:{}", job.dir);
        let bundle_dir = dir.join(&job.dir);
        match wmtree_bundle::bundle_content_hash(&bundle_dir) {
            Ok(actual) if actual == recorded => {}
            Ok(actual) => out.push(
                Diagnostic::artifact(
                    Code("WM0243"),
                    Severity::Error,
                    at,
                    format!("bundle content hash {actual} does not match recorded {recorded}"),
                )
                .with_note("the archive changed after the job completed; replays would serve it under a stale ETag"),
            ),
            Err(e) => out.push(Diagnostic::artifact(
                Code("WM0243"),
                Severity::Error,
                at,
                format!("done job's bundle cannot be hashed: {e}"),
            )),
        }
        // Per-job tree/site cache, written by the cached replay path.
        let cache_dir = bundle_dir.join(wmtree_tree::cache::CACHE_DIR_NAME);
        if cache_dir.is_dir() {
            out.extend(check_tree_cache(
                &cache_dir,
                &format!(
                    "{origin}:{}/{}",
                    job.dir,
                    wmtree_tree::cache::CACHE_DIR_NAME
                ),
            )?);
        }
    }

    Ok(out)
}

/// Check one probability field.
fn check_prob(out: &mut Vec<Diagnostic>, origin: &str, name: &str, value: f64) {
    if !(0.0..=1.0).contains(&value) || value.is_nan() {
        out.push(Diagnostic::artifact(
            Code("WM0221"),
            Severity::Error,
            format!("{origin}:{name}"),
            format!("probability `{name}` = {value} is outside [0, 1]"),
        ));
    }
}

/// Check a [`BrowserConfig`].
pub fn check_browser_config(cfg: &BrowserConfig, origin: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    check_prob(
        &mut out,
        origin,
        "visit_failure_rate",
        cfg.visit_failure_rate,
    );
    check_prob(
        &mut out,
        origin,
        "network.failure_rate",
        cfg.network.failure_rate,
    );
    check_prob(
        &mut out,
        origin,
        "network.stall_rate",
        cfg.network.stall_rate,
    );
    out
}

/// Check a [`UniverseConfig`].
pub fn check_universe_config(cfg: &UniverseConfig, origin: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if cfg.max_subpages > PAPER_SUBPAGE_CAP {
        out.push(
            Diagnostic::artifact(
                Code("WM0222"),
                Severity::Error,
                format!("{origin}:max_subpages"),
                format!(
                    "max_subpages = {} exceeds the paper's cap of {PAPER_SUBPAGE_CAP} (§3.1)",
                    cfg.max_subpages
                ),
            )
            .with_note("the paper crawls at most 25 pages per site"),
        );
    }
    if cfg.sites_per_bucket.iter().all(|&n| n == 0) {
        out.push(Diagnostic::artifact(
            Code("WM0222"),
            Severity::Error,
            format!("{origin}:sites_per_bucket"),
            "universe has zero sites in every rank bucket",
        ));
    }
    out
}

/// Check a full [`ExperimentConfig`] (universe, profiles, caps).
pub fn check_experiment_config(cfg: &ExperimentConfig, origin: &str) -> Vec<Diagnostic> {
    let mut out = check_universe_config(&cfg.universe, origin);
    if cfg.max_pages_per_site == 0 || cfg.max_pages_per_site > PAPER_SUBPAGE_CAP {
        out.push(Diagnostic::artifact(
            Code("WM0222"),
            Severity::Error,
            format!("{origin}:max_pages_per_site"),
            format!(
                "max_pages_per_site = {} must be in 1..={PAPER_SUBPAGE_CAP}",
                cfg.max_pages_per_site
            ),
        ));
    }
    if cfg.profiles.len() != PAPER_PROFILES {
        out.push(Diagnostic::artifact(
            Code("WM0212"),
            Severity::Warning,
            format!("{origin}:profiles"),
            format!(
                "{} profiles configured; the paper's setup (Table 1) uses {PAPER_PROFILES}",
                cfg.profiles.len()
            ),
        ));
    }
    for (i, profile) in cfg.profiles.iter().enumerate() {
        let browser = if cfg.reliable {
            profile.reliable_browser_config()
        } else {
            profile.browser_config()
        };
        out.extend(check_browser_config(
            &browser,
            &format!("{origin}:profiles[{i}]({})", profile.name),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmtree::Scale;
    use wmtree_net::ResourceType;
    use wmtree_url::Party;

    fn good_tree() -> DepTree {
        let mut t = DepTree::new_rooted("https://www.a.com/".into());
        let s = t.attach(
            0,
            "https://cdn.a.com/app.js".into(),
            ResourceType::Script,
            Party::First,
            false,
        );
        t.attach(
            s,
            "https://ads.b.net/px.gif".into(),
            ResourceType::Image,
            Party::Third,
            true,
        );
        t
    }

    #[test]
    fn valid_tree_is_clean() {
        assert!(check_dep_tree(&good_tree(), "t").is_empty());
    }

    #[test]
    fn valid_db_is_clean() {
        let mut db = CrawlDb::new(5);
        let page = wmtree_crawler::PageKey {
            site: "a.com".into(),
            url: "https://www.a.com/page/1".into(),
        };
        let mut v = wmtree_browser::VisitResult::failed(
            wmtree_url::Url::parse("https://www.a.com/page/1").expect("test url"),
        );
        v.success = true;
        db.insert(page, 0, v);
        assert!(check_crawl_db(&db, "db").is_empty());
    }

    #[test]
    fn referential_violations_found() {
        let mut db = CrawlDb::new(2);
        // Page keyed under the wrong site.
        let page = wmtree_crawler::PageKey {
            site: "other.org".into(),
            url: "https://www.a.com/page/1".into(),
        };
        // ...and its visit points at a different page.
        let v = wmtree_browser::VisitResult::failed(
            wmtree_url::Url::parse("https://www.a.com/page/2").expect("test url"),
        );
        db.insert(page, 0, v);
        let diags = check_crawl_db(&db, "db");
        let codes: Vec<&str> = diags.iter().map(|d| d.code.as_str()).collect();
        assert!(codes.contains(&"WM0212"), "2-profile db warns: {codes:?}");
        assert!(codes.contains(&"WM0213"), "site mismatch: {codes:?}");
        assert_eq!(
            codes.iter().filter(|c| **c == "WM0213").count(),
            2,
            "{diags:?}"
        );
    }

    #[test]
    fn default_experiment_config_is_clean() {
        let cfg = ExperimentConfig::at_scale(Scale::Tiny);
        assert!(check_experiment_config(&cfg, "cfg").is_empty());
    }

    #[test]
    fn config_violations_found() {
        let mut cfg = ExperimentConfig::at_scale(Scale::Tiny);
        cfg.max_pages_per_site = 40;
        cfg.universe.max_subpages = 99;
        cfg.profiles.pop();
        let diags = check_experiment_config(&cfg, "cfg");
        let codes: Vec<&str> = diags.iter().map(|d| d.code.as_str()).collect();
        assert!(codes.contains(&"WM0222"));
        assert!(codes.contains(&"WM0212"));
        assert_eq!(codes.iter().filter(|c| **c == "WM0222").count(), 2);
    }

    #[test]
    fn bad_probability_found() {
        let b = BrowserConfig {
            visit_failure_rate: 1.5,
            ..BrowserConfig::default()
        };
        let diags = check_browser_config(&b, "b");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code.as_str(), "WM0221");
        assert!(diags[0].message.contains("visit_failure_rate"));
    }

    fn small_bundle(name: &str, finish: bool) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("wmtree-lint-bundle-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        let meta = wmtree_bundle::BundleMeta {
            n_profiles: 2,
            profiles: vec!["A".into(), "B".into()],
            experiment_seed: 7,
        };
        let mut w = wmtree_bundle::BundleWriter::create(&dir, meta).expect("create bundle");
        let mut v = wmtree_browser::VisitResult::failed(
            wmtree_url::Url::parse("https://www.a.com/").expect("test url"),
        );
        v.duration_ms = 1;
        let site = wmtree_bundle::EncodedSite::encode(
            "a.com",
            vec![
                ("https://www.a.com/".to_string(), 0, &v),
                ("https://www.a.com/".to_string(), 1, &v),
            ],
        )
        .expect("encode site");
        w.append(site).expect("append site");
        if finish {
            w.finish().expect("finish bundle");
        } else {
            w.suspend().expect("suspend bundle");
        }
        dir
    }

    #[test]
    fn clean_bundle_passes() {
        let dir = small_bundle("clean", true);
        assert!(check_bundle(&dir, "b").expect("scan").is_empty());
    }

    #[test]
    fn partial_bundle_warns_incomplete() {
        let dir = small_bundle("partial", false);
        let diags = check_bundle(&dir, "b").expect("scan");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code.as_str(), "WM0234");
        assert_eq!(diags[0].severity, Severity::Warning);
    }

    #[test]
    fn stray_segment_warns_wm0231() {
        let dir = small_bundle("stray", true);
        std::fs::write(dir.join("objects-001.seg"), b"junk").expect("write stray");
        let diags = check_bundle(&dir, "b").expect("scan");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code.as_str(), "WM0231");
        assert_eq!(diags[0].severity, Severity::Warning);
        assert!(diags[0].location.display().contains("objects-001.seg"));
    }

    #[test]
    fn orphan_object_is_a_wm0233_error() {
        // A well-framed object no visit references, pinned in the
        // manifest: only the end-of-log orphan check can refuse it, and
        // every replay does.
        let dir = small_bundle("orphan", true);
        let mut manifest = wmtree_bundle::Manifest::load(&dir).expect("load manifest");
        let orphan = wmtree_browser::VisitResult::failed(
            wmtree_url::Url::parse("https://orphan.example/").expect("test url"),
        );
        let payload = wmtree_bundle::object::encode(&orphan).expect("encode the orphan");
        let line = format!(
            "{} {payload}",
            wmtree_bundle::hash::to_hex(wmtree_bundle::hash::line_checksum(payload.as_bytes()))
        );
        let meta = manifest
            .object_segments
            .last_mut()
            .expect("an object segment");
        let seg = dir.join(&meta.name);
        let mut bytes = std::fs::read(&seg).expect("read object segment");
        bytes.extend_from_slice(format!("{line}\n").as_bytes());
        std::fs::write(&seg, bytes).expect("write object segment");
        let chain = wmtree_bundle::hash::from_hex(&meta.chain).expect("hex chain");
        meta.chain =
            wmtree_bundle::hash::to_hex(wmtree_bundle::hash::chain_fold(chain, line.as_bytes()));
        meta.records += 1;
        manifest.objects += 1;
        manifest.store(&dir).expect("store manifest");
        let diags = check_bundle(&dir, "b").expect("scan");
        assert!(
            matches!(diags.as_slice(), [d] if d.code.as_str() == "WM0233" && d.severity == Severity::Error),
            "{diags:?}"
        );
    }

    #[test]
    fn corrupt_bundle_reports_wm0231_with_location() {
        let dir = small_bundle("corrupt", true);
        let seg = dir.join("visits-000.seg");
        let mut bytes = std::fs::read(&seg).expect("read segment");
        bytes[30] ^= 1;
        std::fs::write(&seg, &bytes).expect("write segment");
        let diags = check_bundle(&dir, "b").expect("scan");
        assert!(
            diags.iter().any(|d| d.code.as_str() == "WM0231"
                && d.location.display().contains("visits-000.seg:1")),
            "{diags:?}"
        );
    }

    #[test]
    fn tree_cache_defects_report_wm0244_to_wm0246() {
        // A bundle with a committed cache next to it: clean scan first.
        let dir = small_bundle("treecache", true);
        let cache_dir = dir.join(wmtree_tree::cache::CACHE_DIR_NAME);
        let cache = wmtree_tree::TreeCache::open(&cache_dir, 5);
        let mut tree = wmtree_tree::DepTree::new_rooted("https://www.a.com/".into());
        tree.attach(
            0,
            "https://cdn.a.com/app.js".into(),
            wmtree_net::ResourceType::Script,
            wmtree_url::Party::Third,
            false,
        );
        cache.insert_site(3, &[tree]);
        cache.insert_site(9, &[]);
        cache.commit().expect("commit cache");
        assert!(check_bundle(&dir, "b").expect("scan").is_empty());

        // A flipped byte inside the committed cache region: WM0244,
        // naming the cache segment, through the bundle entry point.
        let seg = cache_dir.join("sites-000.seg");
        let committed = std::fs::read(&seg).expect("read cache segment");
        let mut bytes = committed.clone();
        bytes[20] ^= 1;
        std::fs::write(&seg, &bytes).expect("write cache segment");
        let diags = check_bundle(&dir, "b").expect("scan");
        assert!(
            diags
                .iter()
                .any(|d| d.code.as_str() == "WM0244" && d.location.display().contains("TREECACHE")),
            "{diags:?}"
        );
        std::fs::write(&seg, &committed).expect("restore cache segment");

        // Append `payload` as a record that verifies at the framing
        // layer: correct line checksum and a re-pinned manifest.
        let manifest_path = cache_dir.join(wmtree_tree::cache::CACHE_MANIFEST_FILE);
        let append = |payload: &str| {
            let mut manifest: wmtree_tree::cache::CacheManifest = serde_json::from_str(
                &std::fs::read_to_string(&manifest_path).expect("read cache manifest"),
            )
            .expect("parse cache manifest");
            let mut w = wmtree_bundle::segment::LogWriter::resume(
                &cache_dir,
                wmtree_tree::cache::SITES_PREFIX,
                wmtree_bundle::DEFAULT_SEGMENT_CAPACITY,
                manifest.sites,
            );
            w.append(payload).expect("append forged record");
            w.flush().expect("flush forged record");
            manifest.sites = w.metas().to_vec();
            let body = serde_json::to_string(&manifest).expect("serialize manifest");
            std::fs::write(&manifest_path, format!("{body}\n")).expect("write cache manifest");
        };

        // A duplicate site key: WM0246, and the cache's own open
        // discards the cache rather than serve either record.
        let manifest = std::fs::read(&manifest_path).expect("read cache manifest");
        let first = String::from_utf8(committed.clone()).expect("utf8 segment");
        append(&first.lines().next().expect("one record")[17..]);
        let diags = check_tree_cache(&cache_dir, "c").expect("scan");
        assert!(
            diags.iter().any(|d| d.code.as_str() == "WM0246"),
            "{diags:?}"
        );
        let discards = || {
            let snapshot = wmtree::telemetry::global().snapshot();
            match snapshot.metrics.get("tree.cache.discard") {
                Some(wmtree::telemetry::MetricValue::Counter(n)) => *n,
                _ => 0,
            }
        };
        let before = discards();
        assert_eq!(wmtree_tree::TreeCache::open(&cache_dir, 5).site_count(), 0);
        assert!(discards() > before, "the open counts its discard");
        std::fs::write(&seg, &committed).expect("restore cache segment");
        std::fs::write(&manifest_path, manifest).expect("restore cache manifest");

        // A record that does not decode: WM0245.
        append("not-hex no-payload");
        let diags = check_tree_cache(&cache_dir, "c").expect("scan");
        assert!(
            diags.iter().any(|d| d.code.as_str() == "WM0245"),
            "{diags:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dangling_reference_reports_wm0232() {
        let dir = small_bundle("dangling", true);
        // Hide the object store from the manifest: references dangle.
        let mut manifest = wmtree_bundle::Manifest::load(&dir).expect("load manifest");
        manifest.object_segments.clear();
        manifest.objects = 0;
        manifest.store(&dir).expect("store manifest");
        let diags = check_bundle(&dir, "b").expect("scan");
        assert!(
            diags.iter().any(|d| d.code.as_str() == "WM0232"),
            "{diags:?}"
        );
    }

    #[test]
    fn missing_manifest_is_a_scan_error() {
        let dir = std::env::temp_dir().join("wmtree-lint-bundle-nomanifest");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        assert!(check_bundle(&dir, "b").is_err());
    }

    #[test]
    fn shard_plan_violations_found() {
        use wmtree_shard::ShardPlan;
        let exp = wmtree::Experiment::new(ExperimentConfig::at_scale(Scale::Tiny));
        let dir = std::env::temp_dir().join("wmtree-lint-shards");
        let _ = std::fs::remove_dir_all(&dir);

        // A fresh, uncrawled plan: structurally clean, but every shard
        // warns that its bundle hash is missing (WM0237).
        let plan = ShardPlan::new(&exp, 3).expect("plan");
        plan.store(&dir).expect("store");
        let diags = check_shard_dir(&dir, "s").expect("scan");
        assert_eq!(diags.len(), 3, "{diags:?}");
        assert!(diags
            .iter()
            .all(|d| d.code.as_str() == "WM0237" && d.severity == Severity::Warning));

        // Break the partition: overlapping ranks, a gap in the site
        // windows, and a non-dense id.
        let mut bad = plan.clone();
        bad.shards[1].rank_lo = bad.shards[0].rank_hi;
        bad.shards[2].site_lo += 1;
        bad.shards[2].id = 9;
        bad.store(&dir).expect("store");
        let codes: Vec<&str> = check_shard_dir(&dir, "s")
            .expect("scan")
            .iter()
            .map(|d| d.code.as_str())
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        assert!(codes.contains(&"WM0235"), "{codes:?}");
        assert!(codes.contains(&"WM0236"), "{codes:?}");

        // Crawl shard 0 for real, then corrupt its recorded hash: the
        // mismatch is an error naming the shard's bundle directory.
        plan.store(&dir).expect("restore good plan");
        wmtree_shard::crawl_shard(&exp, &dir, 0, None).expect("crawl shard 0");
        let mut tampered = ShardPlan::load(&dir).expect("reload");
        tampered.shards[0].bundle_hash = Some("0000000000000000".into());
        tampered.store(&dir).expect("store tampered");
        let diags = check_shard_dir(&dir, "s").expect("scan");
        assert!(
            diags
                .iter()
                .any(|d| d.code.as_str() == "WM0237" && d.severity == Severity::Error),
            "{diags:?}"
        );

        // A merged report that disagrees with the shard sum (WM0238):
        // only meaningful once every shard is crawled. First restore
        // shard 0's true hash, undoing the tamper above.
        let hash0 = wmtree_bundle::bundle_content_hash(&dir.join("shard-000")).expect("hash");
        ShardPlan::record_bundle_hash(&dir, 0, hash0).expect("restore hash");
        wmtree_shard::crawl_shard(&exp, &dir, 1, None).expect("crawl shard 1");
        wmtree_shard::crawl_shard(&exp, &dir, 2, None).expect("crawl shard 2");
        let merged = wmtree_shard::merge_shards(&exp, &dir).expect("merge");
        let mut report = wmtree::Report::generate(&merged.results);
        assert!(check_shard_dir(&dir, "s").expect("scan").is_empty());
        report.crawl.vetted_sites += 1;
        std::fs::write(dir.join("report.json"), report.to_json()).expect("write report");
        let diags = check_shard_dir(&dir, "s").expect("scan");
        assert!(
            diags.iter().any(|d| d.code.as_str() == "WM0238"),
            "{diags:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn job_store_violations_found() {
        use wmtree_server::{JobRecord, JobSpec, JobState, JobsFile, JOBS_FILE, JOBS_VERSION};

        let dir = std::env::temp_dir().join("wmtree-lint-jobs");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");

        // One real finished bundle backs the done job.
        let bundle = small_bundle("jobs-backing", true);
        let job_dir = dir.join("job-000");
        std::fs::rename(&bundle, &job_dir).expect("move bundle into store");
        let hash = wmtree_bundle::bundle_content_hash(&job_dir).expect("hash");

        let job = |id: usize, state: JobState| JobRecord {
            id,
            spec: JobSpec {
                scale: "tiny".into(),
                seed: None,
                workers: None,
            },
            state,
            dir: format!("job-{id:03}"),
            sites_done: 0,
            sites_total: 0,
            bundle_hash: None,
            error: None,
        };
        let store = |jobs: Vec<JobRecord>| {
            let file = JobsFile {
                version: JOBS_VERSION,
                jobs,
            };
            std::fs::write(
                dir.join(JOBS_FILE),
                serde_json::to_string(&file).expect("serialize"),
            )
            .expect("write JOBS.json");
        };

        // Clean store: a done job backed by the real bundle, plus a
        // queued one.
        let mut done = job(0, JobState::Done);
        done.sites_done = 1;
        done.sites_total = 1;
        done.bundle_hash = Some(hash.clone());
        store(vec![done.clone(), job(1, JobState::Queued)]);
        assert!(check_jobs_dir(&dir, "j").expect("scan").is_empty());

        // Every coherence violation at once: non-dense id, duplicate
        // dir, done without hash, failed without error, queued with
        // progress, a hash on a non-terminal state, and a done job
        // whose recorded hash does not match the archive.
        let mut bad_done = done.clone();
        bad_done.bundle_hash = None;
        let mut dup = job(9, JobState::Failed); // non-dense id, no error
        dup.dir = "job-000".into();
        let mut eager = job(2, JobState::Queued);
        eager.sites_done = 3;
        let mut running = job(3, JobState::Running);
        running.bundle_hash = Some(hash.clone());
        running.sites_done = 5;
        running.sites_total = 2;
        let mut stale = job(4, JobState::Done);
        stale.bundle_hash = Some("0000000000000000".into());
        stale.dir = "job-000".into(); // points at the real archive...
        store(vec![bad_done, dup, eager, running, stale]);
        let diags = check_jobs_dir(&dir, "j").expect("scan");
        let codes: std::collections::BTreeSet<&str> =
            diags.iter().map(|d| d.code.as_str()).collect();
        assert!(codes.contains("WM0241"), "{diags:?}");
        assert!(codes.contains("WM0242"), "{diags:?}");
        assert!(codes.contains("WM0243"), "{diags:?}");
        // ...so WM0243 is specifically the hash mismatch, not a
        // missing archive.
        assert!(
            diags
                .iter()
                .any(|d| d.code.as_str() == "WM0243" && d.message.contains("does not match")),
            "{diags:?}"
        );

        // A done job whose bundle directory is gone entirely.
        let mut ghost = done.clone();
        ghost.dir = "job-777".into();
        ghost.id = 0;
        store(vec![ghost]);
        let diags = check_jobs_dir(&dir, "j").expect("scan");
        assert!(
            diags
                .iter()
                .any(|d| d.code.as_str() == "WM0243" && d.message.contains("cannot be hashed")),
            "{diags:?}"
        );

        // No JOBS.json at all is a scan error, not a finding.
        std::fs::remove_file(dir.join(JOBS_FILE)).expect("rm");
        assert!(check_jobs_dir(&dir, "j").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn artifact_catalog_codes_unique() {
        let mut codes: Vec<&str> = ARTIFACT_CHECKS.iter().map(|(c, _, _)| *c).collect();
        let n = codes.len();
        codes.sort();
        codes.dedup();
        assert_eq!(codes.len(), n);
    }
}
