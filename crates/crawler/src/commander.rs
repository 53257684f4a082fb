//! The commander: semi-parallel orchestration of all profile clients.
//!
//! Appendix C of the paper: a commander machine feeds the same site to
//! every client VM at once; each client visits the site's pages
//! independently and the commander waits for all clients before moving
//! to the next site. We reproduce that synchronization structure — site
//! visits are the unit of parallelism, every profile sees every page —
//! and fan independent *sites* out over worker threads (the clients are
//! simulations, not VMs, so the semi-parallel semantics are preserved
//! by construction: profiles of the same site always run in the same
//! task).
//!
//! Every crawl — in memory, resumable into a bundle, or over a shard's
//! site window — runs through one loop, `ordered`. Workers take the
//! next site from a shared index and crawl it into a database of its
//! own; a resumable crawl also encodes the site for the bundle in the
//! worker. The calling thread hands finished sites to its sink (the
//! database merge, and the bundle's ordered append and checkpoint) in
//! universe order, through a reorder window of at most twice the worker
//! count, so no worker waits for a slower site of a chunk and the
//! results are the same for any worker count.
//!
//! A window crawl into a bundle ([`Commander::record_window`]) keeps no
//! database: resuming it verifies every committed byte but parses no
//! stored object, and each site is dropped once it is appended. So a
//! crawl cut into many short batches costs what one call does.

use crate::bundle_io::encode_site;
use crate::db::{CrawlDb, PageKey};
use crate::discovery::discover_pages;
use crate::profile::Profile;
use std::collections::BTreeMap;
use std::convert::Infallible;
use std::path::Path;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use wmtree_browser::Browser;
use wmtree_bundle::{BundleError, BundleMeta, BundleWriter, Depth, Manifest, ResumeState};
use wmtree_telemetry::ProgressTracker;
use wmtree_webgen::{stable_hash, WebUniverse};

/// Options of a crawl run.
#[derive(Debug, Clone)]
pub struct CrawlOptions {
    /// Maximum pages per site (paper: 25).
    pub max_pages_per_site: usize,
    /// Worker threads for site-level fan-out (1 = sequential).
    pub workers: usize,
    /// Experiment seed: visit seeds derive from it, so a rerun of the
    /// same experiment is byte-identical.
    pub experiment_seed: u64,
    /// Use reliable browsers (no visit failures / ideal network) —
    /// useful for analyses isolating content variance.
    pub reliable: bool,
    /// Stateful crawling: keep each profile's cookie jar across the
    /// pages of a site (the paper crawls stateless; Appendix C).
    pub stateful: bool,
}

impl Default for CrawlOptions {
    fn default() -> Self {
        CrawlOptions {
            max_pages_per_site: 25,
            workers: 4,
            experiment_seed: 7,
            reliable: false,
            stateful: false,
        }
    }
}

/// Outcome of a [resumable crawl](Commander::run_resumable): `D` is
/// the crawl database, or `()` for a
/// [window crawl](Commander::record_window), which keeps none.
#[derive(Debug)]
pub enum ResumableOutcome<D = CrawlDb> {
    /// Every site is checkpointed; the bundle is marked complete.
    Complete {
        /// The full crawl database (recovered prefix + new sites).
        db: D,
        /// The bundle's final manifest.
        manifest: Manifest,
    },
    /// The per-invocation site cap stopped the crawl early; the bundle
    /// on disk is a consistent, resumable partial archive.
    Partial {
        /// Sites checkpointed so far (including recovered ones).
        sites_done: usize,
        /// Sites in the universe.
        sites_total: usize,
        /// The bundle's manifest as of the last checkpoint.
        manifest: Manifest,
    },
}

/// The measurement commander.
#[derive(Debug)]
pub struct Commander<'a> {
    universe: &'a WebUniverse,
    profiles: Vec<Profile>,
    options: CrawlOptions,
    /// Half-open site-index window `[lo, hi)` into the rank-sorted
    /// universe this commander crawls. `None` = the whole universe.
    site_range: Option<(usize, usize)>,
}

impl<'a> Commander<'a> {
    /// Create a commander over a universe with a set of profiles.
    pub fn new(universe: &'a WebUniverse, profiles: Vec<Profile>, options: CrawlOptions) -> Self {
        assert!(!profiles.is_empty(), "need at least one profile");
        Commander {
            universe,
            profiles,
            options,
            site_range: None,
        }
    }

    /// Restrict the crawl to the half-open site-index window
    /// `[lo, hi)` of the rank-sorted universe — the unit of work of a
    /// shard. Visit seeds derive from `(experiment seed, profile, page
    /// URL)`, never from the site index, so a windowed crawl records
    /// exactly the visits a full crawl would record for those sites.
    pub fn with_site_range(mut self, lo: usize, hi: usize) -> Self {
        let n = self.universe.sites().len();
        assert!(lo <= hi && hi <= n, "site range [{lo}, {hi}) out of 0..{n}");
        self.site_range = Some((lo, hi));
        self
    }

    /// The site-index window this commander crawls.
    fn site_window(&self) -> std::ops::Range<usize> {
        match self.site_range {
            Some((lo, hi)) => lo..hi,
            None => 0..self.universe.sites().len(),
        }
    }

    /// The profiles of this experiment.
    pub fn profiles(&self) -> &[Profile] {
        &self.profiles
    }

    /// Run the full crawl and return the database, tracking progress on
    /// an internal throwaway tracker. Use [`run_with_progress`] to
    /// observe the crawl from outside.
    ///
    /// [`run_with_progress`]: Commander::run_with_progress
    pub fn run(&self) -> CrawlDb {
        let progress = ProgressTracker::new(self.site_window().len(), self.options.workers.max(1));
        self.run_with_progress(&progress)
    }

    /// Run the full crawl, feeding `progress` as sites and visits
    /// complete (share the tracker to watch a crawl live, or snapshot
    /// it afterwards for the run manifest).
    pub fn run_with_progress(&self, progress: &ProgressTracker) -> CrawlDb {
        let _run_span = wmtree_telemetry::span("crawl.run");
        let sites: Vec<usize> = self.site_window().collect();
        let mut db = CrawlDb::new(self.profiles.len());
        let Ok(()) = ordered(
            &sites,
            self.options.workers,
            |site_idx, worker| self.crawl_site(site_idx, worker, progress),
            |site| {
                db.merge(site);
                Ok::<(), Infallible>(())
            },
        );
        db
    }

    /// The bundle identity of this experiment: profile roster and
    /// experiment seed. Bundles created with it refuse to resume under
    /// different parameters.
    pub fn bundle_meta(&self) -> BundleMeta {
        BundleMeta {
            n_profiles: self.profiles.len(),
            profiles: self.profiles.iter().map(|p| p.name.clone()).collect(),
            experiment_seed: self.options.experiment_seed,
        }
    }

    /// Run the crawl *resumably*, checkpointing every completed site to
    /// the bundle at `dir` (created if absent, resumed if present).
    /// `max_sites` caps how many sites this invocation crawls — the
    /// crawl then stops in an orderly way, leaving a resumable bundle.
    ///
    /// Interruption is invisible in the archive: a crawl stopped after
    /// `k` sites and resumed produces a bundle byte-identical to an
    /// uninterrupted run, whatever the worker count — sites are
    /// committed in universe order regardless of which worker crawled
    /// them.
    pub fn run_resumable(
        &self,
        dir: &Path,
        max_sites: Option<usize>,
    ) -> Result<ResumableOutcome, BundleError> {
        let progress = ProgressTracker::new(self.site_window().len(), self.options.workers.max(1));
        self.run_resumable_with_progress(dir, max_sites, &progress)
    }

    /// [`run_resumable`](Commander::run_resumable) with an external
    /// progress tracker.
    pub fn run_resumable_with_progress(
        &self,
        dir: &Path,
        max_sites: Option<usize>,
        progress: &ProgressTracker,
    ) -> Result<ResumableOutcome, BundleError> {
        let mut db = CrawlDb::new(self.profiles.len());
        Ok(
            match self.record(dir, max_sites, progress, Some(&mut db))? {
                ResumableOutcome::Complete { manifest, .. } => {
                    ResumableOutcome::Complete { db, manifest }
                }
                ResumableOutcome::Partial {
                    sites_done,
                    sites_total,
                    manifest,
                } => ResumableOutcome::Partial {
                    sites_done,
                    sites_total,
                    manifest,
                },
            },
        )
    }

    /// [`run_resumable_with_progress`], keeping no database: a resume
    /// verifies every committed byte of the bundle but parses no stored
    /// object, a complete bundle is left unread, and each crawled site
    /// is dropped once it is appended. The bundle's bytes are the same
    /// as from [`run_resumable`](Commander::run_resumable) — the unit of
    /// work of shards and of server jobs crawled in batches.
    ///
    /// [`run_resumable_with_progress`]: Commander::run_resumable_with_progress
    pub fn record_window(
        &self,
        dir: &Path,
        max_sites: Option<usize>,
        progress: &ProgressTracker,
    ) -> Result<ResumableOutcome<()>, BundleError> {
        self.record(dir, max_sites, progress, None)
    }

    /// The one resumable crawl: open or create the bundle at `dir`,
    /// crawl at most `max_sites` of the window's unrecorded sites, and
    /// append each in universe order. With `db`, the recovered visits
    /// (decoded in full) and every crawled site are merged into it.
    fn record(
        &self,
        dir: &Path,
        max_sites: Option<usize>,
        progress: &ProgressTracker,
        mut db: Option<&mut CrawlDb>,
    ) -> Result<ResumableOutcome<()>, BundleError> {
        let _run_span = wmtree_telemetry::span("crawl.run_resumable");
        let meta = self.bundle_meta();
        let sites = self.universe.sites();

        // Open or create the archive; recover checkpointed work.
        let (mut writer, state) = if Manifest::exists(dir) {
            let manifest = Manifest::load(dir)?;
            if manifest.complete {
                // Nothing left to crawl: verify identity, and replay
                // into the database if one is kept.
                manifest.check_meta(&meta)?;
                if let Some(db) = db {
                    *db = crate::bundle_io::read_bundle(dir)?;
                }
                return Ok(ResumableOutcome::Complete { db: (), manifest });
            }
            let depth = if db.is_some() {
                Depth::Full
            } else {
                Depth::Address
            };
            BundleWriter::resume(dir, meta, depth)?
        } else {
            (BundleWriter::create(dir, meta)?, ResumeState::default())
        };

        // Rebuild the in-memory database from the recovered prefix.
        let recovered = state.sites.len();
        if let Some(db) = db.as_deref_mut() {
            for bv in state.visits {
                db.insert(
                    PageKey {
                        site: bv.site,
                        url: bv.url,
                    },
                    bv.profile,
                    bv.visit,
                );
            }
        }

        let pending: Vec<usize> = self
            .site_window()
            .filter(|i| !state.sites.contains(&sites[*i].domain))
            .collect();
        let budget = max_sites.unwrap_or(pending.len()).min(pending.len());

        // Workers crawl and encode sites; the writer appends and
        // checkpoints them strictly in universe order — the archive's
        // bytes are independent of the worker count and of where
        // interruptions fall.
        ordered(
            &pending[..budget],
            self.options.workers,
            |site_idx, worker| {
                let site = self.crawl_site(site_idx, worker, progress);
                let encoded = encode_site(&site, &sites[site_idx].domain, site.pages())?;
                Ok::<_, BundleError>((site, encoded))
            },
            |crawled_site| {
                let (site, encoded) = crawled_site?;
                writer.append(encoded)?;
                if let Some(db) = db.as_deref_mut() {
                    db.merge(site);
                }
                Ok::<(), BundleError>(())
            },
        )?;

        if budget == pending.len() {
            let manifest = writer.finish()?;
            Ok(ResumableOutcome::Complete { db: (), manifest })
        } else {
            let manifest = writer.suspend()?;
            Ok(ResumableOutcome::Partial {
                sites_done: recovered + budget,
                sites_total: self.site_window().len(),
                manifest,
            })
        }
    }

    /// Crawl one site with every profile ("semi-parallel": all profiles
    /// get the same page list, visits differ only by their seeds) into
    /// a database of its own.
    fn crawl_site(&self, site_idx: usize, worker: usize, progress: &ProgressTracker) -> CrawlDb {
        let _site_span = wmtree_telemetry::span("crawl.site");
        let mut db = CrawlDb::new(self.profiles.len());
        let site = &self.universe.sites()[site_idx];
        let pages = discover_pages(self.universe, site, self.options.max_pages_per_site);
        wmtree_telemetry::counter!("crawler.pages.discovered").add(pages.len() as u64);
        for (profile_id, profile) in self.profiles.iter().enumerate() {
            let cfg = if self.options.reliable {
                profile.reliable_browser_config()
            } else {
                profile.browser_config()
            };
            let browser = Browser::new(self.universe, cfg);
            let mut jar = wmtree_net::cookie::CookieJar::new();
            for page_url in &pages {
                let visit_seed = stable_hash(
                    self.options.experiment_seed,
                    format!("visit:{profile_id}:{}", page_url.as_str()).as_bytes(),
                );
                let result = if self.options.stateful {
                    browser.visit_stateful(page_url, visit_seed, &mut jar)
                } else {
                    browser.visit(page_url, visit_seed)
                };
                progress.visit(result.success);
                if result.timed_out {
                    progress.timeout();
                }
                db.insert(
                    PageKey {
                        site: site.domain.clone(),
                        url: page_url.as_str(),
                    },
                    profile_id,
                    result,
                );
            }
        }
        for _ in &pages {
            progress.page_done();
        }
        progress.site_done(worker);
        wmtree_telemetry::counter!("crawler.sites.crawled").inc();
        db
    }
}

/// What an [`ordered`] loop's workers and its calling thread share.
struct Window<T> {
    /// Index of the next item a worker claims.
    next: usize,
    /// Results the sink has taken — the index of the next one it wants.
    taken: usize,
    /// Finished results the sink has not taken yet, by item index.
    done: BTreeMap<usize, T>,
    /// No more claims: the sink failed, or a worker panicked.
    stop: bool,
}

/// Lock the window. A worker that panics poisons the lock on its way
/// out; the state stays consistent, since no work runs under it.
fn lock<T>(window: &Mutex<Window<T>>) -> MutexGuard<'_, Window<T>> {
    window.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Stops the loop when its thread unwinds — a worker in `work`, or the
/// calling thread in the sink — so no thread waits forever for one
/// that is gone.
struct StopOnPanic<'a, T>(&'a Mutex<Window<T>>, &'a Condvar);

impl<T> Drop for StopOnPanic<'_, T> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            lock(self.0).stop = true;
            self.1.notify_all();
        }
    }
}

/// The crawl loop. `workers` scoped threads (at least one) claim the
/// next item of `items` from a shared index and run `work(item,
/// worker)` on it, while the calling thread hands the results to
/// `sink` strictly in item order. A reorder window bounds the items
/// claimed but not yet taken by the sink to twice the worker count, so
/// a slow item delays the sink but never idles a worker, and memory
/// stays bounded.
///
/// The first sink error stops the loop: workers claim nothing more, no
/// later result reaches the sink, and the error is returned once every
/// worker has finished its current item. A panic in `work` or in the
/// sink propagates to the caller with its original payload.
fn ordered<T: Send, E>(
    items: &[usize],
    workers: usize,
    work: impl Fn(usize, usize) -> T + Sync,
    mut sink: impl FnMut(T) -> Result<(), E>,
) -> Result<(), E> {
    if items.is_empty() {
        return Ok(());
    }
    let workers = workers.clamp(1, items.len());
    let reorder = 2 * workers;
    let window = Mutex::new(Window {
        next: 0,
        taken: 0,
        done: BTreeMap::new(),
        stop: false,
    });
    let changed = Condvar::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                let (window, changed, work) = (&window, &changed, &work);
                scope.spawn(move || {
                    let _stop = StopOnPanic(window, changed);
                    loop {
                        let mut state = lock(window);
                        while !state.stop
                            && state.next < items.len()
                            && state.next >= state.taken + reorder
                        {
                            state = changed.wait(state).unwrap_or_else(PoisonError::into_inner);
                        }
                        if state.stop || state.next == items.len() {
                            return;
                        }
                        let i = state.next;
                        state.next += 1;
                        drop(state);
                        let result = work(items[i], worker);
                        lock(window).done.insert(i, result);
                        changed.notify_all();
                    }
                })
            })
            .collect();

        let _stop = StopOnPanic(&window, &changed);
        let mut failed = None;
        for i in 0..items.len() {
            let mut state = lock(&window);
            let result = loop {
                if let Some(result) = state.done.remove(&i) {
                    state.taken += 1;
                    break Some(result);
                }
                if state.stop {
                    break None;
                }
                state = changed.wait(state).unwrap_or_else(PoisonError::into_inner);
            };
            drop(state);
            changed.notify_all();
            // `None`: a worker panicked; joining below re-raises it.
            let Some(result) = result else { break };
            if let Err(e) = sink(result) {
                lock(&window).stop = true;
                changed.notify_all();
                failed = Some(e);
                break;
            }
        }
        for handle in handles {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
        failed.map_or(Ok(()), Err)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::standard_profiles;
    use wmtree_webgen::{UniverseConfig, WebUniverse};

    fn uni() -> WebUniverse {
        WebUniverse::generate(UniverseConfig {
            seed: 41,
            sites_per_bucket: [4, 2, 2, 2, 2],
            max_subpages: 6,
        })
    }

    fn options() -> CrawlOptions {
        CrawlOptions {
            max_pages_per_site: 6,
            workers: 1,
            experiment_seed: 3,
            reliable: true,
            stateful: false,
        }
    }

    #[test]
    fn crawl_covers_all_profiles_and_pages() {
        let u = uni();
        let cmd = Commander::new(&u, standard_profiles(), options());
        let db = cmd.run();
        assert_eq!(db.n_profiles(), 5);
        assert!(db.page_count() > 10);
        // Reliable crawl: every page vetted.
        assert_eq!(db.vetted_pages().len(), db.page_count());
        for stats in db.profile_stats() {
            assert_eq!(stats.success_rate(), 1.0);
        }
    }

    #[test]
    fn parallel_equals_sequential() {
        let u = uni();
        let seq = Commander::new(&u, standard_profiles(), options()).run();
        let par = Commander::new(
            &u,
            standard_profiles(),
            CrawlOptions {
                workers: 4,
                ..options()
            },
        )
        .run();
        // Same pages, same per-profile request URLs.
        assert_eq!(seq.page_count(), par.page_count());
        for (page, visits) in seq.vetted_pages() {
            for (pid, v) in visits.iter().enumerate() {
                let pv = par.visit(page, pid).expect("page present in parallel run");
                let a: Vec<String> = v.requests.iter().map(|r| r.url.as_str()).collect();
                let b: Vec<String> = pv.requests.iter().map(|r| r.url.as_str()).collect();
                assert_eq!(a, b, "profile {pid} page {page:?}");
            }
        }
    }

    #[test]
    fn identical_profiles_get_distinct_visit_seeds() {
        let u = uni();
        let db = Commander::new(&u, standard_profiles(), options()).run();
        // Sim1 (1) and Sim2 (2) are identical configs; their visits must
        // still differ somewhere (ad rotation), across all pages.
        let mut any_diff = false;
        for (_, visits) in db.vetted_pages() {
            let a: Vec<String> = visits[1].requests.iter().map(|r| r.url.as_str()).collect();
            let b: Vec<String> = visits[2].requests.iter().map(|r| r.url.as_str()).collect();
            if a != b {
                any_diff = true;
                break;
            }
        }
        assert!(
            any_diff,
            "parallel identical profiles must not be byte-identical"
        );
    }

    #[test]
    fn unreliable_crawl_drops_pages() {
        let u = uni();
        let db = Commander::new(
            &u,
            standard_profiles(),
            CrawlOptions {
                reliable: false,
                ..options()
            },
        )
        .run();
        let vetted = db.vetted_pages().len();
        assert!(vetted < db.page_count(), "some pages must fail vetting");
        // Each profile individually succeeds most of the time.
        for stats in db.profile_stats() {
            assert!(stats.success_rate() > 0.8, "rate {}", stats.success_rate());
        }
    }

    #[test]
    fn stateful_crawl_sees_less_consent_traffic() {
        let u = uni();
        let stateless = Commander::new(&u, standard_profiles(), options()).run();
        let stateful = Commander::new(
            &u,
            standard_profiles(),
            CrawlOptions {
                stateful: true,
                ..options()
            },
        )
        .run();
        let consent_requests = |db: &crate::CrawlDb| -> usize {
            db.vetted_pages()
                .iter()
                .flat_map(|(_, visits)| visits.iter())
                .flat_map(|v| v.requests.iter())
                .filter(|r| r.url.host().contains("consent-shield"))
                .count()
        };
        let a = consent_requests(&stateless);
        let b = consent_requests(&stateful);
        assert!(
            b < a,
            "stateful crawling re-triggers fewer consent flows: {b} vs {a}"
        );
    }

    #[test]
    fn worker_count_does_not_change_the_database() {
        // Stronger than `parallel_equals_sequential`: the whole
        // database must serialize byte-identically whatever the worker
        // count, since sharding only reorders who crawls which site.
        let u = uni();
        let opts = |workers: usize| CrawlOptions {
            workers,
            ..options()
        };
        let one = Commander::new(&u, standard_profiles(), opts(1)).run();
        let eight = Commander::new(&u, standard_profiles(), opts(8)).run();
        let a = serde_json::to_string(&one).unwrap();
        let b = serde_json::to_string(&eight).unwrap();
        assert_eq!(
            a, b,
            "workers=1 and workers=8 must produce identical databases"
        );
    }

    #[test]
    fn windowed_crawls_union_to_the_full_database() {
        // Three disjoint site windows must crawl exactly the visits of
        // a full run — the contract the shard runner is built on.
        let u = uni();
        let full = Commander::new(&u, standard_profiles(), options()).run();
        let n = u.sites().len();
        let cuts = [0, n / 3, 2 * n / 3, n];
        let mut merged = CrawlDb::new(5);
        for w in cuts.windows(2) {
            let part = Commander::new(&u, standard_profiles(), options())
                .with_site_range(w[0], w[1])
                .run();
            merged.merge(part);
        }
        let a = serde_json::to_string(&full).unwrap();
        let b = serde_json::to_string(&merged).unwrap();
        assert_eq!(a, b, "windowed crawls must union to the full database");
    }

    #[test]
    fn windowed_resumable_bundle_completes_per_window() {
        let u = uni();
        let dir = std::env::temp_dir().join("wmtree-commander-window-bundle");
        let _ = std::fs::remove_dir_all(&dir);
        let cmd = Commander::new(&u, standard_profiles(), options()).with_site_range(2, 5);
        match cmd.run_resumable(&dir, None).unwrap() {
            ResumableOutcome::Complete { db, manifest } => {
                assert!(manifest.complete);
                // Exactly the windowed sites' pages are recorded.
                let expect = Commander::new(&u, standard_profiles(), options())
                    .with_site_range(2, 5)
                    .run();
                assert_eq!(db.page_count(), expect.page_count());
            }
            ResumableOutcome::Partial { .. } => panic!("uncapped window must complete"),
        }
        // A capped window reports progress against the window size.
        let dir2 = std::env::temp_dir().join("wmtree-commander-window-partial");
        let _ = std::fs::remove_dir_all(&dir2);
        let cmd = Commander::new(&u, standard_profiles(), options()).with_site_range(2, 5);
        match cmd.run_resumable(&dir2, Some(1)).unwrap() {
            ResumableOutcome::Partial {
                sites_done,
                sites_total,
                ..
            } => {
                assert_eq!(sites_done, 1);
                assert_eq!(sites_total, 3, "totals count the window, not the universe");
            }
            ResumableOutcome::Complete { .. } => panic!("cap of 1 must interrupt"),
        }
    }

    #[test]
    #[should_panic(expected = "site range")]
    fn site_range_bounds_checked() {
        let u = uni();
        let n = u.sites().len();
        let _ = Commander::new(&u, standard_profiles(), options()).with_site_range(0, n + 1);
    }

    #[test]
    fn rerun_is_reproducible() {
        let u = uni();
        let a = Commander::new(&u, standard_profiles(), options()).run();
        let b = Commander::new(&u, standard_profiles(), options()).run();
        assert_eq!(a.total_successful_visits(), b.total_successful_visits());
        for (page, visits) in a.vetted_pages() {
            let bv = b.visit(page, 0).unwrap();
            assert_eq!(visits[0], bv);
        }
    }

    #[test]
    fn ordered_sinks_in_item_order_within_the_window() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let items: Vec<usize> = (100..160).collect();
        for workers in [1usize, 2, 8] {
            let sunk = AtomicUsize::new(0);
            // With two workers or more, item 0 finishes after item 1.
            let (one_done, wait_for_one) = std::sync::mpsc::channel();
            let wait_for_one = Mutex::new(wait_for_one);
            let mut seen = Vec::new();
            let Ok(()) = ordered(
                &items,
                workers,
                |item, worker| {
                    assert!(worker < workers);
                    // Item `i` is claimed only once the sink has taken
                    // item `i - 2 × workers`.
                    let i = item - 100;
                    assert!(i <= sunk.load(Ordering::SeqCst) + 2 * workers, "{i}");
                    if workers > 1 && i == 0 {
                        wait_for_one.lock().unwrap().recv().unwrap();
                    }
                    if i == 1 {
                        one_done.send(()).unwrap();
                    }
                    item * 2
                },
                |result| {
                    sunk.fetch_add(1, Ordering::SeqCst);
                    seen.push(result);
                    Ok::<(), Infallible>(())
                },
            );
            let expect: Vec<usize> = items.iter().map(|i| i * 2).collect();
            assert_eq!(seen, expect, "workers={workers}");
        }
    }

    #[test]
    fn a_failing_sink_stops_the_loop() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let items: Vec<usize> = (0..40).collect();
        for workers in [1usize, 2, 8] {
            let started = AtomicUsize::new(0);
            let mut seen = Vec::new();
            let result = ordered(
                &items,
                workers,
                |item, _| {
                    started.fetch_add(1, Ordering::SeqCst);
                    item
                },
                |item| {
                    if item == 7 {
                        return Err(format!("sink failed at {item}"));
                    }
                    seen.push(item);
                    Ok(())
                },
            );
            assert_eq!(result, Err("sink failed at 7".to_string()));
            assert_eq!(seen, (0..7).collect::<Vec<_>>(), "no later item is sunk");
            let started = started.load(Ordering::SeqCst);
            assert!(started <= 8 + 2 * workers, "{started} items claimed");
        }
    }

    #[test]
    fn panics_in_work_or_sink_reach_the_caller() {
        let items: Vec<usize> = (0..40).collect();
        let message = |panic: Box<dyn std::any::Any + Send>| panic.downcast::<String>().map(|m| *m);
        for workers in [1usize, 2, 8] {
            let panic = std::panic::catch_unwind(|| {
                ordered(
                    &items,
                    workers,
                    |item, _| {
                        if item == 5 {
                            panic!("work panicked at {item}");
                        }
                        item
                    },
                    |_| Ok::<(), Infallible>(()),
                )
            })
            .expect_err("the work's panic must reach the caller");
            assert_eq!(message(panic).ok().as_deref(), Some("work panicked at 5"));

            let panic = std::panic::catch_unwind(|| {
                ordered(
                    &items,
                    workers,
                    |item, _| item,
                    |item| {
                        if item == 3 {
                            panic!("sink panicked at {item}");
                        }
                        Ok::<(), Infallible>(())
                    },
                )
            })
            .expect_err("the sink's panic must reach the caller");
            assert_eq!(message(panic).ok().as_deref(), Some("sink panicked at 3"));
        }
    }
}
