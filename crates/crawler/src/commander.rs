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
//! site window — runs through one loop, `ordered`. The calling thread
//! feeds it sites, workers take them from a shared queue and crawl each
//! into a database of its own; a resumable crawl also encodes the site
//! for the bundle in the worker. Then the worker runs the caller's
//! *stage* (the post-crawl analysis, say) on the site's database and
//! drops it. The calling thread hands the results to its sink — after
//! the bundle's ordered append and checkpoint — in universe order,
//! through a reorder window of at most twice the worker count, so no
//! worker waits for a slower site of a chunk and the results are the
//! same for any worker count. Bundle replays run the same loop, fed by
//! the bundle loader instead of a site index ([`replay_sites`]): the
//! worker decodes the site's stored objects, builds its database and
//! stages it, so a site's visits are allocated and freed on one thread.
//! Only [`Commander::run`]'s sink builds a database of the whole crawl.
//!
//! A visit is a navigation, which decides its success, and a load,
//! which records its traffic ([`Browser::navigate`]). The staged crawl,
//! [`Commander::crawl`], navigates every profile of a page before it
//! loads any, and loads the page only if every profile navigated it:
//! vetting (§3.2) drops any other page, and the stage reads nothing of
//! it but its outcomes. [`Commander::run`] and the bundle crawls load
//! every navigated visit, so a database of the whole crawl, a bundle or
//! an export holds every visit in full; so does a stateful crawl, whose
//! cookie jar carries each load into the next page's.
//!
//! A window crawl into a bundle ([`Commander::record_window`]) has no
//! stage: resuming it verifies every committed byte but parses no
//! stored object, so a crawl cut into many short batches costs what one
//! call does.

use crate::bundle_io::{encode_site, site_db};
use crate::db::{CrawlDb, PageKey};
use crate::discovery::discover_pages;
use crate::profile::Profile;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::convert::Infallible;
use std::path::Path;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use wmtree_browser::{Browser, VisitResult};
use wmtree_bundle::{
    read_sites, BundleError, BundleMeta, BundleWriter, Depth, LoggedVisit, Manifest,
};
use wmtree_net::cookie::CookieJar;
use wmtree_telemetry::ProgressTracker;
use wmtree_url::Url;
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

/// Outcome of a [resumable crawl](Commander::record).
#[derive(Debug)]
pub enum ResumableOutcome {
    /// Every site is checkpointed; the bundle is marked complete.
    Complete {
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

    /// Run the full crawl and return its database, every navigated visit
    /// loaded: [`crawl`]'s loop with each site's database as its own
    /// stage, merged in universe order.
    ///
    /// [`crawl`]: Commander::crawl
    pub fn run(&self) -> CrawlDb {
        let progress = ProgressTracker::new(self.site_window().len(), self.options.workers.max(1));
        let mut db = CrawlDb::new(self.profiles.len());
        let Ok(()) = self.crawl_loading(
            Loads::All,
            &progress,
            |site| site,
            |site| {
                db.merge(site);
                Ok::<(), Infallible>(())
            },
        );
        db
    }

    /// Crawl every site of the window, feeding `progress`. The worker
    /// that crawls a site runs `stage` on the site's own database; the
    /// calling thread hands the results to `sink` in universe order. The
    /// first sink error stops the crawl and is returned.
    ///
    /// A stateless crawl loads a page only if every profile navigated
    /// it. On any other page the site's database records each profile's
    /// outcome and no visit ([`CrawlDb::unloaded`]), so its visit
    /// queries return the vetted pages' visits and the failures, and its
    /// counts are those of a crawl that loads every visit. Such a
    /// database cannot become a bundle.
    pub fn crawl<T: Send, E>(
        &self,
        progress: &ProgressTracker,
        stage: impl Fn(CrawlDb) -> T + Sync,
        sink: impl FnMut(T) -> Result<(), E>,
    ) -> Result<(), E> {
        self.crawl_loading(Loads::Vetted, progress, stage, sink)
    }

    /// [`crawl`](Commander::crawl), loading the navigated visits `loads`
    /// names.
    fn crawl_loading<T: Send, E>(
        &self,
        loads: Loads,
        progress: &ProgressTracker,
        stage: impl Fn(CrawlDb) -> T + Sync,
        sink: impl FnMut(T) -> Result<(), E>,
    ) -> Result<(), E> {
        let _run_span = wmtree_telemetry::span("crawl.run");
        let sites: Vec<usize> = self.site_window().collect();
        ordered(
            self.options.workers.clamp(1, sites.len().max(1)),
            |push| sites.iter().try_for_each(|&site| push(site)),
            |site_idx, worker| stage(self.crawl_site(site_idx, worker, progress, loads)),
            sink,
        )
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

    /// [`crawl`](Commander::crawl) *resumably* into the bundle at `dir`
    /// (created if absent, resumed if present), checkpointing each site
    /// before its result reaches `sink`. `max_sites` caps how many sites
    /// this invocation crawls, leaving a resumable bundle. A resume
    /// verifies the bundle but parses no object. A call that the cap
    /// stops early stages nothing; the call that completes the bundle
    /// first stages what it already held — the recovered prefix, or all
    /// of a complete bundle — replayed site by site ([`replay_sites`]),
    /// with the crawl's worker count.
    ///
    /// Interruption is invisible in the archive: a crawl stopped after
    /// `k` sites and resumed produces a bundle byte-identical to an
    /// uninterrupted run, whatever the worker count.
    pub fn record<T: Send>(
        &self,
        dir: &Path,
        max_sites: Option<usize>,
        progress: &ProgressTracker,
        stage: Option<&(dyn Fn(CrawlDb) -> T + Sync)>,
        mut sink: impl FnMut(T) -> Result<(), BundleError>,
    ) -> Result<ResumableOutcome, BundleError> {
        let _run_span = wmtree_telemetry::span("crawl.run_resumable");
        let meta = self.bundle_meta();
        let sites = self.universe.sites();
        let workers = self.options.workers;
        let full = |visits: &[LoggedVisit]| vec![Depth::Full; visits.len()];

        // Open or create the archive; recover checkpointed work.
        let (mut writer, recorded) = if Manifest::exists(dir) {
            let manifest = Manifest::load(dir)?;
            if manifest.complete {
                manifest.check_meta(&meta)?;
                if let Some(stage) = stage {
                    replay_sites(dir, workers, full, stage, &mut sink)?;
                }
                return Ok(ResumableOutcome::Complete { manifest });
            }
            BundleWriter::resume(dir, meta)?
        } else {
            (BundleWriter::create(dir, meta)?, BTreeSet::new())
        };

        let pending: Vec<usize> = self
            .site_window()
            .filter(|i| !recorded.contains(&sites[*i].domain))
            .collect();
        let budget = max_sites.unwrap_or(pending.len()).min(pending.len());
        let stage = stage.filter(|_| budget == pending.len());
        if let Some(stage) = stage.filter(|_| !recorded.is_empty()) {
            replay_sites(dir, workers, full, stage, &mut sink)?;
        }

        // Workers crawl, encode and stage sites; the writer appends and
        // checkpoints them strictly in universe order — the archive's
        // bytes are independent of the worker count and of where
        // interruptions fall.
        ordered(
            workers.clamp(1, budget.max(1)),
            |push| pending[..budget].iter().try_for_each(|&site| push(site)),
            |site_idx, worker| {
                let site = self.crawl_site(site_idx, worker, progress, Loads::All);
                let encoded = encode_site(&site, &sites[site_idx].domain, site.pages())?;
                Ok::<_, BundleError>((encoded, stage.map(|stage| stage(site))))
            },
            |crawled_site| {
                let (encoded, staged) = crawled_site?;
                writer.append(encoded)?;
                staged.map_or(Ok(()), &mut sink)
            },
        )?;

        if budget == pending.len() {
            let manifest = writer.finish()?;
            Ok(ResumableOutcome::Complete { manifest })
        } else {
            let manifest = writer.suspend()?;
            Ok(ResumableOutcome::Partial {
                sites_done: recorded.len() + budget,
                sites_total: self.site_window().len(),
                manifest,
            })
        }
    }

    /// [`record`](Commander::record) without a stage: no object is
    /// parsed and each site is dropped once appended — the unit of work
    /// of shards and of server jobs crawled in batches.
    pub fn record_window(
        &self,
        dir: &Path,
        max_sites: Option<usize>,
        progress: &ProgressTracker,
    ) -> Result<ResumableOutcome, BundleError> {
        self.record(
            dir,
            max_sites,
            progress,
            None::<&(dyn Fn(CrawlDb) + Sync)>,
            |()| Ok(()),
        )
    }

    /// Crawl one site with every profile ("semi-parallel": all profiles
    /// get the same page list, visits differ only by their seeds) into
    /// a database of its own, loading the navigated visits `loads` names
    /// — every one in a stateful crawl.
    fn crawl_site(
        &self,
        site_idx: usize,
        worker: usize,
        progress: &ProgressTracker,
        loads: Loads,
    ) -> CrawlDb {
        let _site_span = wmtree_telemetry::span("crawl.site");
        let mut db = CrawlDb::new(self.profiles.len());
        let site = &self.universe.sites()[site_idx];
        let pages = discover_pages(self.universe, site, self.options.max_pages_per_site);
        wmtree_telemetry::counter!("crawler.pages.discovered").add(pages.len() as u64);
        let browsers: Vec<Browser> = (self.profiles.iter())
            .map(|profile| {
                let cfg = if self.options.reliable {
                    profile.reliable_browser_config()
                } else {
                    profile.browser_config()
                };
                Browser::new(self.universe, cfg)
            })
            .collect();
        let visit_seed = |profile_id: usize, page_url: &Url| {
            stable_hash(
                self.options.experiment_seed,
                format!("visit:{profile_id}:{}", page_url.as_str()).as_bytes(),
            )
        };
        // A profile's visit of a page; `None` for one it navigated but
        // did not load.
        let mut record = |page_url: &Url, profile_id: usize, visit: Option<VisitResult>| {
            progress.visit(visit.as_ref().is_none_or(|v| v.success));
            if visit.as_ref().is_some_and(|v| v.timed_out) {
                progress.timeout();
            }
            let page = PageKey {
                site: site.domain.clone(),
                url: page_url.to_string(),
            };
            match visit {
                Some(visit) => db.insert(page, profile_id, visit),
                None => db.insert_navigated(page, profile_id),
            }
        };
        if self.options.stateful {
            // Each profile's cookie jar carries from page to page, so
            // every page's load depends on the ones before it.
            for (profile_id, browser) in browsers.iter().enumerate() {
                let mut jar = CookieJar::new();
                for page_url in &pages {
                    let seed = visit_seed(profile_id, page_url);
                    let visit = browser.visit_stateful(page_url, seed, &mut jar);
                    record(page_url, profile_id, Some(visit));
                }
            }
        } else {
            for page_url in &pages {
                let navigations: Vec<_> = (browsers.iter().enumerate())
                    .map(|(profile_id, browser)| {
                        browser.navigate(page_url, visit_seed(profile_id, page_url))
                    })
                    .collect();
                let load = matches!(loads, Loads::All) || navigations.iter().all(Option::is_some);
                for (profile_id, navigation) in navigations.into_iter().enumerate() {
                    let visit = match navigation {
                        Some(navigation) => load.then(|| navigation.load()),
                        None => Some(VisitResult::failed(page_url.clone())),
                    };
                    record(page_url, profile_id, visit);
                }
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

/// Which navigated visits a stateless crawl loads.
#[derive(Debug, Clone, Copy)]
enum Loads {
    /// Every one: the database holds every visit in full.
    All,
    /// Those of pages every profile navigated, the only pages vetting
    /// keeps.
    Vetted,
}

/// Replay the bundle at `dir` site by site, through the crawl's loop
/// fed by the bundle loader ([`read_sites`]): each checkpointed site
/// leaves the loader, in log order and still encoded, once every object
/// its visits reference is verified; one of `workers` threads decodes
/// those objects as deep as `plan` asks, builds the site's database and
/// runs `stage` on it; the calling thread hands the results to `sink`
/// in log order. At most twice `workers` sites wait between the loader
/// and the sink.
///
/// The loader's end-of-log checks decide the result after the last site
/// has left, so whatever `sink` derives stays provisional until this
/// returns `Ok`. A decode defect, or the first sink error, stops the
/// loop (no later result reaches the sink) and is returned; a defect
/// the loader finds is returned once every site it handed out before it
/// has reached the sink, so a decode defect in one of those wins.
pub fn replay_sites<T: Send>(
    dir: &Path,
    workers: usize,
    plan: impl FnOnce(&[LoggedVisit]) -> Vec<Depth>,
    stage: impl Fn(CrawlDb) -> T + Sync,
    mut sink: impl FnMut(T) -> Result<(), BundleError>,
) -> Result<(), BundleError> {
    let _span = wmtree_telemetry::span("bundle.replay");
    let manifest = Manifest::load(dir)?;
    let n_profiles = manifest.meta.n_profiles;
    ordered(
        workers.max(1),
        |push| read_sites(dir, &manifest, plan, push),
        |site, _| {
            site.decode()
                .map(|visits| stage(site_db(n_profiles, visits)))
        },
        |staged| sink(staged?),
    )
}

/// What an [`ordered`] loop's workers and its calling thread share.
struct Window<I, T> {
    /// Items fed but not claimed yet, with their position in the feed.
    queue: VecDeque<(usize, I)>,
    /// Finished results the sink has not taken yet, by position; a
    /// panic in the work is its item's result.
    done: BTreeMap<usize, std::thread::Result<T>>,
    /// The feed has ended: workers stop once the queue is empty.
    closed: bool,
    /// Stop now: the feed or the sink failed, or the calling thread is
    /// unwinding.
    stop: bool,
}

/// Lock the window. The state stays consistent across a panic, since
/// no work runs under the lock.
fn lock<I, T>(window: &Mutex<Window<I, T>>) -> MutexGuard<'_, Window<I, T>> {
    window.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Stops the loop when the calling thread unwinds — in the feed, in the
/// sink, or raising a worker's panic — so no worker waits forever.
struct StopOnPanic<'a, I, T>(&'a Mutex<Window<I, T>>, &'a Condvar);

impl<I, T> Drop for StopOnPanic<'_, I, T> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            lock(self.0).stop = true;
            self.1.notify_all();
        }
    }
}

/// The crawl loop. The calling thread runs `feed`, which hands items
/// one by one to the `push` it is given; `workers` scoped threads (at
/// least one) claim the pushed items in order and run `work(item,
/// worker)` on each, while the calling thread hands the results to
/// `sink` strictly in feed order. A reorder window bounds the items fed
/// but not yet taken by the sink to twice the worker count: a `push`
/// into a full window sinks the next result first, waiting for it if
/// need be. So a slow item delays the sink but never idles a worker,
/// the feed runs no further ahead than the window, and memory stays
/// bounded.
///
/// The first sink error, which `push` then returns to the feed, stops
/// the loop: workers claim nothing more, no later result reaches the
/// sink, and the error is returned once every worker has finished its
/// current item. The feed's own error ends the feed: every item fed
/// before it still reaches the sink, and the feed's error is returned
/// only if none of them fails the sink, so the first error in feed
/// order wins. A panic in `work` is raised on the calling thread when
/// the sink reaches its item, and a panic in the feed or the sink
/// propagates as it is; either way the caller sees the original
/// payload.
fn ordered<I: Send, T: Send, E>(
    workers: usize,
    feed: impl FnOnce(&mut dyn FnMut(I) -> Result<(), E>) -> Result<(), E>,
    work: impl Fn(I, usize) -> T + Sync,
    mut sink: impl FnMut(T) -> Result<(), E>,
) -> Result<(), E> {
    let workers = workers.max(1);
    let reorder = 2 * workers;
    let window = Mutex::new(Window {
        queue: VecDeque::new(),
        done: BTreeMap::new(),
        closed: false,
        stop: false,
    });
    let changed = Condvar::new();
    std::thread::scope(|scope| {
        for worker in 0..workers {
            let (window, changed, work) = (&window, &changed, &work);
            scope.spawn(move || loop {
                let mut state = lock(window);
                let (i, item) = loop {
                    if state.stop {
                        return;
                    }
                    if let Some(next) = state.queue.pop_front() {
                        break next;
                    }
                    if state.closed {
                        return;
                    }
                    state = changed.wait(state).unwrap_or_else(PoisonError::into_inner);
                };
                drop(state);
                let result =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| work(item, worker)));
                lock(window).done.insert(i, result);
                changed.notify_all();
            });
        }

        let _stop = StopOnPanic(&window, &changed);
        // Items fed, and results the sink has taken.
        let (mut fed, mut taken) = (0, 0);
        // Sink results in order until at most `ahead` fed items are
        // still to be sunk.
        let mut drain = |fed: usize, ahead: usize| -> Result<(), E> {
            while fed - taken > ahead {
                let mut state = lock(&window);
                let result = loop {
                    if let Some(result) = state.done.remove(&taken) {
                        break result;
                    }
                    state = changed.wait(state).unwrap_or_else(PoisonError::into_inner);
                };
                drop(state);
                taken += 1;
                let result = result.unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                sink(result)?;
            }
            Ok(())
        };
        let mut sink_failed = false;
        let fed_all = feed(&mut |item| {
            drain(fed, reorder - 1).inspect_err(|_| sink_failed = true)?;
            lock(&window).queue.push_back((fed, item));
            fed += 1;
            changed.notify_one();
            Ok(())
        });
        let outcome = if sink_failed {
            fed_all
        } else {
            lock(&window).closed = true;
            changed.notify_all();
            drain(fed, 0).and(fed_all)
        };
        if outcome.is_err() {
            lock(&window).stop = true;
            changed.notify_all();
        }
        outcome
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
                let a: Vec<&str> = v.requests.iter().map(|r| r.url.as_str()).collect();
                let b: Vec<&str> = pv.requests.iter().map(|r| r.url.as_str()).collect();
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
            let a: Vec<&str> = visits[1].requests.iter().map(|r| r.url.as_str()).collect();
            let b: Vec<&str> = visits[2].requests.iter().map(|r| r.url.as_str()).collect();
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
        let progress = ProgressTracker::new(3, 1);
        let stage = |site: CrawlDb| site;
        let mut db = CrawlDb::new(5);
        let outcome = cmd.record(&dir, None, &progress, Some(&stage), |site| {
            db.merge(site);
            Ok(())
        });
        match outcome.unwrap() {
            ResumableOutcome::Complete { manifest } => {
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
        match cmd.record_window(&dir2, Some(1), &progress).unwrap() {
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
                workers,
                |push| items.iter().try_for_each(|&item| push(item)),
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
                workers,
                |push| items.iter().try_for_each(|&item| push(item)),
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
    fn a_feed_error_waits_for_the_items_fed_before_it() {
        for workers in [1usize, 2, 8] {
            // Every item fed before the feed's error reaches the sink
            // first, and a failed one among them is the loop's error.
            for failing in [Some(6), None] {
                let mut seen = Vec::new();
                let result = ordered(
                    workers,
                    |push| {
                        (0..10).try_for_each(&mut *push)?;
                        Err("the feed failed".to_string())
                    },
                    |item, _| match failing {
                        Some(bad) if item == bad => Err(format!("item {item} failed")),
                        _ => Ok(item),
                    },
                    |result: Result<usize, String>| {
                        seen.push(result?);
                        Ok(())
                    },
                );
                let (expect, sunk) = match failing {
                    Some(bad) => (format!("item {bad} failed"), bad),
                    None => ("the feed failed".to_string(), 10),
                };
                assert_eq!(result, Err(expect), "workers={workers}");
                assert_eq!(seen, (0..sunk).collect::<Vec<_>>(), "workers={workers}");
            }
        }
    }

    #[test]
    fn panics_in_work_or_sink_reach_the_caller() {
        let items: Vec<usize> = (0..40).collect();
        let message = |panic: Box<dyn std::any::Any + Send>| panic.downcast::<String>().map(|m| *m);
        for workers in [1usize, 2, 8] {
            let panic = std::panic::catch_unwind(|| {
                ordered(
                    workers,
                    |push| items.iter().try_for_each(|&item| push(item)),
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
                    workers,
                    |push| items.iter().try_for_each(|&item| push(item)),
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
