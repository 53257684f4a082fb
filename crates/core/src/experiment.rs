//! The experiment runner: universe → crawl → vetting → trees → node
//! similarities.

use crate::config::ExperimentConfig;
use crate::incremental::{
    accumulate, replay_cached, AnalysisCache, CachedAccumulation, IncrementalReplay, SiteRecord,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;
use wmtree_analysis::node_similarity::PageNodeSimilarities;
use wmtree_analysis::{ExperimentData, MergedAnalysis, PartialAccumulators, PartialMergeError};
use wmtree_bundle::{BundleError, Manifest};
use wmtree_crawler::{Commander, CrawlDb, CrawlOptions, ProfileStats, ResumableOutcome};
use wmtree_filterlist::embedded::tracking_list;
use wmtree_filterlist::FilterList;
use wmtree_telemetry::{
    ManifestProfile, MetricValue, ProgressTracker, RunManifest, Snapshot, Stopwatch,
};
use wmtree_webgen::WebUniverse;

/// Everything a run produces, ready for [`crate::Report::generate`].
#[derive(Debug, Clone)]
pub struct ExperimentResults {
    /// Vetted pages with trees and cookies.
    pub data: ExperimentData,
    /// Per-node similarity records (horizontal + vertical analyses).
    pub sims: Vec<PageNodeSimilarities>,
    /// Per-profile crawl success accounting.
    pub profile_stats: Vec<ProfileStats>,
    /// Total pages discovered (before vetting).
    pub pages_discovered: usize,
    /// Total successful page visits across profiles.
    pub successful_visits: usize,
    /// Sites surviving vetting.
    pub vetted_sites: usize,
    /// Observability record of the run: stage wall times, crawl
    /// progress, and the metrics recorded between run start and end
    /// (snapshot diff, so concurrent history does not leak in).
    pub manifest: RunManifest,
}

impl ExperimentResults {
    /// The results a finished fold yields, with the run's manifest.
    pub fn from_merged(merged: MergedAnalysis, manifest: RunManifest) -> ExperimentResults {
        ExperimentResults {
            data: merged.data,
            sims: merged.sims,
            profile_stats: merged.profile_stats,
            pages_discovered: merged.digest.pages_discovered,
            successful_visits: merged.digest.successful_visits,
            vetted_sites: merged.digest.vetted_sites,
            manifest,
        }
    }
}

/// A configured experiment.
#[derive(Debug)]
pub struct Experiment {
    config: ExperimentConfig,
    universe: WebUniverse,
    /// Wall time of universe generation (the `generate` stage happens
    /// in [`Experiment::new`], before `run`).
    gen_wall: Duration,
    /// Profile names, in slot order.
    pub(crate) names: Vec<String>,
    /// The tracking filter list, when the configuration uses one.
    filter: Option<&'static FilterList>,
    /// Site → `(rank, bucket label)` over the whole universe.
    pub(crate) site_meta: BTreeMap<String, (u32, String)>,
}

impl Experiment {
    /// Generate the universe for a configuration.
    pub fn new(config: ExperimentConfig) -> Experiment {
        let _span = wmtree_telemetry::span("experiment.generate");
        let mut sw = Stopwatch::start();
        let universe = WebUniverse::generate(config.universe);
        let gen_wall = sw.lap();
        Experiment {
            names: config.profiles.iter().map(|p| p.name.clone()).collect(),
            filter: config.use_filter_list.then(tracking_list),
            site_meta: universe
                .sites()
                .iter()
                .map(|s| (s.domain.clone(), (s.rank, s.bucket.label().to_string())))
                .collect(),
            config,
            universe,
            gen_wall,
        }
    }

    /// The generated universe.
    pub fn universe(&self) -> &WebUniverse {
        &self.universe
    }

    /// The configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// Run the crawl and all per-node analyses, assembling the run
    /// manifest (stage wall times, crawl progress, metric diff) along
    /// the way. The worker that crawls a site also analyses it
    /// ([`accumulate`](Experiment::accumulate)), so no database of the
    /// whole crawl is ever held.
    pub fn run(&self) -> ExperimentResults {
        let _run_span = wmtree_telemetry::span("experiment.run");
        let mut fold = self.fold();
        let progress = self.progress();
        self.commander()
            .crawl(
                &progress,
                |site| self.accumulate(&site, None),
                |acc| fold.add(acc),
            )
            .and_then(|()| {
                fold.lap("crawl");
                fold.finish(Some(&progress))
            })
            .map(|run| run.results)
            // Every site is crawled once, under one profile roster, so
            // the fold has nothing to conflict on.
            .expect("one crawl folds cleanly") // wmtree-lint: allow(WM0105)
    }

    /// [`run`](Experiment::run), but crawling *resumably* into the
    /// bundle at `dir` — created if absent, resumed (skipping
    /// checkpointed sites) if present. `max_sites` caps how many sites
    /// this invocation crawls; when the cap stops the crawl early the
    /// analyses are skipped and [`BundleRun::Partial`] reports how far
    /// the archive got, with the run's manifest so far (`generate` and
    /// `crawl`, the crawl progress and the metrics). A crawl interrupted
    /// this way and resumed leaves a bundle byte-identical to an
    /// uninterrupted run. The call that completes the bundle also
    /// analyses the visits it recovered, replaying them site by site.
    pub fn run_to_bundle(
        &self,
        dir: &Path,
        max_sites: Option<usize>,
    ) -> Result<BundleRun, BundleError> {
        let _run_span = wmtree_telemetry::span("experiment.run_to_bundle");
        let mut fold = self.fold();
        let progress = self.progress();
        let stage = |db: CrawlDb| self.accumulate(&db, None);
        let outcome = self
            .commander()
            .record(dir, max_sites, &progress, Some(&stage), |acc| {
                fold.add(acc).map_err(visit_fault)
            })?;
        fold.lap("crawl");

        match outcome {
            ResumableOutcome::Complete { manifest: bundle } => {
                let run = fold.finish(Some(&progress)).map_err(visit_fault)?;
                Ok(BundleRun::Complete {
                    results: Box::new(run.results),
                    bundle,
                })
            }
            ResumableOutcome::Partial {
                sites_done,
                sites_total,
                manifest: bundle,
            } => Ok(BundleRun::Partial {
                sites_done,
                sites_total,
                bundle,
                manifest: Box::new(fold.into_manifest(Some(&progress))),
            }),
        }
    }

    /// Crawl only the contiguous site window `[lo, hi)` — one shard of
    /// a sharded run, or `[0, sites)` for a whole-universe crawl —
    /// resumably into the bundle at `dir`. Unlike
    /// [`run_to_bundle`](Experiment::run_to_bundle), no analyses run
    /// here: sharded runs analyze by streaming merge (`wmtree-shard`)
    /// once every shard bundle is complete, so peak memory stays one
    /// shard, and a server job is analysed by its first replay.
    /// `max_sites` caps how many sites this invocation crawls
    /// (interrupt + resume works exactly as for whole-universe
    /// bundles). No crawl database is kept: resuming parses no stored
    /// object, so a window crawled in many short batches costs what one
    /// call does.
    pub fn crawl_window_to_bundle(
        &self,
        lo: usize,
        hi: usize,
        dir: &Path,
        max_sites: Option<usize>,
    ) -> Result<ResumableOutcome, BundleError> {
        let _run_span = wmtree_telemetry::span("experiment.crawl_window");
        let progress = ProgressTracker::new(hi - lo, self.config.workers.max(1));
        self.commander()
            .with_site_range(lo, hi)
            .record_window(dir, max_sites, &progress)
    }

    /// Skip crawling entirely: replay a (complete) bundle recorded under
    /// the *same* configuration site by site and run the analyses on
    /// each site. The results — and any report/CSV rendered from them —
    /// are identical to a crawl-then-analyze run.
    pub fn replay_from_bundle(&self, dir: &Path) -> Result<ExperimentResults, BundleError> {
        self.replay(dir, None).map(|replay| replay.results)
    }

    /// [`replay_from_bundle`](Experiment::replay_from_bundle) through
    /// an [`AnalysisCache`]: unchanged sites take their trees from their
    /// cache records without building one, changed sites build theirs,
    /// and once the whole bundle has verified their records are stored
    /// and the cache committed (appended records made durable) before
    /// returning; a bundle with a defect commits nothing. The results
    /// are byte-identical to the uncached replay; the
    /// [`IncrementalReplay`] wrapper additionally reports how much work
    /// the cache absorbed.
    pub fn replay_from_bundle_cached(
        &self,
        dir: &Path,
        cache: &AnalysisCache,
    ) -> Result<IncrementalReplay, BundleError> {
        self.replay(dir, Some(cache))
    }

    /// Both bundle replays: [`Fold::add_bundle`] through `cache` when
    /// one is given.
    fn replay(
        &self,
        dir: &Path,
        cache: Option<&AnalysisCache>,
    ) -> Result<IncrementalReplay, BundleError> {
        let _run_span = wmtree_telemetry::span("experiment.replay");
        let mut fold = self.fold();
        Manifest::load(dir)?.check_meta(&self.commander().bundle_meta())?;
        fold.add_bundle(dir, cache)?;
        fold.finish(None).map_err(visit_fault)
    }

    /// The post-crawl stage over one crawl database, on the calling
    /// thread: [`accumulate_cached`](crate::accumulate_cached) with this
    /// experiment's roster, filter list, tree options and site ranks,
    /// except that the records of the sites it rebuilds stay in the
    /// accumulation: [`Fold::add_bundle`] stores them once the whole
    /// bundle has verified. Crawls and replays run it on each site in a
    /// worker.
    pub fn accumulate(&self, db: &CrawlDb, cache: Option<&AnalysisCache>) -> CachedAccumulation {
        accumulate(
            db,
            &self.names,
            self.filter,
            &self.config.tree,
            &self.site_meta,
            cache,
        )
    }

    /// Start a run's [`Fold`]: the metric baseline, the stage clock, and
    /// a manifest primed with the experiment identity, profile roster
    /// and the `generate` stage.
    pub fn fold(&self) -> Fold<'_> {
        let mut manifest = RunManifest::new(
            self.config.experiment_seed,
            format!(
                "{} sites × ≤{} pages × {} profiles",
                self.universe.sites().len(),
                self.config.max_pages_per_site,
                self.config.profiles.len(),
            ),
        );
        manifest.profiles = self
            .config
            .profiles
            .iter()
            .map(|p| ManifestProfile {
                name: p.name.clone(),
                version: p.version,
                user_interaction: p.user_interaction,
                gui: p.gui,
                country: p.country.clone(),
            })
            .collect();
        manifest.push_stage("generate", self.gen_wall);
        Fold {
            exp: self,
            metrics_before: wmtree_telemetry::global().snapshot(),
            sw: Stopwatch::start(),
            manifest,
            acc: PartialAccumulators::empty(self.names.clone()),
            source: None,
            build_wall: Duration::ZERO,
            analyze_wall: Duration::ZERO,
            tail_wall: Duration::ZERO,
            records: Vec::new(),
            sites_total: 0,
            sites_rebuilt: 0,
            sites_reused: 0,
        }
    }

    /// The crawl options this configuration describes.
    pub(crate) fn crawl_options(&self) -> CrawlOptions {
        CrawlOptions {
            max_pages_per_site: self.config.max_pages_per_site,
            workers: self.config.workers,
            experiment_seed: self.config.experiment_seed,
            reliable: self.config.reliable,
            stateful: false,
        }
    }

    /// The commander this configuration describes, for callers that
    /// want the raw crawl database (then [`accumulate`] it and
    /// [`fold`](Experiment::fold) the result).
    ///
    /// [`accumulate`]: Experiment::accumulate
    pub fn commander(&self) -> Commander<'_> {
        Commander::new(
            &self.universe,
            self.config.profiles.clone(),
            self.crawl_options(),
        )
    }

    /// A progress tracker for a crawl of the whole universe.
    pub(crate) fn progress(&self) -> ProgressTracker {
        ProgressTracker::new(self.universe.sites().len(), self.config.workers.max(1))
    }
}

/// The accumulations of one experiment share its roster, so a fold
/// conflict within one bundle can only be a page its visit log records
/// under more than one checkpoint, which the bundle loader refuses
/// first; a run reports any conflict against the log.
fn visit_fault(e: PartialMergeError) -> BundleError {
    let detail = match e {
        PartialMergeError::DuplicatePage { site, url } => {
            format!("page {site} / {url} is recorded under more than one checkpoint")
        }
        other => other.to_string(),
    };
    BundleError::ManifestMismatch {
        segment: "visits".to_string(),
        detail,
    }
}

/// One run on its way to [`ExperimentResults`] — the only way there.
/// [`Experiment::fold`] starts it; [`Fold::add`] folds in each
/// accumulation of the post-crawl stage ([`Experiment::accumulate`]),
/// one per site: per crawled site in `run` and `run_to_bundle`, per
/// replayed site ([`Fold::add_bundle`]) in both replays, the shard merge
/// and the prefix a completing `run_to_bundle` reads back.
/// [`Fold::finish`] restores the canonical page order, fills the
/// manifest and assembles the results, so every mode's outputs agree
/// byte for byte by construction.
///
/// Stages: `generate`, then the stage that produced the visits (`crawl`
/// or `read_bundle`, summed over bundles), then `build_trees` and
/// `analyze`, the summed per-site stage times of the folded
/// accumulations, which ran inside that stage on its workers. `analyze`
/// also counts the calling thread's time after it: storing and
/// committing tree-cache records and the final fold.
pub struct Fold<'e> {
    exp: &'e Experiment,
    metrics_before: Snapshot,
    sw: Stopwatch,
    manifest: RunManifest,
    acc: PartialAccumulators,
    /// The stage that produced the visits, and its summed wall time.
    source: Option<(&'static str, Duration)>,
    build_wall: Duration,
    analyze_wall: Duration,
    /// Calling-thread time after the source stage closed.
    tail_wall: Duration,
    /// Tree-cache records of the rebuilt sites, stored once their
    /// bundle has verified.
    records: Vec<SiteRecord>,
    sites_total: usize,
    sites_rebuilt: usize,
    sites_reused: usize,
}

impl Fold<'_> {
    /// Close the stage that produced the next visits — `crawl` or
    /// `read_bundle`. A run that reads several bundles (the shard merge)
    /// sums their wall time under the first stage name.
    pub fn lap(&mut self, stage: &'static str) {
        let wall = self.sw.lap();
        self.source.get_or_insert((stage, Duration::ZERO)).1 += wall;
    }

    /// Fold one accumulation in: its analysed pages, crawl accounting,
    /// cache use, stage times and the cache records it left to store.
    pub fn add(&mut self, acc: CachedAccumulation) -> Result<(), PartialMergeError> {
        self.acc.merge(acc.acc)?;
        self.sites_total += acc.sites_total;
        self.sites_rebuilt += acc.sites_rebuilt;
        self.sites_reused += acc.sites_reused;
        self.build_wall += acc.build_wall;
        self.analyze_wall += acc.analyze_wall;
        self.records.extend(acc.records);
        Ok(())
    }

    /// Fold the bundle at `dir` in, site by site, through `cache` when
    /// given: the bundle loader hands out each site once its objects
    /// verify, a worker decodes it and runs [`Experiment::accumulate`]
    /// on it (the cache lookup per site), and each accumulation is
    /// [`add`](Fold::add)ed in log order; that closes the `read_bundle`
    /// stage. Only once the whole bundle has verified are the rebuilt
    /// sites' records stored, in canonical site order, and the cache
    /// committed. Returns the bundle's page count. On an error the fold
    /// holds part of the bundle and must be dropped.
    pub fn add_bundle(
        &mut self,
        dir: &Path,
        cache: Option<&AnalysisCache>,
    ) -> Result<usize, BundleError> {
        let exp = self.exp;
        let before = self.acc.digest().pages_discovered;
        replay_cached(
            dir,
            cache,
            exp.config.workers,
            |db| exp.accumulate(&db, cache),
            |acc| self.add(acc).map_err(visit_fault),
        )?;
        self.lap("read_bundle");
        if let Some(cache) = cache {
            self.records.sort_by(|a, b| a.site.cmp(&b.site));
            cache.store(self.records.drain(..));
            if cache.commit().is_err() {
                wmtree_telemetry::counter!("tree.cache.disk.error").inc();
            }
        }
        self.tail_wall += self.sw.lap();
        Ok(self.acc.digest().pages_discovered - before)
    }

    /// Finish the run: restore the canonical `(site, url)` page order,
    /// record the stages and the metric diff (plus the crawl progress,
    /// when a crawl ran), and assemble the results.
    pub fn finish(
        mut self,
        progress: Option<&ProgressTracker>,
    ) -> Result<IncrementalReplay, PartialMergeError> {
        let acc = std::mem::replace(&mut self.acc, PartialAccumulators::empty(Vec::new()));
        let merged = acc.finish(self.exp.config.workers)?;
        self.tail_wall += self.sw.lap();
        let (sites_total, sites_rebuilt, sites_reused) =
            (self.sites_total, self.sites_rebuilt, self.sites_reused);
        Ok(IncrementalReplay {
            results: ExperimentResults::from_merged(merged, self.into_manifest(progress)),
            sites_total,
            sites_rebuilt,
            sites_reused,
        })
    }

    /// The run's manifest as it stands: the stages, the metric diff, the
    /// crawl progress when a crawl ran, and the span timings.
    pub(crate) fn into_manifest(self, progress: Option<&ProgressTracker>) -> RunManifest {
        let mut manifest = self.manifest;
        let within = self.source.map(|(stage, wall)| {
            manifest.push_stage(stage, wall);
            stage
        });
        manifest.push_nested("build_trees", self.build_wall, within, Duration::ZERO);
        manifest.push_nested(
            "analyze",
            self.analyze_wall + self.tail_wall,
            within,
            self.tail_wall,
        );

        manifest.metrics = wmtree_telemetry::global()
            .snapshot()
            .since(&self.metrics_before);
        if let Some(progress) = progress {
            let mut progress_snap = progress.snapshot();
            // Stalls are sampled deep inside the network model where the
            // tracker is out of reach; recover the count from the metric
            // diff so the progress record is complete.
            if let Some(MetricValue::Counter(n)) = manifest.metrics.metrics.get("net.fetch.stalled")
            {
                progress_snap.stalls = *n;
            }
            manifest.progress = Some(progress_snap);
        }
        manifest.timings = wmtree_telemetry::global().timings().snapshot();
        manifest
    }
}

/// Outcome of [`Experiment::run_to_bundle`].
#[derive(Debug)]
pub enum BundleRun {
    /// The crawl covered every site: full results plus the completed
    /// bundle's manifest (for dedup/size accounting).
    Complete {
        /// The analysis results, as from [`Experiment::run`].
        results: Box<ExperimentResults>,
        /// The bundle's final manifest.
        bundle: Manifest,
    },
    /// The site cap stopped the crawl early; analyses were skipped.
    Partial {
        /// Sites checkpointed so far (including previously recovered).
        sites_done: usize,
        /// Sites in the universe.
        sites_total: usize,
        /// The bundle's manifest as of the last checkpoint.
        bundle: Manifest,
        /// The run's manifest: the `generate` and `crawl` stages (with
        /// no stage time inside it), the crawl progress and the metrics.
        manifest: Box<RunManifest>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scale;

    #[test]
    fn tiny_experiment_end_to_end() {
        let results = Experiment::new(crate::ExperimentConfig::at_scale(Scale::Tiny)).run();
        assert_eq!(results.data.n_profiles(), 5);
        assert!(results.pages_discovered > 20);
        // Unreliable crawl: vetting drops some pages, none catastrophic.
        assert!(results.data.pages.len() > 5);
        assert!(results.data.pages.len() <= results.pages_discovered);
        assert_eq!(results.sims.len(), results.data.pages.len());
        for stats in &results.profile_stats {
            assert!(stats.success_rate() > 0.75, "{}", stats.success_rate());
        }
        assert!(results.vetted_sites > 0);
    }

    #[test]
    fn replay_from_bundle_matches_crawl_then_analyze() {
        let dir = std::env::temp_dir().join("wmtree-core-replay");
        let _ = std::fs::remove_dir_all(&dir);
        let exp = Experiment::new(crate::ExperimentConfig::at_scale(Scale::Tiny));
        let crawled = match exp.run_to_bundle(&dir, None).unwrap() {
            super::BundleRun::Complete { results, bundle } => {
                assert!(bundle.complete);
                *results
            }
            super::BundleRun::Partial { .. } => panic!("uncapped run must complete"),
        };
        let replayed = exp.replay_from_bundle(&dir).unwrap();
        assert_eq!(crawled.data.pages.len(), replayed.data.pages.len());
        assert_eq!(crawled.sims, replayed.sims);
        // Rendered reports (and their CSVs) must match byte for byte.
        let a = crate::Report::generate(&crawled);
        let b = crate::Report::generate(&replayed);
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn cached_replay_matches_plain_replay_and_goes_warm() {
        let dir = std::env::temp_dir().join("wmtree-core-cached-replay");
        let _ = std::fs::remove_dir_all(&dir);
        let exp = Experiment::new(crate::ExperimentConfig::at_scale(Scale::Tiny));
        match exp.run_to_bundle(&dir, None).unwrap() {
            super::BundleRun::Complete { .. } => {}
            super::BundleRun::Partial { .. } => panic!("uncapped run must complete"),
        }
        let plain = exp.replay_from_bundle(&dir).unwrap();
        let plain_report = crate::Report::generate(&plain);

        let cache_dir = dir.join(wmtree_tree::cache::CACHE_DIR_NAME);
        let cache = crate::AnalysisCache::open(&cache_dir, exp.config());
        let cold = exp.replay_from_bundle_cached(&dir, &cache).unwrap();
        assert_eq!(cold.sites_reused, 0, "empty cache reuses nothing");
        assert_eq!(cold.sites_rebuilt, cold.sites_total);
        let cold_report = crate::Report::generate(&cold.results);
        assert_eq!(
            cold_report.render(),
            plain_report.render(),
            "cold cached replay must match the uncached replay byte for byte"
        );
        assert_eq!(cold_report.to_json(), plain_report.to_json());

        let warm = exp.replay_from_bundle_cached(&dir, &cache).unwrap();
        assert_eq!(
            warm.sites_reused, warm.sites_total,
            "unchanged bundle must fold every site from cache"
        );
        assert_eq!(warm.sites_rebuilt, 0);
        let warm_report = crate::Report::generate(&warm.results);
        assert_eq!(warm_report.render(), plain_report.render());
        assert_eq!(warm_report.to_json(), plain_report.to_json());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A report's rendered text, JSON, and CSV files (name, bytes) as
    /// written into `dir`.
    type Rendered = (String, String, Vec<(String, Vec<u8>)>);

    fn rendered(results: &ExperimentResults, dir: &Path) -> Rendered {
        let report = crate::Report::generate(results);
        let mut csvs: Vec<(String, Vec<u8>)> = report
            .write_csv_dir(dir)
            .unwrap()
            .into_iter()
            .map(|path| {
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                (name, std::fs::read(&path).unwrap())
            })
            .collect();
        csvs.sort();
        (report.render(), report.to_json(), csvs)
    }

    #[test]
    fn capped_bundle_run_reports_partial_then_resumes() {
        let dir = std::env::temp_dir().join("wmtree-core-partial");
        let _ = std::fs::remove_dir_all(&dir);
        let one = crate::ExperimentConfig {
            workers: 1,
            ..crate::ExperimentConfig::at_scale(Scale::Tiny)
        };
        let eight = crate::ExperimentConfig {
            workers: 8,
            ..one.clone()
        };
        let expect = rendered(&Experiment::new(one.clone()).run(), &dir.join("csv-run"));

        // Capped after 3 sites at one worker: no analysis runs.
        let bundle = dir.join("bundle");
        let first = Experiment::new(one)
            .run_to_bundle(&bundle, Some(3))
            .unwrap();
        let (done, total) = match first {
            super::BundleRun::Partial {
                sites_done,
                sites_total,
                ref bundle,
                ..
            } => {
                assert!(!bundle.complete);
                (sites_done, sites_total)
            }
            super::BundleRun::Complete { .. } => panic!("cap of 3 must interrupt"),
        };
        assert_eq!(done, 3);
        assert!(done < total);

        // Resumed without a cap at eight workers: it completes, and its
        // report is the one-worker run's, byte for byte — and so is a
        // second run over the complete bundle.
        let exp = Experiment::new(eight);
        for pass in ["resumed", "rerun"] {
            match exp.run_to_bundle(&bundle, None).unwrap() {
                super::BundleRun::Complete { results, bundle } => {
                    assert!(bundle.complete);
                    let got = rendered(&results, &dir.join(format!("csv-{pass}")));
                    assert!(got == expect, "{pass} report differs from run()");
                }
                super::BundleRun::Partial { .. } => panic!("uncapped {pass} must complete"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_from_missing_or_non_bundle_path_is_located() {
        // The `repro --from-bundle` error paths: both mistakes must
        // surface as one clear, located message, not an io error chain.
        let exp = Experiment::new(crate::ExperimentConfig::at_scale(Scale::Tiny));

        let missing = std::env::temp_dir().join("wmtree-core-no-such-bundle");
        let _ = std::fs::remove_dir_all(&missing);
        let err = exp.replay_from_bundle(&missing).expect_err("missing dir");
        assert!(matches!(err, BundleError::NotFound { .. }), "{err:?}");
        let msg = err.to_string();
        assert!(
            msg.contains("no bundle manifest found") && msg.contains("wmtree-core-no-such-bundle"),
            "locates the missing bundle: {msg}"
        );

        let file = std::env::temp_dir().join("wmtree-core-bundle-as-file.json");
        std::fs::write(&file, "{}").unwrap();
        let err = exp.replay_from_bundle(&file).expect_err("file path");
        assert!(matches!(err, BundleError::NotADirectory { .. }), "{err:?}");
        let msg = err.to_string();
        assert!(
            msg.contains("not a directory") && msg.contains("wmtree-core-bundle-as-file.json"),
            "locates the non-bundle path: {msg}"
        );
    }

    #[test]
    fn runs_are_reproducible() {
        let cfg = crate::ExperimentConfig::at_scale(Scale::Tiny);
        let a = Experiment::new(cfg.clone()).run();
        let b = Experiment::new(cfg).run();
        assert_eq!(a.data.pages.len(), b.data.pages.len());
        assert_eq!(a.successful_visits, b.successful_visits);
        for (pa, pb) in a.data.pages.iter().zip(&b.data.pages) {
            assert_eq!(pa.url, pb.url);
            assert_eq!(pa.trees, pb.trees);
        }
    }
}
