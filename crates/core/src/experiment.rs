//! The experiment runner: universe → crawl → vetting → trees → node
//! similarities.

use crate::config::ExperimentConfig;
use crate::incremental::{accumulate_cached, read_bundle_cached, AnalysisCache, IncrementalReplay};
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

/// What the post-crawl pipeline takes from an experiment besides the
/// crawl database.
pub(crate) struct AnalysisInputs {
    /// Profile names, in slot order.
    pub(crate) names: Vec<String>,
    /// The tracking filter list, when the configuration uses one.
    pub(crate) filter: Option<&'static FilterList>,
    /// Site → `(rank, bucket label)` over the whole universe.
    pub(crate) site_meta: BTreeMap<String, (u32, String)>,
}

/// A configured experiment.
#[derive(Debug)]
pub struct Experiment {
    config: ExperimentConfig,
    universe: WebUniverse,
    /// Wall time of universe generation (the `generate` stage happens
    /// in [`Experiment::new`], before `run`).
    gen_wall: Duration,
}

impl Experiment {
    /// Generate the universe for a configuration.
    pub fn new(config: ExperimentConfig) -> Experiment {
        let _span = wmtree_telemetry::span("experiment.generate");
        let mut sw = Stopwatch::start();
        let universe = WebUniverse::generate(config.universe);
        let gen_wall = sw.lap();
        Experiment {
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
    /// the way.
    pub fn run(&self) -> ExperimentResults {
        let _run_span = wmtree_telemetry::span("experiment.run");
        let mut fold = self.fold();
        let progress = self.progress();
        let db = self.commander().run_with_progress(&progress);
        fold.lap("crawl");
        fold.add(db, None)
            .and_then(|()| fold.finish(Some(&progress)))
            .map(|run| run.results)
            // One crawl database holds each page once, under one
            // profile roster, so its fold has nothing to conflict on.
            .expect("one crawl database folds cleanly") // wmtree-lint: allow(WM0105)
    }

    /// [`run`](Experiment::run), but crawling *resumably* into the
    /// bundle at `dir` — created if absent, resumed (skipping
    /// checkpointed sites) if present. `max_sites` caps how many sites
    /// this invocation crawls; when the cap stops the crawl early the
    /// analyses are skipped and [`BundleRun::Partial`] reports how far
    /// the archive got. A crawl interrupted this way and resumed leaves
    /// a bundle byte-identical to an uninterrupted run.
    pub fn run_to_bundle(
        &self,
        dir: &Path,
        max_sites: Option<usize>,
    ) -> Result<BundleRun, BundleError> {
        let _run_span = wmtree_telemetry::span("experiment.run_to_bundle");
        let mut fold = self.fold();
        let progress = self.progress();
        let outcome = self
            .commander()
            .run_resumable_with_progress(dir, max_sites, &progress)?;
        fold.lap("crawl");

        match outcome {
            ResumableOutcome::Complete {
                db,
                manifest: bundle,
            } => {
                fold.add(db, None).map_err(cache_fault)?;
                let run = fold.finish(Some(&progress)).map_err(cache_fault)?;
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
    ) -> Result<ResumableOutcome<()>, BundleError> {
        let _run_span = wmtree_telemetry::span("experiment.crawl_window");
        let progress = ProgressTracker::new(hi - lo, self.config.workers.max(1));
        self.commander()
            .with_site_range(lo, hi)
            .record_window(dir, max_sites, &progress)
    }

    /// Skip crawling entirely: rebuild the database from a (complete)
    /// bundle recorded under the *same* configuration and run the
    /// analyses on it. The results — and any report/CSV rendered from
    /// them — are identical to a crawl-then-analyze run.
    pub fn replay_from_bundle(&self, dir: &Path) -> Result<ExperimentResults, BundleError> {
        self.replay(dir, None).map(|replay| replay.results)
    }

    /// [`replay_from_bundle`](Experiment::replay_from_bundle) through
    /// an [`AnalysisCache`]: unchanged sites take their trees from their
    /// cache records without building one, changed sites build theirs
    /// and record them, and the cache is committed (appended records
    /// made durable) before returning. The results are byte-identical
    /// to the uncached replay; the [`IncrementalReplay`] wrapper
    /// additionally reports how much work the cache absorbed.
    pub fn replay_from_bundle_cached(
        &self,
        dir: &Path,
        cache: &AnalysisCache,
    ) -> Result<IncrementalReplay, BundleError> {
        self.replay(dir, Some(cache))
    }

    /// Both bundle replays: read the bundle through `cache` when one is
    /// given ([`read_bundle_cached`]: sites it holds decode header-only),
    /// then fold it through the same cache.
    fn replay(
        &self,
        dir: &Path,
        cache: Option<&AnalysisCache>,
    ) -> Result<IncrementalReplay, BundleError> {
        let _run_span = wmtree_telemetry::span("experiment.replay");
        let mut fold = self.fold();
        Manifest::load(dir)?.check_meta(&self.commander().bundle_meta())?;
        let db = read_bundle_cached(dir, cache)?;
        fold.lap("read_bundle");
        fold.add(db, cache).map_err(cache_fault)?;
        fold.finish(None).map_err(cache_fault)
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
        let inputs = self.analysis_inputs();
        Fold {
            exp: self,
            metrics_before: wmtree_telemetry::global().snapshot(),
            sw: Stopwatch::start(),
            manifest,
            acc: PartialAccumulators::empty(inputs.names.clone()),
            inputs,
            source: None,
            build_wall: Duration::ZERO,
            analyze_wall: Duration::ZERO,
            sites_total: 0,
            sites_rebuilt: 0,
            sites_reused: 0,
        }
    }

    /// What the post-crawl pipeline takes from this experiment besides
    /// the crawl database.
    pub(crate) fn analysis_inputs(&self) -> AnalysisInputs {
        AnalysisInputs {
            names: self
                .config
                .profiles
                .iter()
                .map(|p| p.name.clone())
                .collect(),
            filter: self.config.use_filter_list.then(tracking_list),
            site_meta: self
                .universe
                .sites()
                .iter()
                .map(|s| (s.domain.clone(), (s.rank, s.bucket.label().to_string())))
                .collect(),
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
    /// want the raw crawl database (then [`fold`](Experiment::fold) it).
    pub fn commander(&self) -> Commander<'_> {
        Commander::new(
            &self.universe,
            self.config.profiles.clone(),
            self.crawl_options(),
        )
    }

    /// A progress tracker for a crawl of the whole universe.
    fn progress(&self) -> ProgressTracker {
        ProgressTracker::new(self.universe.sites().len(), self.config.workers.max(1))
    }
}

/// A single database cannot contain duplicate pages or a foreign
/// roster, so its fold has nothing to conflict on; should one fail
/// regardless, the replay reports it against its derived state rather
/// than panicking.
fn cache_fault(e: PartialMergeError) -> BundleError {
    BundleError::ManifestMismatch {
        segment: wmtree_tree::cache::CACHE_DIR_NAME.to_string(),
        detail: e.to_string(),
    }
}

/// One run on its way from crawl databases to [`ExperimentResults`] —
/// the only way there. [`Experiment::fold`] starts it; every database
/// the run crawls or reads is folded in by [`Fold::add`], through an
/// optional [`AnalysisCache`]; [`Fold::finish`] restores the canonical
/// page order, fills the manifest and assembles the results. `run`,
/// `run_to_bundle`, both bundle replays and the shard merge all go
/// through it, so their outputs agree byte for byte by construction.
///
/// Stages: `generate`, then the stage that produced the databases
/// (`crawl` or `read_bundle`, summed over databases), then
/// `build_trees` and `analyze` (which includes the fold).
pub struct Fold<'e> {
    exp: &'e Experiment,
    inputs: AnalysisInputs,
    metrics_before: Snapshot,
    sw: Stopwatch,
    manifest: RunManifest,
    acc: PartialAccumulators,
    /// The stage that produced the databases, and its summed wall time.
    source: Option<(&'static str, Duration)>,
    build_wall: Duration,
    analyze_wall: Duration,
    sites_total: usize,
    sites_rebuilt: usize,
    sites_reused: usize,
}

impl Fold<'_> {
    /// Close the stage that produced the next database — `crawl` or
    /// `read_bundle`. A run that reads several databases (the shard
    /// merge) sums their wall time under the first stage name.
    pub fn lap(&mut self, stage: &'static str) {
        let wall = self.sw.lap();
        self.source.get_or_insert((stage, Duration::ZERO)).1 += wall;
    }

    /// Fold one crawl database in — through `cache` when given, which
    /// is committed before returning — and drop it: vetting, trees (from
    /// the cache where it holds them), analyses and crawl accounting
    /// ([`accumulate_cached`]).
    pub fn add(
        &mut self,
        db: CrawlDb,
        cache: Option<&AnalysisCache>,
    ) -> Result<(), PartialMergeError> {
        let config = &self.exp.config;
        let fold = {
            let _span = wmtree_telemetry::span("experiment.build_trees");
            accumulate_cached(
                &db,
                &self.inputs.names,
                self.inputs.filter,
                &config.tree,
                &self.inputs.site_meta,
                config.workers,
                cache,
            )?
        };
        drop(db);
        if cache.is_some_and(|cache| cache.commit().is_err()) {
            wmtree_telemetry::counter!("tree.cache.disk.error").inc();
        }
        self.acc.merge(fold.acc)?;
        self.sites_total += fold.sites_total;
        self.sites_rebuilt += fold.sites_rebuilt;
        self.sites_reused += fold.sites_reused;
        self.build_wall += fold.build_wall;
        self.analyze_wall += self.sw.lap().saturating_sub(fold.build_wall);
        Ok(())
    }

    /// Finish the run: restore the canonical `(site, url)` page order,
    /// record the stages and the metric diff (plus the crawl progress,
    /// when a crawl ran), and assemble the results.
    pub fn finish(
        mut self,
        progress: Option<&ProgressTracker>,
    ) -> Result<IncrementalReplay, PartialMergeError> {
        let merged = self.acc.finish(self.exp.config.workers)?;
        self.analyze_wall += self.sw.lap();
        let mut manifest = self.manifest;
        if let Some((stage, wall)) = self.source {
            manifest.push_stage(stage, wall);
        }
        manifest.push_stage("build_trees", self.build_wall);
        manifest.push_stage("analyze", self.analyze_wall);

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

        Ok(IncrementalReplay {
            results: ExperimentResults::from_merged(merged, manifest),
            sites_total: self.sites_total,
            sites_rebuilt: self.sites_rebuilt,
            sites_reused: self.sites_reused,
        })
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

    #[test]
    fn capped_bundle_run_reports_partial_then_resumes() {
        let dir = std::env::temp_dir().join("wmtree-core-partial");
        let _ = std::fs::remove_dir_all(&dir);
        let exp = Experiment::new(crate::ExperimentConfig::at_scale(Scale::Tiny));
        let first = exp.run_to_bundle(&dir, Some(2)).unwrap();
        let (done, total) = match first {
            super::BundleRun::Partial {
                sites_done,
                sites_total,
                ref bundle,
            } => {
                assert!(!bundle.complete);
                (sites_done, sites_total)
            }
            super::BundleRun::Complete { .. } => panic!("cap of 2 must interrupt"),
        };
        assert!(done < total);
        // Resume without a cap: now it completes.
        match exp.run_to_bundle(&dir, None).unwrap() {
            super::BundleRun::Complete { bundle, .. } => assert!(bundle.complete),
            super::BundleRun::Partial { .. } => panic!("uncapped resume must complete"),
        }
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
