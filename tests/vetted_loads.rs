//! The staged crawl (`Commander::crawl`, under `Experiment::run`) loads a
//! page only when every profile navigated it: vetting (§3.2) drops every
//! other page. These tests hold it to a crawl that loads every visit
//! (`Commander::run`, its whole database accumulated and folded as one
//! site stream): the same report, JSON, CSVs, crawl accounting and visit
//! counters, with exactly the vetted visits' requests loaded. A stateful
//! crawl, whose cookie jar carries each load into the next page, still
//! loads every navigated visit.

use std::sync::{Mutex, MutexGuard, PoisonError};
use wmtree::crawler::{Commander, CrawlDb, CrawlOptions, VisitResult};
use wmtree::report::CSVS;
use wmtree::telemetry::{MetricValue, ProgressTracker};
use wmtree::{Experiment, ExperimentConfig, ExperimentResults, Report, Scale};

/// Each run reads the process-global metrics as a diff, so the tests of
/// this binary take turns.
fn turn() -> MutexGuard<'static, ()> {
    static RUNS: Mutex<()> = Mutex::new(());
    RUNS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `(universe seed, experiment seed)`: the default Tiny experiment's and
/// two others.
const SEEDS: [(u64, u64); 3] = [(0x2023_11ac, 0x1317), (7, 11), (0x7e1e, 0xbeef)];

fn tiny(universe_seed: u64, experiment_seed: u64, workers: usize) -> ExperimentConfig {
    let mut config = ExperimentConfig::at_scale(Scale::Tiny);
    config.universe.seed = universe_seed;
    config.experiment_seed = experiment_seed;
    config.workers = workers;
    config
}

fn counter(results: &ExperimentResults, name: &str) -> u64 {
    match results.manifest.metrics.metrics.get(name) {
        Some(MetricValue::Counter(n)) => *n,
        None => 0,
        other => panic!("{name} is not a counter: {other:?}"),
    }
}

fn histogram_sum(results: &ExperimentResults, name: &str) -> u64 {
    match results.manifest.metrics.metrics.get(name) {
        Some(MetricValue::Histogram(h)) => h.sum,
        other => panic!("{name} is not a histogram: {other:?}"),
    }
}

/// Requests of `visits`.
fn requests<'d>(visits: impl IntoIterator<Item = &'d VisitResult>) -> u64 {
    visits.into_iter().map(|v| v.request_count() as u64).sum()
}

#[test]
fn vetted_loads_report_what_loading_every_visit_reports() {
    let _turn = turn();
    for (universe_seed, experiment_seed) in SEEDS {
        for workers in [1, 2] {
            let at = format!("seeds {universe_seed:#x}/{experiment_seed:#x}, workers {workers}");
            let exp = Experiment::new(tiny(universe_seed, experiment_seed, workers));
            let vetted = exp.run();
            let mut fold = exp.fold();
            let db = exp.commander().run();
            fold.add(exp.accumulate(&db, None))
                .expect("one crawl folds");
            let full = fold.finish(None).expect("one crawl folds").results;

            let (ours, theirs) = (Report::generate(&vetted), Report::generate(&full));
            assert_eq!(ours.render(), theirs.render(), "{at}");
            assert_eq!(ours.to_json(), theirs.to_json(), "{at}");
            for (name, _, csv) in CSVS {
                assert_eq!(csv(&ours), csv(&theirs), "{name}, {at}");
            }
            assert_eq!(vetted.profile_stats, full.profile_stats, "{at}");
            assert_eq!(vetted.pages_discovered, full.pages_discovered, "{at}");
            assert_eq!(vetted.successful_visits, full.successful_visits, "{at}");
            assert_eq!(vetted.vetted_sites, full.vetted_sites, "{at}");
            for name in [
                "browser.visit.started",
                "browser.visit.ok",
                "browser.visit.failed",
            ] {
                assert_eq!(counter(&vetted, name), counter(&full, name), "{name}, {at}");
            }

            // The staged crawl loaded exactly the vetted pages' visits;
            // the full crawl loaded every successful one, some of them on
            // pages vetting drops.
            let vetted_pages = db.vetted_pages();
            let loaded = histogram_sum(&vetted, "browser.visit.requests");
            assert_eq!(
                loaded,
                requests(vetted_pages.iter().flat_map(|(_, v)| v.iter().copied())),
                "{at}"
            );
            let every: u64 = (db.pages())
                .map(|page| requests((0..db.n_profiles()).filter_map(|p| db.visit(page, p))))
                .sum();
            assert_eq!(
                histogram_sum(&full, "browser.visit.requests"),
                every,
                "{at}"
            );
            assert!(loaded < every, "{at}: no page was discarded");
        }
    }
}

/// The database of `commander`'s staged crawl, its sites merged.
fn staged(commander: &Commander<'_>, sites: usize, n_profiles: usize) -> CrawlDb {
    let mut db = CrawlDb::new(n_profiles);
    commander
        .crawl(
            &ProgressTracker::new(sites, 2),
            |site| site,
            |site| db.try_merge(site),
        )
        .expect("sites never overlap");
    db
}

#[test]
fn a_staged_crawl_records_outcomes_of_the_pages_vetting_drops() {
    let _turn = turn();
    let config = tiny(SEEDS[0].0, SEEDS[0].1, 2);
    let exp = Experiment::new(config.clone());
    let n = config.profiles.len();
    let sites = exp.universe().sites().len();
    let (full, db) = (exp.commander().run(), staged(&exp.commander(), sites, n));

    let vetted: Vec<_> = full
        .vetted_pages()
        .into_iter()
        .map(|(page, _)| page)
        .collect();
    let mut unloaded = 0;
    for page in full.pages() {
        for profile in 0..n {
            let recorded = full.visit_any(page, profile).expect("every slot recorded");
            let kept = vetted.contains(&page);
            // A navigated visit of a dropped page holds no visit; every
            // other slot holds the full crawl's.
            let navigated_only = recorded.success && !kept;
            assert_eq!(
                db.unloaded(page, profile),
                navigated_only,
                "{page:?} {profile}"
            );
            let want = (!navigated_only).then_some(recorded);
            assert_eq!(db.visit_any(page, profile), want, "{page:?} {profile}");
            unloaded += usize::from(navigated_only);
        }
    }
    assert!(unloaded > 0, "no page was discarded");
    assert_eq!(db.vetted_pages(), full.vetted_pages());
    assert_eq!(db.profile_stats(), full.profile_stats());
    assert_eq!(db.page_count(), full.page_count());
    assert_eq!(db.total_successful_visits(), full.total_successful_visits());
    assert_eq!(db.vetted_sites(), full.vetted_sites());
    for k in 0..=n + 1 {
        assert_eq!(db.pages_crawled_by(k), full.pages_crawled_by(k), "k = {k}");
    }
}

#[test]
fn a_stateful_crawl_loads_every_navigated_visit() {
    let _turn = turn();
    let config = tiny(SEEDS[0].0, SEEDS[0].1, 2);
    let exp = Experiment::new(config.clone());
    let commander = Commander::new(
        exp.universe(),
        config.profiles.clone(),
        CrawlOptions {
            max_pages_per_site: config.max_pages_per_site,
            workers: 2,
            experiment_seed: config.experiment_seed,
            reliable: false,
            stateful: true,
        },
    );
    let n = config.profiles.len();
    let db = staged(&commander, exp.universe().sites().len(), n);
    let full = commander.run();
    assert_eq!(
        serde_json::to_string(&db).unwrap(),
        serde_json::to_string(&full).unwrap()
    );
    let pages: Vec<_> = db.pages().collect();
    assert!(pages
        .iter()
        .all(|page| (0..n).all(|p| !db.unloaded(page, p))));
    // Some page vetting drops was loaded all the same.
    let successful = |page| (0..n).filter(|&p| db.visit(page, p).is_some()).count();
    assert!(pages.iter().any(|page| (1..n).contains(&successful(page))));
}
