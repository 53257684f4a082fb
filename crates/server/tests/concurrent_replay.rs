//! Concurrent replay determinism: N clients hammering the same
//! finished job through the server's replay cache must all get
//! byte-identical bodies, and the cache's hit/miss counters must
//! account for every request exactly once. The bodies a cache entry
//! renders once must equal an in-process render of the same replay,
//! whether served on the miss that fills the entry, on a hit, or after
//! an eviction and refill.

mod common;

use common::{get, scratch};
use std::path::PathBuf;
use std::sync::{Mutex, PoisonError};
use wmtree::{BundleRun, Experiment, Report};
use wmtree_bundle::bundle_content_hash;
use wmtree_server::{JobSpec, JobState, JobStore, Server, ServerConfig};
use wmtree_telemetry::MetricValue;

/// The tests in this binary diff the process-global counters, so they
/// take turns.
static COUNTERS: Mutex<()> = Mutex::new(());

fn counter_value(snap: &wmtree_telemetry::Snapshot, name: &str) -> u64 {
    match snap.metrics.get(name) {
        Some(MetricValue::Counter(n)) => *n,
        _ => 0,
    }
}

/// Crawl a Tiny experiment offline straight into a new job's bundle
/// directory and mark the job `Done` — the store's on-disk format is
/// public API, so a test can assemble a finished job and point the
/// server at it. `seed` overrides the universe seed.
fn done_job(store: &JobStore, seed: Option<u64>) -> (Experiment, PathBuf) {
    let job = store
        .submit(JobSpec {
            scale: "tiny".to_string(),
            seed,
            workers: None,
        })
        .expect("submit");
    let experiment = Experiment::new(job.spec.config().expect("job config"));
    let bundle_dir = store.bundle_dir(&job);
    let BundleRun::Complete { .. } = experiment
        .run_to_bundle(&bundle_dir, None)
        .expect("offline crawl")
    else {
        panic!("uncapped run must complete");
    };
    let hash = bundle_content_hash(&bundle_dir).expect("hash");
    store
        .update(job.id, |j| {
            j.state = JobState::Done;
            j.sites_done = experiment.universe().sites().len();
            j.sites_total = j.sites_done;
            j.bundle_hash = Some(hash.clone());
        })
        .expect("mark done");
    (experiment, bundle_dir)
}

#[test]
fn concurrent_replays_are_byte_identical_and_counted() {
    let _turn = COUNTERS.lock().unwrap_or_else(PoisonError::into_inner);
    let root = scratch("concurrent-replay");
    let (store, _) = JobStore::open(&root).expect("open store");
    let (experiment, bundle_dir) = done_job(&store, None);
    drop(store);
    let expected = Report::generate(
        &experiment
            .replay_from_bundle(&bundle_dir)
            .expect("offline replay"),
    )
    .render();

    let handle = Server::start(ServerConfig::new(&root)).expect("start server");
    let addr = handle.addr();

    const CLIENTS: usize = 8;
    let before = wmtree_telemetry::global().snapshot();
    let bodies: Vec<String> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(move || {
                    let resp = get(addr, "/jobs/0/report");
                    assert_eq!(resp.status, 200);
                    resp.text()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client"))
            .collect()
    });
    let after = wmtree_telemetry::global().snapshot();

    for body in &bodies {
        assert_eq!(body, &bodies[0], "concurrent replays disagree");
    }
    assert_eq!(
        bodies[0], expected,
        "served report drifted from offline replay"
    );

    // Every request took exactly one lookup: hits + misses == N, and
    // the first request in can never have been a hit.
    let diff = after.since(&before);
    let hits = counter_value(&diff, "server.replay.cache.hit");
    let misses = counter_value(&diff, "server.replay.cache.miss");
    assert_eq!(
        hits + misses,
        CLIENTS as u64,
        "hits {hits} + misses {misses}"
    );
    assert!(misses >= 1);

    // A sequential refetch now must be a pure cache hit.
    let resp = get(addr, "/jobs/0/report");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.text(), expected);
    let final_diff = wmtree_telemetry::global().snapshot().since(&after);
    assert_eq!(counter_value(&final_diff, "server.replay.cache.hit"), 1);
    assert_eq!(counter_value(&final_diff, "server.replay.cache.miss"), 0);

    // The metrics endpoint exposes the same counters it just bumped.
    let metrics = get(addr, "/metrics").text();
    assert!(metrics.contains("server.replay.cache.hit"), "{metrics}");
    assert!(metrics.contains("server.http.requests"), "{metrics}");

    // The per-site diff endpoint derives from the same cached replay:
    // deterministic across fetches, 404 for unknown sites.
    let site = {
        let results = experiment
            .replay_from_bundle(&bundle_dir)
            .expect("replay for site pick");
        results.data.pages[0].site.to_string()
    };
    let first = get(addr, &format!("/jobs/0/diff/{site}"));
    assert_eq!(first.status, 200);
    let body = first.text();
    assert!(body.contains("\"baseline\""), "{body}");
    assert_eq!(get(addr, &format!("/jobs/0/diff/{site}")).text(), body);
    assert_eq!(get(addr, "/jobs/0/diff/no-such-site.example").status, 404);

    handle.shutdown();
}

/// Every replay-derived body of job 0, as `(route, body)`: the report,
/// its JSON and all eight CSVs, rendered in process from one replay of
/// the bundle.
fn in_process_bodies(
    experiment: &Experiment,
    bundle_dir: &std::path::Path,
) -> Vec<(String, String)> {
    let report = Report::generate(
        &experiment
            .replay_from_bundle(bundle_dir)
            .expect("offline replay"),
    );
    let csvs = [
        ("fig1", report.fig1_csv()),
        ("fig2", report.fig2_csv()),
        ("fig3", report.fig3_csv()),
        ("fig4", report.fig4_csv()),
        ("fig7", report.fig7_csv()),
        ("fig8", report.fig8_csv()),
        ("table5", report.table5_csv()),
        ("table7", report.table7_csv()),
    ];
    let mut bodies = vec![
        ("report".to_string(), report.render()),
        ("report.json".to_string(), report.to_json()),
    ];
    bodies.extend(
        csvs.into_iter()
            .map(|(name, body)| (format!("csv/{name}"), body)),
    );
    bodies
}

#[test]
fn once_rendered_bodies_match_the_in_process_render() {
    let _turn = COUNTERS.lock().unwrap_or_else(PoisonError::into_inner);
    let root = scratch("rendered-once");
    let (store, _) = JobStore::open(&root).expect("open store");
    let (experiment, bundle_dir) = done_job(&store, None);
    // A second universe, so a second bundle hash: fetching it evicts
    // job 0 from a one-entry cache.
    done_job(&store, Some(7));
    drop(store);
    let want = in_process_bodies(&experiment, &bundle_dir);

    let mut config = ServerConfig::new(&root);
    config.cache_capacity = 1;
    let handle = Server::start(config).expect("start server");
    let addr = handle.addr();

    // Fetch every body of job 0, starting at `first`; the first fetch
    // of a round is the one that finds the cache as the round left it.
    let round = |first: usize| {
        for i in 0..want.len() {
            let (route, body) = &want[(first + i) % want.len()];
            let resp = get(addr, &format!("/jobs/0/{route}"));
            assert_eq!(resp.status, 200, "{route}: {}", resp.text());
            assert!(
                resp.text() == *body,
                "{route} drifted from the in-process render"
            );
        }
    };
    let counts = |since: &wmtree_telemetry::Snapshot| {
        let diff = wmtree_telemetry::global().snapshot().since(since);
        [
            "server.replay.cache.miss",
            "server.replay.cache.hit",
            "server.replay.cache.evict",
        ]
        .map(|name| counter_value(&diff, name))
    };
    let n = want.len() as u64;

    // The miss that fills the cache serves the report; the other nine
    // bodies come from the entry it filled.
    let before = wmtree_telemetry::global().snapshot();
    round(0);
    assert_eq!(counts(&before), [1, n - 1, 0]);

    // A later round is all hits.
    let before = wmtree_telemetry::global().snapshot();
    round(0);
    assert_eq!(counts(&before), [0, n, 0]);

    // Job 1 evicts job 0; the refill's miss serves a CSV this time.
    let before = wmtree_telemetry::global().snapshot();
    assert_eq!(get(addr, "/jobs/1/report").status, 200);
    round(want.len() - 1);
    assert_eq!(counts(&before), [2, n - 1, 2]);

    handle.shutdown();
}
