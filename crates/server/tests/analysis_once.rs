//! A server job is analysed exactly once: its crawl batches only crawl,
//! and the first replay request runs the one analysis (writing the
//! job's `TREECACHE/`); later requests hit the replay cache.
//!
//! This file is its own test binary, so the process-global metric
//! registry behind `/metrics` sees no other job or replay.

mod common;

use common::{get, request, scratch};
use wmtree_server::{JobRecord, JobState, Server, ServerConfig};

/// The value of one counter on `/metrics` (0 while never recorded).
fn counter(addr: std::net::SocketAddr, name: &str) -> u64 {
    let text = get(addr, "/metrics").text();
    text.lines()
        .filter_map(|line| line.split_once(' '))
        .find(|(metric, _)| *metric == name)
        .map_or(0, |(_, value)| value.parse().expect("counter value"))
}

#[test]
fn a_job_is_analysed_once_by_its_first_replay() {
    let root = scratch("analysis-once");
    let handle = Server::start(ServerConfig::new(&root)).expect("start server");
    let addr = handle.addr();
    let before = counter(addr, "analysis.pages_analyzed");

    let resp = request(addr, "POST", "/jobs", &[], b"{\"scale\": \"tiny\"}");
    assert_eq!(resp.status, 201, "{}", resp.text());
    let mut done = None;
    for _ in 0..4800 {
        let job: JobRecord =
            serde_json::from_str(&get(addr, "/jobs/0").text()).expect("job record json");
        if job.state == JobState::Done {
            done = Some(job);
            break;
        }
        assert_ne!(job.state, JobState::Failed, "{:?}", job.error);
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    let job = done.expect("the job reaches Done");

    // Crawling ran no analysis and left no cache behind.
    assert_eq!(counter(addr, "analysis.pages_analyzed"), before);
    let tree_cache = root
        .join(&job.dir)
        .join(wmtree::tree::cache::CACHE_DIR_NAME);
    assert!(
        !tree_cache.exists(),
        "no TREECACHE/ before the first replay"
    );

    // The first report request analyses the job...
    assert_eq!(get(addr, "/jobs/0/report").status, 200);
    let analysed = counter(addr, "analysis.pages_analyzed");
    assert!(analysed > before, "the first replay runs the analysis");
    assert!(tree_cache.exists(), "the first replay writes TREECACHE/");

    // ...and the second is served from the replay cache.
    assert_eq!(get(addr, "/jobs/0/report").status, 200);
    assert_eq!(counter(addr, "analysis.pages_analyzed"), analysed);

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}
