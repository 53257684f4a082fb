//! The content-addressed replay cache.
//!
//! Everything the server serves from a finished job — report, JSON,
//! CSVs, per-site tree diffs — derives from one replay of the job's
//! bundle. Replays are deterministic, so the bundle's content hash is
//! a complete cache key *and* the HTTP ETag: same hash, byte-identical
//! responses. An entry holds the replayed results (for the diff
//! endpoint) and every other response body, rendered once when the
//! replay enters the cache; a hit copies a body out, it never renders.
//! The cache holds `Arc` snapshots with LRU eviction; concurrent
//! readers share one snapshot without copying.
//!
//! Recency is tracked with a logical tick (a monotone counter), not
//! wall time — the serving path performs no clock reads, keeping the
//! crate inside the workspace's determinism lint budget.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use wmtree::{ExperimentResults, Report};
use wmtree_telemetry::counter;

/// Renders one CSV export of a report.
type CsvRenderer = fn(&Report) -> String;

/// The CSV exports served by name, each with its renderer.
const CSVS: [(&str, CsvRenderer); 8] = [
    ("fig1", Report::fig1_csv),
    ("fig2", Report::fig2_csv),
    ("fig3", Report::fig3_csv),
    ("fig4", Report::fig4_csv),
    ("fig7", Report::fig7_csv),
    ("fig8", Report::fig8_csv),
    ("table5", Report::table5_csv),
    ("table7", Report::table7_csv),
];

/// One cached replay: the results and the response bodies rendered
/// from their report.
#[derive(Debug)]
pub struct CachedReplay {
    /// Quoted strong ETag: the bundle content hash in double quotes.
    pub etag: String,
    /// The replayed experiment results (for diff endpoints).
    pub results: ExperimentResults,
    /// The rendered text report (`report`).
    pub text: String,
    /// The report as JSON (`report.json`).
    pub json: String,
    /// Every CSV export (`csv/{name}`), by name.
    pub csvs: Vec<(&'static str, String)>,
}

impl CachedReplay {
    /// Generate the report of `results` and render every body served
    /// from it. The report itself is not kept.
    pub fn render(hash: &str, results: ExperimentResults) -> CachedReplay {
        let report = Report::generate(&results);
        CachedReplay {
            etag: format!("\"{hash}\""),
            text: report.render(),
            json: report.to_json(),
            csvs: CSVS
                .iter()
                .map(|&(name, render)| (name, render(&report)))
                .collect(),
            results,
        }
    }

    /// The CSV export called `name`, if there is one.
    pub fn csv(&self, name: &str) -> Option<&str> {
        self.csvs
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, body)| body.as_str())
    }

    /// The names [`csv`](Self::csv) knows, comma-separated.
    pub fn csv_names() -> String {
        CSVS.map(|(name, _)| name).join(", ")
    }
}

#[derive(Debug)]
struct Entry {
    last_used: u64,
    replay: Arc<CachedReplay>,
}

/// LRU cache of replays, keyed by bundle content hash.
#[derive(Debug)]
pub struct ReplayCache {
    capacity: usize,
    tick: AtomicU64,
    inner: Mutex<BTreeMap<String, Entry>>,
}

impl ReplayCache {
    /// A cache holding at most `capacity` replays (min 1).
    pub fn new(capacity: usize) -> ReplayCache {
        ReplayCache {
            capacity: capacity.max(1),
            tick: AtomicU64::new(0),
            inner: Mutex::new(BTreeMap::new()),
        }
    }

    /// Look up a bundle hash, counting exactly one
    /// `server.replay.cache.hit` or `server.replay.cache.miss`.
    pub fn lookup(&self, hash: &str) -> Option<Arc<CachedReplay>> {
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.lock();
        match inner.get_mut(hash) {
            Some(entry) => {
                entry.last_used = tick;
                counter!("server.replay.cache.hit").inc();
                Some(Arc::clone(&entry.replay))
            }
            None => {
                counter!("server.replay.cache.miss").inc();
                None
            }
        }
    }

    /// Insert a replay, evicting the least-recently-used entry when
    /// over capacity. If another thread raced the same hash in first,
    /// its snapshot wins (the two are identical anyway — the hash is
    /// content-derived) so all readers share one `Arc`.
    pub fn insert(&self, hash: String, replay: Arc<CachedReplay>) -> Arc<CachedReplay> {
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.lock();
        if let Some(existing) = inner.get_mut(&hash) {
            existing.last_used = tick;
            return Arc::clone(&existing.replay);
        }
        inner.insert(
            hash,
            Entry {
                last_used: tick,
                replay: Arc::clone(&replay),
            },
        );
        while inner.len() > self.capacity {
            let oldest = inner
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("cache over capacity implies at least one entry");
            inner.remove(&oldest);
            counter!("server.replay.cache.evict").inc();
        }
        replay
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One shared Tiny run — the cache only cares about keys and
    /// `Arc` identity, not which results an entry holds.
    fn replay(etag: &str) -> Arc<CachedReplay> {
        static RESULTS: std::sync::OnceLock<ExperimentResults> = std::sync::OnceLock::new();
        let results = RESULTS
            .get_or_init(|| {
                wmtree::Experiment::new(wmtree::ExperimentConfig::at_scale(wmtree::Scale::Tiny))
                    .run()
            })
            .clone();
        Arc::new(CachedReplay::render(etag, results))
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = ReplayCache::new(2);
        cache.insert("a".into(), replay("a"));
        cache.insert("b".into(), replay("b"));
        assert!(cache.lookup("a").is_some()); // refresh a
        cache.insert("c".into(), replay("c")); // evicts b
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup("a").is_some());
        assert!(cache.lookup("b").is_none());
        assert!(cache.lookup("c").is_some());
    }

    #[test]
    fn racing_inserts_share_one_snapshot() {
        let cache = ReplayCache::new(2);
        let first = cache.insert("a".into(), replay("a"));
        let second = cache.insert("a".into(), replay("a"));
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.len(), 1);
    }
}
