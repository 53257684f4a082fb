//! The metrics registry: named counters, gauges, and log-scale
//! histograms behind a sharded lock.
//!
//! All record paths are lock-free after the first lookup (handles are
//! `Arc`s over atomics) and honour the global [enabled]
//! switch with a single relaxed load, so instrumentation can stay in
//! hot paths permanently.

use crate::enabled;
use parking_lot::RwLock;
use serde::Serialize;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// Number of registry shards; a power of two so the shard index is a
/// mask of the name hash.
const SHARDS: usize = 16;

/// Histogram bucket count: bucket 0 holds zeros, bucket `i` holds
/// values in `2^(i-1) .. 2^i`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A monotone event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        if enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins signed gauge.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Set the value.
    pub fn set(&self, v: i64) {
        if enabled() {
            self.0.store(v, Ordering::Relaxed);
        }
    }

    /// Add a (possibly negative) delta.
    pub fn add(&self, d: i64) {
        if enabled() {
            self.0.fetch_add(d, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket log2-scale histogram of `u64` samples.
///
/// Integer-only state: counts, sum, min, max. Deterministic inputs
/// produce byte-identical snapshots, which the determinism tests rely
/// on — wall-clock data goes into [`crate::span::Span`] timings, never
/// here.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// Bucket index for a sample: 0 for 0, else `64 - leading_zeros`.
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper bound of a bucket (for quantile estimates).
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// Record one sample.
    pub fn record(&self, v: u64) {
        if !enabled() {
            return;
        }
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Snapshot the histogram state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((i as u32, n))
            })
            .collect();
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Frozen histogram state (sparse buckets: `(index, count)` pairs).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct HistogramSnapshot {
    /// Sample count.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Non-empty buckets as `(bucket index, count)`.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper-bound estimate of the `q`-quantile (`0.0..=1.0`) from the
    /// bucket layout; exact only up to bucket granularity.
    pub fn approx_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for &(i, n) in &self.buckets {
            seen += n;
            if seen >= target {
                return bucket_upper(i as usize).min(self.max);
            }
        }
        self.max
    }
}

/// One registered metric.
#[derive(Debug)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// Frozen value of one metric.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram state.
    Histogram(HistogramSnapshot),
}

/// A point-in-time dump of every metric, keyed by name.
///
/// Snapshots are integer-exact: two runs that record the same values
/// in the same quantities produce `==` snapshots regardless of thread
/// interleaving or wall-clock speed.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct Snapshot {
    /// Metric values by name.
    pub metrics: BTreeMap<String, MetricValue>,
}

impl Snapshot {
    /// Metrics changed since `earlier`, as a new snapshot: counters and
    /// histogram counts subtract; gauges keep their latest value.
    /// Histogram `min`/`max`/`sum` are recomputed from the bucket
    /// deltas' bounds where possible (sum subtracts exactly).
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        let mut out = BTreeMap::new();
        for (name, now) in &self.metrics {
            let then = earlier.metrics.get(name);
            let value = match (now, then) {
                (MetricValue::Counter(n), Some(MetricValue::Counter(t))) => {
                    MetricValue::Counter(n.saturating_sub(*t))
                }
                // Histograms always diff (against nothing when new), so
                // a diff snapshot's min/max are uniformly at bucket
                // resolution — a fresh-registry run and a warm-registry
                // run of the same workload stay `==`.
                (MetricValue::Histogram(n), then) => {
                    let empty;
                    let t = match then {
                        Some(MetricValue::Histogram(t)) => t,
                        _ => {
                            empty = HistogramSnapshot {
                                count: 0,
                                sum: 0,
                                min: 0,
                                max: 0,
                                buckets: Vec::new(),
                            };
                            &empty
                        }
                    };
                    MetricValue::Histogram(diff_histogram(n, t))
                }
                // Gauges have no meaningful delta; new counters pass
                // through (their prior value is zero).
                (v, _) => v.clone(),
            };
            let keep = match &value {
                MetricValue::Counter(0) => false,
                MetricValue::Histogram(h) if h.count == 0 => false,
                _ => true,
            };
            if keep {
                out.insert(name.clone(), value);
            }
        }
        Snapshot { metrics: out }
    }
}

fn diff_histogram(now: &HistogramSnapshot, then: &HistogramSnapshot) -> HistogramSnapshot {
    let then_by_idx: HashMap<u32, u64> = then.buckets.iter().copied().collect();
    let buckets: Vec<(u32, u64)> = now
        .buckets
        .iter()
        .filter_map(|&(i, n)| {
            let d = n.saturating_sub(then_by_idx.get(&i).copied().unwrap_or(0));
            (d > 0).then_some((i, d))
        })
        .collect();
    let count = now.count.saturating_sub(then.count);
    HistogramSnapshot {
        count,
        sum: now.sum.saturating_sub(then.sum),
        // min/max of just the delta are unknowable from bucket data;
        // bound them by the delta buckets' ranges.
        min: buckets
            .first()
            .map_or(0, |&(i, _)| if i == 0 { 0 } else { 1u64 << (i - 1) }),
        max: buckets
            .last()
            .map_or(0, |&(i, _)| bucket_upper(i as usize).min(now.max)),
        buckets,
    }
}

/// Sharded registry of named metrics.
///
/// Lookup takes a shard read-lock; the returned handles are `Arc`s that
/// bypass the registry entirely, so callers should cache them (the
/// [`counter!`][crate::counter], [`gauge!`][crate::gauge], and
/// [`histogram!`][crate::histogram] macros do this in a static).
#[derive(Debug)]
pub struct MetricsRegistry {
    shards: [RwLock<HashMap<String, Metric>>; SHARDS],
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry {
            shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
        }
    }
}

impl MetricsRegistry {
    /// Fresh empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn shard(&self, name: &str) -> &RwLock<HashMap<String, Metric>> {
        // FNV-1a; stable across runs so shard assignment is too.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        &self.shards[(h as usize) & (SHARDS - 1)]
    }

    fn get_or_insert<T, F, G>(&self, name: &str, extract: F, create: G) -> Arc<T>
    where
        F: Fn(&Metric) -> Option<Arc<T>>,
        G: FnOnce() -> Metric,
    {
        let shard = self.shard(name);
        if let Some(m) = shard.read().get(name) {
            return extract(m)
                .unwrap_or_else(|| panic!("metric `{name}` already registered as a {}", m.kind()));
        }
        let mut w = shard.write();
        let m = w.entry(name.to_string()).or_insert_with(create);
        extract(m).unwrap_or_else(|| panic!("metric `{name}` already registered as a {}", m.kind()))
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.get_or_insert(
            name,
            |m| match m {
                Metric::Counter(c) => Some(c.clone()),
                _ => None,
            },
            || Metric::Counter(Arc::new(Counter::default())),
        )
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.get_or_insert(
            name,
            |m| match m {
                Metric::Gauge(g) => Some(g.clone()),
                _ => None,
            },
            || Metric::Gauge(Arc::new(Gauge::default())),
        )
    }

    /// Get or create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.get_or_insert(
            name,
            |m| match m {
                Metric::Histogram(h) => Some(h.clone()),
                _ => None,
            },
            || Metric::Histogram(Arc::new(Histogram::default())),
        )
    }

    /// Dump every metric.
    pub fn snapshot(&self) -> Snapshot {
        let mut metrics = BTreeMap::new();
        for shard in &self.shards {
            for (name, metric) in shard.read().iter() {
                let value = match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                };
                metrics.insert(name.clone(), value);
            }
        }
        Snapshot { metrics }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let r = MetricsRegistry::new();
        let c = r.counter("net.fetch.ok");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name returns the same underlying counter.
        assert_eq!(r.counter("net.fetch.ok").get(), 5);

        let g = r.gauge("crawl.active_workers");
        g.set(8);
        g.add(-3);
        assert_eq!(g.get(), 5);
    }

    #[test]
    #[should_panic(expected = "already registered as a counter")]
    fn kind_conflicts_panic() {
        let r = MetricsRegistry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let r = MetricsRegistry::new();
        let h = r.histogram("net.latency_ms");
        for v in [0u64, 1, 1, 3, 8, 120, 130, 140] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 8);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 140);
        assert_eq!(s.sum, 403);
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(255), 8);
        // p99 lands in the top bucket, capped at the true max.
        assert_eq!(s.approx_quantile(0.99), 140);
        assert!(s.approx_quantile(0.5) <= 8);
        assert!((s.mean() - 403.0 / 8.0).abs() < 1e-9);
    }

    #[test]
    fn snapshot_diff_attributes_a_run() {
        let r = MetricsRegistry::new();
        let c = r.counter("visits");
        let h = r.histogram("latency");
        c.add(10);
        h.record(5);
        let before = r.snapshot();
        c.add(7);
        h.record(9);
        h.record(5);
        let diff = r.snapshot().since(&before);
        assert_eq!(diff.metrics.get("visits"), Some(&MetricValue::Counter(7)));
        match diff.metrics.get("latency") {
            Some(MetricValue::Histogram(hs)) => {
                assert_eq!(hs.count, 2);
                assert_eq!(hs.sum, 14);
            }
            other => panic!("missing latency diff: {other:?}"),
        }
        // Unchanged metrics drop out of the diff entirely.
        let none = r.snapshot().since(&r.snapshot());
        assert!(none.metrics.is_empty(), "{none:?}");
    }

    #[test]
    fn snapshots_are_deterministic() {
        let run = |n: u64| {
            let r = MetricsRegistry::new();
            for i in 0..n {
                r.counter("c").inc();
                r.histogram("h").record(i % 17);
            }
            r.snapshot()
        };
        assert_eq!(run(500), run(500));
        assert_ne!(run(500), run(501));
    }

    #[test]
    fn concurrent_recording_is_exact() {
        let r = std::sync::Arc::new(MetricsRegistry::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let r = r.clone();
                s.spawn(move || {
                    let c = r.counter("spins");
                    let h = r.histogram("vals");
                    for i in 0..10_000u64 {
                        c.inc();
                        h.record(i & 0xff);
                    }
                });
            }
        });
        assert_eq!(r.counter("spins").get(), 80_000);
        assert_eq!(r.histogram("vals").snapshot().count, 80_000);
    }
}
