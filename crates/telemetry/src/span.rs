//! Wall-clock instrumentation: scoped [`Span`]s and the linear
//! [`Stopwatch`] for pipeline stages.
//!
//! Timings live in their own store, strictly separate from the
//! [metrics registry][crate::MetricsRegistry]: metric snapshots stay
//! integer-exact and reproducible, while everything wall-clock —
//! inherently non-deterministic — is reported here and excluded from
//! determinism comparisons.

use parking_lot::RwLock;
use serde::Serialize;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Accumulated wall-clock statistics for one span name.
#[derive(Debug)]
pub struct Timing {
    count: AtomicU64,
    total_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for Timing {
    fn default() -> Self {
        Timing {
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
        }
    }
}

impl Timing {
    fn record(&self, d: Duration) {
        let ns = d.as_nanos().min(u64::MAX as u128) as u64;
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.min_ns.fetch_min(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    fn stats(&self) -> TimingStats {
        let count = self.count.load(Ordering::Relaxed);
        let total_ns = self.total_ns.load(Ordering::Relaxed);
        let to_ms = |ns: u64| ns as f64 / 1e6;
        TimingStats {
            count,
            total_ms: to_ms(total_ns),
            mean_ms: if count == 0 {
                0.0
            } else {
                to_ms(total_ns) / count as f64
            },
            min_ms: if count == 0 {
                0.0
            } else {
                to_ms(self.min_ns.load(Ordering::Relaxed))
            },
            max_ms: to_ms(self.max_ns.load(Ordering::Relaxed)),
        }
    }
}

/// Frozen statistics of one span name, in milliseconds.
#[derive(Debug, Clone, Serialize)]
pub struct TimingStats {
    /// Completed span count.
    pub count: u64,
    /// Total wall time.
    pub total_ms: f64,
    /// Mean per span.
    pub mean_ms: f64,
    /// Fastest span.
    pub min_ms: f64,
    /// Slowest span.
    pub max_ms: f64,
}

/// Store of named wall-clock timings.
#[derive(Debug, Default)]
pub struct Timings {
    inner: RwLock<HashMap<String, Arc<Timing>>>,
}

impl Timings {
    /// Fresh empty store.
    pub fn new() -> Timings {
        Timings::default()
    }

    fn handle(&self, name: &str) -> Arc<Timing> {
        if let Some(t) = self.inner.read().get(name) {
            return t.clone();
        }
        self.inner
            .write()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Open a span; its wall time is recorded under `name` on drop.
    pub fn span(&self, name: &str) -> Span {
        if crate::enabled() {
            Span {
                timing: Some((self.handle(name), Instant::now())),
            }
        } else {
            Span { timing: None }
        }
    }

    /// Record an externally measured duration under `name`.
    pub fn record(&self, name: &str, d: Duration) {
        if crate::enabled() {
            self.handle(name).record(d);
        }
    }

    /// Dump all timing statistics.
    pub fn snapshot(&self) -> BTreeMap<String, TimingStats> {
        self.inner
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.stats()))
            .collect()
    }
}

/// RAII wall-clock span: created by [`Timings::span`] (usually via
/// [`crate::span()`]), records its elapsed time when dropped.
///
/// ```
/// let _guard = wmtree_telemetry::span("crawl.site");
/// // ... work ...
/// // guard drop records the elapsed wall time
/// ```
#[derive(Debug)]
#[must_use = "a span records on drop; binding it to `_` drops it immediately"]
pub struct Span {
    timing: Option<(Arc<Timing>, Instant)>,
}

impl Span {
    /// Open a span on the global timings store.
    pub fn enter(name: &str) -> Span {
        crate::global().timings().span(name)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((timing, start)) = self.timing.take() {
            timing.record(start.elapsed());
        }
    }
}

/// Linear stage timer for a pipeline run: each [`lap`][Stopwatch::lap]
/// closes the current stage and starts the next.
#[derive(Debug)]
pub struct Stopwatch {
    last: Instant,
}

impl Stopwatch {
    /// Start timing.
    pub fn start() -> Stopwatch {
        Stopwatch {
            last: Instant::now(),
        }
    }

    /// Close the current stage, returning its duration, and start the
    /// next one.
    pub fn lap(&mut self) -> Duration {
        let now = Instant::now();
        let d = now - self.last;
        self.last = now;
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_accumulate() {
        let t = Timings::new();
        for _ in 0..3 {
            let _s = t.span("stage.work");
        }
        t.record("stage.work", Duration::from_millis(2));
        let snap = t.snapshot();
        let stats = &snap["stage.work"];
        assert_eq!(stats.count, 4);
        assert!(stats.total_ms >= 2.0);
        assert!(stats.max_ms >= stats.min_ms);
    }

    #[test]
    fn stopwatch_orders_laps() {
        let outer = Instant::now();
        let mut sw = Stopwatch::start();
        std::thread::sleep(Duration::from_millis(1));
        let first = sw.lap();
        let second = sw.lap();
        assert!(first >= Duration::from_millis(1));
        assert!(
            outer.elapsed() >= first + second,
            "laps are consecutive and never overlap"
        );
    }
}
