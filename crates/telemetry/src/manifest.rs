//! The per-run manifest: what ran, with which configuration, how long
//! each stage took, and what the instrumentation counted — serialized
//! to `telemetry.json` next to a run's outputs.

use crate::metrics::{MetricValue, Snapshot};
use crate::progress::ProgressSnapshot;
use crate::span::TimingStats;
use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Duration;

/// Manifest schema version, bumped on breaking layout changes.
pub const MANIFEST_VERSION: u32 = 1;

/// One profile row of the experiment's configuration matrix.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ManifestProfile {
    /// Display name (`Old`, `Sim1`, ...).
    pub name: String,
    /// Browser major version.
    pub version: u32,
    /// Mimics user interaction?
    pub user_interaction: bool,
    /// Runs a GUI?
    pub gui: bool,
    /// Measurement location.
    pub country: String,
}

/// Wall time of one pipeline stage.
///
/// `generate`, `crawl` / `read_bundle` and `render` are wall time of
/// the calling thread. `build_trees` and `analyze` are the summed
/// durations of the per-site stage over everything the run folded. The
/// stage runs in the workers of a crawl or a replay, per site, inside
/// `crawl` or `read_bundle` (`within`): there the two overlap that
/// stage and each other, and summed over workers they can exceed it.
/// `analyze` also counts the calling thread's time after that stage
/// closed (`after_ms`: storing tree-cache records and the final fold).
/// A run's total is its own stages plus each nested stage's `after_ms`.
#[derive(Debug, Clone, Serialize)]
pub struct StageTiming {
    /// Stage name (`generate`, `crawl` or `read_bundle`, `build_trees`,
    /// `analyze`, `render`).
    pub name: String,
    /// Stage time in milliseconds.
    pub wall_ms: f64,
    /// The stage this one ran inside, for a sum of per-site times;
    /// `None` for a stage of the run's own.
    pub within: Option<String>,
    /// Of `wall_ms`, the milliseconds spent on the calling thread after
    /// the stage it ran `within` had closed (0 for a stage of its own).
    pub after_ms: f64,
}

/// Everything worth knowing about one experiment run.
#[derive(Debug, Clone, Serialize)]
pub struct RunManifest {
    /// Manifest schema version.
    pub schema_version: u32,
    /// Experiment seed (full reproduction handle).
    pub seed: u64,
    /// Free-form run label (e.g. the repro scale).
    pub label: String,
    /// The profile matrix.
    pub profiles: Vec<ManifestProfile>,
    /// Per-stage wall times, in pipeline order.
    pub stages: Vec<StageTiming>,
    /// Deterministic metrics recorded during the run (snapshot diff).
    pub metrics: Snapshot,
    /// Wall-clock span statistics (not deterministic).
    pub timings: BTreeMap<String, TimingStats>,
    /// Final crawl progress, when a crawl ran.
    pub progress: Option<ProgressSnapshot>,
}

impl RunManifest {
    /// Start a manifest for a run of `seed`.
    pub fn new(seed: u64, label: impl Into<String>) -> RunManifest {
        RunManifest {
            schema_version: MANIFEST_VERSION,
            seed,
            label: label.into(),
            profiles: Vec::new(),
            stages: Vec::new(),
            metrics: Snapshot::default(),
            timings: BTreeMap::new(),
            progress: None,
        }
    }

    /// Append a stage timing.
    pub fn push_stage(&mut self, name: &str, wall: Duration) {
        self.push_nested(name, wall, None, Duration::ZERO);
    }

    /// Append a stage that ran `within` another (a stage of its own when
    /// `None`), `after` of its `wall` on the calling thread once that
    /// one had closed.
    pub fn push_nested(
        &mut self,
        name: &str,
        wall: Duration,
        within: Option<&str>,
        after: Duration,
    ) {
        self.stages.push(StageTiming {
            name: name.to_string(),
            wall_ms: wall.as_secs_f64() * 1e3,
            within: within.map(str::to_string),
            after_ms: after.as_secs_f64() * 1e3,
        });
    }

    /// The run's total stage time: its own stages, plus the time each
    /// nested stage spent after the stage it ran in.
    pub fn total_ms(&self) -> f64 {
        self.stages
            .iter()
            .map(|s| match s.within {
                None => s.wall_ms,
                Some(_) => s.after_ms,
            })
            .sum()
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("manifest serialization cannot fail")
    }

    /// Write `telemetry.json` into `dir` (creating it if needed);
    /// returns the path written.
    pub fn write_to_dir(&self, dir: &Path) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join("telemetry.json");
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// Human-readable run summary: stages, crawl progress, and the
    /// most informative metrics, as an aligned text table.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "run {} (seed {})", self.label, self.seed);
        let _ = writeln!(
            out,
            "profiles: {}",
            self.profiles
                .iter()
                .map(|p| p.name.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        );

        if !self.stages.is_empty() {
            // Nested stages print under the stage they ran in, and only
            // their time after it counts toward the total and shares.
            let total = self.total_ms();
            let share = |ms: f64| if total > 0.0 { 100.0 * ms / total } else { 0.0 };
            let _ = writeln!(out, "\n{:<16} {:>12} {:>7}", "stage", "wall ms", "share");
            for s in &self.stages {
                let _ = match &s.within {
                    None => writeln!(
                        out,
                        "{:<16} {:>12.1} {:>6.1}%",
                        s.name,
                        s.wall_ms,
                        share(s.wall_ms)
                    ),
                    Some(within) if s.after_ms > 0.0 => writeln!(
                        out,
                        "  {:<14} {:>12.1} {:>6.1}%  ({:.1} after {within})",
                        s.name,
                        s.wall_ms,
                        share(s.after_ms),
                        s.after_ms
                    ),
                    Some(within) => {
                        writeln!(out, "  {:<14} {:>12.1}  (in {within})", s.name, s.wall_ms)
                    }
                };
            }
            let _ = writeln!(out, "{:<16} {:>12.1}", "total", total);
        }

        if let Some(p) = &self.progress {
            let _ = writeln!(
                out,
                "\ncrawl: {}/{} sites, {} pages, {} ok / {} failed visits, {} timeouts, {} stalls",
                p.sites_done,
                p.sites_total,
                p.pages_done,
                p.visits_ok,
                p.visits_failed,
                p.timeouts,
                p.stalls,
            );
            let _ = writeln!(
                out,
                "       {:.1} sites/s over {} workers (imbalance {:.2})",
                p.sites_per_s,
                p.per_worker_sites.len(),
                p.shard_imbalance(),
            );
        }

        if !self.metrics.metrics.is_empty() {
            let _ = writeln!(out, "\n{:<40} {:>14}", "metric", "value");
            for (name, value) in &self.metrics.metrics {
                match value {
                    MetricValue::Counter(v) => {
                        let _ = writeln!(out, "{name:<40} {v:>14}");
                    }
                    MetricValue::Gauge(v) => {
                        let _ = writeln!(out, "{name:<40} {v:>14}");
                    }
                    MetricValue::Histogram(h) => {
                        let _ = writeln!(
                            out,
                            "{:<40} {:>14} (mean {:.1}, p90 ≤ {}, max {})",
                            name,
                            h.count,
                            h.mean(),
                            h.approx_quantile(0.9),
                            h.max,
                        );
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    fn sample_manifest() -> RunManifest {
        let registry = MetricsRegistry::new();
        registry.counter("net.fetch.ok").add(120);
        registry.histogram("net.fetch.latency_ms").record(30);
        registry.histogram("net.fetch.latency_ms").record(90);

        let mut m = RunManifest::new(42, "smoke");
        m.profiles.push(ManifestProfile {
            name: "Old".into(),
            version: 86,
            user_interaction: true,
            gui: true,
            country: "DE".into(),
        });
        m.push_stage("generate", Duration::from_millis(12));
        m.push_stage("crawl", Duration::from_millis(340));
        m.metrics = registry.snapshot();
        m
    }

    #[test]
    fn json_has_the_load_bearing_fields() {
        let json = sample_manifest().to_json();
        for needle in [
            "\"schema_version\": 1",
            "\"seed\": 42",
            "\"crawl\"",
            "net.fetch.latency_ms",
            "\"Old\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
    }

    #[test]
    fn summary_is_a_table() {
        let s = sample_manifest().summary();
        assert!(s.contains("run smoke (seed 42)"));
        assert!(s.contains("profiles: Old"));
        assert!(s.contains("generate"));
        assert!(s.contains("net.fetch.ok"));
        assert!(s.contains("mean 60.0"), "{s}");
    }

    #[test]
    fn nested_stages_count_only_their_time_after_the_parent() {
        let mut m = RunManifest::new(1, "nested");
        m.push_stage("generate", Duration::from_millis(12));
        m.push_stage("crawl", Duration::from_millis(340));
        m.push_nested(
            "build_trees",
            Duration::from_millis(80),
            Some("crawl"),
            Duration::ZERO,
        );
        m.push_nested(
            "analyze",
            Duration::from_millis(50),
            Some("crawl"),
            Duration::from_millis(8),
        );
        m.push_stage("render", Duration::from_millis(40));
        // 12 + 340 + 8 (the final fold, after `crawl`) + 40.
        assert_eq!(m.total_ms(), 400.0);
        let s = m.summary();
        let line = |name: &str| {
            s.lines()
                .find(|l| l.trim_start().starts_with(name))
                .unwrap_or_else(|| panic!("no {name} row in:\n{s}"))
                .to_string()
        };
        assert!(line("total").ends_with("400.0"), "{s}");
        assert!(line("crawl").ends_with("85.0%"), "{s}");
        assert!(line("build_trees").starts_with("  "), "{s}");
        assert!(line("build_trees").ends_with("(in crawl)"), "{s}");
        assert!(line("analyze").contains(" 2.0%  (8.0 after crawl)"), "{s}");
        assert!(line("render").ends_with("10.0%"), "{s}");
    }

    #[test]
    fn writes_telemetry_json() {
        let dir = std::env::temp_dir().join("wmtree-telemetry-test");
        let path = sample_manifest().write_to_dir(&dir).unwrap();
        assert!(path.ends_with("telemetry.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"seed\": 42"));
        let _ = std::fs::remove_file(&path);
    }
}
