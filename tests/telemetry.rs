//! Telemetry integration: the run manifest must capture the pipeline's
//! stages and metrics, and the deterministic part of the instrumentation
//! must be identical across identical-seed runs.
//!
//! Everything lives in one `#[test]`: the metrics registry is process
//! global, and snapshot-diff attribution is only exact while no other
//! run records concurrently. Integration tests are separate binaries,
//! so this file owns its process.

use wmtree::telemetry::MetricValue;
use wmtree::{Experiment, ExperimentConfig, Report, Scale};

#[test]
fn manifest_covers_the_pipeline_and_counters_are_deterministic() {
    let config = || ExperimentConfig::at_scale(Scale::Tiny).with_seed(0x7e1e);
    let first = Experiment::new(config()).run();
    let second = Experiment::new(config()).run();

    // --- Stage spans: every pipeline stage is timed, in order. ---
    let stages: Vec<&str> = first
        .manifest
        .stages
        .iter()
        .map(|s| s.name.as_str())
        .collect();
    assert_eq!(stages, ["generate", "crawl", "build_trees", "analyze"]);
    // The repro binary appends `render`; here Report::generate feeds the
    // span store instead, which the manifest also records.
    let _ = Report::generate(&first);
    let timings = wmtree::telemetry::global().timings().snapshot();
    for span in [
        "experiment.generate",
        "crawl.site",
        "report.table2",
        "report.fig1",
    ] {
        assert!(timings.contains_key(span), "missing span {span}");
    }
    // The per-site stage summarizes each site's pages for the report,
    // within its `analyze` time: once per crawled site with pages (the
    // report finds every summary built, so it records none).
    let summaries = timings
        .get("analysis.page_summary")
        .expect("missing span analysis.page_summary");
    let analyzed = timings["analysis.node_similarity"].count;
    assert!(
        summaries.count > 0 && summaries.count <= analyzed,
        "{} page-summary spans, {analyzed} analysed sites",
        summaries.count
    );
    // The `experiment.build_trees` span times what the `build_trees`
    // stage times (vetting, trees, page indexes), not the analyses after
    // it: over both runs, its total is the stage's to well within the
    // per-site analyses' time.
    let stage_ms = |name: &str| -> f64 {
        [&first, &second]
            .iter()
            .map(|r| {
                let s = r.manifest.stages.iter().find(|s| s.name == name);
                let s = s.unwrap_or_else(|| panic!("no {name} stage"));
                s.wall_ms - s.after_ms
            })
            .sum()
    };
    let span_ms = timings["experiment.build_trees"].total_ms;
    let (build_ms, analyze_ms) = (stage_ms("build_trees"), stage_ms("analyze"));
    assert!(
        (span_ms - build_ms).abs() < analyze_ms / 2.0,
        "experiment.build_trees {span_ms} ms vs build_trees {build_ms} ms (analyze {analyze_ms} ms)"
    );

    // --- Metric coverage: every instrumented layer reported in. ---
    let metric_names: Vec<&str> = first
        .manifest
        .metrics
        .metrics
        .keys()
        .map(String::as_str)
        .collect();
    for prefix in ["net.fetch.", "browser.visit.", "crawler.", "analysis."] {
        assert!(
            metric_names.iter().any(|n| n.starts_with(prefix)),
            "no metric from {prefix}* in {metric_names:?}"
        );
    }

    // --- Progress: the crawl accounting is populated and consistent. ---
    let progress = first
        .manifest
        .progress
        .as_ref()
        .expect("crawl progress recorded");
    assert_eq!(progress.sites_total, progress.sites_done);
    assert!(progress.visits_ok > 0);
    let visits = match first.manifest.metrics.metrics.get("browser.visit.started") {
        Some(MetricValue::Counter(n)) => *n,
        other => panic!("browser.visit.started missing: {other:?}"),
    };
    assert_eq!(visits, progress.visits_ok + progress.visits_failed);
    // Every started visit lands in exactly one of the engine's buckets,
    // whichever way it failed. The default Tiny crawl has main documents
    // that fail in the network model, as well as crawler-level failures.
    let default_tiny = Experiment::new(ExperimentConfig::at_scale(Scale::Tiny)).run();
    for (run, seed) in [(&first, "0x7e1e"), (&default_tiny, "default")] {
        let counter = |name: &str| match run.manifest.metrics.metrics.get(name) {
            Some(MetricValue::Counter(n)) => *n,
            None => 0,
            other => panic!("{name} is not a counter: {other:?}"),
        };
        assert_eq!(
            counter("browser.visit.started"),
            counter("browser.visit.ok") + counter("browser.visit.failed"),
            "browser.visit.started vs ok + failed, seed {seed}"
        );
    }

    // --- Determinism: identical seeds → identical metric snapshots
    // (counters, gauges, histograms — wall-clock timings excluded by
    // construction, they live outside the metrics registry). ---
    assert_eq!(
        first.manifest.metrics, second.manifest.metrics,
        "metric snapshots of identical-seed runs must be identical"
    );

    // --- The manifest serializes and summarizes. ---
    let json = first.manifest.to_json();
    assert!(json.contains("\"schema_version\""));
    assert!(json.contains("net.fetch.arrived"));
    let summary = Report::render_telemetry(&first.manifest);
    assert!(summary.contains("== Telemetry"));
    assert!(summary.contains("crawl"));
}
