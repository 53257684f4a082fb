//! Criterion bench of the telemetry budget: crawl throughput with
//! recording on vs off. Every record path is a relaxed atomic, and the
//! budget is < 5%, so the two arms should be within noise of each
//! other. Whole-operation timings live in `perfbench/`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wmtree::crawler::{standard_profiles, Commander, CrawlOptions};
use wmtree::webgen::{UniverseConfig, WebUniverse};

fn telemetry_overhead(c: &mut Criterion) {
    let universe = WebUniverse::generate(UniverseConfig {
        seed: 7,
        sites_per_bucket: [4, 2, 2, 2, 2],
        max_subpages: 4,
    });
    let crawl = || {
        let commander = Commander::new(
            &universe,
            standard_profiles(),
            CrawlOptions {
                max_pages_per_site: 4,
                workers: 4,
                experiment_seed: 3,
                reliable: true,
                stateful: false,
            },
        );
        black_box(commander.run())
    };
    let mut group = c.benchmark_group("telemetry");
    group.sample_size(10);
    wmtree::telemetry::set_enabled(true);
    group.bench_function("crawl_telemetry_on", |b| b.iter(crawl));
    wmtree::telemetry::set_enabled(false);
    group.bench_function("crawl_telemetry_off", |b| b.iter(crawl));
    wmtree::telemetry::set_enabled(true);
    group.finish();
}

criterion_group! {
    name = telemetry;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(10);
    targets = telemetry_overhead
}
criterion_main!(telemetry);
