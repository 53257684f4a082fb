//! `repro` — regenerate every table and figure of the paper.
//!
//! ```sh
//! repro                      # full report at Small scale
//! repro --scale tiny         # quick run
//! repro --table 3            # a single table
//! repro --fig 2              # a single figure
//! repro --case cookies       # §5 case studies: unique-nodes | cookies | tracking
//! repro --fig 6              # Appendix D worked example
//! repro --json report.json   # export the raw report
//! repro --telemetry DIR      # write telemetry.json (run manifest) into DIR
//! repro --no-telemetry       # disable all metric/span recording
//! repro --bundle DIR         # crawl into a checkpointed bundle archive
//! repro --bundle DIR --resume        # continue an interrupted bundle crawl
//! repro --bundle DIR --max-sites 10  # stop (resumably) after 10 sites
//! repro --from-bundle DIR    # skip crawling; analyze a recorded bundle
//! repro --ablations          # the seven methodology ablations (Tiny)
//! repro --workers 8          # worker threads of the site loop
//! repro --shards 5 --shard-dir DIR          # plan + crawl all shards + merge
//! repro --shards 5 --shard-dir DIR --plan-only   # write SHARDS.json only
//! repro --shard-dir DIR --shard-id 2        # crawl (or resume) one shard
//! repro --merge-shards DIR   # streaming merge of a fully crawled plan
//! repro --list-bundles DIR   # enumerate the bundles under a store root
//! repro serve --root DIR     # run the measurement service (wmtree-server)
//! repro serve --root DIR --addr 127.0.0.1:8080 --job-workers 2
//! ```
//!
//! The shard flags are the multi-process recipe for `--scale huge`
//! (the paper's 25k-site corpus): plan once, crawl each shard in its
//! own process with `--shard-id`, then `--merge-shards` — the merged
//! report is byte-identical to a single-process run, but no process
//! holds more than one shard's sites in flight.
//!
//! Unless `--no-telemetry` is given, every run ends with a telemetry
//! summary on stderr, and `--telemetry DIR` (or `--csv DIR`) writes the
//! machine-readable manifest next to the exported tables. `--ablations`
//! runs only the ablations, on reliable Tiny universes and `--workers`
//! threads, whatever `--scale` says: it makes no report, so `--json`,
//! `--csv` and `--telemetry` write nothing alongside it. An unknown
//! flag, a value flag without a value, a numeric flag whose value is
//! not a number, or a `--table`, `--fig` or `--case` value that names
//! no artifact exits 2 naming the flag, before anything runs. `--help`
//! (or `-h`) prints the usage of `repro`, or of `repro serve`, rendered
//! from the command's flag table, and exits 0. `--table 1` and `--fig 6`
//! print configuration and a worked example, with no crawl.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use wmtree::{Experiment, ExperimentConfig, Report, Scale};
use wmtree_bench::{usage, FlagTable, FLAGS, SERVE_FLAGS};

/// Check `args` against a flag table: every argument is a known flag,
/// and a value flag is followed by a value that is not itself a
/// `--flag`. Anything else exits 2 with a message naming the flag.
fn check_flags(args: &[String], table: FlagTable) {
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        let Some((_, value)) = table.iter().find(|(name, _)| name == arg) else {
            eprintln!("[repro] unknown flag {arg:?} (see --help)");
            std::process::exit(2);
        };
        if value.is_some() && rest.next().is_none_or(|value| value.starts_with("--")) {
            eprintln!("[repro] {arg} needs a value");
            std::process::exit(2);
        }
    }
}

/// Whether `args` ask for the usage text.
fn wants_help(args: &[String]) -> bool {
    args.iter().any(|a| a == "--help" || a == "-h")
}

/// The value following `flag` in `args`, if any.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// The number following `flag` in `args`, if any. A value that is not
/// a number exits 2 with a message naming the flag.
fn parse_n(args: &[String], flag: &str) -> Option<usize> {
    flag_value(args, flag).map(|raw| {
        raw.parse::<usize>().unwrap_or_else(|_| {
            eprintln!("[repro] {flag} must be a number, got {raw:?}");
            std::process::exit(2);
        })
    })
}

/// How one `--table`, `--fig` or `--case` value renders: with no
/// crawl, or from the run's report.
#[derive(Clone, Copy)]
enum Render {
    Fixed(fn() -> String),
    Report(fn(&Report) -> String),
}

/// Every value of `--table`, `--fig` and `--case`, with its renderer.
/// The value check and the printing both read this table; when several
/// are asked for, the first listed prints.
const ARTIFACTS: &[(&str, &str, Render)] = &[
    ("--table", "1", Render::Fixed(table1)),
    ("--table", "2", Render::Report(Report::render_table2)),
    ("--table", "3", Render::Report(Report::render_table3)),
    ("--table", "4", Render::Report(Report::render_table4)),
    ("--table", "5", Render::Report(Report::render_table5)),
    ("--table", "6", Render::Report(Report::render_table6)),
    ("--table", "7", Render::Report(Report::render_table7)),
    ("--fig", "1", Render::Report(Report::render_fig1)),
    ("--fig", "2", Render::Report(Report::render_fig2)),
    ("--fig", "3", Render::Report(Report::render_fig3)),
    ("--fig", "4", Render::Report(Report::render_fig4)),
    ("--fig", "5", Render::Report(Report::render_fig5)),
    ("--fig", "6", Render::Fixed(appendix_d)),
    ("--fig", "7", Render::Report(Report::render_fig7)),
    ("--fig", "8", Render::Report(Report::render_fig8)),
    (
        "--case",
        "unique-nodes",
        Render::Report(|r| case(r, "§5.1")),
    ),
    ("--case", "cookies", Render::Report(|r| case(r, "§5.2"))),
    ("--case", "tracking", Render::Report(|r| case(r, "§5.3"))),
];

/// The renderer of the artifact `args` ask for, if any: the first
/// listed whose flag has its value. A `--table`, `--fig` or `--case`
/// value that [`ARTIFACTS`] does not list exits 2 naming the flag and
/// its values.
fn artifact(args: &[String]) -> Option<Render> {
    let values = |flag| ARTIFACTS.iter().filter(move |a| a.0 == flag);
    for (flag, value) in ARTIFACTS
        .iter()
        .filter_map(|a| Some((a.0, flag_value(args, a.0)?)))
    {
        if !values(flag).any(|a| a.1 == value) {
            let values: Vec<&str> = values(flag).map(|a| a.1).collect();
            eprintln!(
                "[repro] {flag} must be one of {}, got {value:?}",
                values.join(", ")
            );
            std::process::exit(2);
        }
    }
    let asked = |a: &&(&str, &str, Render)| flag_value(args, a.0).as_deref() == Some(a.1);
    ARTIFACTS.iter().find(asked).map(|a| a.2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| flag_value(&args, flag);

    // `repro serve` hands the process over to the measurement service.
    if args.first().map(String::as_str) == Some("serve") {
        check_flags(&args[1..], SERVE_FLAGS);
        if wants_help(&args[1..]) {
            println!(
                "repro serve — run the measurement service\n\n{}",
                usage("repro serve", SERVE_FLAGS)
            );
            return;
        }
        serve(&args[1..]);
        return;
    }
    check_flags(&args, FLAGS);

    if wants_help(&args) {
        println!(
            "repro — regenerate the IMC'23 tables and figures\n\n{}\n\n{}",
            usage("repro", FLAGS),
            usage("repro serve", SERVE_FLAGS)
        );
        return;
    }

    if args.iter().any(|a| a == "--no-telemetry") {
        wmtree::telemetry::set_enabled(false);
    }

    // The artifact values are checked before anything runs, and an
    // artifact that needs no crawl prints right away.
    let artifact = artifact(&args);
    if let Some(Render::Fixed(render)) = artifact {
        print!("{}", render());
        return;
    }

    // `--list-bundles DIR`: the CLI view of a job store root, through
    // the same enumeration the server's `GET /bundles` uses.
    if let Some(dir) = get("--list-bundles") {
        match wmtree_bundle::BundleStore::list(std::path::Path::new(&dir)) {
            Ok(bundles) if bundles.is_empty() => eprintln!("[repro] no bundles under {dir}"),
            Ok(bundles) => {
                println!(
                    "{:<12} {:<16} {:>9} {:>7} {:>7}  state",
                    "dir", "hash", "visits", "sites", "objects"
                );
                for b in bundles {
                    println!(
                        "{:<12} {:<16} {:>9} {:>7} {:>7}  {}",
                        b.dir,
                        b.hash,
                        b.visit_records,
                        b.sites,
                        b.objects,
                        if b.complete { "complete" } else { "partial" }
                    );
                }
            }
            Err(e) => {
                eprintln!("[repro] listing bundles failed: {e}");
                std::process::exit(2);
            }
        }
        return;
    }

    let scale = match get("--scale") {
        Some(name) => Scale::parse(&name).unwrap_or_else(|e| {
            eprintln!("[repro] {e}");
            std::process::exit(2);
        }),
        None => Scale::Small,
    };
    let workers = parse_n(&args, "--workers");
    let config = |scale: Scale| {
        let mut cfg = ExperimentConfig::at_scale(scale);
        if let Some(w) = workers {
            cfg.workers = w;
        }
        cfg
    };

    // The ablations crawl reliable Tiny universes of their own, on
    // `--workers` threads: no experiment runs at `--scale`, and no
    // report, so `--json`, `--csv` and `--telemetry` write nothing.
    if args.iter().any(|a| a == "--ablations") {
        eprintln!("[repro] running methodology ablations (four crawls)...");
        for outcome in wmtree::ablation::all(&config(Scale::Tiny).reliable()) {
            println!("== {} ==", outcome.knob);
            for (label, value) in &outcome.arms {
                println!("  {label:<40} {value:.3}");
            }
        }
        return;
    }

    // One-shard crawl: `--shard-dir DIR --shard-id K`. Crawls (or
    // resumes) that shard's bundle and exits — the report comes later,
    // from `--merge-shards`.
    if let Some(id) = parse_n(&args, "--shard-id") {
        let dir = get("--shard-dir").unwrap_or_else(|| {
            eprintln!("[repro] --shard-id needs --shard-dir DIR (where SHARDS.json lives)");
            std::process::exit(2);
        });
        let plan_dir = std::path::Path::new(&dir);
        let max_sites = parse_n(&args, "--max-sites");
        eprintln!("[repro] crawling shard {id} of plan {dir} at {scale:?} scale...");
        let exp = Experiment::new(config(scale));
        match wmtree_shard::crawl_shard(&exp, plan_dir, id, max_sites) {
            Ok(wmtree_shard::ShardCrawl::Complete {
                visits,
                bundle_hash,
            }) => {
                eprintln!(
                    "[repro] shard {id} complete: {visits} visit records, bundle hash {bundle_hash}"
                );
            }
            Ok(wmtree_shard::ShardCrawl::Partial {
                sites_done,
                sites_total,
            }) => {
                eprintln!(
                    "[repro] shard {id} checkpointed at {sites_done}/{sites_total} sites; \
                     rerun `--shard-dir {dir} --shard-id {id}` to continue"
                );
            }
            Err(e) => {
                eprintln!("[repro] shard crawl failed: {e}");
                std::process::exit(2);
            }
        }
        return;
    }

    // Plan (and optionally crawl) a sharded experiment:
    // `--shards N --shard-dir DIR [--plan-only]`. Falls through into
    // the streaming merge (and the normal report path) once every
    // shard is crawled.
    let mut merge_dir = get("--merge-shards");
    if let Some(n) = parse_n(&args, "--shards") {
        let dir = get("--shard-dir").unwrap_or_else(|| {
            eprintln!("[repro] --shards needs --shard-dir DIR");
            std::process::exit(2);
        });
        let plan_dir = std::path::Path::new(&dir);
        let exp = Experiment::new(config(scale));
        if wmtree_shard::ShardPlan::exists(plan_dir) {
            eprintln!("[repro] {dir} already holds SHARDS.json; keeping the existing plan");
        } else {
            let plan = wmtree_shard::ShardPlan::new(&exp, n).unwrap_or_else(|e| {
                eprintln!("[repro] shard planning failed: {e}");
                std::process::exit(2);
            });
            plan.store(plan_dir).unwrap_or_else(|e| {
                eprintln!("[repro] writing SHARDS.json failed: {e}");
                std::process::exit(2);
            });
            eprintln!(
                "[repro] planned {} shards over {} sites into {dir}",
                plan.shards.len(),
                plan.total_sites
            );
        }
        if args.iter().any(|a| a == "--plan-only") {
            return;
        }
        match wmtree_shard::crawl_remaining_shards(&exp, plan_dir) {
            Ok(crawled) => eprintln!("[repro] crawled {crawled} remaining shards"),
            Err(e) => {
                eprintln!("[repro] shard crawl failed: {e}");
                std::process::exit(2);
            }
        }
        merge_dir = Some(dir);
    }

    let mut results = if let Some(dir) = merge_dir {
        // Streaming merge: one shard-bundle at a time, site by site.
        eprintln!("[repro] merging shards from {dir} (streaming, one shard at a time)...");
        let exp = Experiment::new(config(scale));
        match wmtree_shard::merge_shards(&exp, std::path::Path::new(&dir)) {
            Ok(merged) => {
                eprintln!(
                    "[repro] merged {} pages from {dir}; largest shard {} pages, streamed site by site",
                    merged.digest.pages, merged.peak_shard_pages
                );
                merged.results
            }
            Err(e) => {
                eprintln!("[repro] shard merge failed: {e}");
                std::process::exit(2);
            }
        }
    } else if let Some(dir) = get("--from-bundle") {
        // Replays go through the tree cache next to the bundle: the
        // first replay populates TREECACHE/, later replays of the
        // unchanged bundle take every site's trees from it. The results
        // are byte-identical to the uncached path either way.
        eprintln!("[repro] replaying analyses from bundle {dir} (no crawl)...");
        let cfg = config(scale);
        let bundle_dir = std::path::Path::new(&dir);
        let cache = wmtree::AnalysisCache::open(
            &bundle_dir.join(wmtree::tree::cache::CACHE_DIR_NAME),
            &cfg,
        );
        let exp = Experiment::new(cfg);
        match exp.replay_from_bundle_cached(bundle_dir, &cache) {
            Ok(replay) => {
                eprintln!(
                    "[repro] replay reused {} of {} sites from the cache ({} rebuilt)",
                    replay.sites_reused, replay.sites_total, replay.sites_rebuilt
                );
                replay.results
            }
            Err(e) => {
                eprintln!("[repro] bundle replay failed: {e}");
                std::process::exit(2);
            }
        }
    } else if let Some(dir) = get("--bundle") {
        let path = std::path::Path::new(&dir);
        let resume = args.iter().any(|a| a == "--resume");
        if wmtree::bundle::Manifest::exists(path) && !resume {
            eprintln!("[repro] {dir} already holds a bundle; pass --resume to continue it");
            std::process::exit(2);
        }
        let max_sites = parse_n(&args, "--max-sites");
        eprintln!(
            "[repro] running the five-profile experiment at {scale:?} scale into bundle {dir}..."
        );
        let exp = Experiment::new(config(scale));
        match exp.run_to_bundle(path, max_sites) {
            Ok(wmtree::BundleRun::Complete { results, bundle }) => {
                eprintln!(
                    "[repro] bundle complete: {} visit records, {} unique objects, dedup ratio {:.2}",
                    bundle.visit_records,
                    bundle.objects,
                    bundle.dedup_ratio()
                );
                *results
            }
            Ok(wmtree::BundleRun::Partial {
                sites_done,
                sites_total,
                manifest,
                ..
            }) => {
                eprintln!(
                    "[repro] bundle checkpointed at {sites_done}/{sites_total} sites; \
                     rerun with `--bundle {dir} --resume` to continue"
                );
                report_telemetry(&manifest, get("--telemetry").or_else(|| get("--csv")));
                return;
            }
            Err(e) => {
                eprintln!("[repro] bundle crawl failed: {e}");
                std::process::exit(2);
            }
        }
    } else {
        eprintln!("[repro] running the five-profile experiment at {scale:?} scale...");
        Experiment::new(config(scale)).run()
    };
    eprintln!(
        "[repro] {} vetted pages ({} trees); generating report...",
        results.data.pages.len(),
        results.data.pages.len() * 5
    );
    let render_start = std::time::Instant::now();
    let report = Report::generate(&results);
    results
        .manifest
        .push_stage("render", render_start.elapsed());
    results.manifest.timings = wmtree::telemetry::global().timings().snapshot();

    if let Some(path) = get("--json") {
        std::fs::write(&path, report.to_json()).expect("write JSON report");
        eprintln!("[repro] wrote {path}");
    }
    if let Some(dir) = get("--csv") {
        let files = report
            .write_csv_dir(std::path::Path::new(&dir))
            .expect("write CSV directory");
        eprintln!("[repro] wrote {} CSV files to {dir}", files.len());
    }
    // The manifest lands next to the exported tables (or wherever
    // --telemetry points), and its summary goes to stderr.
    report_telemetry(
        &results.manifest,
        get("--telemetry").or_else(|| get("--csv")),
    );

    let render = match artifact {
        Some(Render::Report(render)) => render,
        _ => Report::render,
    };
    print!("{}", render(&report));
}

/// Unless telemetry is off, write the run manifest's `telemetry.json`
/// into `dir` when one is given, and print its summary to stderr.
fn report_telemetry(manifest: &wmtree::telemetry::RunManifest, dir: Option<String>) {
    if !wmtree::telemetry::enabled() {
        return;
    }
    if let Some(dir) = dir {
        let path = manifest
            .write_to_dir(std::path::Path::new(&dir))
            .expect("write telemetry.json");
        eprintln!("[repro] wrote {}", path.display());
    }
    eprint!("{}", Report::render_telemetry(manifest));
}

/// `repro serve`: run the measurement service until it drains (a
/// client `POST /shutdown`, or the process is signalled).
fn serve(args: &[String]) {
    let root = flag_value(args, "--root").unwrap_or_else(|| {
        eprintln!("[repro] serve needs --root DIR (the job store root)");
        std::process::exit(2);
    });
    let mut config = wmtree_server::ServerConfig::new(&root);
    if let Some(addr) = flag_value(args, "--addr") {
        config.addr = addr;
    }
    if let Some(n) = parse_n(args, "--http-workers") {
        config.http_workers = n;
    }
    if let Some(n) = parse_n(args, "--job-workers") {
        config.job_workers = n;
    }
    if let Some(n) = parse_n(args, "--cache") {
        config.cache_capacity = n;
    }
    if let Some(n) = parse_n(args, "--batch-sites") {
        config.batch_sites = n;
    }
    let handle = wmtree_server::Server::start(config).unwrap_or_else(|e| {
        eprintln!("[repro] starting server failed: {e}");
        std::process::exit(2);
    });
    eprintln!(
        "[repro] serving job store {root} on http://{} (POST /shutdown to drain)",
        handle.addr()
    );
    handle.wait();
    eprintln!("[repro] server drained; job store {root} is consistent");
}

/// The §5 case study whose `== ` header names `section`.
fn case(report: &Report, section: &str) -> String {
    let full = report.render_case_studies();
    let mut printing = false;
    let lines = full.lines().filter(|line| {
        if line.starts_with("== ") {
            printing = line.contains(section);
        }
        printing
    });
    lines.map(|line| format!("{line}\n")).collect()
}

/// Table 1 is configuration, not measurement — print the profile matrix.
fn table1() -> String {
    let mut s = String::from("== Table 1: overview of the used profiles ==\n");
    s.push_str("#  Name       Version  User Interaction  GUI  Country\n");
    for (i, p) in wmtree::crawler::standard_profiles().iter().enumerate() {
        s.push_str(&format!(
            "{}  {:<9} {:>7}  {:>16}  {:>3}  {:>7}\n",
            i + 1,
            p.name,
            if p.version == 86 { "86.0.1" } else { "95.0" },
            if p.user_interaction { "yes" } else { "no" },
            if p.gui { "yes" } else { "no" },
            p.country,
        ));
    }
    s
}

/// Appendix D: the worked three-tree example, computed by the real
/// Jaccard machinery.
fn appendix_d() -> String {
    use std::collections::BTreeSet;
    use wmtree::stats::jaccard::{jaccard, pairwise_mean_jaccard};

    let set =
        |items: &[&str]| -> BTreeSet<String> { items.iter().map(|s| s.to_string()).collect() };

    // Horizontal, depth one: {a,b,c}, {a,c}, {a,b,c} → .77
    let d1 = vec![
        set(&["a", "b", "c"]),
        set(&["a", "c"]),
        set(&["a", "b", "c"]),
    ];
    // All nodes: sets realizing pairwise 6/7, 5/7, 5/6 → .8
    let all = vec![
        set(&["a", "b", "c", "d", "e", "x", "y"]),
        set(&["a", "b", "c", "d", "e", "x"]),
        set(&["a", "b", "c", "d", "e"]),
    ];
    // Vertical, parent of e: present in trees 1 and 3 under d, absent
    // in 2 → (1 + 0 + 0)/3 = .33.
    let p1 = set(&["d"]);
    let p2: BTreeSet<String> = BTreeSet::new();
    let p3 = set(&["d"]);
    let scores = [jaccard(&p1, &p3), jaccard(&p1, &p2), jaccard(&p3, &p2)];
    format!(
        "== Appendix D: worked comparison example ==\n\
         depth-1 Jaccard (2/3 + 1 + 2/3)/3 = {:.2}   (paper: .77)\n\
         all-nodes Jaccard (6/7 + 5/7 + 5/6)/3 = {:.2}   (paper: .8)\n\
         parent-of-e Jaccard (1 + 0 + 0)/3 = {:.2}   (paper: .3)\n",
        pairwise_mean_jaccard(&d1).unwrap(),
        pairwise_mean_jaccard(&all).unwrap(),
        scores.iter().sum::<f64>() / 3.0
    )
}
