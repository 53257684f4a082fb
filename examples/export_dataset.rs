//! Export a complete dataset the way the paper releases its artifacts
//! (Appendix A): the raw per-visit records as JSONL, one example visit
//! as a HAR file, the aggregated report as JSON, and every figure as
//! CSV ready for plotting.
//!
//! ```sh
//! cargo run --release --example export_dataset -- /tmp/wmtree-dataset
//! ```

use wmtree::browser::har::to_har_json;
use wmtree::crawler::export;
use wmtree::{Experiment, ExperimentConfig, Report, Scale};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out_dir = std::path::PathBuf::from(
        std::env::args()
            .nth(1)
            .unwrap_or_else(|| "/tmp/wmtree-dataset".to_string()),
    );
    std::fs::create_dir_all(&out_dir)?;

    // Crawl, keeping the raw database.
    let mut config = ExperimentConfig::at_scale(Scale::Tiny);
    config.workers = 4;
    let experiment = Experiment::new(config);
    let db = experiment.commander().run();

    // 1. Raw data: JSONL of every (page, profile) visit.
    let raw_path = out_dir.join("raw_visits.jsonl");
    let file = std::fs::File::create(&raw_path)?;
    let written = export::write_jsonl(&db, std::io::BufWriter::new(file))?;
    println!("wrote {written} visit records to {}", raw_path.display());

    // 2. One example HAR (the first vetted page, Sim1's visit).
    if let Some((page, visits)) = db.vetted_pages().into_iter().next() {
        let har_path = out_dir.join("example_visit.har");
        std::fs::write(&har_path, to_har_json(visits[1]))?;
        println!("wrote HAR of {} to {}", page.url, har_path.display());
    }

    // 3. Round-trip check: the raw data re-imports losslessly.
    let file = std::fs::File::open(&raw_path)?;
    let back = export::read_jsonl(std::io::BufReader::new(file), db.n_profiles())?;
    assert_eq!(back.page_count(), db.page_count());
    assert_eq!(back.total_successful_visits(), db.total_successful_visits());
    println!(
        "round-trip verified: {} pages, {} successful visits",
        back.page_count(),
        back.total_successful_visits()
    );

    // 4. Aggregated report (JSON) + figure CSVs, from the same database.
    let mut fold = experiment.fold();
    fold.add(experiment.accumulate(&db, None))?;
    let results = fold.finish(None)?.results;
    let report = Report::generate(&results);
    std::fs::write(out_dir.join("report.json"), report.to_json())?;
    let csvs = report.write_csv_dir(&out_dir.join("csv"))?;
    println!("wrote report.json and {} CSV files", csvs.len());
    Ok(())
}
