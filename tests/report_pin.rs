//! The report, pinned to the digests of one Tiny run.
//!
//! A Tiny experiment must render exactly these bytes at any worker
//! count: the text report, the JSON release and the eight CSV exports.
//! Every other identity test compares two modes of one build; these
//! constants hold the output still across commits, so a refactor or an
//! optimisation of the analyses or the report that moves any byte —
//! one float's last bit, one row's order — fails here.
//!
//! The constants move only with a deliberate change to what the crawl
//! records (see `tests/crawl_pin.rs`) or to what the report computes or
//! prints.

use wmtree::webgen::stable_hash;
use wmtree::{Experiment, ExperimentConfig, Report, Scale};

/// `(output, stable_hash(0, bytes) in hex)` of a Tiny run's report.
const DIGESTS: &[(&str, &str)] = &[
    ("render", "3b7ca6cc0a79ceb1"),
    ("json", "61c13ff08a932a0b"),
    ("fig1", "826a617d928d6391"),
    ("fig2", "2aedad7b921dc22c"),
    ("fig3", "625d77b7036d7dd6"),
    ("fig4", "51eddd0072351a5a"),
    ("fig7", "b2e29b4758d4d58b"),
    ("fig8", "360ad950136bde47"),
    ("table5", "c1d4953f2de6c611"),
    ("table7", "b0ba4eb1a3b1a42f"),
];

fn digests(report: &Report) -> Vec<(&'static str, String)> {
    [
        ("render", report.render()),
        ("json", report.to_json()),
        ("fig1", report.fig1_csv()),
        ("fig2", report.fig2_csv()),
        ("fig3", report.fig3_csv()),
        ("fig4", report.fig4_csv()),
        ("fig7", report.fig7_csv()),
        ("fig8", report.fig8_csv()),
        ("table5", report.table5_csv()),
        ("table7", report.table7_csv()),
    ]
    .into_iter()
    .map(|(name, text)| (name, format!("{:016x}", stable_hash(0, text.as_bytes()))))
    .collect()
}

#[test]
fn tiny_report_reproduces_the_pinned_digests() {
    let want: Vec<(&str, String)> = DIGESTS
        .iter()
        .map(|&(name, digest)| (name, digest.to_string()))
        .collect();
    for workers in [1, 3] {
        let mut config = ExperimentConfig::at_scale(Scale::Tiny);
        config.workers = workers;
        let results = Experiment::new(config).run();
        assert_eq!(
            digests(&Report::generate(&results)),
            want,
            "workers {workers}"
        );
    }
}
