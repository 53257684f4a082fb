//! The seven methodology ablations, pinned to the bits of one Tiny run.
//!
//! `repro --ablations` and `examples/setup_ablation.rs` print these
//! arms. The ablation unit tests check only directions (normalized is at
//! least as similar as raw, …); these constants hold every arm's label
//! and `f64` bits still across commits and worker counts, so a change to
//! how the ablations crawl, build trees or analyse that moves any arm's
//! last bit fails here. One sweep ([`ablation::all`]) must also crawl
//! the universe exactly four times, once per crawl setting.
//!
//! The constants move only with a deliberate change to what the crawl
//! records (see `tests/crawl_pin.rs`) or to what an ablation measures.

use wmtree::ablation::{self, AblationOutcome};
use wmtree::webgen::stable_hash;
use wmtree::{ExperimentConfig, Scale};

/// `(ablation, stable_hash(0, its arms) in hex)` of a reliable Tiny run.
const DIGESTS: &[(&str, &str)] = &[
    ("url_normalization", "0927265ff095c76d"),
    ("callstack_mode", "69613c07894a9336"),
    ("vetting", "d9cb63df7ce4eab4"),
    ("interaction_variants", "9b3155f02e4174ba"),
    ("tree_metric", "d7d0aba4823cc176"),
    ("statefulness", "0a62fc2a66311f13"),
    ("filter_lists", "6c0f8fea0dbe3a90"),
];

/// One line per arm: the knob, the arm's label and its value's bits.
fn digest(outcome: &AblationOutcome) -> String {
    let mut text = String::new();
    for (label, value) in &outcome.arms {
        text.push_str(&format!(
            "{}|{label}|{:016x}\n",
            outcome.knob,
            value.to_bits()
        ));
    }
    format!("{:016x}", stable_hash(0, text.as_bytes()))
}

/// The only test of this binary: the crawl counter it reads is
/// process-global.
#[test]
fn tiny_ablations_reproduce_the_pinned_bits() {
    let want: Vec<(&str, String)> = DIGESTS
        .iter()
        .map(|&(name, digest)| (name, digest.to_string()))
        .collect();
    for workers in [1, 2] {
        let mut config = ExperimentConfig::at_scale(Scale::Tiny).reliable();
        config.workers = workers;
        let crawled = || wmtree::telemetry::counter!("crawler.sites.crawled").get();
        let before = crawled();
        let outcomes = ablation::all(&config);
        // One crawl of the 30 Tiny sites each: the paper's setting with
        // every tree and filter arm, the stateful setting, and the two
        // interaction profiles.
        assert_eq!(crawled() - before, 4 * 30, "workers {workers}");
        assert_eq!(
            outcomes[0].arms[0],
            (
                "normalized (2492 nodes)".to_string(),
                f64::from_bits(0x3fea5e4e53470b17)
            ),
            "workers {workers}"
        );
        assert_eq!(outcomes.len(), DIGESTS.len());
        let got: Vec<(&str, String)> = DIGESTS
            .iter()
            .zip(&outcomes)
            .map(|(&(name, _), outcome)| (name, digest(outcome)))
            .collect();
        assert_eq!(got, want, "workers {workers}");
    }
}
