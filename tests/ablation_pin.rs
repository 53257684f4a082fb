//! The seven methodology ablations, pinned to the bits of one Tiny run.
//!
//! `repro --ablations` and `examples/setup_ablation.rs` print these
//! arms. The ablation unit tests check only directions (normalized is at
//! least as similar as raw, …); these constants hold every arm's label
//! and `f64` bits still across commits and worker counts, so a change to
//! how the ablations crawl, build trees or analyse that moves any arm's
//! last bit fails here.
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

#[test]
fn tiny_ablations_reproduce_the_pinned_bits() {
    let want: Vec<(&str, String)> = DIGESTS
        .iter()
        .map(|&(name, digest)| (name, digest.to_string()))
        .collect();
    for workers in [1, 2] {
        let mut config = ExperimentConfig::at_scale(Scale::Tiny).reliable();
        config.workers = workers;
        let normalization = ablation::url_normalization(&config);
        assert_eq!(
            normalization.arms[0],
            (
                "normalized (2492 nodes)".to_string(),
                f64::from_bits(0x3fea5e4e53470b17)
            ),
            "workers {workers}"
        );
        let got: Vec<(&str, String)> = [
            ("url_normalization", normalization),
            ("callstack_mode", ablation::callstack_mode(&config)),
            ("vetting", ablation::vetting(&config)),
            (
                "interaction_variants",
                ablation::interaction_variants(&config),
            ),
            ("tree_metric", ablation::tree_metric(&config)),
            ("statefulness", ablation::statefulness(&config)),
            ("filter_lists", ablation::filter_lists(&config)),
        ]
        .iter()
        .map(|(name, outcome)| (*name, digest(outcome)))
        .collect();
        assert_eq!(got, want, "workers {workers}");
    }
}
