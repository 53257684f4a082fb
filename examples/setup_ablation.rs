//! Setup ablation: measure how each methodological design choice of the
//! paper changes the outcome (DESIGN.md §5 / paper §3.2, §6, §4.4).
//!
//! ```sh
//! cargo run --release --example setup_ablation
//! ```

use wmtree::ablation;
use wmtree::{ExperimentConfig, Scale};

fn main() {
    let config = ExperimentConfig::at_scale(Scale::Tiny).reliable();

    println!("Running seven methodology ablations (four crawls, every arm analysed per site)...\n");
    for outcome in ablation::all(&config) {
        println!("== {} ==", outcome.knob);
        for (label, value) in &outcome.arms {
            println!("  {label:<32} {value:.3}");
        }
        println!();
    }

    println!(
        "Reading guide:\n\
         * url-normalization: raw URLs split equal resources apart — similarity drops,\n\
           node counts inflate (the paper's §6 argument for stripping query values).\n\
         * vetting: relaxing the all-profiles rule keeps more pages but compares\n\
           incomplete profile sets.\n\
         * user-interaction: simulated keystrokes load substantially more content\n\
           (the paper's Sim1 sees ~34% more nodes than NoAction).\n\
         * tree-metric: edge-set (structural) similarity is stricter than node-set\n\
           similarity; the paper uses node sets to localize differences.\n\
         * statefulness: stateful crawls trigger consent flows once per site, not\n\
           once per page (the paper crawls stateless — Appendix C).\n\
         * filter-lists: combining an EasyPrivacy-style list raises the tracking\n\
           share — comprehensiveness vs. comparability (§6)."
    );
}
