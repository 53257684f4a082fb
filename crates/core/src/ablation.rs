//! Ablations of the paper's design choices (DESIGN.md §5).
//!
//! Each function varies exactly one methodological knob and reports the
//! quantity it affects, so the cost of each design decision is
//! measurable:
//!
//! * [`url_normalization`] — §3.2/§6: dropping query values vs. raw URLs.
//! * [`callstack_mode`] — §3.2: latest-entry vs. full-stack-walk parents.
//! * [`vetting`] — §3.2: all-profiles vetting vs. at-least-k.
//! * [`interaction_variants`] — §3.1.1: no / full simulated interaction.
//! * [`tree_metric`] — §3.2: node-set Jaccard vs. whole-tree distance.
//!
//! The ablations that vary tree building or tracking classification
//! crawl once and analyse every arm in the per-site stage that a run
//! uses: the worker that crawls a site accumulates it once per arm, and
//! each arm folds into its own results.

use crate::incremental::accumulate;
use crate::{Experiment, ExperimentConfig, ExperimentResults};
use serde::{Deserialize, Serialize};
use wmtree_analysis::{ExperimentData, PageNodeSimilarities};
use wmtree_crawler::{Commander, CrawlDb, CrawlOptions, Profile};
use wmtree_filterlist::embedded::tracking_list;
use wmtree_filterlist::FilterList;
use wmtree_stats::jaccard::jaccard;
use wmtree_tree::{CallStackMode, TreeConfig};

/// Outcome of a two-arm ablation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationOutcome {
    /// Name of the knob.
    pub knob: String,
    /// Label and headline metric of each arm.
    pub arms: Vec<(String, f64)>,
}

fn crawl(config: &ExperimentConfig) -> CrawlDb {
    Experiment::new(config.clone()).commander().run()
}

/// Crawl `config`'s universe once, analysing each site once per arm —
/// with the arm's filter list classifying tracking and its tree
/// options — in the worker that crawled it, each arm into its own fold.
/// Returns the arms' results, in arm order.
fn crawl_arms(
    config: &ExperimentConfig,
    arms: &[(&FilterList, TreeConfig)],
) -> Vec<ExperimentResults> {
    let exp = Experiment::new(config.clone());
    let mut folds: Vec<_> = arms.iter().map(|_| exp.fold()).collect();
    let stage = |site: CrawlDb| -> Result<Vec<_>, _> {
        arms.iter()
            .map(|(filter, tree)| {
                accumulate(&site, &exp.names, Some(filter), tree, &exp.site_meta, None)
            })
            .collect()
    };
    exp.commander()
        .crawl(&exp.progress(), stage, |accs| {
            folds
                .iter_mut()
                .zip(accs?)
                .try_for_each(|(fold, acc)| fold.add(acc))
        })
        .and_then(|()| {
            folds
                .into_iter()
                .map(|fold| fold.finish(None).map(|run| run.results))
                .collect()
        })
        // Every site is crawled once, under one profile roster, so no
        // arm's fold has anything to conflict on.
        .expect("each arm folds cleanly") // wmtree-lint: allow(WM0105)
}

/// The one arm of the paper's own setup: the tracking list and the
/// default tree options.
fn paper_arm() -> (&'static FilterList, TreeConfig) {
    (tracking_list(), TreeConfig::default())
}

/// Mean per-node child similarity of an experiment's node similarities
/// — the headline similarity metric most ablations move.
pub fn mean_child_similarity(sims: &[PageNodeSimilarities]) -> f64 {
    let values: Vec<f64> = sims
        .iter()
        .flat_map(|p| &p.nodes)
        .filter_map(|n| n.child_similarity)
        .collect();
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Distinct node count of an experiment (normalization merges nodes).
fn distinct_nodes(data: &ExperimentData) -> f64 {
    let mut keys = std::collections::HashSet::new();
    for page in &data.pages {
        for tree in &page.trees {
            for n in tree.nodes().iter().skip(1) {
                keys.insert(n.key.clone());
            }
        }
    }
    keys.len() as f64
}

/// §6 ablation: URL normalization on vs. off. Raw URLs inflate the node
/// space and deflate similarity ("will (unrealistically) increase the
/// observed differences").
pub fn url_normalization(config: &ExperimentConfig) -> AblationOutcome {
    let raw = TreeConfig {
        normalize_urls: false,
        ..TreeConfig::default()
    };
    let arms = crawl_arms(config, &[paper_arm(), (tracking_list(), raw)]);
    let arm = |label: &str, results: &ExperimentResults| {
        (
            format!("{label} ({} nodes)", distinct_nodes(&results.data) as u64),
            mean_child_similarity(&results.sims),
        )
    };
    AblationOutcome {
        knob: "url-normalization (mean child similarity)".into(),
        arms: vec![arm("normalized", &arms[0]), arm("raw", &arms[1])],
    }
}

/// §3.2 ablation: latest-entry vs. full-stack-walk call-stack parents.
pub fn callstack_mode(config: &ExperimentConfig) -> AblationOutcome {
    let walk = TreeConfig {
        call_stack_mode: CallStackMode::FullWalk,
        ..TreeConfig::default()
    };
    let arms = crawl_arms(config, &[paper_arm(), (tracking_list(), walk)]);
    AblationOutcome {
        knob: "callstack-attribution (mean child similarity)".into(),
        arms: vec![
            ("latest-entry".into(), mean_child_similarity(&arms[0].sims)),
            ("full-walk".into(), mean_child_similarity(&arms[1].sims)),
        ],
    }
}

/// §3.2 ablation: the all-profiles vetting rule vs. at-least-k. Relaxed
/// vetting keeps more pages but compares incomplete profile sets.
pub fn vetting(config: &ExperimentConfig) -> AblationOutcome {
    let db = crawl(config);
    let k_all = db.vetted_pages().len() as f64;
    let arms = (1..=db.n_profiles())
        .map(|k| (format!("k≥{k}"), db.vetted_pages_k(k).len() as f64))
        .collect();
    AblationOutcome {
        knob: format!("vetting (pages kept; all-profiles keeps {k_all})"),
        arms,
    }
}

/// §3.1.1 ablation: how much traffic simulated interaction adds
/// (paper §4.4: Sim1 has 34% more nodes than NoAction).
pub fn interaction_variants(config: &ExperimentConfig) -> AblationOutcome {
    let mut with = config.clone();
    with.profiles = vec![Profile::new("With", 95, true, true)];
    let mut without = config.clone();
    without.profiles = vec![Profile::new("Without", 95, false, true)];
    let nodes = |cfg: &ExperimentConfig| {
        crawl_arms(cfg, &[paper_arm()])[0]
            .data
            .pages
            .iter()
            .flat_map(|p| &p.trees)
            .map(|t| t.node_count() as f64 - 1.0)
            .sum::<f64>()
    };
    AblationOutcome {
        knob: "user-interaction (total nodes)".into(),
        arms: vec![
            ("with".into(), nodes(&with)),
            ("without".into(), nodes(&without)),
        ],
    }
}

/// §6 ablation: EasyList alone (the paper's choice) vs. combining it
/// with an EasyPrivacy-style list. Combined lists flag more nodes as
/// tracking — comprehensiveness up, comparability with single-list
/// studies down.
pub fn filter_lists(config: &ExperimentConfig) -> AblationOutcome {
    let combined = (
        wmtree_filterlist::embedded::combined_list(),
        TreeConfig::default(),
    );
    let arms = crawl_arms(config, &[paper_arm(), combined]);
    let share = |data: &ExperimentData| -> f64 {
        let mut tracking = 0usize;
        let mut total = 0usize;
        for page in &data.pages {
            for tree in &page.trees {
                for n in tree.nodes().iter().skip(1) {
                    total += 1;
                    if n.tracking {
                        tracking += 1;
                    }
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            tracking as f64 / total as f64
        }
    };
    AblationOutcome {
        knob: "filter-lists (tracking node share)".into(),
        arms: vec![
            ("EasyList analogue (paper)".into(), share(&arms[0].data)),
            ("+ EasyPrivacy analogue".into(), share(&arms[1].data)),
        ],
    }
}

/// Appendix C ablation: stateless (the paper's choice) vs. stateful
/// crawling. Stateful crawls carry cookies across a site's pages, so
/// consent flows fire once per site instead of once per page.
pub fn statefulness(config: &ExperimentConfig) -> AblationOutcome {
    let run = |stateful: bool| -> f64 {
        let experiment = Experiment::new(config.clone());
        let commander = Commander::new(
            experiment.universe(),
            config.profiles.clone(),
            CrawlOptions {
                stateful,
                ..experiment.crawl_options()
            },
        );
        let db = commander.run();
        // Headline: consent-manager requests per successful visit.
        let consent: usize = db
            .vetted_pages()
            .iter()
            .flat_map(|(_, visits)| visits.iter())
            .flat_map(|v| v.requests.iter())
            .filter(|r| r.url.host().contains("consent-shield"))
            .count();
        let visits = db.total_successful_visits().max(1);
        consent as f64 / visits as f64
    };
    AblationOutcome {
        knob: "statefulness (consent requests per visit)".into(),
        arms: vec![
            ("stateless (paper)".into(), run(false)),
            ("stateful".into(), run(true)),
        ],
    }
}

/// §3.2 ablation: the paper's node-set Jaccard vs. a whole-tree
/// edit-distance-style metric (rejected because it hides *where* trees
/// differ). We compute both between Sim1 and Sim2 trees.
pub fn tree_metric(config: &ExperimentConfig) -> AblationOutcome {
    let data = &crawl_arms(config, &[paper_arm()])[0].data;
    let a = data.profile_index("Sim1").unwrap_or(0);
    let b = data.profile_index("Sim2").unwrap_or(1);
    let mut node_set = Vec::new();
    let mut edge_set = Vec::new();
    for page in &data.pages {
        let ta = &page.trees[a];
        let tb = &page.trees[b];
        let nodes_a: std::collections::BTreeSet<&str> =
            ta.nodes().iter().skip(1).map(|n| n.key.as_str()).collect();
        let nodes_b: std::collections::BTreeSet<&str> =
            tb.nodes().iter().skip(1).map(|n| n.key.as_str()).collect();
        node_set.push(jaccard(&nodes_a, &nodes_b));
        // Edge-set similarity ≈ a structural (tree-distance-like) view.
        let edges = |t: &wmtree_tree::DepTree| -> std::collections::BTreeSet<(String, String)> {
            t.nodes()
                .iter()
                .skip(1)
                .filter_map(|n| Some((t.node(n.parent?).key.clone(), n.key.clone())))
                .collect()
        };
        edge_set.push(jaccard(&edges(ta), &edges(tb)));
    }
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    AblationOutcome {
        knob: "tree-metric (Sim1 vs Sim2 similarity)".into(),
        arms: vec![
            ("node-set Jaccard".into(), mean(&node_set)),
            ("edge-set Jaccard".into(), mean(&edge_set)),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;
    use std::sync::OnceLock;

    fn cfg() -> &'static ExperimentConfig {
        static C: OnceLock<ExperimentConfig> = OnceLock::new();
        C.get_or_init(|| ExperimentConfig::at_scale(Scale::Tiny).reliable())
    }

    #[test]
    fn normalization_merges_and_stabilizes() {
        let out = url_normalization(cfg());
        assert_eq!(out.arms.len(), 2);
        let (norm, raw) = (out.arms[0].1, out.arms[1].1);
        // Raw URLs are never *more* similar than normalized ones.
        assert!(norm >= raw, "normalized {norm} vs raw {raw}");
    }

    #[test]
    fn vetting_monotone() {
        let out = vetting(cfg());
        // Pages kept is non-increasing in k.
        for w in out.arms.windows(2) {
            assert!(w[0].1 >= w[1].1, "{:?}", out.arms);
        }
    }

    #[test]
    fn interaction_adds_traffic() {
        let out = interaction_variants(cfg());
        let with = out.arms[0].1;
        let without = out.arms[1].1;
        assert!(with > without * 1.1, "with {with} without {without}");
    }

    #[test]
    fn tree_metric_edge_view_is_stricter() {
        let out = tree_metric(cfg());
        let node = out.arms[0].1;
        let edge = out.arms[1].1;
        // Agreeing on an edge implies agreeing on both nodes, so the
        // edge view cannot exceed the node view (up to noise).
        assert!(edge <= node + 0.02, "edge {edge} node {node}");
    }

    #[test]
    fn combined_lists_flag_more() {
        let out = filter_lists(cfg());
        let single = out.arms[0].1;
        let combined = out.arms[1].1;
        assert!(combined > single, "combined {combined} vs single {single}");
        assert!(combined < 1.0);
    }

    #[test]
    fn stateful_reduces_consent_traffic() {
        let out = statefulness(cfg());
        let stateless = out.arms[0].1;
        let stateful = out.arms[1].1;
        assert!(
            stateful < stateless,
            "stateful {stateful} vs stateless {stateless}"
        );
    }

    #[test]
    fn callstack_modes_both_valid() {
        let out = callstack_mode(cfg());
        for (_, v) in &out.arms {
            assert!((0.0..=1.0).contains(v));
        }
    }
}
