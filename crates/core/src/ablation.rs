//! Ablations of the paper's design choices (DESIGN.md §5).
//!
//! [`all`] varies one methodological knob per ablation and reports the
//! quantity it affects, so the cost of each design decision is
//! measurable. The arms that share a crawl setting share its crawl.

use crate::incremental::accumulate;
use crate::{Experiment, ExperimentConfig, ExperimentResults, Fold};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashSet};
use wmtree_analysis::{ExperimentData, PageNodeSimilarities};
use wmtree_crawler::{Commander, CrawlDb, CrawlOptions, Profile};
use wmtree_filterlist::embedded::{combined_list, tracking_list};
use wmtree_filterlist::FilterList;
use wmtree_stats::jaccard::jaccard;
use wmtree_tree::{CallStackMode, DepTree, Node, TreeConfig};

/// Outcome of one ablation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationOutcome {
    /// Name of the knob.
    pub knob: String,
    /// Label and headline metric of each arm.
    pub arms: Vec<(String, f64)>,
}

/// Every ablation, in the order `repro --ablations` prints them.
///
/// Crawls `config`'s universe four times: once as configured, carrying
/// the paper's arm, raw URLs, the full stack walk and the combined
/// list; once statefully; and once per interaction arm, with a single
/// profile each, since a visit's seed hashes its profile slot.
pub fn all(config: &ExperimentConfig) -> Vec<AblationOutcome> {
    let paper_arm = || (tracking_list(), TreeConfig::default());
    let raw = TreeConfig {
        normalize_urls: false,
        ..TreeConfig::default()
    };
    let walk = TreeConfig {
        call_stack_mode: CallStackMode::FullWalk,
        ..TreeConfig::default()
    };
    let arms = [
        paper_arm(),
        (tracking_list(), raw),
        (tracking_list(), walk),
        (combined_list(), TreeConfig::default()),
    ];
    let ([paper, raw, walk, combined], stateless) = crawl_arms(config, false, arms);
    let ([], stateful) = crawl_arms(config, true, []);
    let total_nodes = |name, user_interaction| {
        let profiles = vec![Profile::new(name, 95, user_interaction, true)];
        let one = ExperimentConfig {
            profiles,
            ..config.clone()
        };
        let ([arm], _) = crawl_arms(&one, false, [paper_arm()]);
        nodes(&arm.data).count() as f64
    };
    let normalization = |label: &str, results: &ExperimentResults| {
        let distinct = nodes(&results.data).map(|n| &n.key).collect::<HashSet<_>>();
        let label = format!("{label} ({} nodes)", distinct.len());
        (label, mean_child_similarity(&results.sims))
    };
    let tracking = |data| mean(nodes(data).map(|n| f64::from(u8::from(n.tracking))));
    // Consent-manager requests per successful visit.
    let consent = |tally: &Tally| tally.consent as f64 / tally.visits.max(1) as f64;
    let k_all = stateless.kept.last().map_or(0.0, |&n| n as f64);
    let (node_set, edge_set) = tree_metric(&paper.data);
    vec![
        // §6: raw URLs inflate the node space and deflate similarity
        // ("will (unrealistically) increase the observed differences").
        AblationOutcome {
            knob: "url-normalization (mean child similarity)".into(),
            arms: vec![
                normalization("normalized", &paper),
                normalization("raw", &raw),
            ],
        },
        // §3.2: latest-entry vs. full-stack-walk call-stack parents.
        AblationOutcome {
            knob: "callstack-attribution (mean child similarity)".into(),
            arms: vec![
                ("latest-entry".into(), mean_child_similarity(&paper.sims)),
                ("full-walk".into(), mean_child_similarity(&walk.sims)),
            ],
        },
        // §3.2: relaxed vetting keeps more pages but compares
        // incomplete profile sets.
        AblationOutcome {
            knob: format!("vetting (pages kept; all-profiles keeps {k_all})"),
            arms: (1..)
                .zip(&stateless.kept)
                .map(|(k, &n)| (format!("k≥{k}"), n as f64))
                .collect(),
        },
        // §3.1.1: how much traffic simulated interaction adds (paper
        // §4.4: Sim1 has 34% more nodes than NoAction).
        AblationOutcome {
            knob: "user-interaction (total nodes)".into(),
            arms: vec![
                ("with".into(), total_nodes("With", true)),
                ("without".into(), total_nodes("Without", false)),
            ],
        },
        // §3.2: the paper's node-set Jaccard vs. a whole-tree
        // edit-distance-style metric, rejected because it hides *where*
        // trees differ.
        AblationOutcome {
            knob: "tree-metric (Sim1 vs Sim2 similarity)".into(),
            arms: vec![
                ("node-set Jaccard".into(), node_set),
                ("edge-set Jaccard".into(), edge_set),
            ],
        },
        // Appendix C: stateful crawls carry cookies across a site's
        // pages, so consent flows fire once per site, not once per page.
        AblationOutcome {
            knob: "statefulness (consent requests per visit)".into(),
            arms: vec![
                ("stateless (paper)".into(), consent(&stateless)),
                ("stateful".into(), consent(&stateful)),
            ],
        },
        // §6: EasyList alone vs. combined with an EasyPrivacy-style list,
        // which flags more nodes as tracking: comprehensiveness up,
        // comparability with single-list studies down.
        AblationOutcome {
            knob: "filter-lists (tracking node share)".into(),
            arms: vec![
                ("EasyList analogue (paper)".into(), tracking(&paper.data)),
                ("+ EasyPrivacy analogue".into(), tracking(&combined.data)),
            ],
        },
    ]
}

/// Crawl `config`'s universe once, `stateful` or not, analysing each
/// site once per arm — with the arm's filter list classifying tracking
/// and its tree options — and tallying it, in the worker that crawled
/// it. Each arm folds into its own results; the tallies are summed.
fn crawl_arms<const N: usize>(
    config: &ExperimentConfig,
    stateful: bool,
    arms: [(&FilterList, TreeConfig); N],
) -> ([ExperimentResults; N], Tally) {
    let exp = Experiment::new(config.clone());
    let options = CrawlOptions {
        stateful,
        ..exp.crawl_options()
    };
    let mut folds = arms.each_ref().map(|_| exp.fold());
    let mut tally = Tally {
        kept: vec![0; config.profiles.len()],
        consent: 0,
        visits: 0,
    };
    let stage = |site: CrawlDb| {
        let accs = arms.each_ref().map(|(filter, tree)| {
            accumulate(&site, &exp.names, Some(filter), tree, &exp.site_meta, None)
        });
        (accs, Tally::of(&site))
    };
    // Every site is crawled once, under one profile roster, so no arm's
    // fold has anything to conflict on.
    Commander::new(exp.universe(), config.profiles.clone(), options)
        .crawl(&exp.progress(), stage, |(accs, site)| {
            tally.add(site);
            folds
                .iter_mut()
                .zip(accs)
                .try_for_each(|(fold, acc)| fold.add(acc))
        })
        .expect("each arm folds cleanly"); // wmtree-lint: allow(WM0105)
    let finish = |fold: Fold| fold.finish(None).expect("each arm folds cleanly"); // wmtree-lint: allow(WM0105)
    (folds.map(|fold| finish(fold).results), tally)
}

/// What a crawl counts of each site, summed over the universe.
struct Tally {
    /// `kept[k - 1]`: pages successfully crawled by at least `k`
    /// profiles.
    kept: Vec<usize>,
    /// Consent-manager requests of the vetted pages' visits.
    consent: usize,
    /// Successful visits.
    visits: usize,
}

impl Tally {
    fn of(site: &CrawlDb) -> Tally {
        let vetted = site.vetted_pages();
        let requests = vetted
            .iter()
            .flat_map(|(_, visits)| visits)
            .flat_map(|v| &v.requests);
        Tally {
            kept: (1..=site.n_profiles())
                .map(|k| site.vetted_pages_k(k).len())
                .collect(),
            consent: requests
                .filter(|r| r.url.host().contains("consent-shield"))
                .count(),
            visits: site.total_successful_visits(),
        }
    }

    fn add(&mut self, site: Tally) {
        for (kept, n) in self.kept.iter_mut().zip(site.kept) {
            *kept += n;
        }
        self.consent += site.consent;
        self.visits += site.visits;
    }
}

/// Every node of every tree of an experiment, roots excluded.
fn nodes(data: &ExperimentData) -> impl Iterator<Item = &Node> {
    let trees = data.pages.iter().flat_map(|p| &p.trees);
    trees.flat_map(|t| t.nodes().iter().skip(1))
}

/// The mean of `values`; 0 for none.
fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let values: Vec<f64> = values.into_iter().collect();
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Mean per-node child similarity of an experiment's node similarities
/// — the headline similarity metric most ablations move.
fn mean_child_similarity(sims: &[PageNodeSimilarities]) -> f64 {
    mean(
        sims.iter()
            .flat_map(|p| &p.nodes)
            .filter_map(|n| n.child_similarity),
    )
}

/// Mean node-set and edge-set Jaccard between each page's Sim1 and
/// Sim2 trees; the edge set is a structural, tree-distance-like view.
fn tree_metric(data: &ExperimentData) -> (f64, f64) {
    let a = data.profile_index("Sim1").unwrap_or(0);
    let b = data.profile_index("Sim2").unwrap_or(1);
    let node_set = |t: &DepTree| -> BTreeSet<String> {
        t.nodes().iter().skip(1).map(|n| n.key.clone()).collect()
    };
    let edge_set = |t: &DepTree| -> BTreeSet<(String, String)> {
        t.nodes()
            .iter()
            .skip(1)
            .filter_map(|n| Some((t.node(n.parent?).key.clone(), n.key.clone())))
            .collect()
    };
    let (mut by_node, mut by_edge) = (Vec::new(), Vec::new());
    for page in &data.pages {
        let (ta, tb) = (&page.trees[a], &page.trees[b]);
        by_node.push(jaccard(&node_set(ta), &node_set(tb)));
        by_edge.push(jaccard(&edge_set(ta), &edge_set(tb)));
    }
    (mean(by_node), mean(by_edge))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;
    use std::sync::OnceLock;

    /// The arms of the ablation whose knob starts with `knob`, from one
    /// sweep of a reliable Tiny universe that every test shares.
    fn arms(knob: &str) -> &'static [(String, f64)] {
        static SWEEP: OnceLock<Vec<AblationOutcome>> = OnceLock::new();
        let sweep = SWEEP.get_or_init(|| all(&ExperimentConfig::at_scale(Scale::Tiny).reliable()));
        let outcome = sweep.iter().find(|o| o.knob.starts_with(knob));
        &outcome.unwrap_or_else(|| panic!("no {knob} ablation")).arms
    }

    /// The headline values of a two-arm ablation.
    fn pair(knob: &str) -> (f64, f64) {
        match arms(knob) {
            [(_, a), (_, b)] => (*a, *b),
            other => panic!("{knob}: {other:?}"),
        }
    }

    #[test]
    fn normalization_merges_and_stabilizes() {
        let (norm, raw) = pair("url-normalization");
        // Raw URLs are never *more* similar than normalized ones.
        assert!(norm >= raw, "normalized {norm} vs raw {raw}");
    }

    #[test]
    fn vetting_monotone() {
        let arms = arms("vetting");
        // Pages kept is non-increasing in k.
        for w in arms.windows(2) {
            assert!(w[0].1 >= w[1].1, "{arms:?}");
        }
    }

    #[test]
    fn interaction_adds_traffic() {
        let (with, without) = pair("user-interaction");
        assert!(with > without * 1.1, "with {with} without {without}");
    }

    #[test]
    fn tree_metric_edge_view_is_stricter() {
        let (node, edge) = pair("tree-metric");
        // Agreeing on an edge implies agreeing on both nodes, so the
        // edge view cannot exceed the node view (up to noise).
        assert!(edge <= node + 0.02, "edge {edge} node {node}");
    }

    #[test]
    fn combined_lists_flag_more() {
        let (single, combined) = pair("filter-lists");
        assert!(combined > single, "combined {combined} vs single {single}");
        assert!(combined < 1.0);
    }

    #[test]
    fn stateful_reduces_consent_traffic() {
        let (stateless, stateful) = pair("statefulness");
        assert!(
            stateful < stateless,
            "stateful {stateful} vs stateless {stateless}"
        );
    }

    #[test]
    fn callstack_modes_both_valid() {
        for (_, v) in arms("callstack-attribution") {
            assert!((0.0..=1.0).contains(v));
        }
    }
}
