//! The paper-style report: every table and figure, computed and
//! rendered, with the paper's published values alongside for comparison.

use crate::experiment::ExperimentResults;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use wmtree_analysis::chains::{self, ChainStats, TypeChainRow};
use wmtree_analysis::composition::{self, Composition, PartyPresence};
use wmtree_analysis::cookies::{self, CookieStats};
use wmtree_analysis::depth_similarity::{self, DepthSimilarityRow, SimilarityByDepth};
use wmtree_analysis::distributions::{self, ChildrenByDepth, SimilarityDistributions};
use wmtree_analysis::popularity::{self, PopularityAnalysis};
use wmtree_analysis::presence::{self, TreeOverview};
use wmtree_analysis::profiles::{self, LevelSplitSimilarity, ProfileComparison, ProfileRow};
use wmtree_analysis::significance::{self, SignificanceReport};
use wmtree_analysis::stability::{self, StabilityReport};
use wmtree_analysis::tracking::{self, TrackingStats};
use wmtree_analysis::type_similarity::{
    self, SubframeImpact, TypeDepthSimilarity, TypeShareBySimilarity,
};
use wmtree_analysis::unique_nodes::{self, UniqueNodeStats};
use wmtree_stats::histogram::Histogram2D;

/// Every reproduced artifact of the paper, in one structure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Report {
    /// Crawl accounting (§4 "Success of Crawling Method").
    pub crawl: CrawlSummary,
    /// Table 2 — tree overview and node presence.
    pub table2: TreeOverview,
    /// Table 3 — per-depth similarity variants.
    pub table3: Vec<DepthSimilarityRow>,
    /// Tables 4a/4b — chain stability by resource type.
    pub table4a: Vec<TypeChainRow>,
    /// Table 4b rows.
    pub table4b: Vec<TypeChainRow>,
    /// Table 5 — per-profile totals.
    pub table5: Vec<ProfileRow>,
    /// Table 6 — comparisons against Sim1.
    pub table6: Vec<ProfileComparison>,
    /// Table 7 — popularity buckets + Kruskal-Wallis.
    pub table7: PopularityAnalysis,
    /// Fig. 1 — depth×breadth distribution.
    pub fig1: Histogram2D,
    /// Fig. 2 — similarity distributions of children and parents.
    pub fig2: SimilarityDistributions,
    /// Fig. 3 — node-type composition per depth.
    pub fig3: Composition,
    /// Fig. 4 — similarity by depth.
    pub fig4: SimilarityByDepth,
    /// Fig. 5a — type share by average parent similarity.
    pub fig5a: TypeShareBySimilarity,
    /// Fig. 5b — type share by average child similarity.
    pub fig5b: TypeShareBySimilarity,
    /// Fig. 7 — per-type similarity by depth.
    pub fig7: TypeDepthSimilarity,
    /// Fig. 8 — children per depth.
    pub fig8: ChildrenByDepth,
    /// §4.2 dependency-chain statistics.
    pub chain_stats: ChainStats,
    /// §4.2 subframe impact.
    pub subframe_impact: SubframeImpact,
    /// §4.3 first/third-party presence.
    pub party_presence: PartyPresence,
    /// §4.4 Sim1-vs-Sim2 shallow/deep similarity split.
    pub sim1_sim2_split: LevelSplitSimilarity,
    /// §5.1 unique nodes case study.
    pub unique_nodes: UniqueNodeStats,
    /// §5.2 cookies case study.
    pub cookie_stats: CookieStats,
    /// §5.3 tracking requests case study.
    pub tracking_stats: TrackingStats,
    /// §4 significance tests.
    pub significance: SignificanceReport,
    /// §8 takeaway metrics: measurement stability / variance.
    pub stability: StabilityReport,
}

/// Crawl-success accounting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CrawlSummary {
    /// Pages discovered by the pre-crawl.
    pub pages_discovered: usize,
    /// Successful visits across all profiles.
    pub successful_visits: usize,
    /// Pages surviving the all-profiles vetting.
    pub vetted_pages: usize,
    /// Sites surviving vetting.
    pub vetted_sites: usize,
    /// Per-profile success rates.
    pub success_rates: Vec<(String, f64)>,
}

impl Report {
    /// Compute every artifact from a run's results: the data-side
    /// artifacts fold the pages' summaries in page order (the per-site
    /// stage built them; any still missing are built first), the rest
    /// read the node similarities.
    pub fn generate(results: &ExperimentResults) -> Report {
        let data = &results.data;
        let sims = &results.sims;
        data.summarize();
        let interaction: Vec<usize> = data
            .profile_names
            .iter()
            .enumerate()
            .filter(|(_, n)| n.as_str() != "NoAction")
            .map(|(i, _)| i)
            .collect();
        let no_interaction: Vec<usize> = data.roles().noaction.into_iter().collect();

        // Wall-time each artifact under `report.<artifact>` so slow
        // tables show up in the run manifest's timing section.
        fn timed<T>(name: &str, f: impl FnOnce() -> T) -> T {
            let _span = wmtree_telemetry::span(name);
            f()
        }

        Report {
            crawl: CrawlSummary {
                pages_discovered: results.pages_discovered,
                successful_visits: results.successful_visits,
                vetted_pages: data.pages.len(),
                vetted_sites: results.vetted_sites,
                success_rates: data
                    .profile_names
                    .iter()
                    .cloned()
                    .zip(results.profile_stats.iter().map(|s| s.success_rate()))
                    .collect(),
            },
            table2: timed("report.table2", || presence::tree_overview(data, sims)),
            table3: timed("report.table3", || depth_similarity::table3(data)),
            table4a: timed("report.table4a", || chains::table4a(sims, 5)),
            table4b: timed("report.table4b", || chains::table4b(sims, 5)),
            table5: timed("report.table5", || profiles::table5(data)),
            table6: timed("report.table6", || profiles::table6(data)),
            table7: timed("report.table7", || popularity::popularity(data, sims)),
            fig1: timed("report.fig1", || {
                distributions::depth_breadth_grid(data, 60, 30)
            }),
            fig2: timed("report.fig2", || {
                distributions::similarity_distributions(sims)
            }),
            fig3: timed("report.fig3", || composition::composition(data, 6)),
            fig4: timed("report.fig4", || {
                depth_similarity::similarity_by_depth(sims, 4)
            }),
            fig5a: timed("report.fig5a", || {
                type_similarity::type_share_by_similarity(
                    sims,
                    type_similarity::SimilarityKind::Parent,
                    10,
                )
            }),
            fig5b: timed("report.fig5b", || {
                type_similarity::type_share_by_similarity(
                    sims,
                    type_similarity::SimilarityKind::Child,
                    10,
                )
            }),
            fig7: timed("report.fig7", || {
                type_similarity::type_depth_similarity(sims, 10)
            }),
            fig8: timed("report.fig8", || distributions::children_by_depth(data, 20)),
            chain_stats: timed("report.chains", || chains::chain_stats(sims)),
            subframe_impact: timed("report.subframes", || {
                type_similarity::subframe_impact(sims)
            }),
            party_presence: timed("report.party_presence", || {
                composition::party_presence(sims)
            }),
            sim1_sim2_split: timed("report.sim1_sim2", || {
                profiles::level_split_similarity(data, 5)
            }),
            unique_nodes: timed("report.unique_nodes", || {
                unique_nodes::unique_node_stats(data, 5)
            }),
            cookie_stats: timed("report.cookies", || cookies::cookie_stats(data)),
            tracking_stats: timed("report.tracking", || tracking::tracking_stats(data, sims)),
            significance: timed("report.significance", || {
                significance::significance(data, sims, &interaction, &no_interaction)
            }),
            stability: timed("report.stability", || {
                stability::experiment_stability(data, sims)
            }),
        }
    }

    /// Render the run's telemetry summary (stage wall times, crawl
    /// progress, metrics) in the report's section style.
    pub fn render_telemetry(manifest: &wmtree_telemetry::RunManifest) -> String {
        format!("== Telemetry (run manifest) ==\n{}\n", manifest.summary())
    }

    /// Serialize the full report to pretty JSON (the raw-data release).
    pub fn to_json(&self) -> String {
        // In-memory serialization of derive(Serialize) data is infallible.
        serde_json::to_string_pretty(self).expect("report serializes") // wmtree-lint: allow(WM0105)
    }

    /// Render the full paper-style text report.
    pub fn render(&self) -> String {
        let _span = wmtree_telemetry::span("report.render");
        let mut out = String::new();
        let _ = write!(
            out,
            "{}{}{}{}{}{}{}{}{}{}{}{}{}{}{}{}{}{}",
            self.render_crawl(),
            self.render_table2(),
            self.render_fig1(),
            self.render_fig2(),
            self.render_table3(),
            self.render_fig3(),
            self.render_table4(),
            self.render_fig4(),
            self.render_fig5(),
            self.render_table5(),
            self.render_table6(),
            self.render_case_studies(),
            self.render_table7(),
            self.render_fig7(),
            self.render_fig8(),
            self.render_chains(),
            self.render_significance(),
            self.render_stability(),
        );
        out
    }

    /// Crawl summary section.
    pub fn render_crawl(&self) -> String {
        let mut s = String::from("== Crawl summary (§4, Success of Crawling Method) ==\n");
        let _ = writeln!(s, "pages discovered:    {}", self.crawl.pages_discovered);
        let _ = writeln!(s, "successful visits:   {}", self.crawl.successful_visits);
        let _ = writeln!(
            s,
            "vetted pages/sites:  {} / {}   (paper keeps 55% pages, 71% sites)",
            self.crawl.vetted_pages, self.crawl.vetted_sites
        );
        for (name, rate) in &self.crawl.success_rates {
            let _ = writeln!(
                s,
                "  {name:<9} success rate {:.1}%  (paper: ≥89%)",
                rate * 100.0
            );
        }
        s.push('\n');
        s
    }

    /// Table 2 rendering.
    pub fn render_table2(&self) -> String {
        let t = &self.table2;
        let mut s = String::from("== Table 2: high-level overview of the measured trees ==\n");
        let _ = writeln!(
            s,
            "{:<9} {:>8} {:>8} {:>8} {:>8}",
            "Tree", "avg", "SD", "min", "max"
        );
        for (name, v, paper) in [
            ("nodes", &t.nodes, "paper: avg 84, SD 99, min 1, max 12k"),
            ("depth", &t.depth, "paper: avg 3.6, SD 2.2, min 0, max 30"),
            (
                "breadth",
                &t.breadth,
                "paper: avg 44, SD 58, min 1, max 12k",
            ),
        ] {
            let _ = writeln!(
                s,
                "{:<9} {:>8.1} {:>8.1} {:>8.0} {:>8.0}   ({paper})",
                name, v.mean, v.sd, v.min, v.max
            );
        }
        let _ = writeln!(
            s,
            "node present in X profiles (avg): {:.1}   (paper: 3.6)",
            t.avg_presence
        );
        let _ = writeln!(
            s,
            "present in all profiles: {:.0}%   (paper: 52%)",
            t.share_in_all * 100.0
        );
        let _ = writeln!(
            s,
            "present in one profile:  {:.0}%   (paper: 24%)",
            t.share_in_one * 100.0
        );
        let _ = writeln!(
            s,
            "trees with depth<6 and breadth<21: {:.0}%   (paper: 56%)\n",
            t.share_small * 100.0
        );
        s
    }

    /// Fig. 1 rendering (compact heatmap).
    pub fn render_fig1(&self) -> String {
        let mut s = String::from("== Fig. 1: depth (rows) × breadth (cols) distribution ==\n");
        let g = &self.fig1;
        // Coarse 10×10 view of the 60×30 grid.
        let _ = writeln!(
            s,
            "(counts, breadth bucketed by 6, depth by 3; total {})",
            g.total()
        );
        for dr in 0..10 {
            let mut row = String::new();
            for br in 0..10 {
                let mut sum = 0u64;
                for d in (dr * 3)..(dr * 3 + 3).min(31) {
                    for b in (br * 6)..(br * 6 + 6).min(61) {
                        sum += g.get(b, d);
                    }
                }
                let _ = write!(row, "{sum:>7}");
            }
            let _ = writeln!(s, "depth {:>2}+ |{row}", dr * 3);
        }
        s.push('\n');
        s
    }

    /// Fig. 2 rendering.
    pub fn render_fig2(&self) -> String {
        let mut s = String::from("== Fig. 2: distribution of node similarities ==\n");
        let _ = writeln!(s, "{:<10} children / parents (relative frequency)", "bin");
        let rc = self.fig2.children.relative();
        let rp = self.fig2.parents.relative();
        for i in 0..rc.len() {
            let _ = writeln!(
                s,
                "{:.1}-{:.1}    {:>6.3}  /  {:>6.3}",
                i as f64 / 10.0,
                (i + 1) as f64 / 10.0,
                rc[i],
                rp[i]
            );
        }
        let _ = writeln!(
            s,
            "(paper: ~60% of children and ~61% of parents in the top bin; ~20% of parents ≤ .3)\n"
        );
        s
    }

    /// Table 3 rendering.
    pub fn render_table3(&self) -> String {
        let mut s = String::from("== Table 3: similarity of nodes at different depths ==\n");
        let paper = [".80", ".74", ".99", ".88", ".76"];
        for (row, p) in self.table3.iter().zip(paper) {
            let _ = writeln!(
                s,
                "{:<46} {:<5} sim {:.2} SD {:.2} max {:.2} min {:.2}   (paper: {p})",
                row.filter.label(),
                row.category.label(),
                row.sim.mean,
                row.sim.sd,
                row.sim.max,
                row.sim.min
            );
        }
        s.push('\n');
        s
    }

    /// Fig. 3 rendering.
    pub fn render_fig3(&self) -> String {
        let mut s = String::from("== Fig. 3: volume of node types per depth ==\n");
        let _ = writeln!(
            s,
            "{:<7} {:>9} {:>7} {:>7} {:>9} {:>12}",
            "depth", "total", "FP%", "TP%", "track%", "non-track%"
        );
        for (d, lvl) in self.fig3.levels.iter().enumerate() {
            let total = lvl.total();
            if total == 0 {
                continue;
            }
            let pct = |n: usize| 100.0 * n as f64 / total as f64;
            let label = if d + 1 == self.fig3.levels.len() {
                format!("{d}+")
            } else {
                d.to_string()
            };
            let _ = writeln!(
                s,
                "{label:<7} {total:>9} {:>6.0}% {:>6.0}% {:>8.0}% {:>11.0}%",
                pct(lvl.first_party),
                pct(lvl.third_party),
                pct(lvl.tracking),
                pct(lvl.non_tracking)
            );
        }
        let _ = writeln!(
            s,
            "overall: {:.0}% first-party (paper: 32%), {:.0}% tracking (paper: 22%), {} third-party sites\n",
            self.fig3.first_party_share * 100.0,
            self.fig3.tracking_share * 100.0,
            self.fig3.third_party_sites
        );
        s
    }

    /// Tables 4a/4b rendering.
    pub fn render_table4(&self) -> String {
        let mut s = String::from("== Table 4a: types most stably loaded by the same chain ==\n");
        for row in &self.table4a {
            let _ = writeln!(
                s,
                "{:<16} same chains {:>4.0}%   (n={})",
                row.resource_type.label(),
                row.same_chain_share * 100.0,
                row.n
            );
        }
        let _ = writeln!(
            s,
            "(paper: main frames 90%, Web sockets 88%, XHR 75%, JS 65%, CSS 54%)"
        );
        s.push_str("== Table 4b: types with the lowest parent similarity ==\n");
        for row in &self.table4b {
            let _ = writeln!(
                s,
                "{:<16} similarity {:.2}   (n={})",
                row.resource_type.label(),
                row.mean_parent_similarity,
                row.n
            );
        }
        let _ = writeln!(
            s,
            "(paper: CSP reports .10, images .25, Web sockets .27, CSS .31, beacons .34)\n"
        );
        s
    }

    /// Fig. 4 rendering.
    pub fn render_fig4(&self) -> String {
        let mut s = String::from("== Fig. 4: similarity of children and parents by depth ==\n");
        for (d, ((c, p), n)) in self
            .fig4
            .children
            .iter()
            .zip(&self.fig4.parents)
            .zip(&self.fig4.counts)
            .enumerate()
        {
            let label = if d + 1 == self.fig4.children.len() {
                format!("{d}+")
            } else {
                d.to_string()
            };
            let _ = writeln!(
                s,
                "depth {label:<3} children {c:.2}  parents {p:.2}  (n={n})"
            );
        }
        let _ = writeln!(
            s,
            "(paper: similarity decays with depth, recovering in very deep branches)\n"
        );
        s
    }

    /// Fig. 5 rendering.
    pub fn render_fig5(&self) -> String {
        let mut s =
            String::from("== Fig. 5: resource-type share by per-page average similarity ==\n");
        for (name, fig) in [("5a parents", &self.fig5a), ("5b children", &self.fig5b)] {
            let _ = writeln!(
                s,
                "-- {name} (pages per bucket: {:?})",
                fig.pages_per_bucket
            );
            for (ty, series) in &fig.shares {
                if series.iter().all(|v| *v == 0.0) {
                    continue;
                }
                let vals: Vec<String> = series.iter().map(|v| format!("{:.2}", v)).collect();
                let _ = writeln!(s, "  {:<16} {}", ty.label(), vals.join(" "));
            }
        }
        let _ = writeln!(
            s,
            "(paper: images/scripts/subframes dominate low-similarity pages)\n"
        );
        s
    }

    /// Table 5 rendering.
    pub fn render_table5(&self) -> String {
        let mut s = String::from("== Table 5: implications depending on different profiles ==\n");
        let _ = writeln!(
            s,
            "{:<10} {:>9} {:>12} {:>9} {:>7} {:>9}",
            "Name", "Nodes", "Third party", "Tracker", "Depth", "Breadth"
        );
        for row in &self.table5 {
            let _ = writeln!(
                s,
                "{:<10} {:>9} {:>12} {:>9} {:>7} {:>9}",
                row.name, row.nodes, row.third_party, row.tracker, row.max_depth, row.max_breadth
            );
        }
        let _ = writeln!(
            s,
            "(paper: Sim1 19.41M/13.24M/3.21M, NoAction 14.53M — ~25% fewer nodes)\n"
        );
        s
    }

    /// Table 6 rendering.
    pub fn render_table6(&self) -> String {
        let mut s = String::from("== Table 6: profile differences compared to Sim1 ==\n");
        let _ = write!(s, "{:<28}", "");
        for c in &self.table6 {
            let _ = write!(s, "{:>10}", c.name);
        }
        s.push('\n');
        type RowExtractor = Box<dyn Fn(&ProfileComparison) -> f64>;
        let rows: Vec<(&str, RowExtractor)> = vec![
            (
                "FP children perfect %",
                Box::new(|c| c.fp_children_perfect * 100.0),
            ),
            (
                "FP children none %",
                Box::new(|c| c.fp_children_none * 100.0),
            ),
            (
                "TP children perfect %",
                Box::new(|c| c.tp_children_perfect * 100.0),
            ),
            (
                "TP children none %",
                Box::new(|c| c.tp_children_none * 100.0),
            ),
            (
                "FP parent perfect %",
                Box::new(|c| c.fp_parent_perfect * 100.0),
            ),
            ("FP parent none %", Box::new(|c| c.fp_parent_none * 100.0)),
            (
                "TP parent perfect %",
                Box::new(|c| c.tp_parent_perfect * 100.0),
            ),
            ("TP parent none %", Box::new(|c| c.tp_parent_none * 100.0)),
            ("parent sim mean (✻ d≥2)", Box::new(|c| c.parent_sim_mean)),
            ("child sim mean (✚)", Box::new(|c| c.child_sim_mean)),
        ];
        for (label, f) in rows {
            let _ = write!(s, "{label:<28}");
            for c in &self.table6 {
                let v = f(c);
                if label.contains('%') {
                    let _ = write!(s, "{v:>9.0}%");
                } else {
                    let _ = write!(s, "{v:>10.2}");
                }
            }
            s.push('\n');
        }
        let _ = writeln!(
            s,
            "(paper: Sim2 82/4/75/13 FP/TP children; NoAction most divergent: 67/8/64/22)"
        );
        let _ = writeln!(
            s,
            "Sim1 vs Sim2 per-depth similarity: shallow(≤5) {:.2} deep(>5) {:.2}   (paper: .92 / .75)\n",
            self.sim1_sim2_split.shallow, self.sim1_sim2_split.deep
        );
        s
    }

    /// Case studies (§5) rendering.
    pub fn render_case_studies(&self) -> String {
        let mut s = String::from("== §5.1 Unique nodes ==\n");
        let u = &self.unique_nodes;
        let _ = writeln!(
            s,
            "unique/distinct: {}/{} = {:.0}%   (paper: 24%)",
            u.unique_nodes,
            u.distinct_nodes,
            u.unique_share * 100.0
        );
        let _ = writeln!(
            s,
            "of uniques: {:.0}% tracking (paper 37%), {:.0}% third-party (paper 90%), depth {:.1}±{:.1} (paper 2.7±1.9), {:.0}% at depth 1 (paper 22%)",
            u.tracking_share * 100.0,
            u.third_party_share * 100.0,
            u.depth.mean,
            u.depth.sd,
            u.depth1_share * 100.0
        );
        let hosts: Vec<String> = u
            .top_hosts
            .iter()
            .map(|(h, p)| format!("{h} ({:.0}%)", p * 100.0))
            .collect();
        let _ = writeln!(s, "top unique-node hosts: {}", hosts.join(", "));
        let _ = writeln!(
            s,
            "mean unique share per tree: {:.1}%   (paper: 6%)\n",
            u.mean_unique_per_tree * 100.0
        );

        let c = &self.cookie_stats;
        s.push_str("== §5.2 Implications on cookies ==\n");
        let _ = writeln!(
            s,
            "observations {} | distinct {} | per-profile {:?}",
            c.total_observations, c.distinct_cookies, c.per_profile
        );
        let _ = writeln!(
            s,
            "in all profiles {:.0}% (paper 32%) | in one {:.0}% (paper 42%)",
            c.share_in_all * 100.0,
            c.share_in_one * 100.0
        );
        let _ = writeln!(
            s,
            "per-page cookie similarity {:.2} (paper .70) | vs NoAction {:.2} (paper .59)",
            c.per_page_similarity.mean, c.interaction_vs_noaction.mean
        );
        let _ = writeln!(
            s,
            "cookies with conflicting security attributes: {} (paper: 440, 0.2%)\n",
            c.attribute_conflicts
        );

        let t = &self.tracking_stats;
        s.push_str("== §5.3 Tracking requests ==\n");
        let _ = writeln!(
            s,
            "tracking node share {:.0}%   (paper: 22%)",
            t.tracking_share * 100.0
        );
        let _ = writeln!(
            s,
            "children sim: tracking {:.2} vs non {:.2}   (paper: .62 vs .75)",
            t.tracking_child_sim.mean, t.non_tracking_child_sim.mean
        );
        let _ = writeln!(
            s,
            "parent sim: tracking {:.2} vs non {:.2}   (paper: .53 lower than non)",
            t.tracking_parent_sim.mean, t.non_tracking_parent_sim.mean
        );
        let _ = writeln!(
            s,
            "mean children: tracking {:.1} vs non {:.1}   (paper: 1.7 vs 3.7)",
            t.tracking_mean_children, t.non_tracking_mean_children
        );
        let _ = writeln!(
            s,
            "depth shares d1/d2/d3/deeper: {:.0}%/{:.0}%/{:.0}%/{:.0}%   (paper: 9/32/36/24)",
            t.depth_shares[0] * 100.0,
            t.depth_shares[1] * 100.0,
            t.depth_shares[2] * 100.0,
            t.depth_shares[3] * 100.0
        );
        let _ = writeln!(
            s,
            "trackers triggered by trackers {:.0}% (paper 65%); parents: scripts {:.0}% (46%), subframes {:.0}% (34%), main frames {:.0}% (15%)\n",
            t.tracker_parent_share * 100.0,
            t.parent_type_shares[0] * 100.0,
            t.parent_type_shares[1] * 100.0,
            t.parent_type_shares[2] * 100.0
        );
        s
    }

    /// Table 7 rendering.
    pub fn render_table7(&self) -> String {
        let mut s = String::from("== Table 7: tree size and similarity by rank bucket ==\n");
        let _ = writeln!(
            s,
            "{:<16} {:>11} {:>10} {:>11} {:>7}",
            "Bucket", "mean nodes", "child sim", "parent sim", "pages"
        );
        for row in &self.table7.rows {
            let _ = writeln!(
                s,
                "{:<16} {:>11.1} {:>10.2} {:>11.2} {:>7}",
                row.bucket, row.mean_nodes, row.child_sim, row.parent_sim, row.pages
            );
        }
        if let Some(t) = &self.table7.nodes_test {
            let _ = writeln!(
                s,
                "Kruskal-Wallis nodes~bucket: H={:.1} p={:.4} ε²={:.4}   (paper: significant, ε²=.002 ⇒ negligible)",
                t.test.statistic, t.test.p_value, t.epsilon_squared
            );
        }
        s.push('\n');
        s
    }

    /// Fig. 7 rendering.
    pub fn render_fig7(&self) -> String {
        let mut s = String::from("== Fig. 7: similarity by resource type and depth ==\n");
        for (name, m) in [
            ("children", &self.fig7.children),
            ("parents", &self.fig7.parents),
        ] {
            let _ = writeln!(s, "-- {name} (depth 0..10+)");
            for (ty, series) in m {
                let vals: Vec<String> = series.iter().map(|v| format!("{v:.2}")).collect();
                let _ = writeln!(s, "  {:<16} {}", ty.label(), vals.join(" "));
            }
        }
        s.push('\n');
        s
    }

    /// Fig. 8 rendering.
    pub fn render_fig8(&self) -> String {
        let mut s = String::from("== Fig. 8: number of children per depth ==\n");
        let _ = writeln!(
            s,
            "overall mean children {:.2} (paper: 0.9) | root mean {:.1} (paper: 31.7) | nodes with ≤1 child {:.0}% (paper: 92%)",
            self.fig8.overall_mean,
            self.fig8.root_mean,
            self.fig8.share_leafish * 100.0
        );
        for (d, (m, mnl)) in self
            .fig8
            .mean_children
            .iter()
            .zip(&self.fig8.mean_children_nonleaf)
            .enumerate()
        {
            if *m == 0.0 && *mnl == 0.0 {
                continue;
            }
            let label = if d + 1 == self.fig8.mean_children.len() {
                format!("{d}+")
            } else {
                d.to_string()
            };
            let _ = writeln!(s, "depth {label:<3} mean {m:.2}  (non-leaf only: {mnl:.2})");
        }
        s.push('\n');
        s
    }

    /// §4.2/§4.3 chain statistics rendering.
    pub fn render_chains(&self) -> String {
        let c = &self.chain_stats;
        let mut s = String::from("== §4.2 Dependency chains ==\n");
        let _ = writeln!(
            s,
            "same chains (nodes in all trees):     {:.0}%   (paper: 75%)",
            c.same_chain_share * 100.0
        );
        let _ = writeln!(
            s,
            "same chains excluding depth 1:        {:.0}%   (paper: 57%)",
            c.same_chain_share_depth2 * 100.0
        );
        let _ = writeln!(
            s,
            "unique chains:                        {:.0}%   (paper: 18%)",
            c.unique_chain_share * 100.0
        );
        let _ = writeln!(
            s,
            "first-party same chain:               {:.0}%   (paper: 86%)",
            c.fp_same_chain * 100.0
        );
        let _ = writeln!(
            s,
            "third-party same chain:               {:.0}%   (paper: 56%)",
            c.tp_same_chain * 100.0
        );
        let _ = writeln!(
            s,
            "tracking same chain:                  {:.0}%   (paper: 28%)",
            c.tracking_same_chain * 100.0
        );
        let _ = writeln!(
            s,
            "non-tracking same chain:              {:.0}%   (paper: 66%)",
            c.non_tracking_same_chain * 100.0
        );
        let _ = writeln!(
            s,
            "same parent (same-depth, d≥2):        {:.0}%   (paper: 61%)",
            c.same_parent_share * 100.0
        );
        let _ = writeln!(
            s,
            "parent similarity bands H/M/L:        {:.0}%/{:.0}%/{:.0}%   (paper: 63/17/20)",
            c.parent_high * 100.0,
            c.parent_medium * 100.0,
            c.parent_low * 100.0
        );
        let sub = &self.subframe_impact;
        let _ = writeln!(
            s,
            "pages w/o subframes: parent {:.2} child {:.2} (paper .86/.90); with: {:.2}/{:.2} (paper .72/.77)",
            sub.no_subframe_parent, sub.no_subframe_child, sub.with_subframe_parent, sub.with_subframe_child
        );
        let p = &self.party_presence;
        let _ = writeln!(
            s,
            "FP presence d1 {:.1}/5 (paper 4.5); TP presence d1 {:.1} (3.9), deep {:.1} (3.3)",
            p.fp_depth1_presence, p.tp_depth1_presence, p.tp_deep_presence
        );
        let _ = writeln!(
            s,
            "children sim: FP {:.2} (paper .86) vs TP {:.2} (paper .68)\n",
            p.fp_child_similarity, p.tp_child_similarity
        );
        s
    }

    /// §8 stability metrics rendering.
    pub fn render_stability(&self) -> String {
        let st = &self.stability;
        let mut s = String::from(
            "== §8 takeaway: measurement stability metrics ==
",
        );
        let _ = writeln!(
            s,
            "page stability index: mean {:.2} (SD {:.2}, min {:.2}) — 1.0 = a page whose measurement never fluctuates",
            st.page_index.mean, st.page_index.sd, st.page_index.min
        );
        let _ = writeln!(
            s,
            "single-profile recall: {:.0}% of the observable node population (per profile: {})",
            st.recall.overall.mean * 100.0,
            st.recall
                .per_profile
                .iter()
                .map(|v| format!("{:.0}%", v * 100.0))
                .collect::<Vec<_>>()
                .join(" ")
        );
        let curve: Vec<String> = st
            .accumulation
            .iter()
            .map(|v| format!("{:.2}", v))
            .collect();
        let _ = writeln!(s, "profile accumulation curve: {}", curve.join(" → "));
        let _ = writeln!(
            s,
            "marginal gain of the 5th profile: {:.1}% — the paper's takeaway (4): multiple \
             measurements are needed, with diminishing returns
",
            st.marginal_gain_last * 100.0
        );
        s
    }

    /// Significance tests rendering.
    pub fn render_significance(&self) -> String {
        let mut s = String::from("== §4 significance tests ==\n");
        if let Some(t) = &self.significance.children_vs_similarity {
            let _ = writeln!(
                s,
                "Wilcoxon children#~similarity: W={:.0} p={:.2e}   (paper: p<0.001)",
                t.statistic, t.p_value
            );
        }
        if let Some(t) = &self.significance.interaction_vs_depth {
            let _ = writeln!(
                s,
                "Mann-Whitney interaction~depth: U={:.0} p={:.2e}   (paper: p<0.001)",
                t.statistic, t.p_value
            );
        }
        if let Some(r) = &self.significance.children_similarity_rho {
            let _ = writeln!(
                s,
                "Spearman children#~similarity: rho={:.2} p={:.2e} (negative: many children => varying children)",
                r.rho, r.p_value
            );
        }
        if let Some(t) = &self.significance.type_vs_similarity {
            let _ = writeln!(
                s,
                "Kruskal-Wallis type~similarity: H={:.1} p={:.2e} ε²={:.3}   (paper: significant)",
                t.test.statistic, t.test.p_value, t.epsilon_squared
            );
        }
        s.push('\n');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Experiment, ExperimentConfig, Scale};
    use std::sync::OnceLock;

    fn report() -> &'static Report {
        static R: OnceLock<Report> = OnceLock::new();
        R.get_or_init(|| {
            let results = Experiment::new(ExperimentConfig::at_scale(Scale::Tiny)).run();
            Report::generate(&results)
        })
    }

    #[test]
    fn render_contains_every_section() {
        let text = report().render();
        for needle in [
            "Crawl summary",
            "Table 2",
            "Fig. 1",
            "Fig. 2",
            "Table 3",
            "Fig. 3",
            "Table 4a",
            "Table 4b",
            "Fig. 4",
            "Fig. 5",
            "Table 5",
            "Table 6",
            "§5.1 Unique nodes",
            "§5.2 Implications on cookies",
            "§5.3 Tracking requests",
            "Table 7",
            "Fig. 7",
            "Fig. 8",
            "Dependency chains",
            "significance tests",
            "stability metrics",
        ] {
            assert!(text.contains(needle), "missing section {needle}");
        }
    }

    #[test]
    fn json_roundtrip() {
        let r = report();
        let json = r.to_json();
        let back: Report = serde_json::from_str(&json).unwrap();
        assert_eq!(back.table2.nodes.n, r.table2.nodes.n);
        assert_eq!(back.table5.len(), r.table5.len());
    }

    #[test]
    fn table5_has_five_profiles() {
        assert_eq!(report().table5.len(), 5);
        assert_eq!(report().table6.len(), 4);
    }
}
