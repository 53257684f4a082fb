//! Ground-truth inventory: static analysis of the universe's content
//! graph.
//!
//! Because the web here is synthetic, we can do what no live-Web study
//! can: enumerate the *complete* reachable content of a page and label
//! each potential load with the condition gating it. This gives
//! analyses a ground truth to validate against — e.g. the measured
//! NoAction node deficit should match the share of interaction-gated
//! content, and a crawler's single-profile recall is bounded by the
//! per-visit content share.

use crate::content::{Condition, Content};
use crate::universe::{VisitCtx, WebUniverse};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use wmtree_url::Url;

/// How a potential load is gated, from the crawler's perspective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum GateClass {
    /// Loads on every visit by every profile.
    Always,
    /// Requires simulated user interaction.
    Interaction,
    /// Probabilistic per visit.
    PerVisit,
    /// Depends on the browser version.
    Version,
    /// Skipped by headless browsers.
    Headless,
}

impl GateClass {
    fn of(condition: &Condition) -> GateClass {
        match condition {
            Condition::Always => GateClass::Always,
            Condition::RequiresInteraction => GateClass::Interaction,
            Condition::PerVisit(_) => GateClass::PerVisit,
            Condition::MinVersion(_) | Condition::BelowVersion(_) => GateClass::Version,
            Condition::NotHeadless => GateClass::Headless,
            Condition::InteractionThenPerVisit(_) => GateClass::Interaction,
        }
    }
}

/// The inventory of one page's reachable content graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PageInventory {
    /// Page URL.
    pub page: String,
    /// Distinct reachable URL templates per gate class.
    pub by_gate: BTreeMap<GateClass, usize>,
    /// Total distinct URL templates reached.
    pub total: usize,
    /// Maximum traversal depth reached (bounded walk).
    pub max_depth: usize,
}

impl PageInventory {
    /// Share of the inventory behind a given gate.
    pub fn share(&self, gate: GateClass) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            *self.by_gate.get(&gate).unwrap_or(&0) as f64 / self.total as f64
        }
    }
}

/// Walk the content graph of a page breadth-first under a fixed visit
/// context, recording the gate class each URL template is *first*
/// reached under. The walk is bounded by `max_nodes` (ad chains recurse
/// probabilistically; the static walk follows every branch once).
pub fn page_inventory(
    universe: &WebUniverse,
    page: &Url,
    ctx: &VisitCtx,
    max_nodes: usize,
) -> PageInventory {
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut by_gate: BTreeMap<GateClass, usize> = BTreeMap::new();
    let mut queue: VecDeque<(String, GateClass, usize)> = VecDeque::new();
    queue.push_back((page.to_string(), GateClass::Always, 0));
    let mut max_depth = 0usize;

    while let Some((template, gate, depth)) = queue.pop_front() {
        if seen.len() >= max_nodes {
            break;
        }
        let concrete = template
            .replace("{sid}", "0")
            .replace("{uid}", "0")
            .replace("{cb}", "0");
        if !seen.insert(concrete.clone()) {
            continue;
        }
        *by_gate.entry(gate).or_insert(0) += 1;
        max_depth = max_depth.max(depth);

        let Ok(url) = Url::parse(&concrete) else {
            continue;
        };
        let reply = universe.serve(&url, ctx);
        // Gates are sticky along a branch: content behind an
        // interaction gate stays interaction-gated even if its own
        // condition is Always.
        for embed in reply.content.embeds() {
            let child_gate = gate.max(GateClass::of(&embed.condition));
            queue.push_back((embed.url.clone(), child_gate, depth + 1));
        }
        if let Content::Redirect { to, .. } = &reply.content {
            queue.push_back((to.clone(), gate, depth + 1));
        }
    }

    PageInventory {
        page: page.to_string(),
        by_gate,
        total: seen.len(),
        max_depth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::{UniverseConfig, WebUniverse};

    fn uni() -> WebUniverse {
        WebUniverse::generate(UniverseConfig {
            seed: 91,
            sites_per_bucket: [6, 2, 2, 2, 2],
            max_subpages: 5,
        })
    }

    #[test]
    fn inventory_covers_content() {
        let u = uni();
        let page = u.sites()[0].landing_url();
        let inv = page_inventory(&u, &page, &VisitCtx::standard(1), 2000);
        assert!(inv.total > 20, "inventory {inv:?}");
        assert!(inv.max_depth >= 2);
        // All gate shares sum to 1.
        let sum: f64 = [
            GateClass::Always,
            GateClass::Interaction,
            GateClass::PerVisit,
            GateClass::Version,
            GateClass::Headless,
        ]
        .iter()
        .map(|g| inv.share(*g))
        .sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn interaction_gated_content_exists() {
        let u = uni();
        // Across several sites, interaction- and per-visit-gated content
        // is a meaningful slice of the inventory — the ground truth the
        // NoAction deficit measures.
        let mut interaction = 0.0;
        let mut pervisit = 0.0;
        let mut n = 0.0;
        for site in u.sites().iter().take(8) {
            let inv = page_inventory(&u, &site.landing_url(), &VisitCtx::standard(1), 2000);
            interaction += inv.share(GateClass::Interaction);
            pervisit += inv.share(GateClass::PerVisit);
            n += 1.0;
        }
        assert!(
            interaction / n > 0.03,
            "interaction share {}",
            interaction / n
        );
        assert!(pervisit / n > 0.05, "per-visit share {}", pervisit / n);
    }

    #[test]
    fn gates_are_sticky_down_branches() {
        // Content loaded inside an interaction-gated ad slot counts as
        // interaction-gated even though its own embed is Always.
        let u = uni();
        for site in u.sites().iter() {
            let inv = page_inventory(&u, &site.landing_url(), &VisitCtx::standard(1), 4000);
            let gated = inv
                .by_gate
                .get(&GateClass::Interaction)
                .copied()
                .unwrap_or(0);
            if gated > 3 {
                // More gated nodes than the handful of top-level lazy
                // images → descendants inherited the gate.
                return;
            }
        }
        panic!("no site with a gated subtree found");
    }

    #[test]
    fn inventory_is_deterministic() {
        let u = uni();
        let page = u.sites()[0].landing_url();
        let a = page_inventory(&u, &page, &VisitCtx::standard(1), 1000);
        let b = page_inventory(&u, &page, &VisitCtx::standard(1), 1000);
        assert_eq!(a, b);
    }

    #[test]
    fn bounded_walk_respects_cap() {
        let u = uni();
        let page = u.sites()[0].landing_url();
        let inv = page_inventory(&u, &page, &VisitCtx::standard(1), 10);
        assert!(inv.total <= 10);
    }
}
