//! Adblock-Plus-syntax filter lists (EasyList-compatible subset).
//!
//! The IMC'23 paper identifies *tracking requests* by checking each
//! observed URL against EasyList (§3.2, "Identifying Tracking
//! Requests"). This crate implements the network-filter portion of the
//! Adblock Plus rule syntax that EasyList uses:
//!
//! * plain substring patterns: `/banner/ads/`
//! * host anchors: `||tracker.com^`
//! * start/end anchors: `|https://ads.` and `…swf|`
//! * wildcards `*` and the separator placeholder `^`
//! * exception rules `@@…`
//! * options: `$third-party`, `$~third-party`, resource-type options
//!   (`$script`, `$image`, `$subdocument`, …) and `$domain=a.com|~b.com`
//!
//! Cosmetic (element-hiding) rules and comments are recognized and
//! skipped, so feeding a full real-world EasyList file works.
//!
//! [`embedded::tracking_list`] ships the synthetic list used by the
//! reproduction: it covers the tracker/ad infrastructure emitted by
//! `wmtree-webgen` plus the generic path patterns real lists carry.
//!
//! # Example
//!
//! ```
//! use wmtree_filterlist::{FilterList, RequestInfo};
//! use wmtree_net::ResourceType;
//! use wmtree_url::Url;
//!
//! let list = FilterList::parse("||evil-tracker.com^\n@@||evil-tracker.com/legit.js$script");
//! let page = Url::parse("https://news.site.com/").unwrap();
//!
//! let px = Url::parse("https://cdn.evil-tracker.com/px.gif").unwrap();
//! assert!(list.is_tracking(&RequestInfo::new(&px, &page, ResourceType::Image)));
//!
//! let legit = Url::parse("https://evil-tracker.com/legit.js").unwrap();
//! assert!(!list.is_tracking(&RequestInfo::new(&legit, &page, ResourceType::Script)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod embedded;
mod index;
mod matcher;
mod parser;
mod rule;

pub use parser::ParsedLine;
pub use rule::{FilterRule, RequestInfo, RuleOptions, TypeMask};

use rule::Prepared;

use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// A parsed filter list: blocking rules and exception rules.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FilterList {
    block: Vec<FilterRule>,
    except: Vec<FilterRule>,
    /// Candidate index, built lazily on first match. Never serialized:
    /// it is derived state and must not influence the list's identity.
    #[serde(skip)]
    index: OnceLock<index::RuleIndex>,
}

impl FilterList {
    /// Parse a list from its text form. Unparsable and cosmetic lines
    /// are skipped (crowd-sourced lists always contain some).
    pub fn parse(text: &str) -> FilterList {
        let mut list = FilterList::default();
        for line in text.lines() {
            match parser::parse_line(line) {
                ParsedLine::Block(rule) => list.block.push(rule),
                ParsedLine::Exception(rule) => list.except.push(rule),
                ParsedLine::Skipped => {}
            }
        }
        list
    }

    /// Number of blocking rules.
    pub fn block_rule_count(&self) -> usize {
        self.block.len()
    }

    /// Number of exception rules.
    pub fn exception_rule_count(&self) -> usize {
        self.except.len()
    }

    fn index(&self) -> &index::RuleIndex {
        self.index
            .get_or_init(|| index::RuleIndex::build(&self.block, &self.except))
    }

    /// Does any blocking rule match this request (ignoring exceptions)?
    ///
    /// Uses the candidate index: only rules whose host/token bucket the
    /// request can satisfy are evaluated. Equivalent to
    /// [`FilterList::matches_block_linear`] by construction (and by the
    /// property tests in `tests/prop.rs`).
    pub fn matches_block(&self, req: &RequestInfo<'_>) -> bool {
        let mut buf = String::new();
        prepare(req, None, &mut buf, |req| {
            self.index().block.any_match(&self.block, req)
        })
    }

    /// Does any exception rule match this request?
    pub fn matches_exception(&self, req: &RequestInfo<'_>) -> bool {
        let mut buf = String::new();
        prepare(req, None, &mut buf, |req| {
            self.index().except.any_match(&self.except, req)
        })
    }

    /// The paper's tracking oracle: a URL is a tracking request when a
    /// blocking rule matches and no exception rule overrides it.
    ///
    /// The request URL and host are lowercased once here; the candidate
    /// index keeps the number of rules actually evaluated small.
    pub fn is_tracking(&self, req: &RequestInfo<'_>) -> bool {
        self.tracking(req, None, &mut String::new())
    }

    /// [`FilterList::is_tracking`] for a caller classifying many
    /// requests: `third_party` is the request's
    /// [`RequestInfo::is_third_party`], already known to the caller, so
    /// `$third-party` rules do not recompute it, and `buf` holds the
    /// lowercased URL, in an allocation the caller reuses (its contents
    /// on entry are ignored). With a reused buffer the call allocates
    /// nothing.
    pub fn is_tracking_with(
        &self,
        req: &RequestInfo<'_>,
        third_party: bool,
        buf: &mut String,
    ) -> bool {
        self.tracking(req, Some(third_party), buf)
    }

    fn tracking(&self, req: &RequestInfo<'_>, third_party: Option<bool>, buf: &mut String) -> bool {
        let idx = self.index();
        prepare(req, third_party, buf, |req| {
            idx.block.any_match(&self.block, req) && !idx.except.any_match(&self.except, req)
        })
    }

    /// Reference implementation of [`FilterList::matches_block`]: a
    /// linear scan over every blocking rule. Kept as the semantic oracle
    /// the index is tested against.
    pub fn matches_block_linear(&self, req: &RequestInfo<'_>) -> bool {
        self.block.iter().any(|r| r.matches(req))
    }

    /// Reference implementation of [`FilterList::matches_exception`].
    pub fn matches_exception_linear(&self, req: &RequestInfo<'_>) -> bool {
        self.except.iter().any(|r| r.matches(req))
    }

    /// Reference implementation of [`FilterList::is_tracking`] (linear
    /// scan, per-rule lowercasing).
    pub fn is_tracking_linear(&self, req: &RequestInfo<'_>) -> bool {
        self.matches_block_linear(req) && !self.matches_exception_linear(req)
    }
}

/// Run `f` on `req` prepared for matching: its URL serialized into
/// `buf` and lowercased, its host lowercased.
fn prepare<R>(
    req: &RequestInfo<'_>,
    third_party: Option<bool>,
    buf: &mut String,
    f: impl FnOnce(&Prepared<'_>) -> R,
) -> R {
    buf.clear();
    buf.push_str(req.url.as_str());
    buf.make_ascii_lowercase();
    let lower_host = rule::lowered(req.url.host());
    f(&Prepared {
        info: req,
        lower_url: buf,
        lower_host: &lower_host,
        third_party,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmtree_net::ResourceType;
    use wmtree_url::Url;

    fn req<'a>(url: &'a Url, page: &'a Url, ty: ResourceType) -> RequestInfo<'a> {
        RequestInfo::new(url, page, ty)
    }

    #[test]
    fn parse_counts_rules() {
        let list = FilterList::parse("! comment\n||a.com^\n@@||a.com/ok\n##.ad-banner\n\n/track/*");
        assert_eq!(list.block_rule_count(), 2);
        assert_eq!(list.exception_rule_count(), 1);
    }

    #[test]
    fn block_and_exception_interplay() {
        let list = FilterList::parse("||ads.example.com^\n@@||ads.example.com/whitelisted^");
        let page = Url::parse("https://site.com/").unwrap();
        let blocked = Url::parse("https://ads.example.com/banner.png").unwrap();
        let white = Url::parse("https://ads.example.com/whitelisted/x.png").unwrap();
        assert!(list.is_tracking(&req(&blocked, &page, ResourceType::Image)));
        assert!(!list.is_tracking(&req(&white, &page, ResourceType::Image)));
    }

    #[test]
    fn empty_list_matches_nothing() {
        let list = FilterList::parse("");
        let page = Url::parse("https://site.com/").unwrap();
        let u = Url::parse("https://tracker.com/px").unwrap();
        assert!(!list.is_tracking(&req(&u, &page, ResourceType::Image)));
    }
}
