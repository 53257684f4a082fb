//! Network filter rules: pattern + options, and the request context they
//! are evaluated against.

use crate::matcher::Pattern;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use wmtree_net::ResourceType;
use wmtree_url::{psl, Url};

/// The request being classified: its URL, the page that generated it,
/// and its resource type.
#[derive(Debug, Clone, Copy)]
pub struct RequestInfo<'a> {
    /// URL of the candidate request.
    pub url: &'a Url,
    /// URL of the visited page (first-party context).
    pub page: &'a Url,
    /// Resource type of the request.
    pub resource_type: ResourceType,
}

impl<'a> RequestInfo<'a> {
    /// Bundle a request context.
    pub fn new(url: &'a Url, page: &'a Url, resource_type: ResourceType) -> Self {
        RequestInfo {
            url,
            page,
            resource_type,
        }
    }

    /// Is this request third-party w.r.t. the page?
    pub fn is_third_party(&self) -> bool {
        !psl::same_site(self.url.host(), self.page.host())
    }
}

/// Bitmask of resource types a rule applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TypeMask(pub u16);

impl TypeMask {
    /// Matches every type.
    pub const ALL: TypeMask = TypeMask(u16::MAX);

    fn bit(ty: ResourceType) -> u16 {
        match ty {
            ResourceType::Script => 1 << 0,
            ResourceType::Image | ResourceType::ImageSet => 1 << 1,
            ResourceType::Stylesheet => 1 << 2,
            ResourceType::SubFrame => 1 << 3,
            ResourceType::Xhr => 1 << 4,
            ResourceType::WebSocket => 1 << 5,
            ResourceType::Font => 1 << 6,
            ResourceType::Media => 1 << 7,
            ResourceType::Beacon => 1 << 8,
            ResourceType::CspReport => 1 << 9,
            ResourceType::MainFrame => 1 << 10,
            ResourceType::Other => 1 << 11,
        }
    }

    /// A mask of exactly one resource type.
    pub fn only(ty: ResourceType) -> TypeMask {
        TypeMask(Self::bit(ty))
    }

    /// Add a type to the mask.
    pub fn with(self, ty: ResourceType) -> TypeMask {
        TypeMask(self.0 | Self::bit(ty))
    }

    /// Does the mask include the type?
    pub fn includes(self, ty: ResourceType) -> bool {
        self.0 & Self::bit(ty) != 0
    }

    /// ABP option name → type, for the parser.
    pub fn from_option_name(name: &str) -> Option<ResourceType> {
        Some(match name {
            "script" => ResourceType::Script,
            "image" => ResourceType::Image,
            "stylesheet" => ResourceType::Stylesheet,
            "subdocument" => ResourceType::SubFrame,
            "xmlhttprequest" => ResourceType::Xhr,
            "websocket" => ResourceType::WebSocket,
            "font" => ResourceType::Font,
            "media" => ResourceType::Media,
            "ping" | "beacon" => ResourceType::Beacon,
            "csp-report" => ResourceType::CspReport,
            "document" => ResourceType::MainFrame,
            "other" => ResourceType::Other,
            _ => return None,
        })
    }
}

/// Parsed `$…` options of a rule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuleOptions {
    /// `Some(true)` for `$third-party`, `Some(false)` for `$~third-party`.
    pub third_party: Option<bool>,
    /// Resource types the rule applies to.
    pub types: TypeMask,
    /// `$domain=` inclusions: if non-empty, the page's host must be one
    /// of these or a subdomain of one (as in Adblock Plus, `a.com`
    /// covers `news.a.com`; the host is compared, not its eTLD+1).
    pub include_domains: Vec<String>,
    /// `$domain=~` exclusions: the page's host must be none of these
    /// nor a subdomain of one.
    pub exclude_domains: Vec<String>,
    /// `$match-case` — patterns are case-sensitive (default: insensitive).
    pub match_case: bool,
}

impl Default for RuleOptions {
    fn default() -> Self {
        RuleOptions {
            third_party: None,
            types: TypeMask::ALL,
            include_domains: Vec::new(),
            exclude_domains: Vec::new(),
            match_case: false,
        }
    }
}

/// A single network filter rule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FilterRule {
    pattern: Pattern,
    options: RuleOptions,
}

impl FilterRule {
    /// Construct from a compiled pattern and options (used by the parser).
    pub(crate) fn new(pattern: Pattern, options: RuleOptions) -> Self {
        FilterRule { pattern, options }
    }

    /// The rule's options.
    pub fn options(&self) -> &RuleOptions {
        &self.options
    }

    /// The rule's compiled pattern (for the candidate index).
    pub(crate) fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// Evaluate the rule against a request.
    pub fn matches(&self, req: &RequestInfo<'_>) -> bool {
        // Options first (cheap), then the pattern scan.
        if !self.options_match(req, None) {
            return false;
        }
        let target = req.url.as_str();
        if self.options.match_case {
            self.pattern.matches(target, req.url.host())
        } else {
            self.pattern.matches(
                &target.to_ascii_lowercase(),
                &req.url.host().to_ascii_lowercase(),
            )
        }
    }

    /// Like [`FilterRule::matches`], over what [`crate::FilterList`]
    /// derives once per request instead of once per rule.
    pub(crate) fn matches_prepared(&self, req: &Prepared<'_>) -> bool {
        if !self.options_match(req.info, req.third_party) {
            return false;
        }
        if self.options.match_case {
            self.pattern
                .matches(req.info.url.as_str(), req.info.url.host())
        } else {
            self.pattern.matches(req.lower_url, req.lower_host)
        }
    }

    /// Do the rule's options admit the request? `third_party` is the
    /// request's [`RequestInfo::is_third_party`] when the caller already
    /// knows it; `None` computes it if an option needs it.
    fn options_match(&self, req: &RequestInfo<'_>, third_party: Option<bool>) -> bool {
        if !self.options.types.includes(req.resource_type) {
            return false;
        }
        if let Some(want_third) = self.options.third_party {
            if third_party.unwrap_or_else(|| req.is_third_party()) != want_third {
                return false;
            }
        }
        if !self.options.include_domains.is_empty() || !self.options.exclude_domains.is_empty() {
            let page_host = lowered(req.page.host());
            if !self.options.include_domains.is_empty()
                && !self
                    .options
                    .include_domains
                    .iter()
                    .any(|d| domain_or_subdomain(&page_host, d))
            {
                return false;
            }
            if self
                .options
                .exclude_domains
                .iter()
                .any(|d| domain_or_subdomain(&page_host, d))
            {
                return false;
            }
        }
        true
    }
}

/// A request with what matching derives from it once: its URL
/// serialized and lowercased, its host lowercased, and its party when
/// the caller classified it already.
pub(crate) struct Prepared<'r> {
    pub(crate) info: &'r RequestInfo<'r>,
    pub(crate) lower_url: &'r str,
    pub(crate) lower_host: &'r str,
    pub(crate) third_party: Option<bool>,
}

/// `s` lowercased, borrowed when it has no ASCII capitals — `Url::parse`
/// lowercases hosts, so the borrow is the overwhelmingly common case.
pub(crate) fn lowered(s: &str) -> Cow<'_, str> {
    if s.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(s.to_ascii_lowercase())
    } else {
        Cow::Borrowed(s)
    }
}

/// Is `host` equal to `rule_domain` or a subdomain of it?
fn domain_or_subdomain(host: &str, rule_domain: &str) -> bool {
    host == rule_domain
        || (host.ends_with(rule_domain)
            && host.as_bytes().get(host.len() - rule_domain.len() - 1) == Some(&b'.'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_mask_roundtrip() {
        let m = TypeMask::only(ResourceType::Script).with(ResourceType::Image);
        assert!(m.includes(ResourceType::Script));
        assert!(m.includes(ResourceType::Image));
        assert!(m.includes(ResourceType::ImageSet)); // shares the image bit
        assert!(!m.includes(ResourceType::Font));
        assert!(TypeMask::ALL.includes(ResourceType::CspReport));
    }

    #[test]
    fn option_names() {
        assert_eq!(
            TypeMask::from_option_name("script"),
            Some(ResourceType::Script)
        );
        assert_eq!(
            TypeMask::from_option_name("subdocument"),
            Some(ResourceType::SubFrame)
        );
        assert_eq!(
            TypeMask::from_option_name("ping"),
            Some(ResourceType::Beacon)
        );
        assert_eq!(TypeMask::from_option_name("bogus"), None);
    }

    #[test]
    fn third_party_detection() {
        let page = Url::parse("https://www.site.com/").unwrap();
        let own = Url::parse("https://cdn.site.com/a.js").unwrap();
        let other = Url::parse("https://t.tracker.net/a.js").unwrap();
        assert!(!RequestInfo::new(&own, &page, ResourceType::Script).is_third_party());
        assert!(RequestInfo::new(&other, &page, ResourceType::Script).is_third_party());
    }

    #[test]
    fn domain_option_matching() {
        assert!(domain_or_subdomain("sub.example.com", "example.com"));
        assert!(domain_or_subdomain("example.com", "example.com"));
        assert!(!domain_or_subdomain("badexample.com", "example.com"));
        assert!(!domain_or_subdomain("example.com", "sub.example.com"));
    }

    #[test]
    fn domain_option_compares_the_page_host() {
        let rule = |line: &str| match crate::parser::parse_line(line) {
            crate::ParsedLine::Block(r) => r,
            other => panic!("expected a block rule, got {other:?}"),
        };
        let url = Url::parse("https://t.net/px").unwrap();
        let on = |page: &str, line: &str| {
            let page = Url::parse(page).unwrap();
            rule(line).matches(&RequestInfo::new(&url, &page, ResourceType::Image))
        };
        // The page host itself, not only its eTLD+1, can be named.
        assert!(on(
            "https://news.example.com/",
            "/px$domain=news.example.com"
        ));
        assert!(!on(
            "https://news.example.com/",
            "/px$domain=~news.example.com"
        ));
        // A parent domain covers its subdomains, a sibling does not.
        assert!(on("https://news.example.com/", "/px$domain=example.com"));
        assert!(!on(
            "https://shop.example.com/",
            "/px$domain=news.example.com"
        ));
        assert!(on(
            "https://shop.example.com/",
            "/px$domain=~news.example.com"
        ));
        // The parser test's `a.com|~b.a.com`: on `a.com` and its other
        // subdomains, never on `b.a.com` or below.
        let line = "/px$domain=a.com|~b.a.com";
        assert!(on("https://a.com/", line));
        assert!(on("https://c.a.com/", line));
        assert!(!on("https://b.a.com/", line));
        assert!(!on("https://x.b.a.com/", line));
    }
}
