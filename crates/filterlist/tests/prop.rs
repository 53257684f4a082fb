//! Property tests for the filter-list matcher.

use proptest::prelude::*;
use wmtree_filterlist::{FilterList, RequestInfo};
use wmtree_net::ResourceType;
use wmtree_url::Url;

fn host() -> impl Strategy<Value = String> {
    (
        "[a-z]{2,8}",
        prop::sample::select(vec!["com", "net", "org", "io"]),
    )
        .prop_map(|(n, t)| format!("{n}.{t}"))
}

/// Hosts as requests and pages carry them: registrable domains, their
/// subdomains, and single-label hosts that also occur inside a scheme
/// (`tp`, `s`).
fn any_host() -> impl Strategy<Value = String> {
    (
        0usize..4,
        host(),
        "[a-z]{1,4}",
        prop::sample::select(vec!["tp", "s", "ttp", "localhost", "p"]),
    )
        .prop_map(|(shape, h, sub, single)| match shape {
            0 => h,
            1 => format!("{sub}.{h}"),
            2 => single.to_string(),
            _ => format!("{sub}.{single}"),
        })
}

/// URLs with either scheme, an optional port, capitals anywhere (the
/// parser lowercases only scheme and host), and query values.
fn url_str() -> impl Strategy<Value = String> {
    (
        (
            prop::sample::select(vec!["https", "http", "HTTP"]),
            any_host(),
            prop::option::of(prop::sample::select(vec![80u16, 443, 8080])),
            any::<bool>(),
        ),
        prop::collection::vec("[a-zA-Z0-9]{1,8}", 0..3),
        prop::option::of(("[a-z]{1,4}", "[a-zA-Z0-9]{0,6}")),
    )
        .prop_map(|((scheme, h, port, upper), segs, query)| {
            let h = if upper { h.to_ascii_uppercase() } else { h };
            let port = port.map(|p| format!(":{p}")).unwrap_or_default();
            let query = query.map(|(k, v)| format!("?{k}={v}")).unwrap_or_default();
            format!("{scheme}://{h}{port}/{}{query}", segs.join("/"))
        })
}

/// One filter line covering every anchor/bucket shape the index handles:
/// host-bucketable, open-ended host (general pool), interior-token and
/// edge-token substrings, start/end anchors, wildcards, exceptions, and
/// options: types, `$third-party` either way, `$match-case`, and
/// `$domain=` over domains, subdomains and `~` exclusions.
fn rule_line() -> impl Strategy<Value = String> {
    (
        prop::sample::select((0usize..19).collect::<Vec<_>>()),
        any_host(),
        "[a-zA-Z]{3,9}",
        "[a-z]{2,6}",
        any_host(),
    )
        .prop_map(|(shape, h, t, e, d)| match shape {
            0 => format!("||{h}^"),               // host-anchored, bucketable
            1 => format!("||{h}/{t}"),            // host anchor with path
            2 => format!("||{e}."),               // open-ended host → general pool
            3 => format!("/{t}/"),                // interior token
            4 => t,                               // edge token → general pool
            5 => format!("|https://{h}"),         // start anchor
            6 => format!(".{e}|"),                // end anchor
            7 => format!("{e}*{t}^"),             // wildcard + separator
            8 => format!("@@||{h}^"),             // exception, host bucket
            9 => format!("@@/{t}/"),              // exception, token bucket
            10 => format!("||{h}^$script"),       // type option
            11 => format!("||{h}^$third-party"),  // third party only
            12 => format!("||{h}^$~third-party"), // first party only
            13 => format!("/{t}$match-case"),     // case-sensitive
            14 => format!("/{t}/$domain={d}"),    // page host or its parents
            15 => format!("||{h}^$domain=~{d}"),  // excluded page hosts
            16 => format!("/{t}$domain={d}|~sub.{d}"),
            17 => format!("@@||{h}^$~third-party,domain={d}"),
            _ => format!("{e}^$third-party,match-case"),
        })
}

proptest! {
    /// A host-anchor rule matches exactly the URLs whose host is the
    /// domain or a subdomain of it.
    #[test]
    fn host_anchor_semantics(domain in host(), other in url_str(), sub in "[a-z]{1,6}") {
        let list = FilterList::parse(&format!("||{domain}^"));
        let page = Url::parse("https://unrelated-page.example/").unwrap();
        let req = |u: &Url| list.is_tracking(&RequestInfo::new(u, &page, ResourceType::Image));

        let exact = Url::parse(&format!("https://{domain}/x")).unwrap();
        prop_assert!(req(&exact));
        let subdomain = Url::parse(&format!("https://{sub}.{domain}/x")).unwrap();
        prop_assert!(req(&subdomain));

        let other_url = Url::parse(&other).unwrap();
        let is_same_or_sub = other_url.host() == domain
            || other_url.host().ends_with(&format!(".{domain}"));
        if !is_same_or_sub {
            prop_assert!(!req(&other_url), "{} should not match ||{domain}^", other_url);
        }
    }

    /// Exceptions only ever remove matches, never add them.
    #[test]
    fn exceptions_are_monotone(domain in host(), path in "[a-z]{1,8}", target in url_str()) {
        let base = FilterList::parse(&format!("||{domain}^"));
        let with_exc = FilterList::parse(&format!("||{domain}^\n@@||{domain}/{path}^"));
        let page = Url::parse("https://page.example/").unwrap();
        let u = Url::parse(&target).unwrap();
        let req = RequestInfo::new(&u, &page, ResourceType::Script);
        if with_exc.is_tracking(&req) {
            prop_assert!(base.is_tracking(&req));
        }
    }

    /// Adding rules is monotone: a superset list matches a superset of
    /// requests (when no exceptions are added).
    #[test]
    fn adding_block_rules_is_monotone(
        d1 in host(),
        d2 in host(),
        target in url_str(),
    ) {
        let small = FilterList::parse(&format!("||{d1}^"));
        let big = FilterList::parse(&format!("||{d1}^\n||{d2}^"));
        let page = Url::parse("https://page.example/").unwrap();
        let u = Url::parse(&target).unwrap();
        let req = RequestInfo::new(&u, &page, ResourceType::Image);
        if small.is_tracking(&req) {
            prop_assert!(big.is_tracking(&req));
        }
    }

    /// A plain substring rule matches iff the (lowercased) URL contains
    /// the literal.
    #[test]
    fn plain_substring_rule(lit in "[a-z]{4,10}", target in url_str()) {
        let list = FilterList::parse(&format!("/{lit}/"));
        let page = Url::parse("https://page.example/").unwrap();
        let u = Url::parse(&target).unwrap();
        let matched = list.is_tracking(&RequestInfo::new(&u, &page, ResourceType::Image));
        let contains = u.as_str().to_ascii_lowercase().contains(&format!("/{lit}/"));
        prop_assert_eq!(matched, contains);
    }

    /// Parsing never panics on arbitrary printable input.
    #[test]
    fn parser_total(input in "[ -~\\n]{0,300}") {
        let _ = FilterList::parse(&input);
    }

    /// The candidate index is a pure accelerator: `is_tracking` (indexed,
    /// lowercase-once) agrees with the linear per-rule scan on arbitrary
    /// rule/URL pairs, across every anchor shape the syntax supports;
    /// so does `is_tracking_with`, given the request's party and a
    /// buffer holding an earlier request's URL.
    #[test]
    fn index_agrees_with_linear_scan(
        rules in prop::collection::vec(rule_line(), 0..12),
        target in url_str(),
        page in url_str(),
        ty in prop::sample::select(vec![
            ResourceType::Script,
            ResourceType::Image,
            ResourceType::Xhr,
        ]),
    ) {
        let list = FilterList::parse(&rules.join("\n"));
        let u = Url::parse(&target).unwrap();
        let p = Url::parse(&page).unwrap();
        let req = RequestInfo::new(&u, &p, ty);
        let linear = list.is_tracking_linear(&req);
        prop_assert_eq!(list.is_tracking(&req), linear);
        let mut buf = page.clone();
        prop_assert_eq!(list.is_tracking_with(&req, req.is_third_party(), &mut buf), linear);
        prop_assert_eq!(list.matches_block(&req), list.matches_block_linear(&req));
        prop_assert_eq!(
            list.matches_exception(&req),
            list.matches_exception_linear(&req)
        );
    }

    /// `||host` anchors where the host starts — right after `://` —
    /// even when the host also occurs inside the scheme.
    #[test]
    fn host_anchor_starts_after_the_scheme(
        scheme in prop::sample::select(vec!["http", "https"]),
        single in prop::sample::select(vec!["tp", "s", "ttp", "p", "h"]),
        path in "[a-z]{1,6}",
    ) {
        let list = FilterList::parse(&format!("||{single}/{path}"));
        let page = Url::parse("https://page.example/").unwrap();
        let u = Url::parse(&format!("{scheme}://{single}/{path}.js")).unwrap();
        let req = RequestInfo::new(&u, &page, ResourceType::Script);
        prop_assert!(list.is_tracking(&req), "{}", u);
        prop_assert!(list.is_tracking_linear(&req), "{}", u);
    }

    /// `$domain=` compares the page's host: a rule naming the page host
    /// applies there and on its subdomains, never on its parent.
    #[test]
    fn domain_option_compares_the_page_host(sub in "[a-z]{1,5}", domain in host(), path in "[a-z]{3,6}") {
        let page_host = format!("{sub}.{domain}");
        let include = FilterList::parse(&format!("/{path}/$domain={page_host}"));
        let exclude = FilterList::parse(&format!("/{path}/\n@@/{path}/$domain={page_host}"));
        let u = Url::parse(&format!("https://cdn.example/{path}/x")).unwrap();
        for (page, on) in [
            (page_host.clone(), true),
            (format!("deeper.{page_host}"), true),
            (domain.clone(), false),
        ] {
            let page = Url::parse(&format!("https://{page}/")).unwrap();
            let req = RequestInfo::new(&u, &page, ResourceType::Image);
            prop_assert_eq!(include.is_tracking(&req), on, "{}", page);
            prop_assert_eq!(exclude.is_tracking(&req), !on, "{}", page);
        }
    }

    /// Type options restrict, never extend, matching.
    #[test]
    fn type_options_restrict(domain in host(), target in url_str()) {
        let untyped = FilterList::parse(&format!("||{domain}^"));
        let typed = FilterList::parse(&format!("||{domain}^$script"));
        let page = Url::parse("https://page.example/").unwrap();
        let u = Url::parse(&target).unwrap();
        for ty in [ResourceType::Script, ResourceType::Image, ResourceType::Font] {
            let req = RequestInfo::new(&u, &page, ty);
            if typed.is_tracking(&req) {
                prop_assert!(untyped.is_tracking(&req));
                prop_assert_eq!(ty, ResourceType::Script);
            }
        }
    }
}
