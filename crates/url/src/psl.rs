//! Public-suffix handling and eTLD+1 ("site") extraction.
//!
//! The paper uses the registerable part of a domain — "extended Top Level
//! Domain plus one" (eTLD+1) — as the unit of *site* identity for
//! first-/third-party classification (§2). A full public-suffix list is
//! ~9k rules; we embed the subset that covers (a) every suffix the
//! synthetic web generator emits and (b) the common multi-label suffixes
//! that exercise the matching algorithm (wildcard and exception rules
//! included), which is what the algorithm's correctness depends on.

use std::collections::HashSet;
use std::sync::OnceLock;

/// Plain suffix rules (`com`, `co.uk`, ...). A hostname's eTLD is the
/// longest matching rule.
const SUFFIXES: &[&str] = &[
    // Generic TLDs.
    "com",
    "org",
    "net",
    "edu",
    "gov",
    "mil",
    "int",
    "info",
    "biz",
    "io",
    "co",
    "ai",
    "app",
    "dev",
    "xyz",
    "online",
    "site",
    "shop",
    "cloud",
    "media",
    "news",
    "agency",
    "tech",
    "store",
    "blog",
    "live",
    "today",
    // Country TLDs used by the generator / tests.
    "de",
    "uk",
    "fr",
    "nl",
    "ru",
    "cn",
    "jp",
    "br",
    "in",
    "it",
    "es",
    "pl",
    "ca",
    "au",
    "ch",
    "at",
    "se",
    "no",
    "eu",
    "us",
    "tv",
    "me",
    "cc",
    // Multi-label public suffixes.
    "co.uk",
    "org.uk",
    "ac.uk",
    "gov.uk",
    "me.uk",
    "net.uk",
    "com.au",
    "net.au",
    "org.au",
    "edu.au",
    "co.jp",
    "ne.jp",
    "or.jp",
    "ac.jp",
    "com.br",
    "net.br",
    "org.br",
    "com.cn",
    "net.cn",
    "org.cn",
    "gov.cn",
    "co.in",
    "net.in",
    "org.in",
    "com.de",
    "co.at",
    "or.at",
    // Private-registry suffixes (treated as public suffixes by the PSL).
    "github.io",
    "gitlab.io",
    "herokuapp.com",
    "appspot.com",
    "cloudfront.net",
    "azurewebsites.net",
    "web.app",
    "firebaseapp.com",
    "blogspot.com",
    "netlify.app",
    "vercel.app",
    "pages.dev",
    "workers.dev",
    "s3.amazonaws.com",
    "fastly.net",
    "akamaized.net",
];

/// Wildcard rules: `*.<base>` — every direct child label of `<base>` is
/// itself a public suffix (e.g. `*.ck` ⇒ `www.ck` is a suffix).
const WILDCARDS: &[&str] = &["ck", "er", "fk", "compute.amazonaws.com"];

/// Exception rules: hostnames that *are* registerable despite matching a
/// wildcard (e.g. `!www.ck` ⇒ `www.ck` is registerable).
const EXCEPTIONS: &[&str] = &["www.ck"];

fn suffix_set() -> &'static HashSet<&'static str> {
    static SET: OnceLock<HashSet<&'static str>> = OnceLock::new();
    SET.get_or_init(|| SUFFIXES.iter().copied().collect())
}

/// Lowercase only when needed: hostnames are almost always already
/// lowercase, so the common path borrows and allocates nothing.
fn lower(s: &str) -> std::borrow::Cow<'_, str> {
    if s.bytes().any(|b| b.is_ascii_uppercase()) {
        std::borrow::Cow::Owned(s.to_ascii_lowercase())
    } else {
        std::borrow::Cow::Borrowed(s)
    }
}

fn is_ip_literal(host: &str) -> bool {
    // IPv6 literal or dotted-quad IPv4.
    if host.starts_with('[') || host.contains(':') {
        return true;
    }
    let mut parts = 0usize;
    host.split('.').all(|p| {
        parts += 1;
        parts <= 4 && !p.is_empty() && p.parse::<u8>().is_ok()
    }) && parts == 4
}

/// Is `candidate` (a dot-joined label sequence) a public suffix?
///
/// ```
/// assert!(wmtree_url::psl::is_public_suffix("com"));
/// assert!(wmtree_url::psl::is_public_suffix("co.uk"));
/// assert!(wmtree_url::psl::is_public_suffix("github.io"));
/// assert!(!wmtree_url::psl::is_public_suffix("example.com"));
/// ```
pub fn is_public_suffix(candidate: &str) -> bool {
    is_public_suffix_lower(&lower(candidate))
}

/// [`is_public_suffix`] for an already-lowercased candidate: pure
/// lookups, no allocation.
fn is_public_suffix_lower(candidate: &str) -> bool {
    if EXCEPTIONS.contains(&candidate) {
        return false;
    }
    if suffix_set().contains(candidate) {
        return true;
    }
    // Wildcard: `x.<base>` where `<base>` is a wildcard rule.
    if let Some((_, rest)) = candidate.split_once('.') {
        if WILDCARDS.contains(&rest) {
            return true;
        }
    }
    false
}

/// The public suffix (eTLD) of `host`, i.e. the longest suffix of its
/// label sequence that is a public suffix. Returns the last label when
/// nothing matches (the PSL's implicit `*` rule).
pub fn public_suffix(host: &str) -> String {
    let host = lower(host);
    let mut start = 0usize;
    loop {
        let candidate = &host[start..];
        if is_public_suffix_lower(candidate) {
            return candidate.to_string();
        }
        match host[start..].find('.') {
            Some(dot) => start += dot + 1,
            None => break,
        }
    }
    host.rsplit('.').next().unwrap_or("").to_string()
}

/// The registerable domain (eTLD+1) of `host`: one label more than the
/// public suffix. When the host *is* a public suffix, or is an IP
/// literal, the host itself is returned (matching how measurement
/// pipelines treat unregisterable hosts).
///
/// ```
/// use wmtree_url::psl::etld_plus_one;
/// assert_eq!(etld_plus_one("www.example.co.uk"), "example.co.uk");
/// assert_eq!(etld_plus_one("deep.sub.example.com"), "example.com");
/// assert_eq!(etld_plus_one("user.github.io"), "user.github.io");
/// assert_eq!(etld_plus_one("192.168.0.1"), "192.168.0.1");
/// ```
pub fn etld_plus_one(host: &str) -> String {
    let host = lower(host);
    etld_plus_one_lower(&host).to_string()
}

/// [`etld_plus_one`] of a host without ASCII capitals, borrowed from
/// it: the host of a parsed [`Url`](crate::Url) qualifies. One
/// left-to-right pass over the label boundaries: at each start offset
/// the remaining suffix is a candidate (longest first), so no
/// per-candidate `join(".")` buffers and no `Vec<&str>` of labels are
/// ever built.
///
/// ```
/// use wmtree_url::psl::etld_plus_one_lower;
/// assert_eq!(etld_plus_one_lower("www.example.co.uk"), "example.co.uk");
/// assert_eq!(etld_plus_one_lower("user.github.io"), "user.github.io");
/// ```
pub fn etld_plus_one_lower(host: &str) -> &str {
    if is_ip_literal(host) {
        return host;
    }
    if !host.contains('.') {
        return host;
    }
    // Exception rules are registerable as-is.
    if EXCEPTIONS.contains(&host) {
        return host;
    }
    // `start` walks the label starts; `prev_start` trails one label
    // behind so a suffix hit at `start` yields eTLD+1 as a subslice.
    let mut prev_start = 0usize;
    let mut start = 0usize;
    loop {
        if is_public_suffix_lower(&host[start..]) {
            // At start == 0 the host itself is a suffix — not
            // registerable, returned whole.
            return if start == 0 {
                host
            } else {
                &host[prev_start..]
            };
        }
        match host[start..].find('.') {
            Some(dot) => {
                prev_start = start;
                start += dot + 1;
            }
            None => break,
        }
    }
    // Implicit `*` rule: the last label is the suffix, so eTLD+1 is the
    // last two labels.
    &host[prev_start..]
}

/// Does `host` register under `site` — i.e. is `site` the eTLD+1 of
/// `host`? `site` must already be an eTLD+1 in lowercase (as returned
/// by [`etld_plus_one`]); `host` is lowercased as needed. Equivalent to
/// `etld_plus_one(host) == site` without the allocation, for callers
/// that classify many hosts against one fixed site.
pub fn host_in_site(host: &str, site: &str) -> bool {
    let host = lower(host);
    etld_plus_one_lower(&host) == site
}

/// Do two hosts belong to the same site (same eTLD+1)?
///
/// Allocation-free for lowercase inputs: both sides resolve to
/// subslices of the argument strings and are compared in place.
pub fn same_site(a: &str, b: &str) -> bool {
    let (a, b) = (lower(a), lower(b));
    etld_plus_one_lower(&a) == etld_plus_one_lower(&b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_tld() {
        assert_eq!(etld_plus_one("example.com"), "example.com");
        assert_eq!(etld_plus_one("www.example.com"), "example.com");
        assert_eq!(etld_plus_one("a.b.c.example.com"), "example.com");
    }

    #[test]
    fn multi_label_suffix() {
        assert_eq!(etld_plus_one("shop.example.co.uk"), "example.co.uk");
        assert_eq!(etld_plus_one("example.com.au"), "example.com.au");
    }

    #[test]
    fn private_registry_suffix() {
        assert_eq!(etld_plus_one("alice.github.io"), "alice.github.io");
        assert_eq!(etld_plus_one("deep.alice.github.io"), "alice.github.io");
        assert_eq!(etld_plus_one("x.s3.amazonaws.com"), "x.s3.amazonaws.com");
    }

    #[test]
    fn host_is_suffix() {
        assert_eq!(etld_plus_one("com"), "com");
        assert_eq!(etld_plus_one("co.uk"), "co.uk");
        assert_eq!(etld_plus_one("github.io"), "github.io");
    }

    #[test]
    fn wildcard_rules() {
        // `*.ck`: `foo.ck` is a suffix, so `bar.foo.ck` registers at 3 labels.
        assert!(is_public_suffix("foo.ck"));
        assert_eq!(etld_plus_one("bar.foo.ck"), "bar.foo.ck");
        assert_eq!(
            etld_plus_one("vm.eu-1.compute.amazonaws.com"),
            "vm.eu-1.compute.amazonaws.com"
        );
    }

    #[test]
    fn exception_rules() {
        assert!(!is_public_suffix("www.ck"));
        assert_eq!(etld_plus_one("www.ck"), "www.ck");
        assert_eq!(etld_plus_one("sub.www.ck"), "www.ck");
    }

    #[test]
    fn unknown_tld_uses_implicit_star() {
        assert_eq!(etld_plus_one("foo.bar.unknowntld"), "bar.unknowntld");
    }

    #[test]
    fn ip_literals_verbatim() {
        assert_eq!(etld_plus_one("127.0.0.1"), "127.0.0.1");
        assert_eq!(etld_plus_one("[::1]"), "[::1]");
        // Not an IP: label out of range.
        assert_eq!(etld_plus_one("999.999.999.999.com"), "999.com");
    }

    #[test]
    fn ip_literals_have_exactly_four_byte_labels() {
        assert_eq!(etld_plus_one("10.0.0.1"), "10.0.0.1");
        assert_eq!(etld_plus_one("1.2.3.4.5"), "4.5");
        assert_eq!(etld_plus_one("1.2.3"), "2.3");
        assert_eq!(etld_plus_one("1.2.3.256"), "3.256");
    }

    #[test]
    fn single_label_host() {
        assert_eq!(etld_plus_one("localhost"), "localhost");
    }

    #[test]
    fn case_insensitive() {
        assert_eq!(etld_plus_one("WWW.Example.CO.UK"), "example.co.uk");
    }

    #[test]
    fn same_site_works() {
        assert!(same_site("a.example.com", "b.example.com"));
        assert!(!same_site("a.example.com", "example.org"));
        assert!(!same_site("alice.github.io", "bob.github.io"));
    }
}
