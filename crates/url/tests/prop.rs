//! Property-based tests for URL parsing, normalization, and PSL logic.

use proptest::prelude::*;
use wmtree_url::{normalize_url_str, psl, Party, Url};

/// Strategy for syntactically valid host names made of generator-like labels.
fn host_strategy() -> impl Strategy<Value = String> {
    let label = "[a-z][a-z0-9-]{0,8}";
    let tld = prop::sample::select(vec!["com", "org", "net", "de", "io", "co.uk", "github.io"]);
    (prop::collection::vec(label, 1..4), tld).prop_map(|(labels, tld)| {
        let mut h = labels.join(".");
        h.push('.');
        h.push_str(tld);
        h
    })
}

fn url_strategy() -> impl Strategy<Value = String> {
    let scheme = prop::sample::select(vec!["http", "https", "ws", "wss"]);
    let path = prop::collection::vec("[a-zA-Z0-9_.-]{1,10}", 0..4)
        .prop_map(|segs| format!("/{}", segs.join("/")));
    let query = prop::option::of(prop::collection::vec(
        ("[a-z_]{1,6}", "[a-zA-Z0-9]{0,10}"),
        1..5,
    ));
    (scheme, host_strategy(), path, query).prop_map(|(s, h, p, q)| {
        let mut u = format!("{s}://{h}{p}");
        if let Some(pairs) = q {
            u.push('?');
            u.push_str(
                &pairs
                    .iter()
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect::<Vec<_>>()
                    .join("&"),
            );
        }
        u
    })
}

proptest! {
    /// Parse → as_str → parse is a fixed point.
    #[test]
    fn roundtrip_is_fixed_point(raw in url_strategy()) {
        let u = Url::parse(&raw).unwrap();
        let s = u.as_str();
        let u2 = Url::parse(s).unwrap();
        prop_assert_eq!(u, u2);
    }

    /// Normalization is idempotent: normalizing a normalized URL changes nothing.
    #[test]
    fn normalization_idempotent(raw in url_strategy()) {
        let u = Url::parse(&raw).unwrap();
        let n1 = u.normalize_for_comparison();
        let u2 = Url::parse(&n1).unwrap();
        prop_assert_eq!(u2.normalize_for_comparison(), n1);
    }

    /// Normalization never changes scheme, host, or path.
    #[test]
    fn normalization_preserves_location(raw in url_strategy()) {
        let u = Url::parse(&raw).unwrap();
        let n = Url::parse(&u.normalize_for_comparison()).unwrap();
        prop_assert_eq!(n.scheme(), u.scheme());
        prop_assert_eq!(n.host(), u.host());
        prop_assert_eq!(n.path(), u.path());
    }

    /// Two URLs differing only in query values normalize identically.
    #[test]
    fn query_values_do_not_affect_identity(
        host in host_strategy(),
        key in "[a-z_]{1,8}",
        v1 in "[a-zA-Z0-9]{1,12}",
        v2 in "[a-zA-Z0-9]{1,12}",
    ) {
        let a = Url::parse(&format!("https://{host}/r.js?{key}={v1}")).unwrap();
        let b = Url::parse(&format!("https://{host}/r.js?{key}={v2}")).unwrap();
        prop_assert_eq!(a.normalize_for_comparison(), b.normalize_for_comparison());
    }

    /// eTLD+1 is a suffix of the host and contains at most one label more
    /// than the public suffix.
    #[test]
    fn etld_plus_one_is_suffix(host in host_strategy()) {
        let site = psl::etld_plus_one(&host);
        prop_assert!(host.ends_with(&site));
        let suffix = psl::public_suffix(&host);
        prop_assert!(site.ends_with(&suffix));
        let extra = site.len().saturating_sub(suffix.len());
        // site == suffix (host itself a suffix) or exactly one extra label.
        if extra > 0 {
            let lead = &site[..extra - 1]; // strip the joining dot
            prop_assert!(!lead.contains('.'));
        }
    }

    /// eTLD+1 is idempotent.
    #[test]
    fn etld_plus_one_idempotent(host in host_strategy()) {
        let s1 = psl::etld_plus_one(&host);
        let s2 = psl::etld_plus_one(&s1);
        prop_assert_eq!(s2, s1);
    }

    /// Party classification is symmetric in sites: same-site ⇒ First both ways.
    #[test]
    fn party_symmetric(h1 in host_strategy(), h2 in host_strategy()) {
        let a = Url::parse(&format!("https://{h1}/")).unwrap();
        let b = Url::parse(&format!("https://{h2}/")).unwrap();
        prop_assert_eq!(Party::classify(&a, &b), Party::classify(&b, &a));
    }

    /// join() with an absolute path always lands on the base host.
    #[test]
    fn join_abs_path_keeps_host(raw in url_strategy(), seg in "[a-z]{1,8}") {
        let base = Url::parse(&raw).unwrap();
        let joined = base.join(&format!("/{seg}")).unwrap();
        prop_assert_eq!(joined.host(), base.host());
        let expected = format!("/{seg}");
        prop_assert_eq!(joined.path(), expected.as_str());
    }

    /// `normalize_url_str` normalizes without building a `Url`; it must
    /// say what parsing then normalizing says, and fall back the same
    /// way on what does not parse.
    #[test]
    fn normalize_url_str_equals_parse_then_normalize(raw in raw_url_strategy()) {
        let expected = match Url::parse(&raw) {
            Ok(u) => u.normalize_for_comparison(),
            Err(_) => raw.split('#').next().unwrap_or(&raw).to_string(),
        };
        prop_assert_eq!(normalize_url_str(&raw), expected, "{:?}", raw);
    }

    /// Writing the normalized form appends to what the buffer holds.
    #[test]
    fn write_normalized_appends(raw in url_strategy(), held in "[a-z]{0,8}") {
        let u = Url::parse(&raw).unwrap();
        let mut buf = held.clone();
        u.write_normalized(&mut buf);
        prop_assert_eq!(buf, format!("{held}{}", u.normalize_for_comparison()));
    }
}

/// Strings around the URL grammar: capitals in scheme and host,
/// surrounding whitespace, userinfo, ports that parse or fail, percent
/// escapes, query flags, fragments, and inputs that fail to parse.
fn raw_url_strategy() -> impl Strategy<Value = String> {
    (
        (
            prop::sample::select(vec!["", " ", "\t"]),
            prop::sample::select(vec!["https", "HTTP", "Ws", "1x", ""]),
            prop::sample::select(vec!["://", "://", ":/"]),
            prop::sample::select(vec!["", "u@", "u:p@"]),
            prop::sample::select(vec!["a.com", "WWW.A.Com", "", "a b", "[::1]", "tp"]),
            prop::sample::select(vec!["", ":8080", ":", ":99999", ":8a"]),
        ),
        (
            prop::sample::select(vec!["", "/", "/p%41th/%2f", "/A/b.js", "/a b"]),
            prop::sample::select(vec!["", "?", "?k=V&flag&=x", "?a%41=1&b=%20", "?q=#x"]),
            prop::sample::select(vec!["", "#frag", "#"]),
            prop::sample::select(vec!["", " ", "\n"]),
        ),
    )
        .prop_map(
            |((lead, scheme, sep, user, host, port), (path, query, frag, trail))| {
                format!("{lead}{scheme}{sep}{user}{host}{port}{path}{query}{frag}{trail}")
            },
        )
}
