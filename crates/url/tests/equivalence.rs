//! The one-buffer `Url` against the six-field `Url` it replaced
//! (`oracle`). On inputs shaped to reach every branch of the parser —
//! mixed-case schemes and hosts, ports, userinfo, empty paths, `?` and
//! `#` in either order, empty queries and fragments, non-ASCII text and
//! padding whitespace — a parse fails with the oracle's error or yields
//! a URL on which every accessor, both serializations, normalization,
//! `site`, `join`, `check_parts`, `Debug` and the serde JSON agree.
//! Components written by hand deserialize exactly as written, whether
//! or not a parse could produce them. The borrowing eTLD+1 agrees with
//! the allocating one on every lowercase host.

mod oracle;

use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use wmtree_url::{psl, Url};

fn json<T: Serialize>(value: &T, pretty: bool) -> String {
    let mut w = if pretty {
        serde::Writer::pretty()
    } else {
        serde::Writer::compact()
    };
    value.serialize(&mut w);
    w.into_string()
}

fn from_json<T: Deserialize>(text: &str) -> Result<T, String> {
    T::deserialize(&mut serde::Reader::new(text)).map_err(|e| e.to_string())
}

/// Everything observable about a URL, the oracle's way round.
fn assert_same(url: &Url, old: &oracle::Url, what: &str) {
    assert_eq!(url.scheme(), old.scheme(), "scheme of {what}");
    assert_eq!(url.host(), old.host(), "host of {what}");
    assert_eq!(url.port(), old.port(), "port of {what}");
    assert_eq!(url.effective_port(), old.effective_port(), "{what}");
    assert_eq!(url.path(), old.path(), "path of {what}");
    assert_eq!(url.query(), old.query(), "query of {what}");
    assert_eq!(url.fragment(), old.fragment(), "fragment of {what}");
    assert!(url.query_pairs().eq(old.query_pairs()), "{what}");
    assert_eq!(url.has_query_values(), old.has_query_values(), "{what}");
    assert_eq!(url.as_str(), old.as_str(), "as_str of {what}");
    assert_eq!(url.to_string(), old.to_string(), "Display of {what}");
    assert_eq!(
        url.normalize_for_comparison(),
        old.normalize_for_comparison(),
        "normalized {what}"
    );
    assert_eq!(url.site(), old.site(), "site of {what}");
    assert_eq!(url.check_parts(), old.check_parts(), "check of {what}");
    assert_eq!(format!("{url:?}"), format!("{old:?}"), "Debug of {what}");
    assert_eq!(format!("{url:#?}"), format!("{old:#?}"), "{what}");
    for pretty in [false, true] {
        assert_eq!(json(url, pretty), json(old, pretty), "JSON of {what}");
    }
}

/// `join` of every reference agrees.
fn assert_joins(url: &Url, old: &oracle::Url, references: &[&str]) {
    for &reference in references {
        let what = format!("{:?} joined with {reference:?}", url.as_str());
        match (url.join(reference), old.join(reference)) {
            (Ok(joined), Ok(old_joined)) => assert_same(&joined, &old_joined, &what),
            (joined, old_joined) => assert_eq!(joined.err(), old_joined.err(), "{what}"),
        }
    }
}

const REFERENCES: &[&str] = &[
    "http://b.com/x",
    "HTTPS://X.COM",
    "//cdn.c.com/lib.js",
    "//",
    "/img/x.png",
    "  /pad  ",
    "x.png",
    "../up",
    "?n=2",
    "?",
    "#sec",
    "#",
    "",
    "a b",
];

fn pick(fixed: &'static [&'static str]) -> impl Strategy<Value = &'static str> {
    prop::sample::select(fixed.to_vec())
}

/// A fixed spelling, or a generated one, of one part of a URL.
fn part(fixed: &'static [&'static str], generated: &'static str) -> impl Strategy<Value = String> {
    (pick(fixed), generated, any::<bool>()).prop_map(|(fixed, generated, use_fixed)| {
        if use_fixed {
            fixed.to_string()
        } else {
            generated
        }
    })
}

fn input() -> impl Strategy<Value = String> {
    let pad = || pick(&["", "", "", " ", "\t", "\n ", "\u{a0}"]);
    let scheme = part(
        &[
            "http", "https", "HTTPS", "wSs", "h2", "a+b.c-d", "1x", "", "ht tp", "é",
        ],
        "[a-zA-Z][a-zA-Z0-9+.-]{0,5}",
    );
    let separator = pick(&["://", "://", "://", "://", ":/", ""]);
    let userinfo = pick(&["", "", "", "u@", "user:pass@", "@", "a@b@"]);
    let host = part(
        &[
            "a.com",
            "WWW.Example.COM",
            "cdn.shop.co.uk",
            "Bücher.DE",
            "例え.jp",
            "192.168.0.1",
            "[::1]",
            "",
            "a b.com",
            "x\u{b}y",
            "x\u{a0}y",
            "alice.GitHub.io",
            "localhost",
        ],
        "[a-zA-Z0-9-]{1,6}\\.[a-zA-Z0-9.-]{1,8}",
    );
    let port = pick(&[
        "", "", "", ":80", ":8443", ":65535", ":65536", ":0080", ":", ":x", "::1",
    ]);
    let path = part(
        &[
            "", "", "/", "/a/B", "/é/%41b", "/a b", "/x/y.js", "/%7e/", "/a;b=c",
        ],
        "/[a-zA-Z0-9/._%-]{0,10}",
    );
    let tail = part(
        &[
            "",
            "",
            "?",
            "#",
            "?#",
            "#?",
            "?q=1&b",
            "?a=1&B=%41#frag",
            "#f?x",
            "?a#b#c",
            "?k=v&k2&=x&&",
            "#é",
            "?é=ü",
        ],
        "[?#&=a-zA-Z0-9]{0,10}",
    );
    (
        (pad(), scheme, separator, userinfo),
        (host, port, path, tail, pad()),
    )
        .prop_map(
            |((lead, scheme, sep, user), (host, port, path, tail, trail))| {
                format!("{lead}{scheme}{sep}{user}{host}{port}{path}{tail}{trail}")
            },
        )
}

/// Components as anyone could write them into JSON: some a parse
/// produces, some it never does.
fn components() -> impl Strategy<Value = oracle::Url> {
    let scheme = pick(&["https", "ws", "HTTP", "", "1x", "a+b"]);
    let host = pick(&[
        "a.com",
        "WWW.A.COM",
        "",
        "a b",
        "a/b",
        "a?b",
        "bücher.de",
        "u@h",
    ]);
    let path = pick(&["/", "/p/q", "", "noslash", "/a?b", "/a#b", "/é"]);
    let query = prop::option::of(pick(&["", "q=1", "q#f", "a?b", "k=%41"]));
    let fragment = prop::option::of(pick(&["", "top", "x?y#z", "é"]));
    let port = prop::option::of(pick(&["0", "80", "65535"]));
    (scheme, host, port, path, query, fragment).prop_map(
        |(scheme, host, port, path, query, fragment)| oracle::Url {
            scheme: scheme.to_string(),
            host: host.to_string(),
            port: port.map(|p| p.parse().unwrap_or_default()),
            path: path.to_string(),
            query: query.map(str::to_string),
            fragment: fragment.map(str::to_string),
        },
    )
}

/// A lowercase host, often ending in a multi-label, wildcard, exception
/// or private-registry suffix.
fn lowercase_host() -> impl Strategy<Value = String> {
    let labels = prop::collection::vec("[a-z0-9-]{0,6}", 1..4);
    let suffix = pick(&[
        "",
        ".com",
        ".co.uk",
        ".github.io",
        ".ck",
        ".www.ck",
        ".compute.amazonaws.com",
        ".s3.amazonaws.com",
        ".com.au",
        ".",
        "..",
        ".bücher",
    ]);
    (labels, suffix).prop_map(|(labels, suffix)| format!("{}{suffix}", labels.join(".")))
}

proptest! {
    #[test]
    fn parse_agrees_with_the_six_field_url(raw in input()) {
        match (Url::parse(&raw), oracle::Url::parse(&raw)) {
            (Ok(url), Ok(old)) => {
                let what = format!("{raw:?}");
                assert_same(&url, &old, &what);
                assert_joins(&url, &old, REFERENCES);
                // Its components come back through both readers.
                let rebuilt = Url::from_parts(
                    url.scheme(),
                    url.host(),
                    url.port(),
                    url.path(),
                    url.query(),
                    url.fragment(),
                );
                prop_assert_eq!(rebuilt.as_ref(), Ok(&url));
                let back: Url = from_json(&json(&old, false)).expect("deserialize");
                prop_assert_eq!(&back, &url);
            }
            (url, old) => prop_assert_eq!(url.err(), old.err(), "{:?}", raw),
        }
    }

    #[test]
    fn handwritten_components_deserialize_as_written(old in components()) {
        let text = json(&old, false);
        let url: Url = from_json(&text).expect("any components deserialize");
        assert_same(&url, &old, &text);
        assert_joins(&url, &old, REFERENCES);
        let rebuilt = Url::from_parts(
            &old.scheme,
            &old.host,
            old.port,
            &old.path,
            old.query.as_deref(),
            old.fragment.as_deref(),
        );
        let old_rebuilt = oracle::Url::from_parts(
            old.scheme.clone(),
            old.host.clone(),
            old.port,
            old.path.clone(),
            old.query.clone(),
            old.fragment.clone(),
        );
        match (rebuilt, old_rebuilt) {
            (Ok(url), Ok(old)) => assert_same(&url, &old, &text),
            (url, old) => prop_assert_eq!(url.err(), old.err(), "{}", text),
        }
    }

    #[test]
    fn borrowed_etld_plus_one_agrees_on_lowercase_hosts(host in lowercase_host()) {
        prop_assert_eq!(psl::etld_plus_one_lower(&host), psl::etld_plus_one(&host));
    }
}

#[test]
fn handwritten_components_round_trip_exactly() {
    for text in [
        r#"{"scheme":"https","host":"A.COM","port":null,"path":"/","query":null,"fragment":null}"#,
        r#"{"scheme":"https","host":"a.com","port":8080,"path":"noslash","query":"q","fragment":null}"#,
        r#"{"scheme":"https","host":"a.com","port":null,"path":"/a?b","query":"x#y","fragment":"f"}"#,
        r#"{"scheme":"https","host":"a.com","port":null,"path":"/","query":"","fragment":""}"#,
    ] {
        let url: Url = from_json(text).expect("deserialize");
        let old: oracle::Url = from_json(text).expect("deserialize");
        assert_same(&url, &old, text);
        assert_eq!(json(&url, false), text);
    }
    let url: Url = from_json(
        r#"{"scheme":"https","host":"A.COM","port":null,"path":"/a?b","query":"x#y","fragment":null}"#,
    )
    .expect("deserialize");
    assert_eq!(url.host(), "A.COM");
    assert_eq!(url.path(), "/a?b");
    assert_eq!(url.query(), Some("x#y"));
    assert!(url.check_parts().is_err());
}

#[test]
fn malformed_components_fail_alike() {
    for text in [
        r#"{"scheme":"https","host":"a.com","path":"/"}"#,
        r#"{"scheme":"https","host":"a.com","port":70000,"path":"/"}"#,
        r#"{"scheme":"https","port":null,"path":"/"}"#,
        r#"{"scheme":1,"host":"a.com","path":"/"}"#,
        r#"["https","a.com"]"#,
    ] {
        let url = from_json::<Url>(text).map(|u| u.to_string());
        let old = from_json::<oracle::Url>(text).map(|u| u.to_string());
        assert_eq!(url, old, "{text}");
    }
}
