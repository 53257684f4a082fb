//! `Cookie::parse` matches attribute names in place and builds only
//! the strings a cookie keeps; it must still parse every `Set-Cookie`
//! line exactly as the parser it replaced (`oracle_parse`, below) did:
//! attribute names in any case, attributes repeated, empty or unknown,
//! domains with leading dots and capitals, `SameSite` values in any
//! case, bad `Max-Age` values, and names and values with stray spaces.

use proptest::prelude::*;
use wmtree_net::cookie::{Cookie, SameSite};
use wmtree_url::Url;

/// The parser `Cookie::parse` replaced, unchanged but for paths.
fn oracle_parse(header: &str, setting_url: &Url) -> Option<Cookie> {
    let mut parts = header.split(';');
    let nv = parts.next()?.trim();
    let eq = nv.find('=')?;
    let name = nv[..eq].trim().to_string();
    if name.is_empty() {
        return None;
    }
    let value = nv[eq + 1..].trim().to_string();

    let mut cookie = Cookie {
        name,
        value,
        domain: setting_url.host().to_string(),
        host_only: true,
        path: oracle_default_path(setting_url),
        secure: false,
        http_only: false,
        same_site: None,
        max_age: None,
        expires: None,
    };

    for attr in parts {
        let attr = attr.trim();
        let (key, val) = match attr.find('=') {
            Some(i) => (&attr[..i], attr[i + 1..].trim()),
            None => (attr, ""),
        };
        match key.to_ascii_lowercase().as_str() {
            "domain" => {
                let d = val.trim_start_matches('.').to_ascii_lowercase();
                if !d.is_empty() {
                    cookie.domain = d;
                    cookie.host_only = false;
                }
            }
            "path" if val.starts_with('/') => cookie.path = val.to_string(),
            "path" => {}
            "secure" => cookie.secure = true,
            "httponly" => cookie.http_only = true,
            "samesite" => {
                cookie.same_site = match val.to_ascii_lowercase().as_str() {
                    "strict" => Some(SameSite::Strict),
                    "lax" => Some(SameSite::Lax),
                    "none" => Some(SameSite::None),
                    _ => None,
                }
            }
            "max-age" => cookie.max_age = val.parse().ok(),
            "expires" => cookie.expires = Some(val.to_string()),
            _ => {}
        }
    }
    Some(cookie)
}

fn oracle_default_path(url: &Url) -> String {
    let p = url.path();
    match p.rfind('/') {
        Some(0) | None => "/".to_string(),
        Some(i) => p[..i].to_string(),
    }
}

/// A name-value part: ordinary, padded, nameless, valueless, with a
/// second `=`, or with no `=` at all.
fn name_value() -> impl Strategy<Value = &'static str> {
    prop::sample::select(vec![
        "sid=abc",
        " sid = abc ",
        "N=",
        "=v",
        " =v",
        "a=b=c",
        "novalue",
        "",
        "_ga=GA1.2.3",
    ])
}

/// An attribute name in some spelling, unknown or empty, or padded so
/// it no longer matches.
fn attribute_name() -> impl Strategy<Value = &'static str> {
    prop::sample::select(vec![
        "Domain", "domain", "DOMAIN", "dOmAiN", "Path", "PATH", "path", "Secure", "SECURE",
        "HttpOnly", "httponly", "HTTPONLY", "SameSite", "samesite", "SAMESITE", "Max-Age",
        "max-age", "MAX-AGE", "Expires", "expires", "Priority", "", " Domain", "Domain ", "Path ",
        "Domaine", "Secur",
    ])
}

/// An attribute value for any of them: domains with dots and capitals,
/// paths that do and do not start with `/`, `SameSite` values in any
/// case, good and bad `Max-Age` values, dates.
fn attribute_value() -> impl Strategy<Value = &'static str> {
    prop::sample::select(vec![
        "",
        ".",
        "..",
        ".example.com",
        "..Example.COM",
        "example.com",
        "EXAMPLE.com",
        " sub.example.com ",
        "/",
        "/a/B",
        "a/b",
        "Strict",
        "LAX",
        "none",
        "NoNe",
        "bogus",
        "3600",
        "-1",
        "0",
        "+5",
        "x1",
        "99999999999999999999",
        "Wed, 21 Oct 2015 07:28:00 GMT",
    ])
}

/// One attribute: a name, and a value after `=` or none.
fn attribute() -> impl Strategy<Value = String> {
    (
        attribute_name(),
        prop::option::of(attribute_value()),
        prop::sample::select(vec!["", " ", "  "]),
    )
        .prop_map(|(name, value, pad)| match value {
            Some(value) => format!("{pad}{name}={value}"),
            None => format!("{pad}{name}"),
        })
}

fn setting_url() -> impl Strategy<Value = Url> {
    prop::sample::select(vec![
        "https://www.Site.example/a/b",
        "https://site.example/",
        "https://site.example/dir/page?q=1",
        "http://x.example",
        "https://x.example/only",
    ])
    .prop_map(|url| Url::parse(url).expect("test URLs parse"))
}

proptest! {
    /// Generated `Set-Cookie` lines, attributes repeated in any order.
    #[test]
    fn parse_equals_the_oracle(
        nv in name_value(),
        attributes in prop::collection::vec(attribute(), 0..7),
        trailing in prop::sample::select(vec!["", ";", "; ", ";;"]),
        url in setting_url(),
    ) {
        let mut header = nv.to_string();
        for attribute in &attributes {
            header.push(';');
            header.push_str(attribute);
        }
        header.push_str(trailing);
        prop_assert_eq!(Cookie::parse(&header, &url), oracle_parse(&header, &url), "{:?}", header);
    }
}

/// Lines a crawl's cookies look like, spelled every way the generator
/// does not reach at once.
#[test]
fn parse_equals_the_oracle_on_written_lines() {
    let url = Url::parse("https://www.Shop.example/cart/view").expect("url");
    for header in [
        "t=1; Domain=.shop.com; Path=/; Secure; HttpOnly; SameSite=Lax; Max-Age=3600",
        "t=1; DOMAIN=..SHOP.com; PATH=/x; secure; httponly; samesite=STRICT; max-age=oops",
        "t=1; Domain=; Domain=a.com; Domain=; Path=nope; Path=/ok; Path=",
        "t=1; SameSite=Lax; SameSite=weird; Max-Age=5; Max-Age=; Expires=; Expires=later",
        "x=y;;;  ; Secure",
    ] {
        assert_eq!(
            Cookie::parse(header, &url),
            oracle_parse(header, &url),
            "{header}"
        );
    }
}
