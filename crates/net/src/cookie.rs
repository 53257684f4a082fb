//! RFC 6265 cookies: `Set-Cookie` parsing, the paper's cookie identity
//! (name, domain, path — §5.2), security attributes, and a matching jar.

use serde::{Deserialize, Serialize};
use wmtree_url::Url;

/// `SameSite` attribute values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum SameSite {
    Strict,
    Lax,
    None,
}

/// A cookie as observed in a `Set-Cookie` header.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cookie {
    /// Cookie name.
    pub name: String,
    /// Cookie value.
    pub value: String,
    /// Domain attribute (lowercased, leading dot stripped); defaults to
    /// the setting host (host-only cookie) when absent.
    pub domain: String,
    /// Whether the Domain attribute was explicitly present (host-only
    /// cookies match only the exact host).
    pub host_only: bool,
    /// Path attribute; defaults to the directory of the setting URL.
    pub path: String,
    /// `Secure` attribute.
    pub secure: bool,
    /// `HttpOnly` attribute.
    pub http_only: bool,
    /// `SameSite` attribute.
    pub same_site: Option<SameSite>,
    /// `Max-Age` in seconds (negative = expire now), if given.
    pub max_age: Option<i64>,
    /// Raw `Expires` attribute string, if given (not interpreted — the
    /// simulation uses virtual time and `Max-Age`).
    pub expires: Option<String>,
}

/// The paper's unique cookie identity: `(name, domain, path)` per
/// RFC 6265 (§5.2 of the paper).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CookieId {
    /// Cookie name.
    pub name: String,
    /// Normalized domain.
    pub domain: String,
    /// Path.
    pub path: String,
}

/// The security attributes the paper compares across profiles (§5.2:
/// "440 distinct cookies [...] at least one of the security attributes
/// (e.g., same site, http only, or secure) has been set differently").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SecurityAttributes {
    /// `Secure` flag.
    pub secure: bool,
    /// `HttpOnly` flag.
    pub http_only: bool,
    /// `SameSite` value.
    pub same_site: Option<SameSite>,
}

impl Cookie {
    /// Parse a `Set-Cookie` header value in the context of the URL that
    /// set it. Returns `None` for nameless/empty cookies (which user
    /// agents ignore).
    ///
    /// Attribute names match case-insensitively in place; the strings
    /// allocated are the ones the cookie keeps: a `Domain` value is
    /// lowercased into its own string, and the default domain and path
    /// are built only when no attribute replaces them.
    pub fn parse(header: &str, setting_url: &Url) -> Option<Cookie> {
        let mut parts = header.split(';');
        let nv = parts.next()?.trim();
        let eq = nv.find('=')?;
        let name = nv[..eq].trim();
        if name.is_empty() {
            return None;
        }
        let value = nv[eq + 1..].trim();

        let mut domain = None;
        let mut path = None;
        let mut expires = None;
        let (mut secure, mut http_only, mut same_site, mut max_age) = (false, false, None, None);
        for attr in parts {
            let attr = attr.trim();
            let (key, val) = match attr.find('=') {
                Some(i) => (&attr[..i], attr[i + 1..].trim()),
                None => (attr, ""),
            };
            let is = |name: &str| key.eq_ignore_ascii_case(name);
            if is("domain") {
                let d = val.trim_start_matches('.');
                if !d.is_empty() {
                    domain = Some(d);
                }
            } else if is("path") {
                if val.starts_with('/') {
                    path = Some(val);
                }
            } else if is("secure") {
                secure = true;
            } else if is("httponly") {
                http_only = true;
            } else if is("samesite") {
                same_site = [
                    ("strict", SameSite::Strict),
                    ("lax", SameSite::Lax),
                    ("none", SameSite::None),
                ]
                .into_iter()
                .find_map(|(v, s)| val.eq_ignore_ascii_case(v).then_some(s));
            } else if is("max-age") {
                max_age = val.parse().ok();
            } else if is("expires") {
                expires = Some(val);
            }
        }
        Some(Cookie {
            name: name.to_string(),
            value: value.to_string(),
            host_only: domain.is_none(),
            domain: match domain {
                Some(d) if d.bytes().any(|b| b.is_ascii_uppercase()) => d.to_ascii_lowercase(),
                Some(d) => d.to_string(),
                None => setting_url.host().to_string(),
            },
            path: path.map_or_else(|| default_path(setting_url), str::to_string),
            secure,
            http_only,
            same_site,
            max_age,
            expires: expires.map(str::to_string),
        })
    }

    /// The RFC 6265 identity `(name, domain, path)`.
    pub fn id(&self) -> CookieId {
        CookieId {
            name: self.name.clone(),
            domain: self.domain.clone(),
            path: self.path.clone(),
        }
    }

    /// The security attributes of this cookie.
    pub fn security_attributes(&self) -> SecurityAttributes {
        SecurityAttributes {
            secure: self.secure,
            http_only: self.http_only,
            same_site: self.same_site,
        }
    }

    /// Does this cookie match a request to `url` (domain-match and
    /// path-match per RFC 6265 §5.1.3 / §5.1.4, plus the Secure rule)?
    pub fn matches(&self, url: &Url) -> bool {
        if self.secure && url.scheme() != "https" && url.scheme() != "wss" {
            return false;
        }
        let host = url.host();
        let domain_ok = if self.host_only {
            host == self.domain
        } else {
            host == self.domain
                || (host.ends_with(&self.domain)
                    && host.as_bytes()[host.len() - self.domain.len() - 1] == b'.')
        };
        if !domain_ok {
            return false;
        }
        path_match(url.path(), &self.path)
    }
}

/// RFC 6265 §5.1.4 default-path of a URL.
fn default_path(url: &Url) -> String {
    let p = url.path();
    match p.rfind('/') {
        Some(0) | None => "/".to_string(),
        Some(i) => p[..i].to_string(),
    }
}

/// RFC 6265 §5.1.4 path-match.
fn path_match(request_path: &str, cookie_path: &str) -> bool {
    if request_path == cookie_path {
        return true;
    }
    if request_path.starts_with(cookie_path) {
        return cookie_path.ends_with('/')
            || request_path.as_bytes().get(cookie_path.len()) == Some(&b'/');
    }
    false
}

/// A cookie jar: stores cookies keyed by identity (newer `Set-Cookie`
/// replaces older under the same identity, as RFC 6265 prescribes) and
/// answers which cookies a request would carry.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CookieJar {
    cookies: Vec<Cookie>,
}

impl CookieJar {
    /// An empty jar.
    pub fn new() -> Self {
        CookieJar::default()
    }

    /// Store a cookie, replacing any existing cookie with the same
    /// identity. Cookies with `Max-Age <= 0` delete the stored cookie.
    pub fn store(&mut self, cookie: Cookie) {
        self.cookies.retain(|c| {
            (&c.name, &c.domain, &c.path) != (&cookie.name, &cookie.domain, &cookie.path)
        });
        if cookie.max_age.is_some_and(|a| a <= 0) {
            return; // deletion
        }
        self.cookies.push(cookie);
    }

    /// Parse and store every `Set-Cookie` line of a response.
    pub fn store_response(&mut self, set_cookie_lines: &[&str], setting_url: &Url) {
        for line in set_cookie_lines {
            if let Some(c) = Cookie::parse(line, setting_url) {
                self.store(c);
            }
        }
    }

    /// Cookies that would be sent with a request to `url`.
    pub fn matching(&self, url: &Url) -> Vec<&Cookie> {
        self.cookies.iter().filter(|c| c.matches(url)).collect()
    }

    /// The `Cookie` header value for a request to `url`, or `None` when
    /// no cookie matches.
    pub fn cookie_header(&self, url: &Url) -> Option<String> {
        let matched = self.matching(url);
        if matched.is_empty() {
            return None;
        }
        Some(
            matched
                .iter()
                .map(|c| format!("{}={}", c.name, c.value))
                .collect::<Vec<_>>()
                .join("; "),
        )
    }

    /// All stored cookies.
    pub fn iter(&self) -> impl Iterator<Item = &Cookie> {
        self.cookies.iter()
    }

    /// The stored cookies, in the order [`iter`](Self::iter) yields
    /// them, without copying them.
    pub fn into_cookies(self) -> Vec<Cookie> {
        self.cookies
    }

    /// Number of stored cookies.
    pub fn len(&self) -> usize {
        self.cookies.len()
    }

    /// Is the jar empty?
    pub fn is_empty(&self) -> bool {
        self.cookies.is_empty()
    }

    /// Clear the jar (stateless crawling resets between page visits;
    /// Appendix C of the paper).
    pub fn clear(&mut self) {
        self.cookies.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    #[test]
    fn parse_simple() {
        let c = Cookie::parse("sid=abc123", &url("https://www.shop.com/cart/view")).unwrap();
        assert_eq!(c.name, "sid");
        assert_eq!(c.value, "abc123");
        assert_eq!(c.domain, "www.shop.com");
        assert!(c.host_only);
        assert_eq!(c.path, "/cart");
        assert!(!c.secure);
    }

    #[test]
    fn parse_full_attributes() {
        let c = Cookie::parse(
            "t=1; Domain=.shop.com; Path=/; Secure; HttpOnly; SameSite=Lax; Max-Age=3600",
            &url("https://www.shop.com/"),
        )
        .unwrap();
        assert_eq!(c.domain, "shop.com");
        assert!(!c.host_only);
        assert_eq!(c.path, "/");
        assert!(c.secure && c.http_only);
        assert_eq!(c.same_site, Some(SameSite::Lax));
        assert_eq!(c.max_age, Some(3600));
    }

    #[test]
    fn parse_rejects_nameless() {
        assert!(Cookie::parse("=v", &url("https://a.com/")).is_none());
        assert!(Cookie::parse("novalue", &url("https://a.com/")).is_none());
    }

    #[test]
    fn identity_is_name_domain_path() {
        let a = Cookie::parse("x=1; Path=/", &url("https://a.com/")).unwrap();
        let b = Cookie::parse("x=2; Path=/", &url("https://a.com/")).unwrap();
        assert_eq!(a.id(), b.id());
        let c = Cookie::parse("x=1; Path=/other", &url("https://a.com/")).unwrap();
        assert_ne!(a.id(), c.id());
    }

    #[test]
    fn domain_match_subdomains() {
        let c = Cookie::parse(
            "x=1; Domain=shop.com; Path=/",
            &url("https://www.shop.com/"),
        )
        .unwrap();
        assert!(c.matches(&url("https://www.shop.com/")));
        assert!(c.matches(&url("https://api.shop.com/v1")));
        assert!(!c.matches(&url("https://notshop.com/")));
        assert!(!c.matches(&url("https://evilshop.com/")));
    }

    #[test]
    fn host_only_exact() {
        let c = Cookie::parse("x=1; Path=/", &url("https://www.shop.com/")).unwrap();
        assert!(c.matches(&url("https://www.shop.com/a")));
        assert!(!c.matches(&url("https://api.shop.com/a")));
    }

    #[test]
    fn secure_requires_https() {
        let c = Cookie::parse("x=1; Secure; Path=/", &url("https://a.com/")).unwrap();
        assert!(c.matches(&url("https://a.com/")));
        assert!(!c.matches(&url("http://a.com/")));
    }

    #[test]
    fn path_matching() {
        assert!(path_match("/a/b", "/a"));
        assert!(path_match("/a/b", "/a/"));
        assert!(path_match("/a", "/a"));
        assert!(!path_match("/ab", "/a"));
        assert!(!path_match("/", "/a"));
        assert!(path_match("/anything", "/"));
    }

    #[test]
    fn jar_replaces_same_identity() {
        let mut jar = CookieJar::new();
        let u = url("https://a.com/");
        jar.store(Cookie::parse("x=1; Path=/", &u).unwrap());
        jar.store(Cookie::parse("x=2; Path=/", &u).unwrap());
        assert_eq!(jar.len(), 1);
        assert_eq!(jar.matching(&u)[0].value, "2");
    }

    #[test]
    fn jar_deletion_via_max_age() {
        let mut jar = CookieJar::new();
        let u = url("https://a.com/");
        jar.store(Cookie::parse("x=1; Path=/", &u).unwrap());
        jar.store(Cookie::parse("x=gone; Path=/; Max-Age=0", &u).unwrap());
        assert!(jar.is_empty());
    }

    #[test]
    fn jar_cookie_header() {
        let mut jar = CookieJar::new();
        let u = url("https://a.com/");
        jar.store(Cookie::parse("a=1; Path=/", &u).unwrap());
        jar.store(Cookie::parse("b=2; Path=/", &u).unwrap());
        let header = jar.cookie_header(&u).unwrap();
        assert!(header.contains("a=1") && header.contains("b=2"));
        assert!(jar.cookie_header(&url("https://other.com/")).is_none());
    }

    #[test]
    fn jar_store_response_lines() {
        let mut jar = CookieJar::new();
        let u = url("https://a.com/");
        jar.store_response(&["a=1; Path=/", "bad", "b=2; Path=/"], &u);
        assert_eq!(jar.len(), 2);
    }

    #[test]
    fn jar_clear() {
        let mut jar = CookieJar::new();
        jar.store(Cookie::parse("a=1", &url("https://a.com/")).unwrap());
        jar.clear();
        assert!(jar.is_empty());
    }

    #[test]
    fn security_attributes_compare() {
        let u = url("https://a.com/");
        let a = Cookie::parse("x=1; Secure", &u).unwrap();
        let b = Cookie::parse("x=1; HttpOnly", &u).unwrap();
        assert_ne!(a.security_attributes(), b.security_attributes());
        assert_eq!(a.id(), b.id());
    }
}
