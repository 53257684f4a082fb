//! The six-field `Url` the one-buffer `Url` replaced: the oracle of
//! `equivalence.rs`. Its parse code is unchanged but for paths into
//! `wmtree_url` and public fields, so tests can write components by
//! hand.

use serde::{Deserialize, Serialize};
use std::fmt::{self, Write as _};
use wmtree_url::ParseError;

/// A parsed absolute URL.
///
/// Components are stored in their original spelling except for scheme and
/// host, which are lowercased on parse (they are case-insensitive per
/// RFC 3986 §6.2.2.1).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Url {
    pub scheme: String,
    pub host: String,
    pub port: Option<u16>,
    pub path: String,
    pub query: Option<String>,
    pub fragment: Option<String>,
}

impl Url {
    /// Parse an absolute URL.
    pub fn parse(input: &str) -> Result<Self, ParseError> {
        let p = Parts::split(input)?;
        Ok(Url {
            scheme: p.scheme.to_ascii_lowercase(),
            host: p.host.to_ascii_lowercase(),
            port: p.port,
            path: p.path.to_string(),
            query: p.query.map(str::to_string),
            fragment: p.fragment.map(str::to_string),
        })
    }

    /// Assemble a URL from its components, checking that they are ones
    /// [`Url::parse`] produces: a lowercase scheme starting with a
    /// letter, a non-empty host without ASCII capitals, whitespace or
    /// any of `/?#@`, a path that starts with `/` and holds no `?` or
    /// `#`, and a query without `#`. Readers of stored components build
    /// URLs with it instead of re-parsing their serialization.
    pub fn from_parts(
        scheme: String,
        host: String,
        port: Option<u16>,
        path: String,
        query: Option<String>,
        fragment: Option<String>,
    ) -> Result<Url, ParseError> {
        let url = Url {
            scheme,
            host,
            port,
            path,
            query,
            fragment,
        };
        url.check_parts()?;
        Ok(url)
    }

    /// Check that this URL's components are ones [`Url::parse`]
    /// produces — what [`Url::from_parts`] accepts. Only a URL
    /// deserialized from hand-written components can fail.
    pub fn check_parts(&self) -> Result<(), ParseError> {
        let mut scheme = self.scheme.bytes();
        if !scheme.next().is_some_and(|b| b.is_ascii_lowercase())
            || !scheme.all(|b| {
                b.is_ascii_lowercase() || b.is_ascii_digit() || matches!(b, b'+' | b'-' | b'.')
            })
        {
            return Err(ParseError::InvalidScheme);
        }
        if self.host.is_empty() {
            return Err(ParseError::EmptyHost);
        }
        // ASCII whitespace here is what `char::is_whitespace` says,
        // which includes the vertical tab; beyond ASCII, only
        // whitespace is forbidden.
        let ascii_defect = |b: &u8| {
            b.is_ascii_uppercase()
                || b.is_ascii_whitespace()
                || matches!(b, 0x0b | b'/' | b'?' | b'#' | b'@')
        };
        if self.host.as_bytes().iter().any(ascii_defect)
            || (!self.host.is_ascii() && self.host.chars().any(char::is_whitespace))
        {
            return Err(ParseError::InvalidHost);
        }
        if !self.path.starts_with('/')
            || self.path.bytes().any(|b| b == b'?' || b == b'#')
            || self
                .query
                .as_deref()
                .is_some_and(|q| q.bytes().any(|b| b == b'#'))
        {
            return Err(ParseError::InvalidPath);
        }
        Ok(())
    }

    /// The lowercased scheme (e.g. `https`).
    pub fn scheme(&self) -> &str {
        &self.scheme
    }

    /// The lowercased host.
    pub fn host(&self) -> &str {
        &self.host
    }

    /// The explicit port, if any.
    pub fn port(&self) -> Option<u16> {
        self.port
    }

    /// The port in effect: explicit port, or the scheme default
    /// (80 for http, 443 for https/wss, 80 for ws).
    pub fn effective_port(&self) -> u16 {
        self.port.unwrap_or(match self.scheme.as_str() {
            "https" | "wss" => 443,
            _ => 80,
        })
    }

    /// The path (always starts with `/`).
    pub fn path(&self) -> &str {
        &self.path
    }

    /// The raw query string without the leading `?`, if any.
    pub fn query(&self) -> Option<&str> {
        self.query.as_deref()
    }

    /// The fragment without the leading `#`, if any.
    pub fn fragment(&self) -> Option<&str> {
        self.fragment.as_deref()
    }

    /// Iterate over `(key, value)` query parameters. A parameter without
    /// `=` yields an empty value.
    pub fn query_pairs(&self) -> impl Iterator<Item = (&str, &str)> {
        query_pairs(self.query.as_deref().unwrap_or(""))
    }

    /// The registerable domain (eTLD+1) of the host — the paper's notion
    /// of a *site*. IP-literal hosts are returned verbatim.
    pub fn site(&self) -> String {
        wmtree_url::psl::etld_plus_one(&self.host)
    }

    /// `true` when the query contains at least one non-empty parameter
    /// value — i.e. when [`normalize_for_comparison`](Self::normalize_for_comparison)
    /// will actually change the URL. The paper reports applying the
    /// technique to 40% of observed URLs; this predicate measures that.
    pub fn has_query_values(&self) -> bool {
        self.query_pairs().any(|(_, v)| !v.is_empty())
    }

    /// The analysis-phase node identity from §3.2 of the paper: the URL
    /// with every query parameter *value* dropped (keys kept, in order)
    /// and the fragment removed.
    pub fn normalize_for_comparison(&self) -> String {
        let mut out =
            String::with_capacity(self.scheme.len() + self.host.len() + self.path.len() + 8);
        self.write_normalized(&mut out);
        out
    }

    /// Append what [`Url::normalize_for_comparison`] returns to `out`,
    /// so a caller normalizing many URLs can reuse one buffer.
    pub fn write_normalized(&self, out: &mut String) {
        Parts {
            scheme: &self.scheme,
            host: &self.host,
            port: self.port,
            path: &self.path,
            query: self.query.as_deref(),
            fragment: self.fragment.as_deref(),
        }
        .write_normalized(out);
    }

    /// Serialize back to a full URL string (including query values and
    /// fragment).
    pub fn as_str(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out);
        out
    }

    /// Append what [`Url::as_str`] returns to `out`.
    pub fn write_into(&self, out: &mut String) {
        write_origin(&self.scheme, &self.host, self.port, out);
        out.push_str(&self.path);
        if let Some(q) = &self.query {
            out.push('?');
            out.push_str(q);
        }
        if let Some(f) = &self.fragment {
            out.push('#');
            out.push_str(f);
        }
    }

    /// Resolve a possibly-relative reference against this URL as base.
    ///
    /// Handles absolute URLs, protocol-relative (`//host/..`),
    /// absolute-path (`/p`), and relative-path references. Query-only and
    /// fragment-only references are resolved per RFC 3986 §5.3.
    pub fn join(&self, reference: &str) -> Result<Url, ParseError> {
        let reference = reference.trim();
        if reference.contains("://") {
            return Url::parse(reference);
        }
        if let Some(rest) = reference.strip_prefix("//") {
            return Url::parse(&format!("{}://{}", self.scheme, rest));
        }
        let base_prefix = {
            let mut s = format!("{}://{}", self.scheme, self.host);
            if let Some(p) = self.port {
                s.push(':');
                s.push_str(&p.to_string());
            }
            s
        };
        if reference.starts_with('/') {
            return Url::parse(&format!("{base_prefix}{reference}"));
        }
        if let Some(q) = reference.strip_prefix('?') {
            return Url::parse(&format!("{base_prefix}{}?{q}", self.path));
        }
        if reference.starts_with('#') || reference.is_empty() {
            let mut u = self.clone();
            u.fragment = if reference.is_empty() {
                None
            } else {
                Some(reference[1..].to_string())
            };
            return Ok(u);
        }
        // Relative path: resolve against the base path's directory.
        let dir = match self.path.rfind('/') {
            Some(i) => &self.path[..=i],
            None => "/",
        };
        Url::parse(&format!("{base_prefix}{dir}{reference}"))
    }
}

/// A URL's components as [`Url::parse`] splits them, borrowed from the
/// input: scheme and host keep the input's case, and an empty path is
/// already `/`.
pub(crate) struct Parts<'a> {
    pub(crate) scheme: &'a str,
    pub(crate) host: &'a str,
    port: Option<u16>,
    path: &'a str,
    query: Option<&'a str>,
    fragment: Option<&'a str>,
}

impl<'a> Parts<'a> {
    /// Split an absolute URL: the whole of [`Url::parse`] but for its
    /// allocations.
    pub(crate) fn split(input: &'a str) -> Result<Parts<'a>, ParseError> {
        let input = input.trim();
        let scheme_end = scheme_separator(input).ok_or(ParseError::MissingScheme)?;
        let scheme = &input[..scheme_end];
        if scheme.is_empty()
            || !scheme
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic())
            || !scheme
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '+' | '-' | '.'))
        {
            return Err(ParseError::InvalidScheme);
        }
        let rest = &input[scheme_end + 3..];

        let auth_end = authority_end(rest);
        let authority = &rest[..auth_end];
        let after = &rest[auth_end..];

        // We do not model userinfo; strip it if present (rare in traffic).
        let hostport = authority.rsplit('@').next().unwrap_or(authority);
        let (host, port) = match hostport.rfind(':') {
            Some(i)
                if hostport[i + 1..].chars().all(|c| c.is_ascii_digit())
                    && i + 1 < hostport.len() =>
            {
                let port: u16 = hostport[i + 1..]
                    .parse()
                    .map_err(|_| ParseError::InvalidPort)?;
                (&hostport[..i], Some(port))
            }
            Some(i) if i + 1 == hostport.len() => (&hostport[..i], None),
            _ => (hostport, None),
        };
        if host.is_empty() {
            return Err(ParseError::EmptyHost);
        }
        if host
            .chars()
            .any(|c| c.is_whitespace() || matches!(c, '/' | '?' | '#' | '@'))
        {
            return Err(ParseError::InvalidHost);
        }

        // Split the remainder into path / query / fragment.
        let (before_frag, fragment) = match after.find('#') {
            Some(i) => (&after[..i], Some(&after[i + 1..])),
            None => (after, None),
        };
        let (path, query) = match before_frag.find('?') {
            Some(i) => (&before_frag[..i], Some(&before_frag[i + 1..])),
            None => (before_frag, None),
        };
        Ok(Parts {
            scheme,
            host,
            port,
            path: if path.is_empty() { "/" } else { path },
            query,
            fragment,
        })
    }

    /// Append the [`Url::normalize_for_comparison`] form of these
    /// components to `out`, in their case.
    pub(crate) fn write_normalized(&self, out: &mut String) {
        write_origin(self.scheme, self.host, self.port, out);
        // Percent-encoding differences must not split node identities
        // (`%41` vs `A` in paths; RFC 3986 §6.2.2). Unescaped
        // components — the overwhelmingly common case — are appended
        // verbatim without the normalization pass's allocation.
        if self.path.contains('%') {
            out.push_str(&wmtree_url::encoding::normalize_percent_encoding(self.path));
        } else {
            out.push_str(self.path);
        }
        if let Some(query) = self.query {
            out.push('?');
            let mut first = true;
            for (k, _) in query_pairs(query) {
                if !first {
                    out.push('&');
                }
                first = false;
                if k.contains('%') {
                    out.push_str(&wmtree_url::encoding::normalize_percent_encoding(k));
                } else {
                    out.push_str(k);
                }
                out.push('=');
            }
        }
    }
}

/// Byte offset of the first `://` in `input`: `input.find("://")`
/// without setting up a substring searcher for every short URL.
pub fn scheme_separator(input: &str) -> Option<usize> {
    input.as_bytes().windows(3).position(|w| w == b"://")
}

/// Length of the authority at the start of `rest` (what follows
/// `scheme://`): it ends at the first of `/`, `?`, `#`.
fn authority_end(rest: &str) -> usize {
    rest.bytes()
        .position(|b| matches!(b, b'/' | b'?' | b'#'))
        .unwrap_or(rest.len())
}

/// Append `scheme://host[:port]`, the prefix both serializations
/// share.
fn write_origin(scheme: &str, host: &str, port: Option<u16>, out: &mut String) {
    out.push_str(scheme);
    out.push_str("://");
    out.push_str(host);
    if let Some(p) = port {
        // Writing into a `String` cannot fail.
        let _ = write!(out, ":{p}");
    }
}

/// `(key, value)` pairs of a raw query string; a parameter without `=`
/// yields an empty value.
fn query_pairs(query: &str) -> impl Iterator<Item = (&str, &str)> {
    query
        .split('&')
        .filter(|s| !s.is_empty())
        .map(|kv| match kv.find('=') {
            Some(i) => (&kv[..i], &kv[i + 1..]),
            None => (kv, ""),
        })
}

impl fmt::Display for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.as_str())
    }
}
