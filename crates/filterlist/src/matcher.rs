//! Pattern compilation and matching for ABP network filters.
//!
//! A pattern is compiled into a token sequence; matching is a
//! backtracking scan over the URL string. The special tokens are:
//!
//! * `*` — matches any (possibly empty) substring,
//! * `^` — a *separator*: any character that is not alphanumeric and not
//!   one of `_ - . %`, or the end of the URL,
//! * `|` at the start — anchor at the beginning of the URL,
//! * `|` at the end — anchor at the end of the URL,
//! * `||` at the start — anchor at a hostname label boundary.

use serde::{Deserialize, Serialize};

/// A compiled filter pattern.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Pattern {
    anchor: Anchor,
    end_anchor: bool,
    tokens: Vec<Token>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum Anchor {
    /// Match anywhere in the URL.
    None,
    /// `|…` — match at the start of the URL.
    Start,
    /// `||…` — match at the start of a hostname label.
    Host,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Token {
    Literal(String),
    Wildcard,
    Separator,
}

/// Is `c` an ABP separator character?
fn is_separator(c: u8) -> bool {
    !(c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b'%'))
}

impl Pattern {
    /// Compile the pattern part of a rule (anchors and wildcards
    /// included, options already stripped). Patterns are stored
    /// lowercased; the caller lowercases the URL unless `$match-case`.
    pub fn compile(raw: &str) -> Pattern {
        let mut s = raw;
        let anchor = if let Some(rest) = s.strip_prefix("||") {
            s = rest;
            Anchor::Host
        } else if let Some(rest) = s.strip_prefix('|') {
            s = rest;
            Anchor::Start
        } else {
            Anchor::None
        };
        let end_anchor = if let Some(rest) = s.strip_suffix('|') {
            s = rest;
            true
        } else {
            false
        };

        let mut tokens = Vec::new();
        let mut lit = String::new();
        for ch in s.chars() {
            match ch {
                '*' => {
                    if !lit.is_empty() {
                        tokens.push(Token::Literal(std::mem::take(&mut lit)));
                    }
                    // Collapse consecutive wildcards.
                    if tokens.last() != Some(&Token::Wildcard) {
                        tokens.push(Token::Wildcard);
                    }
                }
                '^' => {
                    if !lit.is_empty() {
                        tokens.push(Token::Literal(std::mem::take(&mut lit)));
                    }
                    tokens.push(Token::Separator);
                }
                c => lit.extend(c.to_lowercase()),
            }
        }
        if !lit.is_empty() {
            tokens.push(Token::Literal(lit));
        }
        Pattern {
            anchor,
            end_anchor,
            tokens,
        }
    }

    /// Match the pattern against `url` (full URL string); `host` is the
    /// URL's hostname, needed for `||` anchoring.
    pub fn matches(&self, url: &str, host: &str) -> bool {
        let bytes = url.as_bytes();
        match self.anchor {
            Anchor::Start => self.match_at(bytes, 0),
            Anchor::Host => {
                // `||example.com` must match at the start of the host or
                // at a `.`-separated label boundary within the host. The
                // host starts right after the scheme's `://` — not at its
                // first occurrence, which for a host like `tp` or `s`
                // lies inside the scheme.
                let Some(host_start) = wmtree_url::scheme_separator(url)
                    .map(|i| i + 3)
                    .filter(|&start| url[start..].starts_with(host))
                else {
                    return false;
                };
                let host_end = host_start + host.len();
                if self.match_at(bytes, host_start) {
                    return true;
                }
                url.as_bytes()[host_start..host_end]
                    .iter()
                    .enumerate()
                    .filter(|(_, b)| **b == b'.')
                    .any(|(i, _)| self.match_at(bytes, host_start + i + 1))
            }
            Anchor::None => {
                // Quick reject: every literal of the pattern must appear
                // somewhere in the URL; one substring probe of the
                // longest literal is far cheaper than a positional scan.
                if let Some(lit) = self.longest_literal() {
                    if !url.contains(lit) {
                        return false;
                    }
                }
                (0..=bytes.len()).any(|p| self.match_at(bytes, p))
            }
        }
    }

    /// The longest literal token, if any — the pattern's best quick-reject
    /// and indexing handle.
    fn longest_literal(&self) -> Option<&str> {
        self.tokens
            .iter()
            .filter_map(|t| match t {
                Token::Literal(l) => Some(l.as_str()),
                _ => None,
            })
            .max_by_key(|l| l.len())
    }

    /// Host-bucket key for the rule index: `Some(hp)` when the pattern is
    /// `||`-anchored and can only match URLs whose host has `hp` as a
    /// full label-boundary suffix (e.g. `||tracker.com^` → `tracker.com`,
    /// matching `tracker.com` and `cdn.tracker.com` but never
    /// `nottracker.com`). Patterns whose host portion is open-ended
    /// (`||ad.` with no terminator) get `None` and stay in the
    /// always-checked pool.
    pub(crate) fn index_host(&self) -> Option<&str> {
        if self.anchor != Anchor::Host {
            return None;
        }
        let Some(Token::Literal(lit)) = self.tokens.first() else {
            return None;
        };
        // Longest prefix of characters that can appear in a hostname.
        let hp_len = lit
            .bytes()
            .take_while(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'-' | b'_' | b'%'))
            .count();
        if hp_len == 0 {
            return None;
        }
        if hp_len < lit.len() {
            // The literal continues with a character that cannot occur in
            // a host, so any match pins the host's end right after `hp`.
            return Some(&lit[..hp_len]);
        }
        // The whole literal is host-like; the host end is only pinned if
        // the next token is a separator (which excludes all host
        // characters) or the pattern is end-anchored here.
        match self.tokens.get(1) {
            Some(Token::Separator) => Some(lit.as_str()),
            None if self.end_anchor => Some(lit.as_str()),
            _ => None,
        }
    }

    /// Token-bucket key for the rule index: the longest alphanumeric run
    /// that is *interior* to one of the pattern's literals (non-alnum on
    /// both sides), and therefore guaranteed to appear as a complete
    /// alphanumeric run in every matching URL. Runs shorter than 3 bytes
    /// are too common to be selective and are skipped.
    pub(crate) fn index_token(&self) -> Option<&str> {
        let mut best: Option<&str> = None;
        for tok in &self.tokens {
            let Token::Literal(lit) = tok else { continue };
            let b = lit.as_bytes();
            let mut i = 0;
            while i < b.len() {
                if !b[i].is_ascii_alphanumeric() {
                    i += 1;
                    continue;
                }
                let start = i;
                while i < b.len() && b[i].is_ascii_alphanumeric() {
                    i += 1;
                }
                let bounded = start > 0 && i < b.len();
                if bounded && i - start >= 3 && best.is_none_or(|x| x.len() < i - start) {
                    best = Some(&lit[start..i]);
                }
            }
        }
        best
    }

    /// Try to match the token list starting at byte offset `pos`.
    ///
    /// Iterative scan with single-level wildcard backtracking: advancing
    /// the most recent `*`'s consumption is sufficient because every
    /// other token consumes a fixed amount, so recursion (which is
    /// O(n^k) for k wildcards and can overflow the stack on adversarial
    /// patterns) is unnecessary.
    fn match_at(&self, url: &[u8], pos: usize) -> bool {
        let toks = &self.tokens;
        let mut tok = 0usize;
        let mut p = pos;
        // (token index after the last wildcard, next position it will try)
        let mut retry: Option<(usize, usize)> = None;
        loop {
            let stepped = if tok == toks.len() {
                if !self.end_anchor || p == url.len() {
                    return true;
                }
                false
            } else {
                match &toks[tok] {
                    Token::Wildcard => {
                        retry = Some((tok + 1, p));
                        tok += 1;
                        true
                    }
                    Token::Literal(lit) => {
                        let lb = lit.as_bytes();
                        if url.len() >= p + lb.len() && &url[p..p + lb.len()] == lb {
                            p += lb.len();
                            tok += 1;
                            true
                        } else {
                            false
                        }
                    }
                    Token::Separator => {
                        if p == url.len() {
                            // `^` matches the end of the URL — but only
                            // if it is the final token (an end anchor is
                            // then trivially satisfied: pos == len).
                            if tok + 1 == toks.len() {
                                return true;
                            }
                            false
                        } else if is_separator(url[p]) {
                            p += 1;
                            tok += 1;
                            true
                        } else {
                            false
                        }
                    }
                }
            };
            if stepped {
                continue;
            }
            // Dead end: let the last wildcard swallow one more byte.
            match retry {
                Some((t, rp)) if rp < url.len() => {
                    retry = Some((t, rp + 1));
                    tok = t;
                    p = rp + 1;
                }
                _ => return false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(pattern: &str, url: &str, host: &str) -> bool {
        Pattern::compile(pattern).matches(url, host)
    }

    #[test]
    fn plain_substring() {
        assert!(m("/banner/ads/", "https://x.com/banner/ads/1.png", "x.com"));
        assert!(!m("/banner/ads/", "https://x.com/content/1.png", "x.com"));
    }

    #[test]
    fn host_anchor_matches_domain_and_subdomains() {
        assert!(m("||tracker.com^", "https://tracker.com/px", "tracker.com"));
        assert!(m(
            "||tracker.com^",
            "https://cdn.tracker.com/px",
            "cdn.tracker.com"
        ));
        assert!(!m(
            "||tracker.com^",
            "https://nottracker.com/px",
            "nottracker.com"
        ));
        // Host anchor must not match inside the path.
        assert!(!m(
            "||tracker.com^",
            "https://safe.com/tracker.com/px",
            "safe.com"
        ));
    }

    #[test]
    fn host_anchor_starts_after_the_scheme() {
        // Each host also occurs inside its own scheme; the anchor must
        // not start there.
        assert!(m("||tp/x", "http://tp/x", "tp"));
        assert!(m("||s/ad", "https://s/ad.js", "s"));
        assert!(m("||ttp/a", "http://ttp/a", "ttp"));
        assert!(m("||tp^", "http://a.tp/", "a.tp"));
        assert!(!m("||ttp/a", "http://tp/a", "tp"));
        // A host that is not where the scheme ends matches nothing.
        assert!(!m("||a.com^", "https://b.com/", "a.com"));
    }

    #[test]
    fn host_anchor_separator_blocks_prefix_domains() {
        // ||ad.com^ should not match ad.company.com even though the string continues.
        assert!(!m(
            "||ad.com^",
            "https://ad.company.com/x",
            "ad.company.com"
        ));
        assert!(m("||ad.com^", "https://ad.com/x", "ad.com"));
        assert!(m("||ad.com^", "https://ad.com:8080/x", "ad.com"));
    }

    #[test]
    fn start_anchor() {
        assert!(m("|https://ads.", "https://ads.x.com/a", "ads.x.com"));
        assert!(!m(
            "|https://ads.",
            "http://x.com/?u=https://ads.y.com",
            "x.com"
        ));
    }

    #[test]
    fn end_anchor() {
        assert!(m(".swf|", "https://x.com/movie.swf", "x.com"));
        assert!(!m(".swf|", "https://x.com/movie.swf?x=1", "x.com"));
    }

    #[test]
    fn wildcard() {
        assert!(m(
            "/ads/*/banner",
            "https://x.com/ads/v2/banner.png",
            "x.com"
        ));
        assert!(m("/ads/*/banner", "https://x.com/ads//banner", "x.com"));
        assert!(!m("/ads/*/banner", "https://x.com/ads/banner0", "x.com"));
    }

    #[test]
    fn separator_semantics() {
        // ^ matches /, :, ?, &, = ... and end of URL, but not letters/digits/_-.%
        assert!(m("^px^", "https://x.com/px/", "x.com"));
        assert!(m("track^", "https://x.com/track?id=1", "x.com"));
        assert!(m("track^", "https://x.com/track", "x.com")); // end of URL
        assert!(!m("track^", "https://x.com/tracker", "x.com"));
        assert!(!m("track^", "https://x.com/track-me", "x.com")); // '-' is not a separator
    }

    #[test]
    fn case_insensitive_patterns() {
        assert!(m("/ADS/", "https://x.com/ads/a.png", "x.com"));
    }

    #[test]
    fn consecutive_wildcards_collapse() {
        let p = Pattern::compile("a**b");
        assert!(p.matches("https://x.com/a123b", "x.com"));
    }

    #[test]
    fn empty_pattern_matches_everything() {
        assert!(m("", "https://anything.com/", "anything.com"));
    }

    /// The original recursive matcher, kept verbatim as a test oracle
    /// for the iterative backtracking scan.
    fn match_tokens_recursive(p: &Pattern, url: &[u8], pos: usize, tok: usize) -> bool {
        if tok == p.tokens.len() {
            return !p.end_anchor || pos == url.len();
        }
        match &p.tokens[tok] {
            Token::Literal(lit) => {
                let lb = lit.as_bytes();
                if url.len() >= pos + lb.len() && &url[pos..pos + lb.len()] == lb {
                    match_tokens_recursive(p, url, pos + lb.len(), tok + 1)
                } else {
                    false
                }
            }
            Token::Separator => {
                if pos == url.len() {
                    return tok + 1 == p.tokens.len();
                }
                if is_separator(url[pos]) {
                    match_tokens_recursive(p, url, pos + 1, tok + 1)
                } else {
                    false
                }
            }
            Token::Wildcard => {
                (pos..=url.len()).any(|q| match_tokens_recursive(p, url, q, tok + 1))
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn iterative_matches_recursive(
            pattern in "[a-z0-9/^*|.-]{0,12}",
            url in "[a-z0-9/:.?=&_-]{0,40}",
        ) {
            let p = Pattern::compile(&pattern);
            let bytes = url.as_bytes();
            for pos in 0..=bytes.len() {
                proptest::prop_assert_eq!(
                    p.match_at(bytes, pos),
                    match_tokens_recursive(&p, bytes, pos, 0),
                    "pattern {:?} url {:?} pos {}", pattern, url, pos
                );
            }
        }
    }

    #[test]
    fn index_host_keys() {
        let key = |p: &str| Pattern::compile(p).index_host().map(str::to_string);
        assert_eq!(key("||tracker.com^"), Some("tracker.com".into()));
        assert_eq!(key("||stats.net/collect"), Some("stats.net".into()));
        assert_eq!(key("||x.com|"), Some("x.com".into()));
        // Open-ended host portion: must stay in the general pool.
        assert_eq!(key("||ad."), None);
        assert_eq!(key("||tracker.com"), None);
        // Wildcard right after the host-like literal: end not pinned.
        assert_eq!(key("||track*er.com^"), None);
        // Not host-anchored.
        assert_eq!(key("/banner/ads/"), None);
        assert_eq!(key("|https://ads."), None);
    }

    #[test]
    fn index_token_picks_interior_runs() {
        let key = |p: &str| Pattern::compile(p).index_token().map(str::to_string);
        // "banner" and "ads" are interior (bounded by '/'): longest wins.
        assert_eq!(key("/banner/ads/"), Some("banner".into()));
        // Edge runs are not guaranteed complete in the URL.
        assert_eq!(key("track"), None);
        assert_eq!(key("/track"), None);
        assert_eq!(key("track/"), None);
        // Short interior runs are skipped.
        assert_eq!(key("/ad/"), None);
        // Wildcards split literals; only interior-of-literal runs count.
        assert_eq!(key("*/pixel/*"), Some("pixel".into()));
    }

    #[test]
    fn host_anchor_with_path() {
        assert!(m(
            "||stats.net/collect",
            "https://stats.net/collect?e=1",
            "stats.net"
        ));
        assert!(m(
            "||stats.net/collect",
            "https://eu.stats.net/collect",
            "eu.stats.net"
        ));
        assert!(!m(
            "||stats.net/collect",
            "https://stats.net/other",
            "stats.net"
        ));
    }
}
