//! Candidate-rule index: host buckets, literal-token buckets, and an
//! always-checked general pool.
//!
//! [`FilterList::is_tracking`](crate::FilterList::is_tracking) is called
//! once per observed request while dependency trees are built — on a
//! full run that is millions of evaluations against every rule of the
//! list. The index prunes that product:
//!
//! * `||host^`-style rules land in a **host bucket** keyed by the exact
//!   label-boundary suffix they can match
//!   ([`Pattern::index_host`](crate::matcher::Pattern)); a request only
//!   probes the buckets of its host's label suffixes.
//! * other rules with a selective interior literal run land in a
//!   **token bucket** ([`Pattern::index_token`](crate::matcher::Pattern));
//!   a request only probes the buckets of the alphanumeric runs that
//!   actually occur in its URL.
//! * everything else stays in the **general pool**, checked every time.
//!
//! The index is a pure accelerator: a rule is bucketed only when its
//! key is *implied* by a match, so the candidate set always contains
//! every matching rule and `any(candidates) == any(all rules)`. The
//! property test in `tests/prop.rs` asserts exactly that against the
//! linear scan.
//!
//! Probing allocates nothing. The caller hands in the request already
//! prepared ([`Prepared`]): its URL serialized and lowercased into a
//! buffer the caller reuses, its host lowercased, and, when known, its
//! party, which `$third-party` rules then read instead of classifying
//! the request again. Each bucket map keeps, per first byte, a mask of
//! its key lengths ([`Keyed`]); a host suffix or URL run that no key
//! could equal is turned away before it is hashed, which spares almost
//! every probe its hash. A run that occurs twice in a URL is probed
//! twice; the answer is the same either way.

use crate::rule::{FilterRule, Prepared};
use std::collections::HashMap;

/// Bucket key → rule ids, with a length mask in front of the map.
#[derive(Debug, Clone, Default)]
struct Keyed {
    ids: HashMap<Box<str>, Vec<u32>>,
    /// Per first byte (256 entries once a key is in), bit `n` set when
    /// some key starting with that byte is `n` bytes long (bit 63: 63 or
    /// more).
    lens: Vec<u64>,
}

impl Keyed {
    /// File rule `id` under `key`, which is not empty.
    fn insert(&mut self, key: &str, id: u32) {
        if self.lens.is_empty() {
            self.lens = vec![0; 256];
        }
        self.lens[usize::from(key.as_bytes()[0])] |= len_bit(key.len());
        self.ids.entry(key.into()).or_default().push(id);
    }

    /// The rules filed under `key`.
    fn get(&self, key: &str) -> Option<&[u32]> {
        let first = *key.as_bytes().first()?;
        if self.lens.get(usize::from(first))? & len_bit(key.len()) == 0 {
            return None;
        }
        self.ids.get(key).map(Vec::as_slice)
    }

    fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// The bit of a [`Keyed`] length mask for a key of `len` bytes.
fn len_bit(len: usize) -> u64 {
    1 << len.min(63)
}

/// Buckets over one rule set (blocking or exception rules). Values are
/// indices into the rule vector.
#[derive(Debug, Clone, Default)]
pub(crate) struct RuleBuckets {
    /// Label-boundary host suffix → host-anchored rules pinned to it.
    host: Keyed,
    /// Interior literal run → rules requiring that run in the URL.
    token: Keyed,
    /// Rules with no usable key; always evaluated.
    general: Vec<u32>,
}

impl RuleBuckets {
    pub(crate) fn build(rules: &[FilterRule]) -> RuleBuckets {
        let mut b = RuleBuckets::default();
        for (i, rule) in rules.iter().enumerate() {
            let i = i as u32;
            let p = rule.pattern();
            if let Some(h) = p.index_host() {
                b.host.insert(h, i);
            } else if let Some(t) = p.index_token() {
                b.token.insert(t, i);
            } else {
                b.general.push(i);
            }
        }
        b
    }

    /// Does any rule in this bucket set match the prepared request?
    pub(crate) fn any_match(&self, rules: &[FilterRule], req: &Prepared<'_>) -> bool {
        let hit = |i: &u32| rules[*i as usize].matches_prepared(req);
        if self.general.iter().any(hit) {
            return true;
        }
        // Host buckets: every label-boundary suffix of the host.
        if !self.host.is_empty() {
            let host = req.lower_host;
            let mut start = 0usize;
            loop {
                if let Some(ids) = self.host.get(&host[start..]) {
                    if ids.iter().any(hit) {
                        return true;
                    }
                }
                match host[start..].find('.') {
                    Some(dot) => start += dot + 1,
                    None => break,
                }
            }
        }
        // Token buckets: every alphanumeric run of the URL.
        if !self.token.is_empty() {
            let url = req.lower_url;
            let bytes = url.as_bytes();
            let mut i = 0usize;
            while i < bytes.len() {
                if !bytes[i].is_ascii_alphanumeric() {
                    i += 1;
                    continue;
                }
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_alphanumeric() {
                    i += 1;
                }
                if let Some(ids) = self.token.get(&url[start..i]) {
                    if ids.iter().any(hit) {
                        return true;
                    }
                }
            }
        }
        false
    }
}

/// The full candidate index of a [`crate::FilterList`]: buckets for the
/// blocking rules and for the exception rules.
#[derive(Debug, Clone, Default)]
pub(crate) struct RuleIndex {
    pub(crate) block: RuleBuckets,
    pub(crate) except: RuleBuckets,
}

impl RuleIndex {
    pub(crate) fn build(block: &[FilterRule], except: &[FilterRule]) -> RuleIndex {
        RuleIndex {
            block: RuleBuckets::build(block),
            except: RuleBuckets::build(except),
        }
    }
}
