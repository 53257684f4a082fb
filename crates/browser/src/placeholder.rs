//! Materialization of per-visit URL placeholders.
//!
//! The universe emits URL templates containing `{sid}`, `{uid}`, and
//! `{cb}`. The browser fills them in: session and user ids are stable
//! within a visit (they come from the visit's cookies / storage), while
//! every `{cb}` occurrence gets a fresh cache-buster — exactly the
//! query-value churn the paper's normalization step (§3.2) exists to
//! neutralize.

use std::fmt::Write as _;
use wmtree_webgen::stable_hash;

/// Per-visit identifier state.
#[derive(Debug, Clone)]
pub struct VisitIds {
    sid: String,
    uid: String,
    cb_counter: u64,
    cb_seed: u64,
}

impl VisitIds {
    /// Derive the visit's identifiers from its seed.
    pub fn new(visit_seed: u64) -> VisitIds {
        VisitIds {
            sid: format!(
                "{:012x}",
                stable_hash(visit_seed, b"sid") & 0xffff_ffff_ffff
            ),
            uid: format!(
                "{:012x}",
                stable_hash(visit_seed, b"uid") & 0xffff_ffff_ffff
            ),
            cb_counter: 0,
            cb_seed: stable_hash(visit_seed, b"cb"),
        }
    }

    /// The visit's session id.
    pub fn sid(&self) -> &str {
        &self.sid
    }

    /// The visit's user id.
    pub fn uid(&self) -> &str {
        &self.uid
    }

    /// Materialize all placeholders in a URL template. Each call
    /// consumes fresh cache-busters for `{cb}` occurrences, left to
    /// right.
    pub fn materialize(&mut self, template: &str) -> String {
        let mut len = 0;
        each_piece(template, |piece| {
            len += match piece {
                Piece::Text(text) => text.len(),
                Piece::Sid => self.sid.len(),
                Piece::Uid => self.uid.len(),
                Piece::Cb => 8,
            }
        });
        let mut out = String::with_capacity(len);
        each_piece(template, |piece| match piece {
            Piece::Text(text) => out.push_str(text),
            Piece::Sid => out.push_str(&self.sid),
            Piece::Uid => out.push_str(&self.uid),
            Piece::Cb => {
                self.cb_counter += 1;
                let cb = stable_hash(self.cb_seed, &self.cb_counter.to_le_bytes()) & 0xffff_ffff;
                // Writing into a `String` cannot fail.
                let _ = write!(out, "{cb:08x}");
            }
        });
        out
    }
}

/// A stretch of a URL template: literal text or one placeholder.
enum Piece<'a> {
    Text(&'a str),
    Sid,
    Uid,
    Cb,
}

/// Call `f` on each stretch of `template`, in order. Placeholders start
/// with `{`, end with `}` and hold neither, so no two occurrences
/// overlap and a `{` that starts none is text.
fn each_piece<'a>(template: &'a str, mut f: impl FnMut(Piece<'a>)) {
    let (mut text_start, mut from) = (0, 0);
    while let Some(i) = template[from..].find('{').map(|i| from + i) {
        let tail = &template[i..];
        let placeholder = if tail.starts_with("{sid}") {
            Some((Piece::Sid, "{sid}".len()))
        } else if tail.starts_with("{uid}") {
            Some((Piece::Uid, "{uid}".len()))
        } else if tail.starts_with("{cb}") {
            Some((Piece::Cb, "{cb}".len()))
        } else {
            None
        };
        from = i + 1;
        if let Some((piece, len)) = placeholder {
            f(Piece::Text(&template[text_start..i]));
            f(piece);
            text_start = i + len;
            from = text_start;
        }
    }
    f(Piece::Text(&template[text_start..]));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_stable_within_visit() {
        let a = VisitIds::new(42);
        let b = VisitIds::new(42);
        assert_eq!(a.sid(), b.sid());
        assert_eq!(a.uid(), b.uid());
        assert_ne!(a.sid(), a.uid());
    }

    #[test]
    fn ids_differ_across_visits() {
        assert_ne!(VisitIds::new(1).sid(), VisitIds::new(2).sid());
    }

    #[test]
    fn sid_uid_substituted() {
        let mut ids = VisitIds::new(7);
        let url = ids.materialize("https://a.com/x?sid={sid}&u={uid}");
        assert!(!url.contains('{'));
        assert!(url.contains(ids.sid()));
    }

    #[test]
    fn cache_busters_unique_per_occurrence() {
        let mut ids = VisitIds::new(7);
        let a = ids.materialize("https://a.com/p?cb={cb}");
        let b = ids.materialize("https://a.com/p?cb={cb}");
        assert_ne!(a, b);
        let both = ids.materialize("https://a.com/p?x={cb}&y={cb}");
        let parts: Vec<&str> = both.split(['=', '&']).collect();
        assert_ne!(parts[1], parts[3]);
    }

    #[test]
    fn cb_sequence_deterministic() {
        let mut a = VisitIds::new(9);
        let mut b = VisitIds::new(9);
        assert_eq!(a.materialize("u?c={cb}"), b.materialize("u?c={cb}"));
    }

    #[test]
    fn no_placeholders_is_identity() {
        let mut ids = VisitIds::new(7);
        assert_eq!(ids.materialize("https://a.com/x"), "https://a.com/x");
    }
}
