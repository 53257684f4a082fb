//! `VisitIds::materialize` against the `replace`-based writer it
//! replaced: on templates with adjacent and repeated placeholders,
//! braces around and inside them, unterminated ones and non-ASCII text,
//! every call of a sequence returns the same text, so the cache-buster
//! sequence advances alike.

use proptest::prelude::*;
use wmtree_browser::VisitIds;
use wmtree_webgen::stable_hash;

/// The replaced `materialize`: `{sid}` and `{uid}` by `replace`, then
/// each `{cb}`, first to last, by rescanning from the start.
struct Oracle {
    sid: String,
    uid: String,
    cb_counter: u64,
    cb_seed: u64,
}

impl Oracle {
    fn new(visit_seed: u64) -> Oracle {
        let ids = VisitIds::new(visit_seed);
        Oracle {
            sid: ids.sid().to_string(),
            uid: ids.uid().to_string(),
            cb_counter: 0,
            cb_seed: stable_hash(visit_seed, b"cb"),
        }
    }

    fn materialize(&mut self, template: &str) -> String {
        let mut out = template
            .replace("{sid}", &self.sid)
            .replace("{uid}", &self.uid);
        while let Some(pos) = out.find("{cb}") {
            self.cb_counter += 1;
            let cb = stable_hash(self.cb_seed, &self.cb_counter.to_le_bytes()) & 0xffff_ffff;
            out.replace_range(pos..pos + 4, &format!("{cb:08x}"));
        }
        out
    }
}

fn template() -> impl Strategy<Value = String> {
    let piece = prop::sample::select(vec![
        "{sid}",
        "{uid}",
        "{cb}",
        "{cb}",
        "{{cb}}",
        "{{sid}}",
        "{sid",
        "{uid",
        "{c{cb}b}",
        "{",
        "}",
        "cb}",
        "{cb",
        "{ cb}",
        "{CB}",
        "é",
        "日本",
        "https://a.com/p?x=",
        "&y=",
        "/",
        "",
    ]);
    prop::collection::vec(piece, 0..8).prop_map(|pieces| pieces.concat())
}

proptest! {
    #[test]
    fn materialize_agrees_with_replace(
        visit_seed in any::<u64>(),
        templates in prop::collection::vec(template(), 1..6),
    ) {
        let mut ids = VisitIds::new(visit_seed);
        let mut oracle = Oracle::new(visit_seed);
        for template in &templates {
            prop_assert_eq!(ids.materialize(template), oracle.materialize(template), "{:?}", template);
        }
    }
}
