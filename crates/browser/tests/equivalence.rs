//! `VisitIds::materialize` against the `replace`-based writer it
//! replaced: on templates with adjacent and repeated placeholders,
//! braces around and inside them, unterminated ones and non-ASCII text,
//! every call of a sequence returns the same text, so the cache-buster
//! sequence advances alike.
//!
//! `Browser::navigate` against the visit it starts: a navigation
//! succeeds exactly when `Browser::visit` returns a successful visit,
//! over browser configurations across their whole range (any failure
//! rates, a page timeout and request cap of zero or one) and over every
//! page and profile of Tiny crawls.

use proptest::prelude::*;
use std::sync::OnceLock;
use wmtree_browser::{Browser, BrowserConfig, VisitIds};
use wmtree_url::Url;
use wmtree_webgen::{stable_hash, UniverseConfig, WebUniverse};

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

/// A probability in [0, 1], its ends included.
fn rate() -> impl Strategy<Value = f64> {
    (0u8..4, any::<f64>()).prop_map(|(end, p)| match end {
        0 => 0.0,
        1 => 1.0,
        _ => p,
    })
}

/// A browser configuration anywhere in its range.
fn config() -> impl Strategy<Value = BrowserConfig> {
    let rates = (rate(), rate(), rate());
    let caps = (
        prop::sample::select(vec![0u64, 1, 30_000]),
        prop::sample::select(vec![0usize, 1, 5_000]),
    );
    let knobs = (
        prop::sample::select(vec![86u32, 95]),
        any::<bool>(),
        any::<bool>(),
    );
    (rates, caps, knobs).prop_map(
        |(
            (visit_failure, failure, stall),
            (timeout, max_requests),
            (version, interaction, headless),
        )| {
            let mut config = BrowserConfig::default()
                .with_version(version)
                .with_interaction(interaction)
                .with_headless(headless);
            config.visit_failure_rate = visit_failure;
            config.network.failure_rate = failure;
            config.network.stall_rate = stall;
            config.page_timeout_ms = timeout;
            config.max_requests = max_requests;
            config
        },
    )
}

/// The Tiny universe at `seed`: 30 sites, up to 5 subpages each.
fn tiny(seed: u64) -> WebUniverse {
    WebUniverse::generate(UniverseConfig {
        seed,
        sites_per_bucket: [10, 5, 5, 5, 5],
        max_subpages: 5,
    })
}

fn universe() -> &'static WebUniverse {
    static UNIVERSE: OnceLock<WebUniverse> = OnceLock::new();
    UNIVERSE.get_or_init(|| tiny(0x2023_11ac))
}

/// A page of the universe, or one past a site's last subpage.
fn page() -> impl Strategy<Value = Url> {
    let sites = universe().sites().len();
    (0..sites, 0usize..8).prop_map(|(site, n)| universe().sites()[site].page_url(n))
}

proptest! {
    #[test]
    fn navigation_succeeds_exactly_when_the_visit_does(
        config in config(),
        page in page(),
        visit_seed in any::<u64>(),
    ) {
        let browser = Browser::new(universe(), config);
        let navigated = browser.navigate(&page, visit_seed).is_some();
        let visit = browser.visit(&page, visit_seed);
        prop_assert_eq!(navigated, visit.success, "{:?} {}", browser.config(), page);
    }
}

/// Every page and profile of Tiny crawls at three universe seeds (each
/// site's landing page and first three subpages, a superset of what
/// discovery keeps), with the crawler's visit seeds, under the five
/// Table 1 profiles' default and reliable configurations.
#[test]
fn navigation_decides_every_visit_of_tiny_crawls() {
    // (version, user interaction, headless) of Old, Sim1, Sim2,
    // NoAction and Headless.
    let profiles = [
        (86, true, false),
        (95, true, false),
        (95, true, false),
        (95, false, false),
        (95, true, true),
    ];
    let (mut visits, mut failed) = (0, 0);
    for seed in [0x2023_11ac, 1, 0x7e1e] {
        let universe = tiny(seed);
        for (profile, &(version, interaction, headless)) in profiles.iter().enumerate() {
            let default = BrowserConfig::default()
                .with_version(version)
                .with_interaction(interaction)
                .with_headless(headless);
            let mut reliable = default.clone();
            reliable.visit_failure_rate = 0.0;
            reliable.network.failure_rate = 0.0;
            reliable.network.stall_rate = 0.0;
            for config in [default, reliable] {
                let browser = Browser::new(&universe, config);
                for site in universe.sites() {
                    for page in (0..4.min(site.n_subpages + 1)).map(|n| site.page_url(n)) {
                        let visit_seed = stable_hash(
                            0x1317,
                            format!("visit:{profile}:{}", page.as_str()).as_bytes(),
                        );
                        let navigated = browser.navigate(&page, visit_seed).is_some();
                        let visit = browser.visit(&page, visit_seed);
                        assert_eq!(navigated, visit.success, "{page} profile {profile}");
                        visits += 1;
                        failed += usize::from(!navigated);
                    }
                }
            }
        }
    }
    // The default configurations fail some of them.
    assert!(visits > 1_000 && failed > 0, "{failed} of {visits} failed");
}
