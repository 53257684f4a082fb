//! The visit engine: a virtual-clock event loop over the fetch pipeline.

use crate::config::BrowserConfig;
use crate::placeholder::VisitIds;
use crate::record::{FrameRecord, RequestRecord, StackEntry, TriggerSource, VisitResult};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use wmtree_net::conditions::FetchOutcome;
use wmtree_net::cookie::CookieJar;
use wmtree_net::ResourceType;
use wmtree_url::Url;
use wmtree_webgen::{stable_hash, Condition, Content, Embed, StableHasher, VisitCtx, WebUniverse};

/// A configured browser bound to a universe — call [`Browser::visit`]
/// repeatedly like a crawler does.
#[derive(Debug, Clone)]
pub struct Browser<'a> {
    universe: &'a WebUniverse,
    config: BrowserConfig,
}

impl<'a> Browser<'a> {
    /// Create a browser over a universe.
    pub fn new(universe: &'a WebUniverse, config: BrowserConfig) -> Self {
        Browser { universe, config }
    }

    /// The browser's configuration.
    pub fn config(&self) -> &BrowserConfig {
        &self.config
    }

    /// Visit a page. `visit_seed` individuates this visit: give two
    /// parallel profiles different seeds and they see different ad
    /// rotations, like the paper's Sim1/Sim2 pair.
    pub fn visit(&self, page_url: &Url, visit_seed: u64) -> VisitResult {
        visit_page(self.universe, &self.config, page_url, visit_seed)
    }

    /// Stateful visit: start from an existing cookie jar (carried over
    /// from earlier pages of the same crawl) and leave the updated jar
    /// in place. The paper crawls stateless (Appendix C); this is the
    /// other arm of that design choice.
    pub fn visit_stateful(
        &self,
        page_url: &Url,
        visit_seed: u64,
        jar: &mut CookieJar,
    ) -> VisitResult {
        visit_page_with_jar(self.universe, &self.config, page_url, visit_seed, jar)
    }
}

/// A pending fetch in the virtual event queue.
#[derive(Debug, Clone)]
struct FetchTask {
    url: String,
    resource_type: ResourceType,
    frame_id: u32,
    call_stack: Vec<StackEntry>,
    trigger: TriggerSource,
    redirect_from: Option<Url>,
    /// Does this navigate a (new or top) frame?
    frame_navigation: Option<FrameNav>,
}

#[derive(Debug, Clone)]
struct FrameNav {
    frame_id: u32,
    parent_frame_id: Option<u32>,
}

/// Visit one page with one configuration, stateless (fresh cookie jar).
/// Deterministic in all inputs.
pub fn visit_page(
    universe: &WebUniverse,
    config: &BrowserConfig,
    page_url: &Url,
    visit_seed: u64,
) -> VisitResult {
    let mut jar = CookieJar::new();
    let mut visit = run_visit(universe, config, page_url, visit_seed, &mut jar);
    if visit.success {
        visit.cookies = jar.into_cookies();
    }
    visit
}

/// Visit one page starting from (and updating) an existing cookie jar.
pub fn visit_page_with_jar(
    universe: &WebUniverse,
    config: &BrowserConfig,
    page_url: &Url,
    visit_seed: u64,
    jar: &mut CookieJar,
) -> VisitResult {
    let mut visit = run_visit(universe, config, page_url, visit_seed, jar);
    if visit.success {
        visit.cookies = jar.iter().cloned().collect();
    }
    visit
}

/// Visit one page, updating `jar`. The result's `cookies` are left
/// empty: the caller fills them from the jar when the visit succeeded.
fn run_visit(
    universe: &WebUniverse,
    config: &BrowserConfig,
    page_url: &Url,
    visit_seed: u64,
    jar: &mut CookieJar,
) -> VisitResult {
    wmtree_telemetry::counter!("browser.visit.started").inc();
    let failed = || {
        wmtree_telemetry::counter!("browser.visit.failed").inc();
        VisitResult::failed(page_url.clone())
    };
    // Crawler-level failure (bot blocks, crashes, unreachable hosts).
    let fail_roll = stable_hash(visit_seed, b"visit-fail") as f64 / u64::MAX as f64;
    if fail_roll < config.visit_failure_rate {
        return failed();
    }

    let ctx = VisitCtx {
        visit_seed,
        browser_version: config.version,
        interaction: config.interaction,
        headless: config.headless,
        // A jar that already matches this page means we were here (or on
        // a sibling page) before.
        returning_visitor: jar.matching(page_url).iter().any(|c| !c.value.is_empty()),
    };
    let mut ids = VisitIds::new(visit_seed);
    let mut requests: Vec<RequestRecord> = Vec::new();
    let mut frames: Vec<FrameRecord> = Vec::new();
    let mut seen_urls: HashSet<String> = HashSet::new();
    let mut next_frame_id: u32 = 1;
    let mut next_req_id: u64 = 0;
    let mut seq: u64 = 0;
    let mut timed_out = false;
    let mut last_completed = 0u64;

    // Min-heap of (scheduled time, sequence) → task.
    let mut queue: BinaryHeap<Reverse<(u64, u64, TaskBox)>> = BinaryHeap::new();

    // Interaction fires a fixed delay after the main document completes;
    // we resolve the absolute time once the document arrives.
    let mut interaction_time: Option<u64> = None;

    let root_task = FetchTask {
        url: page_url.to_string(),
        resource_type: ResourceType::MainFrame,
        frame_id: 0,
        call_stack: Vec::new(),
        trigger: TriggerSource::Navigation,
        redirect_from: None,
        frame_navigation: Some(FrameNav {
            frame_id: 0,
            parent_frame_id: None,
        }),
    };
    queue.push(Reverse((0, seq, TaskBox(root_task))));
    seq += 1;

    let mut main_doc_loaded = false;

    while let Some(Reverse((at, _, TaskBox(task)))) = queue.pop() {
        if requests.len() >= config.max_requests {
            break;
        }
        if at >= config.page_timeout_ms {
            timed_out = true;
            continue;
        }
        // Parse the concrete URL; templates were materialized at
        // scheduling time.
        let Ok(url) = Url::parse(&task.url) else {
            continue;
        };
        // The URL as materialized is what the per-visit cache keys on
        // and what frames, call stacks and triggers record: the parsed
        // URL's serialization, unless parsing respelled it.
        let respelled = (url.as_str() != task.url).then(|| task.url.clone());

        // Per-visit cache: each distinct URL is fetched once.
        if !seen_urls.insert(task.url) {
            continue;
        }

        let outcome = config.network.sample(visit_seed, &url);
        let latency = match outcome {
            FetchOutcome::Arrived { latency_ms } => latency_ms,
            FetchOutcome::Failed | FetchOutcome::Stalled => {
                if task.frame_id == 0 && matches!(task.trigger, TriggerSource::Navigation) {
                    // Main document unreachable: the visit fails.
                    return failed();
                }
                continue;
            }
        };
        let completed = at + latency;
        let completed_clamped = completed.min(config.page_timeout_ms);
        if completed > config.page_timeout_ms {
            timed_out = true;
        }
        last_completed = last_completed.max(completed_clamped);

        let reply = universe.serve(&url, &ctx);

        // Record the request: the task's URL, stack, redirect origin and
        // trigger move into it.
        let set_cookies: Vec<String> = reply
            .content
            .set_cookies()
            .iter()
            .map(|line| ids.materialize(line))
            .collect();
        for line in &set_cookies {
            if let Some(c) = wmtree_net::cookie::Cookie::parse(line, &url) {
                jar.store(c);
            }
        }
        let FetchTask {
            resource_type,
            frame_id,
            call_stack,
            trigger,
            redirect_from,
            frame_navigation,
            ..
        } = task;
        requests.push(RequestRecord {
            id: next_req_id,
            url,
            resource_type,
            frame_id,
            call_stack,
            redirect_from,
            trigger,
            started_ms: at,
            completed_ms: completed_clamped,
            status: reply.status,
            set_cookies,
            is_frame_navigation: frame_navigation.is_some(),
        });
        next_req_id += 1;
        let record = &requests[requests.len() - 1];
        let spelled = respelled.as_deref().unwrap_or(record.url.as_str());

        // Frame bookkeeping.
        if let Some(nav) = &frame_navigation {
            frames.push(FrameRecord {
                frame_id: nav.frame_id,
                parent_frame_id: nav.parent_frame_id,
                document_url: spelled.to_string(),
            });
            if nav.frame_id == 0 {
                main_doc_loaded = true;
                interaction_time = Some(completed + config.interaction_at_ms);
            }
        }

        // Don't process children of responses that arrived post-timeout.
        if completed > config.page_timeout_ms {
            continue;
        }

        // Dispatch content.
        match &reply.content {
            Content::Redirect { to, .. } => {
                let hop = FetchTask {
                    url: ids.materialize(to),
                    resource_type,
                    frame_id,
                    call_stack: Vec::new(),
                    trigger: TriggerSource::Redirect(spelled.to_string()),
                    redirect_from: Some(record.url.clone()),
                    frame_navigation: None,
                };
                queue.push(Reverse((completed, seq, TaskBox(hop))));
                seq += 1;
            }
            content => {
                // The function a script, stylesheet, API or socket
                // child is issued from, on top of its call stack.
                let issuer = match content {
                    Content::Script { .. } => Some("issueRequest"),
                    Content::Stylesheet { .. } => Some("css-loader"),
                    Content::Api { .. } => Some("onResponse"),
                    Content::WebSocket { .. } => Some("onMessage"),
                    _ => None,
                };
                let child_trigger = || match content {
                    Content::Script { .. } | Content::Api { .. } => {
                        TriggerSource::Script(spelled.to_string())
                    }
                    Content::Stylesheet { .. } => TriggerSource::Css(spelled.to_string()),
                    Content::WebSocket { .. } => TriggerSource::WebSocketPush(spelled.to_string()),
                    _ => TriggerSource::Parser,
                };
                // The frame children belong to: a document's children run
                // in its own frame; script/css children run in the frame
                // the script belongs to.
                let child_frame = frame_id;

                for (idx, embed) in content.embeds().iter().enumerate() {
                    if !condition_holds(embed, spelled, idx, visit_seed, config) {
                        continue;
                    }
                    let mut when = completed + embed.delay_ms + 15 * idx as u64;
                    if needs_interaction(&embed.condition) {
                        // Lazy content fires at (or after) the simulated
                        // keystrokes.
                        let it = interaction_time.unwrap_or(config.interaction_at_ms);
                        when = when.max(it);
                    }
                    if matches!(content, Content::WebSocket { .. }) {
                        // Socket pushes arrive a bit after the handshake.
                        when += 400;
                    }
                    let frame_navigation = if embed.resource_type == ResourceType::SubFrame {
                        let nav = FrameNav {
                            frame_id: next_frame_id,
                            parent_frame_id: Some(child_frame),
                        };
                        next_frame_id += 1;
                        Some(nav)
                    } else {
                        None
                    };
                    let child = FetchTask {
                        url: ids.materialize(&embed.url),
                        resource_type: embed.resource_type,
                        frame_id: frame_navigation
                            .as_ref()
                            .map(|n| n.frame_id)
                            .unwrap_or(child_frame),
                        call_stack: issuer
                            .map(|function| {
                                vec![StackEntry {
                                    url: spelled.to_string(),
                                    function: function.to_string(),
                                }]
                            })
                            .unwrap_or_default(),
                        trigger: child_trigger(),
                        redirect_from: None,
                        frame_navigation,
                    };
                    queue.push(Reverse((when, seq, TaskBox(child))));
                    seq += 1;
                }
            }
        }
    }

    if !main_doc_loaded {
        return failed();
    }

    wmtree_telemetry::counter!("browser.visit.ok").inc();
    if timed_out {
        wmtree_telemetry::counter!("browser.visit.timeout").inc();
    }
    // Both are virtual-clock quantities — deterministic per seed.
    wmtree_telemetry::histogram!("browser.visit.requests").record(requests.len() as u64);
    wmtree_telemetry::histogram!("browser.visit.duration_ms").record(last_completed);

    VisitResult {
        page_url: page_url.clone(),
        success: true,
        timed_out,
        requests,
        frames,
        cookies: Vec::new(),
        duration_ms: last_completed,
    }
}

/// Evaluate an embed's condition for this visit.
fn condition_holds(
    embed: &Embed,
    parent_url: &str,
    idx: usize,
    visit_seed: u64,
    config: &BrowserConfig,
) -> bool {
    // The roll hashes the key `cond:{parent_url}:{embed url}:{idx}`.
    let roll = |p: f64| {
        let mut key = StableHasher::new(visit_seed);
        for piece in ["cond:", parent_url, ":", &embed.url, ":"] {
            key.write(piece.as_bytes());
        }
        key.write_decimal(idx as u64);
        (key.finish() as f64 / u64::MAX as f64) < p
    };
    match embed.condition {
        Condition::Always => true,
        Condition::RequiresInteraction => config.interaction,
        Condition::PerVisit(p) => roll(p),
        Condition::MinVersion(v) => config.version >= v,
        Condition::BelowVersion(v) => config.version < v,
        Condition::NotHeadless => !config.headless,
        Condition::InteractionThenPerVisit(p) => config.interaction && roll(p),
    }
}

/// Does the condition delay the load until the simulated keystrokes?
fn needs_interaction(condition: &Condition) -> bool {
    matches!(
        condition,
        Condition::RequiresInteraction | Condition::InteractionThenPerVisit(_)
    )
}

/// Wrapper giving `FetchTask` the `Ord` the heap needs (ordering is by
/// the (time, seq) key; the task itself is opaque).
#[derive(Debug, Clone)]
struct TaskBox(FetchTask);

impl PartialEq for TaskBox {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}
impl Eq for TaskBox {}
impl PartialOrd for TaskBox {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TaskBox {
    fn cmp(&self, _: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmtree_webgen::{UniverseConfig, WebUniverse};

    fn uni() -> WebUniverse {
        WebUniverse::generate(UniverseConfig {
            seed: 21,
            sites_per_bucket: [6, 3, 3, 3, 3],
            max_subpages: 10,
        })
    }

    fn reliable_browser(u: &WebUniverse) -> Browser<'_> {
        Browser::new(u, BrowserConfig::reliable())
    }

    #[test]
    fn visit_is_deterministic() {
        let u = uni();
        let b = reliable_browser(&u);
        let page = u.sites()[0].landing_url();
        let a = b.visit(&page, 42);
        let c = b.visit(&page, 42);
        assert_eq!(a, c);
    }

    #[test]
    fn different_visit_seeds_differ() {
        let u = uni();
        let b = reliable_browser(&u);
        let page = u.sites()[0].landing_url();
        let a = b.visit(&page, 1);
        let c = b.visit(&page, 2);
        let urls_a: Vec<&str> = a.requests.iter().map(|r| r.url.as_str()).collect();
        let urls_c: Vec<&str> = c.requests.iter().map(|r| r.url.as_str()).collect();
        assert_ne!(urls_a, urls_c);
    }

    #[test]
    fn visit_produces_rich_traffic() {
        let u = uni();
        let b = reliable_browser(&u);
        let page = u.sites()[0].landing_url();
        let v = b.visit(&page, 7);
        assert!(v.success);
        assert!(v.request_count() > 15, "got {}", v.request_count());
        // Main frame present.
        assert_eq!(v.frames[0].frame_id, 0);
        assert_eq!(v.frames[0].parent_frame_id, None);
        // First request is the navigation.
        assert_eq!(v.requests[0].trigger, TriggerSource::Navigation);
        assert!(v.requests[0].is_frame_navigation);
    }

    #[test]
    fn no_interaction_means_fewer_requests() {
        let u = uni();
        let with = Browser::new(&u, BrowserConfig::reliable());
        let without = Browser::new(&u, BrowserConfig::reliable().with_interaction(false));
        let mut n_with = 0usize;
        let mut n_without = 0usize;
        for (i, site) in u.sites().iter().enumerate() {
            let page = site.landing_url();
            n_with += with.visit(&page, i as u64).request_count();
            n_without += without.visit(&page, i as u64).request_count();
        }
        assert!(
            n_without < n_with,
            "NoAction should see less traffic: {n_without} vs {n_with}"
        );
    }

    #[test]
    fn old_version_loads_legacy_bundle() {
        let u = uni();
        let old = Browser::new(&u, BrowserConfig::reliable().with_version(86));
        let new = Browser::new(&u, BrowserConfig::reliable());
        let page = u.sites()[0].landing_url();
        let vo = old.visit(&page, 3);
        let vn = new.visit(&page, 3);
        let has =
            |v: &VisitResult, frag: &str| v.requests.iter().any(|r| r.url.as_str().contains(frag));
        assert!(has(&vo, "app-legacy"));
        assert!(!has(&vn, "app-legacy"));
        assert!(has(&vn, "app-v"));
        assert!(!has(&vo, "app-v"));
    }

    #[test]
    fn urls_are_deduplicated_within_visit() {
        let u = uni();
        let b = reliable_browser(&u);
        let v = b.visit(&u.sites()[0].landing_url(), 5);
        let mut seen = std::collections::HashSet::new();
        for r in &v.requests {
            assert!(seen.insert(r.url.as_str()), "duplicate request {}", r.url);
        }
    }

    #[test]
    fn scripts_have_call_stacks_on_their_loads() {
        let u = uni();
        let b = reliable_browser(&u);
        // Find a visit with analytics traffic.
        for (i, site) in u.sites().iter().enumerate() {
            let v = b.visit(&site.landing_url(), 100 + i as u64);
            if let Some(r) = v.requests.iter().find(|r| {
                r.url.host().ends_with("metricsphere.com") && r.url.path().starts_with("/collect")
            }) {
                assert_eq!(
                    r.call_stack.last().unwrap().url,
                    "https://metricsphere.com/tag.js"
                );
                return;
            }
        }
        panic!("no analytics traffic found in any visit");
    }

    #[test]
    fn subframes_get_child_frames() {
        let u = uni();
        let b = reliable_browser(&u);
        for (i, site) in u.sites().iter().enumerate() {
            let v = b.visit(&site.landing_url(), 500 + i as u64);
            if v.frames.len() > 1 {
                let sub = &v.frames[1];
                assert!(sub.parent_frame_id.is_some());
                // Requests exist within that subframe.
                assert!(v.requests.iter().any(|r| r.frame_id == sub.frame_id));
                return;
            }
        }
        panic!("no subframes observed in any visit");
    }

    #[test]
    fn redirect_chains_recorded() {
        let u = uni();
        let b = reliable_browser(&u);
        for (i, site) in u.sites().iter().enumerate() {
            let v = b.visit(&site.landing_url(), 900 + i as u64);
            if let Some(r) = v.requests.iter().find(|r| r.redirect_from.is_some()) {
                assert!(matches!(r.trigger, TriggerSource::Redirect(_)));
                return;
            }
        }
        panic!("no redirects observed — sync chains should fire sometimes");
    }

    #[test]
    fn cookies_collected() {
        let u = uni();
        let b = reliable_browser(&u);
        let v = b.visit(&u.sites()[0].landing_url(), 5);
        assert!(!v.cookies.is_empty());
        // First-party session cookie present.
        assert!(v.cookies.iter().any(|c| c.name == "fp_session"));
    }

    #[test]
    fn stateful_visits_skip_consent_on_return() {
        let u = uni();
        let b = reliable_browser(&u);
        // Find a site whose pages load the consent manager.
        for (i, site) in u.sites().iter().enumerate() {
            let fresh = b.visit(&site.landing_url(), 700 + i as u64);
            let has_cmp = |v: &VisitResult| {
                v.requests
                    .iter()
                    .any(|r| r.url.host().contains("consent-shield"))
            };
            if !has_cmp(&fresh) {
                continue;
            }
            // Stateful: first page seeds the jar, second page returns.
            let mut jar = wmtree_net::cookie::CookieJar::new();
            let first = b.visit_stateful(&site.landing_url(), 700 + i as u64, &mut jar);
            assert!(has_cmp(&first), "first stateful visit is fresh");
            assert!(!jar.is_empty(), "jar carries cookies forward");
            let second = b.visit_stateful(&site.page_url(1), 800 + i as u64, &mut jar);
            assert!(
                !has_cmp(&second),
                "returning visitor skips the consent banner"
            );
            // Stateless visit of the same page still shows it.
            let stateless = b.visit(&site.page_url(1), 800 + i as u64);
            assert!(has_cmp(&stateless));
            return;
        }
        panic!("no consent-bearing site found");
    }

    #[test]
    fn visit_failure_rate_applies() {
        let u = uni();
        let mut cfg = BrowserConfig::reliable();
        cfg.visit_failure_rate = 1.0;
        let b = Browser::new(&u, cfg);
        let v = b.visit(&u.sites()[0].landing_url(), 1);
        assert!(!v.success);
        assert_eq!(v.request_count(), 0);
    }

    #[test]
    fn timeout_truncates_deep_chains() {
        let u = uni();
        let mut cfg = BrowserConfig::reliable();
        cfg.network.base_latency_ms = 10;
        cfg.page_timeout_ms = 15; // main doc at t=10; children cut at 15
        let b = Browser::new(&u, cfg);
        let v = b.visit(&u.sites()[0].landing_url(), 5);
        assert!(v.success);
        assert!(v.timed_out);
        // Nothing starts at or after the timeout.
        assert!(v.requests.iter().all(|r| r.started_ms < 15));
        // Far fewer requests than the untimed visit.
        let full =
            Browser::new(&u, BrowserConfig::reliable()).visit(&u.sites()[0].landing_url(), 5);
        assert!(v.request_count() < full.request_count());
    }

    #[test]
    fn headless_skips_notheadless_content() {
        let u = uni();
        let gui = Browser::new(&u, BrowserConfig::reliable());
        let headless = Browser::new(&u, BrowserConfig::reliable().with_headless(true));
        // The premium ad slot is NotHeadless; find a site with ads.
        for (i, site) in u.sites().iter().enumerate() {
            let vg = gui.visit(&site.landing_url(), 40 + i as u64);
            let vh = headless.visit(&site.landing_url(), 40 + i as u64);
            let prem =
                |v: &VisitResult| v.requests.iter().any(|r| r.url.path().contains("premium"));
            if prem(&vg) {
                assert!(!prem(&vh), "headless browser must skip premium slots");
                return;
            }
        }
        panic!("no ad-bearing site found");
    }
}
