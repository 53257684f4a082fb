//! The server side of the synthetic web: URL → content dispatch.
//!
//! Every URL the universe ever emits is served here, keyed on the
//! registerable domain and path. First-party structure is stable per
//! site (derived from the universe seed); advertising and identity
//! infrastructure rotates per visit (derived from the visit seed) —
//! reproducing the variance anatomy the paper measures.
//!
//! URL placeholder convention (materialized by the browser engine):
//! `{sid}` session id, `{uid}` user id, `{cb}` unique cache-buster.
//! Per-visit *path* components (creative ids, frame ids) are baked in
//! here from the visit seed, because the paper's normalization only
//! strips query *values* — rotating paths are what make nodes unique
//! across profiles (§5.1).

use crate::content::{Condition, Content, Embed};
use crate::seed::{bounded, chance, stable_hash, SeedMixer};
use crate::universe::{RankBucket, ServerReply, SiteSpec, VisitCtx, WebUniverse};
use wmtree_net::{ResourceType, Status};
use wmtree_url::{psl, Url};

/// Site-level structural profile, derived once per (seed, site), when
/// the universe is generated.
#[derive(Debug, Clone)]
pub struct SiteProfile {
    /// Number of theme stylesheets (1–2).
    pub n_css: usize,
    /// Above-the-fold images per page (4–10).
    pub n_images_above: usize,
    /// Below-the-fold (lazy) images per page (2–6).
    pub n_images_below: usize,
    /// First-party app bundle version.
    pub app_version: u32,
    /// Embeds an analytics tag.
    pub has_analytics: bool,
    /// Uses the secondary hit counter.
    pub has_statcounter: bool,
    /// Uses a tag manager.
    pub has_tagmanager: bool,
    /// Number of display ad slots (0–4).
    pub ad_slots: usize,
    /// Embeds a consent banner.
    pub has_consent: bool,
    /// Embeds a social widget.
    pub has_social: bool,
    /// Embeds a share-count widget.
    pub has_sharebar: bool,
    /// Embeds a video player.
    pub has_video: bool,
    /// Loads webfonts from the font CDN.
    pub has_webfonts: bool,
    /// Runs a fingerprinting script.
    pub has_fingerprinting: bool,
    /// Opens a live-content WebSocket.
    pub has_websocket: bool,
    /// Has a first-party recommendations API.
    pub has_api: bool,
    /// Number of JS library CDN includes (1–3).
    pub n_cdn_libs: usize,
}

impl SiteProfile {
    /// Derive the profile of a site. Popular sites are heavier (more
    /// ads, more services) — Appendix F finds larger trees at the top
    /// of the ranking.
    pub fn derive(seed: u64, site: &SiteSpec) -> SiteProfile {
        let h = |label: &str| {
            SeedMixer::new(seed)
                .with("siteprof")
                .with(&site.domain)
                .with(label)
                .finish()
        };
        let popularity = match site.bucket {
            RankBucket::Top5k => 1.0,
            RankBucket::To10k => 0.92,
            RankBucket::To50k => 0.86,
            RankBucket::To250k => 0.76,
            RankBucket::To500k => 0.66,
        };
        let ad_slots = {
            let base = bounded(h("ads"), 100) as f64 / 100.0;
            let slots = if base < 0.42 * (2.0 - popularity) {
                0
            } else if base < 0.55 {
                1
            } else if base < 0.80 {
                2
            } else if base < 0.93 {
                3
            } else {
                4
            };
            // Popular sites monetize more aggressively (Appendix F:
            // larger trees at the top of the ranking).
            if slots > 0 && popularity >= 0.9 {
                (slots + 1).min(4)
            } else {
                slots
            }
        };
        SiteProfile {
            n_css: 1 + bounded(h("css"), 2) as usize,
            n_images_above: 2 + (8.0 * popularity) as usize + bounded(h("imga"), 4) as usize,
            n_images_below: 1 + bounded(h("imgb"), 3) as usize,
            app_version: 1 + bounded(h("appv"), 9) as u32,
            has_analytics: chance(h("ga"), 0.88 * popularity),
            has_statcounter: chance(h("sc"), 0.3),
            has_tagmanager: chance(h("tm"), 0.52 * popularity),
            ad_slots,
            has_consent: chance(h("cmp"), 0.62),
            has_social: chance(h("soc"), 0.5 * popularity),
            has_sharebar: chance(h("shr"), 0.24 * popularity),
            has_video: chance(h("vid"), 0.2 * popularity),
            has_webfonts: chance(h("wf"), 0.7),
            has_fingerprinting: chance(h("fp"), 0.10),
            has_websocket: chance(h("ws"), 0.08),
            has_api: chance(h("api"), 0.7),
            n_cdn_libs: 1 + (2.0 * popularity) as usize + bounded(h("libs"), 2) as usize,
        }
    }
}

/// Serve a URL. Top-level dispatcher. The host is dispatched on as
/// [`Url::parse`] spells it, in lowercase.
pub fn serve(universe: &WebUniverse, url: &Url, ctx: &VisitCtx) -> ServerReply {
    let site_domain = psl::etld_plus_one_lower(url.host());
    if let Some((site, profile)) = universe.site_with_profile(site_domain) {
        return first_party(universe, site, profile, url, ctx);
    }
    match site_domain {
        "metricsphere.com" => metricsphere(url, ctx),
        "statcounter-pro.net" => statcounter(url),
        "analytics-relay.com" => analytics_relay(url, ctx),
        "tagrouter.com" => tagrouter(universe, url, ctx),
        "syndicate-ads.net" => syndicate_ads(universe, url, ctx),
        "rtb-exchange.net" => rtb_exchange(universe, url, ctx),
        "bidstream-x.com" => bidstream(url),
        "bannerfarm.biz" => bannerfarm(url),
        "popmedia-ads.com" => popmedia(universe, url, ctx),
        "pixel-trail.com" => pixel_trail(url, ctx),
        "beacon-hub.io" => beacon_hub(url, ctx),
        "sync-partners.net" => sync_partners(url, ctx),
        "usertrack-cdn.net" => usertrack(url, ctx),
        "fingerprint-lab.net" => fingerprint_lab(url),
        "socialverse.com" => socialverse(url),
        "sharebar.net" => sharebar(url),
        "cdn-fastedge.net" | "staticfiles-cdn.com" | "jslibs-cdn.net" => cdn(url),
        "fontlibrary.org" => fontlibrary(url),
        "consent-shield.com" => consent_shield(url),
        "streamvid-cdn.com" => streamvid(url, ctx),
        _ => not_found(),
    }
}

fn ok(content: Content) -> ServerReply {
    ServerReply {
        status: Status::OK,
        content,
    }
}

fn not_found() -> ServerReply {
    ServerReply {
        status: Status::NOT_FOUND,
        content: Content::leaf(512),
    }
}

// ---------------------------------------------------------------------
// First party
// ---------------------------------------------------------------------

fn first_party(
    universe: &WebUniverse,
    site: &SiteSpec,
    profile: &SiteProfile,
    url: &Url,
    ctx: &VisitCtx,
) -> ServerReply {
    let seed = universe.config().seed;
    let path = url.path();

    if path == "/" || path.starts_with("/page/") {
        return site_document(seed, site, profile, url, ctx);
    }
    if path.starts_with("/assets/theme-") {
        return site_stylesheet(site, profile, path);
    }
    if path.starts_with("/assets/app-legacy") {
        return site_app_script(seed, site, profile, ctx, true);
    }
    if path.starts_with("/assets/app-v") {
        return site_app_script(seed, site, profile, ctx, false);
    }
    if path.starts_with("/api/") {
        return site_api(seed, site, url, ctx);
    }
    if path.starts_with("/img/") || path.starts_with("/fonts/") || path.starts_with("/media/") {
        return ok(Content::leaf(
            4_096 + bounded(stable_hash(seed, path.as_bytes()), 60_000),
        ));
    }
    // Anything else on a first-party host: a small static page asset.
    if url.host().starts_with("cdn.") || url.host().starts_with("static.") {
        return ok(Content::leaf(2_048));
    }
    // Unknown first-party path: sites 404 sometimes.
    not_found()
}

/// The main HTML document of a page (landing page or `/page/N`).
fn site_document(
    seed: u64,
    site: &SiteSpec,
    profile: &SiteProfile,
    url: &Url,
    ctx: &VisitCtx,
) -> ServerReply {
    let d = &site.domain;
    let page_key = url.path().to_string();
    let ph = |label: &str| {
        SeedMixer::new(seed)
            .with("page")
            .with(d)
            .with(&page_key)
            .with(label)
            .finish()
    };
    let mut embeds: Vec<Embed> = Vec::new();

    // --- First-party assets -----------------------------------------
    for t in 0..profile.n_css {
        embeds.push(Embed::always(
            format!("https://cdn.{d}/assets/theme-{t}.css"),
            ResourceType::Stylesheet,
        ));
    }
    embeds.push(
        Embed::always(
            format!(
                "https://cdn.{d}/assets/app-v{}.js?sid={{sid}}",
                profile.app_version
            ),
            ResourceType::Script,
        )
        .when(Condition::MinVersion(90)),
    );
    embeds.push(
        Embed::always(
            format!("https://cdn.{d}/assets/app-legacy.js?sid={{sid}}"),
            ResourceType::Script,
        )
        .when(Condition::BelowVersion(90)),
    );
    // Above-the-fold images: stable per page.
    let n_above = profile.n_images_above + bounded(ph("extraimg"), 3) as usize;
    for i in 0..n_above {
        let mut e = Embed::always(
            format!(
                "https://static.{d}/img{}{i}.jpg",
                page_key.replace('/', "-")
            ),
            ResourceType::Image,
        );
        // A couple of slots are A/B-tested hero banners.
        if i < 2 && chance(ph("ab"), 0.35) {
            let variant = bounded(
                stable_hash(ctx.visit_seed, format!("ab{d}{page_key}{i}").as_bytes()),
                2,
            );
            e = Embed::always(
                format!(
                    "https://static.{d}/img{}{i}-hero.jpg?v={variant}",
                    page_key.replace('/', "-")
                ),
                ResourceType::Image,
            );
        }
        embeds.push(e);
    }
    // Below-the-fold images: lazy.
    for i in 0..profile.n_images_below {
        embeds.push(
            Embed::always(
                format!(
                    "https://static.{d}/img{}lazy{i}.jpg",
                    page_key.replace('/', "-")
                ),
                ResourceType::Image,
            )
            .when(Condition::RequiresInteraction),
        );
    }
    if profile.has_api {
        embeds.push(Embed::always(
            format!(
                "https://www.{d}/api/recs?page={}&sid={{sid}}",
                page_key.replace('/', "")
            ),
            ResourceType::Xhr,
        ));
    }
    if chance(ph("promo"), 0.2) {
        embeds.push(
            Embed::always(
                format!("https://static.{d}/media/promo.mp4"),
                ResourceType::Media,
            )
            .when(Condition::PerVisit(0.5)),
        );
    }

    // --- Third-party embeds ------------------------------------------
    for k in 0..profile.n_cdn_libs {
        let lib = ["jquery", "react", "lodash", "d3", "vue"][bounded(ph("lib"), 5) as usize % 5];
        embeds.push(Embed::always(
            format!("https://jslibs-cdn.net/npm/{lib}-{}.{k}.js", 3 + k),
            ResourceType::Script,
        ));
    }
    if profile.has_webfonts {
        embeds.push(Embed::always(
            format!(
                "https://fontlibrary.org/css2?family=family{}",
                bounded(ph("fam"), 12)
            ),
            ResourceType::Stylesheet,
        ));
    }
    if profile.has_analytics {
        embeds.push(Embed::always(
            "https://metricsphere.com/tag.js",
            ResourceType::Script,
        ));
    }
    if profile.has_statcounter {
        // Hit counters sample traffic: loaded on most, not all, visits.
        embeds.push(
            Embed::always(
                "https://statcounter-pro.net/counter.js",
                ResourceType::Script,
            )
            .when(Condition::PerVisit(0.9)),
        );
    }
    if profile.has_tagmanager {
        embeds.push(Embed::always(
            format!("https://tagrouter.com/route/{d}.js"),
            ResourceType::Script,
        ));
    }
    if profile.ad_slots > 0 {
        embeds.push(Embed::always(
            format!("https://syndicate-ads.net/adloader.js?s={d}"),
            ResourceType::Script,
        ));
    }
    // Consent banners only greet fresh visitors: once the consent
    // cookie exists (stateful crawling), the CMP is not loaded again.
    // Stateless crawling — the paper's choice — re-triggers it on every
    // page, which is exactly the "lower bound" effect Appendix C notes.
    if profile.has_consent && !ctx.returning_visitor {
        embeds.push(Embed::always(
            format!("https://consent-shield.com/cmp.js?s={d}"),
            ResourceType::Script,
        ));
    }
    if profile.has_social {
        embeds.push(
            Embed::always(
                format!("https://socialverse.com/plugins/like.html?u={d}{page_key}"),
                ResourceType::SubFrame,
            )
            .when(Condition::PerVisit(0.9)),
        );
    }
    if profile.has_sharebar {
        embeds.push(
            Embed::always("https://sharebar.net/widget.js", ResourceType::Script)
                .when(Condition::PerVisit(0.85)),
        );
    }
    if profile.has_video && chance(ph("vidpage"), 0.6) {
        embeds.push(Embed::always(
            format!(
                "https://streamvid-cdn.com/embed/v{}",
                bounded(ph("vid"), 500)
            ),
            ResourceType::SubFrame,
        ));
    }
    if profile.has_fingerprinting {
        embeds.push(Embed::always(
            "https://fingerprint-lab.net/fp.min.js",
            ResourceType::Script,
        ));
    }
    if profile.has_websocket {
        embeds.push(
            Embed::always(
                format!("wss://live.beacon-hub.io/socket?ch={d}"),
                ResourceType::WebSocket,
            )
            .when(Condition::PerVisit(0.8)),
        );
    }
    if profile.ad_slots > 1 {
        // Retargeting experiment tags rotate per visit and per campaign.
        let exp = bounded(
            stable_hash(ctx.visit_seed, format!("rtg{d}").as_bytes()),
            100_000,
        );
        embeds.push(
            Embed::always(
                format!("https://bidstream-x.com/tag/exp-{exp}.js"),
                ResourceType::Script,
            )
            .when(Condition::PerVisit(0.35)),
        );
    }

    // A slice of sites UA-sniff and set SameSite only for modern
    // browsers — the same cookie identity then carries different
    // security attributes across profiles (§5.2's 440 conflicts).
    let session_cookie = if chance(ph("ua-sniff"), 0.12) && ctx.browser_version >= 90 {
        format!("fp_session={{sid}}; Path=/; Domain={d}; SameSite=Lax")
    } else {
        format!("fp_session={{sid}}; Path=/; Domain={d}")
    };
    let mut set_cookies = vec![
        session_cookie,
        format!("fp_prefs=default; Path=/; Domain={d}; Max-Age=31536000"),
    ];
    // Experiment-assignment cookie: the experiment id in the *name*
    // rotates per visit on A/B-testing sites.
    if chance(ph("abc"), 0.5) {
        // Experiments rotate per visit within a site-scoped pool, so a
        // given experiment cookie is usually seen by only some profiles.
        let exp = bounded(
            stable_hash(ctx.visit_seed, format!("abexp{d}").as_bytes()),
            8,
        );
        set_cookies.push(format!("ab_exp_{exp}=on; Path=/; Domain={d}"));
    }
    ok(Content::Document {
        embeds,
        set_cookies,
    })
}

fn site_stylesheet(site: &SiteSpec, _profile: &SiteProfile, path: &str) -> ServerReply {
    let d = &site.domain;
    let t: u32 = path
        .trim_start_matches("/assets/theme-")
        .trim_end_matches(".css")
        .parse()
        .unwrap_or(0);
    let loads = vec![
        Embed::always(
            format!("https://cdn.{d}/fonts/brand-{t}.woff2"),
            ResourceType::Font,
        ),
        Embed::always(
            format!("https://static.{d}/img/bg-{t}.png"),
            ResourceType::Image,
        ),
    ];
    ok(Content::Stylesheet { loads })
}

fn site_app_script(
    seed: u64,
    site: &SiteSpec,
    _profile: &SiteProfile,
    _ctx: &VisitCtx,
    legacy: bool,
) -> ServerReply {
    let d = &site.domain;
    let h = |label: &str| {
        SeedMixer::new(seed)
            .with("appjs")
            .with(d)
            .with(label)
            .finish()
    };
    let mut actions = vec![Embed::always(
        format!("https://www.{d}/api/state?sid={{sid}}"),
        ResourceType::Xhr,
    )];
    if legacy {
        actions.push(Embed::always(
            "https://jslibs-cdn.net/npm/polyfill-es5.js",
            ResourceType::Script,
        ));
    }
    // Infinite scroll: more content after interaction.
    let n_scroll = 1 + bounded(h("scroll"), 3) as usize;
    for i in 0..n_scroll {
        actions.push(
            Embed::always(
                format!("https://static.{d}/img/scroll-{i}.jpg"),
                ResourceType::Image,
            )
            .when(Condition::RequiresInteraction),
        );
    }
    // Scroll-depth tracking pixel: only fires after interaction and
    // sets its own cookie.
    actions.push(
        Embed::always(
            "https://pixel-trail.com/track/pixel/scroll?cb={cb}",
            ResourceType::Image,
        )
        .when(Condition::RequiresInteraction),
    );
    // Rare CSP violation reports — the least stable node type (Table 4b).
    actions.push(
        Embed::always(
            "https://analytics-relay.com/csp-report?s={sid}",
            ResourceType::CspReport,
        )
        .when(Condition::PerVisit(0.06)),
    );
    ok(Content::Script {
        actions,
        set_cookies: vec![format!("fp_js=1; Path=/; Domain={d}")],
    })
}

fn site_api(seed: u64, site: &SiteSpec, url: &Url, ctx: &VisitCtx) -> ServerReply {
    let d = &site.domain;
    if url.path().starts_with("/api/recs") {
        let h = SeedMixer::new(seed)
            .with("api")
            .with(d)
            .with(url.path())
            .finish();
        let mut follow_ups = Vec::new();
        let n = 2 + bounded(h, 3) as usize;
        for i in 0..n {
            follow_ups.push(Embed::always(
                format!("https://static.{d}/img/rec-{i}.jpg"),
                ResourceType::Image,
            ));
        }
        // One rotating recommendation per visit.
        let rot = bounded(
            stable_hash(ctx.visit_seed, format!("rec{d}").as_bytes()),
            50,
        );
        follow_ups.push(
            Embed::always(
                format!("https://static.{d}/img/rec-rot-{rot}.jpg"),
                ResourceType::Image,
            )
            .when(Condition::PerVisit(0.15)),
        );
        return ok(Content::Api {
            follow_ups,
            set_cookies: vec![],
        });
    }
    ok(Content::Api {
        follow_ups: vec![],
        set_cookies: vec![],
    })
}

// ---------------------------------------------------------------------
// Analytics & tag management
// ---------------------------------------------------------------------

fn metricsphere(url: &Url, _ctx: &VisitCtx) -> ServerReply {
    match url.path() {
        "/tag.js" => ok(Content::Script {
            actions: vec![
                Embed::always("https://metricsphere.com/config?k={sid}", ResourceType::Xhr),
                Embed::always(
                    "https://metricsphere.com/collect/pv?sid={sid}",
                    ResourceType::Beacon,
                ),
                Embed::always(
                    "https://metricsphere.com/collect/engage?sid={sid}",
                    ResourceType::Beacon,
                )
                .when(Condition::RequiresInteraction),
                Embed::always(
                    "https://metricsphere.com/collect/ab?sid={sid}",
                    ResourceType::Beacon,
                )
                .when(Condition::PerVisit(0.2)),
                Embed::always(
                    "https://metricsphere.com/collect/timing?sid={sid}&cb={cb}",
                    ResourceType::Beacon,
                )
                .when(Condition::PerVisit(0.35)),
                // Consent adapter (also loaded by CMPs): raced between
                // loaders, so the node's parent differs across visits.
                Embed::always(
                    "https://jslibs-cdn.net/npm/consent-adapter.js",
                    ResourceType::Script,
                )
                .when(Condition::PerVisit(0.55)),
                Embed::always(
                    "https://jslibs-cdn.net/npm/analytics-shim.js",
                    ResourceType::Script,
                ),
            ],
            set_cookies: vec![],
        }),
        "/config" => ok(Content::Api {
            follow_ups: vec![],
            set_cookies: vec![],
        }),
        p if p.starts_with("/collect") => {
            let mut set_cookies =
                vec!["_ms_uid={uid}; Path=/; Secure; SameSite=None; Max-Age=7776000".to_string()];
            // Engagement events (fired only after interaction) carry an
            // additional engagement cookie — the NoAction profile never
            // receives it (§5.2: NoAction observes the fewest cookies).
            if url.path().contains("/engage") {
                set_cookies.push("_ms_engage={uid}; Path=/; Secure; SameSite=None".to_string());
            }
            ok(Content::Leaf {
                body_len: 43,
                set_cookies,
            })
        }
        _ => not_found(),
    }
}

fn statcounter(url: &Url) -> ServerReply {
    match url.path() {
        "/counter.js" => ok(Content::Script {
            actions: vec![
                Embed::always(
                    "https://statcounter-pro.net/px.gif?u={uid}",
                    ResourceType::Image,
                ),
                Embed::always(
                    "https://jslibs-cdn.net/npm/analytics-shim.js",
                    ResourceType::Script,
                ),
            ],
            set_cookies: vec![],
        }),
        "/px.gif" => ok(Content::Leaf {
            body_len: 43,
            set_cookies: vec!["sc_vid={uid}; Path=/; Max-Age=2592000".into()],
        }),
        _ => not_found(),
    }
}

fn analytics_relay(url: &Url, _ctx: &VisitCtx) -> ServerReply {
    match url.path() {
        "/relay.js" => ok(Content::Script {
            actions: vec![
                Embed::always(
                    "https://analytics-relay.com/collect?e=pv&sid={sid}",
                    ResourceType::Beacon,
                ),
                Embed::always(
                    "https://analytics-relay.com/csp-report?cb={cb}",
                    ResourceType::CspReport,
                )
                .when(Condition::PerVisit(0.12)),
            ],
            set_cookies: vec![],
        }),
        p if p.starts_with("/collect") || p.starts_with("/csp-report") => ok(Content::Leaf {
            body_len: 2,
            set_cookies: vec![],
        }),
        _ => not_found(),
    }
}

fn tagrouter(universe: &WebUniverse, url: &Url, ctx: &VisitCtx) -> ServerReply {
    if let Some(site_js) = url.path().strip_prefix("/route/") {
        let site_domain = site_js.trim_end_matches(".js");
        let seed = universe.config().seed;
        let h = |label: &str| {
            SeedMixer::new(seed)
                .with("tagrouter")
                .with(site_domain)
                .with(label)
                .finish()
        };
        let mut actions = Vec::new();
        // The tag manager may route the analytics tag even when the
        // page embeds it directly — the node's loader (and thus its
        // tree parent and depth) then races between the two, which is
        // the parent instability the paper measures for third parties.
        if chance(h("ms"), 0.5) {
            actions.push(Embed::always(
                "https://metricsphere.com/tag.js",
                ResourceType::Script,
            ));
        }
        if chance(h("relay"), 0.55) {
            actions.push(Embed::always(
                "https://analytics-relay.com/relay.js",
                ResourceType::Script,
            ));
        }
        if chance(h("pop"), 0.35) {
            actions.push(Embed::always(
                format!("https://popmedia-ads.com/ads/loader.js?s={site_domain}"),
                ResourceType::Script,
            ));
        }
        if chance(h("pt"), 0.3) {
            actions.push(Embed::always(
                "https://pixel-trail.com/track/pixel/common?cb={cb}",
                ResourceType::Image,
            ));
        }
        // An experiment tag rotating per visit: unique path per visit.
        let exp = bounded(stable_hash(ctx.visit_seed, b"tagrouter-exp"), 100_000);
        actions.push(
            Embed::always(
                format!("https://bidstream-x.com/tag/exp-{exp}.js"),
                ResourceType::Script,
            )
            .when(Condition::PerVisit(0.3)),
        );
        return ok(Content::Script {
            actions,
            set_cookies: vec![],
        });
    }
    not_found()
}

// ---------------------------------------------------------------------
// Advertising
// ---------------------------------------------------------------------

/// The embedding site threaded through ad URLs as the `s=` parameter
/// (query values are stripped by the analysis normalization, so this
/// does not split node identities).
fn ad_site(url: &Url) -> String {
    url.query_pairs()
        .find(|(k, _)| *k == "s")
        .map(|(_, v)| v.to_string())
        .unwrap_or_default()
}

/// Structural nesting gate: whether this site's ad slot chain continues
/// at this depth is a property of the *site's ad configuration*, stable
/// across visits and profiles — the paper's deep levels agree across
/// identical profiles (§4.4: Sim1/Sim2 deep similarity .75), so depth
/// must be driven by structure, with per-visit noise on top.
fn structural_nest(universe: &WebUniverse, site: &str, lane: &str, depth: u32) -> bool {
    let h = SeedMixer::new(universe.config().seed)
        .with("adnest")
        .with(site)
        .with(lane)
        .with_u64(depth as u64)
        .finish();
    chance(h, nest_probability(depth))
}

/// Recursion depth parsed from the `d=` query parameter of ad URLs.
fn ad_depth(url: &Url) -> u32 {
    url.query_pairs()
        .find(|(k, _)| *k == "d")
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0)
}

/// Probability that an ad frame nests another frame, decaying with
/// depth; zero beyond the hard cap so trees stay bounded (paper max
/// observed depth: 30).
fn nest_probability(depth: u32) -> f64 {
    match depth {
        0..=2 => 0.4,
        3..=5 => 0.33,
        6..=11 => 0.27,
        12..=24 => 0.16,
        25..=27 => 0.08,
        _ => 0.0,
    }
}

fn syndicate_ads(universe: &WebUniverse, url: &Url, ctx: &VisitCtx) -> ServerReply {
    let path = url.path();
    if path == "/adloader.js" {
        // Slot count is chosen by the embedding site; the loader fires
        // up to four slots with decreasing certainty. Slot documents
        // rotate per visit through the auction id in the path.
        // The auction id rotates per visit but lives in the query
        // string, so the paper's normalization collapses it — the slot
        // documents are stable nodes (most real ad URLs rotate in
        // parameters, not paths).
        let auction = bounded(stable_hash(ctx.visit_seed, b"auction"), 1_000_000);
        let s_param = ad_site(url);
        let mut actions = vec![
            Embed::always(
                format!(
                "https://syndicate-ads.net/adserve/slot0?a={auction}&sid={{sid}}&d=1&s={s_param}"
            ),
                ResourceType::SubFrame,
            )
            .when(Condition::PerVisit(0.92)),
            Embed::always(
                format!(
                "https://syndicate-ads.net/adserve/slot1?a={auction}&sid={{sid}}&d=1&s={s_param}"
            ),
                ResourceType::SubFrame,
            )
            .when(Condition::InteractionThenPerVisit(0.85)),
            Embed::always(
                format!(
                "https://syndicate-ads.net/adserve/slot2?a={auction}&sid={{sid}}&d=1&s={s_param}"
            ),
                ResourceType::SubFrame,
            )
            .when(Condition::InteractionThenPerVisit(0.6)),
            Embed::always(
                "https://pixel-trail.com/track/pixel/common?cb={cb}",
                ResourceType::Image,
            ),
        ];
        // Rare: bot-detecting campaigns skip headless browsers.
        actions.push(
            Embed::always(
                format!(
                "https://syndicate-ads.net/adserve/premium?a={auction}&sid={{sid}}&d=1&s={s_param}"
            ),
                ResourceType::SubFrame,
            )
            .when(Condition::NotHeadless),
        );
        return ok(Content::Script {
            actions,
            set_cookies: vec![],
        });
    }
    if path.starts_with("/adserve/") {
        let depth = ad_depth(url);
        let slot_h = stable_hash(ctx.visit_seed, path.as_bytes());
        let creative = bounded(slot_h, 100_000);
        let s_param = ad_site(url);
        let mut embeds = vec![
            Embed::always(
                format!("https://syndicate-ads.net/bid.js?cb={{cb}}&d={depth}&s={s_param}"),
                ResourceType::Script,
            ),
            // Creatives live on a generic CDN (not list-flagged), like
            // real ad images often do; the rotating id is a parameter,
            // so normalization collapses it into one stable node.
            Embed::always(
                format!(
                    "https://staticfiles-cdn.com/creatives/{}.jpg?id={creative}",
                    path.trim_start_matches("/adserve/")
                ),
                ResourceType::Image,
            ),
            Embed::always(
                "https://pixel-trail.com/track/pixel/imp?cb={cb}",
                ResourceType::Image,
            ),
            Embed::always(
                "https://staticfiles-cdn.com/creatives/house.jpg?id={cb}",
                ResourceType::Image,
            ),
            Embed::always(
                "https://staticfiles-cdn.com/badges/adchoices.png",
                ResourceType::Image,
            ),
        ];
        if chance(stable_hash(slot_h, b"ws"), 0.05) {
            embeds.push(Embed::always(
                "wss://live.beacon-hub.io/socket/ads?ch={cb}",
                ResourceType::WebSocket,
            ));
        }
        return ok(Content::Document {
            embeds,
            set_cookies: vec!["sa_imp={uid}; Path=/; Secure; SameSite=None".into()],
        });
    }
    if path == "/bid.js" {
        let depth = ad_depth(url);
        let s_param = ad_site(url);
        return ok(Content::Script {
            actions: vec![
                Embed::always(
                    format!("https://syndicate-ads.net/rtb/bid?cb={{cb}}&d={depth}&s={s_param}"),
                    ResourceType::Xhr,
                ),
                // A secondary demand partner is consulted on some visits.
                Embed::always(
                    format!("https://bidstream-x.com/rtb/bid?cb={{cb}}&d={depth}"),
                    ResourceType::Xhr,
                )
                .when(Condition::PerVisit(0.3)),
            ],
            set_cookies: vec![],
        });
    }
    if path == "/rtb/log" || path == "/rtb/settle" {
        return ok(Content::Leaf {
            body_len: 2,
            set_cookies: vec![],
        });
    }
    if path == "/rtb/bid" {
        let depth = ad_depth(url);
        let s_param = ad_site(url);
        let h = stable_hash(
            ctx.visit_seed,
            format!("rtbwin{depth}{}", url.as_str()).as_bytes(),
        );
        let nest = structural_nest(universe, &s_param, "syn", depth);
        // The auction winner rotates per visit, but whether the chain
        // can continue at all is the site's slot configuration.
        let winner = if nest {
            50 + bounded(h, 50)
        } else {
            bounded(h, 45)
        };
        let mut follow_ups = Vec::new();
        if winner < 25 {
            // Direct creative win via the house pool: rotates in the
            // query, so normalization collapses it into a stable node.
            let cr = bounded(stable_hash(h, b"cr"), 100_000);
            follow_ups.push(Embed::always(
                format!("https://bannerfarm.biz/creative/view.jpg?c={cr}"),
                ResourceType::Image,
            ));
        } else if winner < 37 {
            // Campaign creative with a per-campaign *path* — the source
            // of the unique nodes of §5.1.
            let cr = bounded(stable_hash(h, b"cr"), 100_000);
            follow_ups.push(Embed::always(
                format!("https://bannerfarm.biz/creative/{cr}.jpg"),
                ResourceType::Image,
            ));
        } else if winner < 45 {
            // Occasionally the slot simply stays with the house pool.
            follow_ups.push(Embed::always(
                format!(
                    "https://bannerfarm.biz/creative/view.jpg?c={}",
                    bounded(h, 100_000)
                ),
                ResourceType::Image,
            ));
        } else if winner < 80 {
            // Exchange takes over with a nested frame.
            let f = bounded(stable_hash(h, b"fr"), 100_000);
            let frame_url = if depth >= 3 || chance(stable_hash(h, b"frkind"), 0.85) {
                // The exchange's standard frame endpoint: the creative id
                // rides in the query, so the node is stable.
                format!(
                    "https://rtb-exchange.net/frame/std?f={f}&d={}&sid={{sid}}&s={s_param}",
                    depth + 1
                )
            } else {
                // Campaign-specific frame path (rotating, often unique).
                format!(
                    "https://rtb-exchange.net/frame/c{f}?d={}&sid={{sid}}&s={s_param}",
                    depth + 1
                )
            };
            follow_ups.push(
                Embed::always(frame_url, ResourceType::SubFrame).when(Condition::PerVisit(0.9)),
            );
            follow_ups.push(Embed::always(
                format!(
                    "https://staticfiles-cdn.com/creatives/fallback.jpg?id={}",
                    bounded(h, 40)
                ),
                ResourceType::Image,
            ));
        } else {
            // Second-tier network.
            follow_ups.push(
                Embed::always(
                    format!(
                        "https://popmedia-ads.com/ads/frame0?d={}&s={s_param}",
                        depth + 1
                    ),
                    ResourceType::SubFrame,
                )
                .when(Condition::PerVisit(0.9)),
            );
        }
        // Settlement beacon fires regardless of the auction winner —
        // the stable sibling the winner-specific nodes sit next to.
        follow_ups.push(Embed::always(
            format!("https://syndicate-ads.net/rtb/settle?cb={{cb}}&d={depth}"),
            ResourceType::Beacon,
        ));
        follow_ups.push(Embed::always(
            format!("https://syndicate-ads.net/rtb/log?cb={{cb}}&d={depth}"),
            ResourceType::Beacon,
        ));
        follow_ups.push(
            Embed::always(
                "https://sync-partners.net/cookie-sync?step=0&uid={uid}",
                ResourceType::Image,
            )
            .when(Condition::PerVisit(0.25)),
        );
        return ok(Content::Api {
            follow_ups,
            set_cookies: vec!["sa_bid={uid}; Path=/; Secure; SameSite=None".into()],
        });
    }
    not_found()
}

fn rtb_exchange(universe: &WebUniverse, url: &Url, ctx: &VisitCtx) -> ServerReply {
    let path = url.path();
    let depth = ad_depth(url);
    if path.starts_with("/frame/") {
        let s_param = ad_site(url);
        let h = stable_hash(ctx.visit_seed, path.as_bytes());
        let mut embeds = vec![
            Embed::always(
                format!("https://rtb-exchange.net/xchg.js?d={depth}&cb={{cb}}&s={s_param}"),
                ResourceType::Script,
            ),
            Embed::always(
                format!(
                    "https://staticfiles-cdn.com/creatives/x.jpg?id={}",
                    bounded(h, 100_000)
                ),
                ResourceType::Image,
            ),
            Embed::always(
                "https://pixel-trail.com/track/pixel/xchg?cb={cb}",
                ResourceType::Image,
            ),
            Embed::always(
                "https://staticfiles-cdn.com/badges/adchoices.png",
                ResourceType::Image,
            ),
            Embed::always(
                "https://pixel-trail.com/track/pixel/common?cb={cb}",
                ResourceType::Image,
            )
            .when(Condition::PerVisit(0.35)),
        ];
        // The chain continues when the slot's structural configuration
        // says so (stable across profiles), with mild per-visit noise.
        if structural_nest(universe, &s_param, "xchg", depth) {
            let f = bounded(stable_hash(h, b"next"), 100_000);
            let next_url = if depth >= 3 || chance(stable_hash(h, b"nkind"), 0.85) {
                format!(
                    "https://rtb-exchange.net/frame/std?f={f}&d={}&sid={{sid}}&s={s_param}",
                    depth + 1
                )
            } else {
                format!(
                    "https://rtb-exchange.net/frame/c{f}?d={}&sid={{sid}}&s={s_param}",
                    depth + 1
                )
            };
            embeds.push(
                Embed::always(next_url, ResourceType::SubFrame).when(Condition::PerVisit(0.9)),
            );
        }
        // Frame-scoped cookie: its *name* carries the frame id, so the
        // cookie identity itself rotates per visit (the §5.2 long tail
        // of cookies seen by only one profile).
        let pool = stable_hash(0xec, path.as_bytes()) % 24;
        let frame_cookie = format!("xchg_f{pool}={{uid}}; Path=/; Secure; SameSite=None");
        return ok(Content::Document {
            embeds,
            set_cookies: vec![
                "xchg_id={uid}; Path=/; Secure; SameSite=None".into(),
                frame_cookie,
            ],
        });
    }
    if path == "/xchg.js" {
        return ok(Content::Script {
            actions: vec![
                Embed::always(
                    format!("https://rtb-exchange.net/rtb/notify?d={depth}&cb={{cb}}"),
                    ResourceType::Beacon,
                ),
                Embed::always(
                    "https://sync-partners.net/cookie-sync?step=0&uid={uid}",
                    ResourceType::Image,
                )
                .when(Condition::PerVisit(0.15)),
            ],
            set_cookies: vec![],
        });
    }
    if path.starts_with("/rtb/") {
        return ok(Content::Leaf {
            body_len: 2,
            set_cookies: vec![],
        });
    }
    not_found()
}

fn bidstream(url: &Url) -> ServerReply {
    if url.path().starts_with("/tag/") {
        return ok(Content::Script {
            actions: vec![Embed::always(
                "https://bidstream-x.com/events?e=load&cb={cb}",
                ResourceType::Beacon,
            )],
            set_cookies: vec![],
        });
    }
    if url.path().starts_with("/events") {
        return ok(Content::Leaf {
            body_len: 2,
            set_cookies: vec![],
        });
    }
    if url.path().starts_with("/rtb/bid") {
        return ok(Content::Api {
            follow_ups: vec![Embed::always(
                "https://bidstream-x.com/events?e=bidwin&cb={cb}",
                ResourceType::Beacon,
            )],
            set_cookies: vec![],
        });
    }
    not_found()
}

fn bannerfarm(url: &Url) -> ServerReply {
    if url.path() == "/creative/view.jpg" {
        return ok(Content::Leaf {
            body_len: 24_000,
            set_cookies: vec!["bf_id={uid}; Path=/; Secure; SameSite=None; Max-Age=86400".into()],
        });
    }
    if let Some(cr) = url.path().strip_prefix("/creative/") {
        // Campaign-scoped cookie name: rotates per visit, so most of
        // these cookies are observed by a single profile only (§5.2).
        let pool = stable_hash(0xbf, cr.trim_end_matches(".jpg").as_bytes()) % 24;
        let campaign_cookie = format!("bf_c{pool}={{uid}}; Path=/; Secure; SameSite=None");
        return ok(Content::Leaf {
            body_len: 24_000,
            set_cookies: vec![
                "bf_id={uid}; Path=/; Secure; SameSite=None; Max-Age=86400".into(),
                campaign_cookie,
            ],
        });
    }
    not_found()
}

fn popmedia(universe: &WebUniverse, url: &Url, ctx: &VisitCtx) -> ServerReply {
    let path = url.path();
    let depth = ad_depth(url);
    if path == "/ads/loader.js" {
        let s_param = ad_site(url);
        return ok(Content::Script {
            actions: vec![
                Embed::always(
                    format!(
                        "https://popmedia-ads.com/ads/frame0?d={}&s={s_param}",
                        depth + 1
                    ),
                    ResourceType::SubFrame,
                )
                .when(Condition::PerVisit(0.8)),
                Embed::always(
                    "https://popmedia-ads.com/ads/banner/init?cb={cb}",
                    ResourceType::Beacon,
                ),
            ],
            set_cookies: vec![],
        });
    }
    if path.starts_with("/ads/frame") {
        let s_param = ad_site(url);
        let h = stable_hash(ctx.visit_seed, path.as_bytes());
        let mut embeds = vec![
            Embed::always(
                format!(
                    "https://staticfiles-cdn.com/creatives/p.jpg?id={}",
                    bounded(h, 100_000)
                ),
                ResourceType::Image,
            ),
            Embed::always(
                "https://popmedia-ads.com/ads/banner/imp?cb={cb}",
                ResourceType::Image,
            ),
            Embed::always(
                "https://staticfiles-cdn.com/badges/adchoices.png",
                ResourceType::Image,
            ),
        ];
        // Cross-network hop back into the exchange (structural).
        if structural_nest(universe, &s_param, "pop", depth) {
            embeds.push(
                Embed::always(
                    format!(
                        "https://rtb-exchange.net/frame/std?f={}&d={}&sid={{sid}}&s={s_param}",
                        bounded(stable_hash(h, b"x"), 100_000),
                        depth + 1
                    ),
                    ResourceType::SubFrame,
                )
                .when(Condition::PerVisit(0.9)),
            );
        }
        return ok(Content::Document {
            embeds,
            set_cookies: vec![],
        });
    }
    if path.starts_with("/ads/banner/") {
        return ok(Content::Leaf {
            body_len: 43,
            set_cookies: vec![],
        });
    }
    not_found()
}

// ---------------------------------------------------------------------
// Identity / tracking infrastructure
// ---------------------------------------------------------------------

fn pixel_trail(url: &Url, ctx: &VisitCtx) -> ServerReply {
    if url.path().starts_with("/track/pixel") {
        // UA sniffing: legacy browsers received `SameSite=None` cookies
        // without the attribute (pre-SameSite default), so the *same*
        // cookie identity carries different security attributes across
        // profiles — the paper's 440 attribute-conflict cookies (§5.2).
        let attrs = if ctx.browser_version < 90 {
            "Path=/; Secure; Max-Age=31536000"
        } else {
            "Path=/; Secure; SameSite=None; Max-Age=31536000"
        };
        let mut set_cookies = vec![format!("_pt={{uid}}; {attrs}")];
        if url.path().contains("/scroll") {
            set_cookies.push("_pt_scroll={uid}; Path=/; Secure; SameSite=None".to_string());
        }
        return ok(Content::Leaf {
            body_len: 43,
            set_cookies,
        });
    }
    not_found()
}

fn beacon_hub(url: &Url, ctx: &VisitCtx) -> ServerReply {
    if url.path() == "/socket" || url.path().starts_with("/socket/") {
        let h = stable_hash(ctx.visit_seed, b"ws-push");
        return ok(Content::WebSocket {
            pushes: vec![
                Embed::always(
                    format!(
                        "https://staticfiles-cdn.com/live/tile.jpg?id={}",
                        bounded(h, 100_000)
                    ),
                    ResourceType::Image,
                )
                .when(Condition::PerVisit(0.75)),
                Embed::always(
                    "https://beacon-hub.io/beacon?e=live&cb={cb}",
                    ResourceType::Beacon,
                )
                .when(Condition::PerVisit(0.2)),
            ],
        });
    }
    if url.path().starts_with("/beacon") {
        return ok(Content::Leaf {
            body_len: 2,
            set_cookies: vec![],
        });
    }
    not_found()
}

fn sync_partners(url: &Url, ctx: &VisitCtx) -> ServerReply {
    if url.path().starts_with("/cookie-sync") {
        let step: u32 = url
            .query_pairs()
            .find(|(k, _)| *k == "step")
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or(0);
        // Chain length 1–3, decided per visit.
        let max_steps = 1 + bounded(stable_hash(ctx.visit_seed, b"synclen"), 3) as u32;
        let to = if step + 1 < max_steps {
            format!(
                "https://sync-partners.net/cookie-sync?step={}&uid={{uid}}",
                step + 1
            )
        } else {
            "https://usertrack-cdn.net/sync/receive?p=sp&uid={uid}".to_string()
        };
        return ServerReply {
            status: Status::FOUND,
            content: Content::Redirect {
                to,
                set_cookies: vec!["sp_sync={uid}; Path=/; Secure; SameSite=None".into()],
            },
        };
    }
    not_found()
}

fn usertrack(url: &Url, ctx: &VisitCtx) -> ServerReply {
    if url.path().starts_with("/sync/receive") {
        // Half the time the graph bounces one hop further.
        if chance(stable_hash(ctx.visit_seed, b"utbounce"), 0.5) {
            return ServerReply {
                status: Status::FOUND,
                content: Content::Redirect {
                    to: "https://pixel-trail.com/track/pixel/sync?cb={cb}".to_string(),
                    set_cookies: vec!["ut_id={uid}; Path=/; Secure; SameSite=None".into()],
                },
            };
        }
        return ok(Content::Leaf {
            body_len: 43,
            set_cookies: vec!["ut_id={uid}; Path=/; Secure; SameSite=None".into()],
        });
    }
    not_found()
}

fn fingerprint_lab(url: &Url) -> ServerReply {
    match url.path() {
        "/fp.min.js" => ok(Content::Script {
            actions: vec![
                Embed::always(
                    "https://fingerprint-lab.net/verify?sid={sid}",
                    ResourceType::Xhr,
                ),
                // Reported only from real (non-headless) browsers.
                Embed::always(
                    "https://fingerprint-lab.net/fp/report?cb={cb}",
                    ResourceType::Beacon,
                )
                .when(Condition::NotHeadless),
            ],
            set_cookies: vec![],
        }),
        p if p.starts_with("/verify") || p.starts_with("/fp/") => ok(Content::Leaf {
            body_len: 16,
            set_cookies: vec![],
        }),
        _ => not_found(),
    }
}

// ---------------------------------------------------------------------
// Social, consent, video, static infrastructure
// ---------------------------------------------------------------------

fn socialverse(url: &Url) -> ServerReply {
    let path = url.path();
    if path == "/plugins/like.html" {
        return ok(Content::Document {
            embeds: vec![
                Embed::always(
                    "https://socialverse.com/plugins/sdk.js",
                    ResourceType::Script,
                ),
                Embed::always(
                    "https://socialverse.com/plugins/style.css",
                    ResourceType::Stylesheet,
                ),
                Embed::always(
                    "https://jslibs-cdn.net/npm/widgets-core.js",
                    ResourceType::Script,
                ),
            ],
            set_cookies: vec!["sv_sess={sid}; Path=/; Secure; SameSite=None".into()],
        });
    }
    if path == "/plugins/sdk.js" {
        return ok(Content::Script {
            actions: vec![
                Embed::always(
                    "https://socialverse.com/plugins/count?u={sid}",
                    ResourceType::Xhr,
                ),
                Embed::always(
                    "https://socialverse.com/pixel?sid={sid}",
                    ResourceType::Image,
                )
                .when(Condition::PerVisit(0.9)),
            ],
            set_cookies: vec![],
        });
    }
    if path == "/plugins/style.css" {
        return ok(Content::Stylesheet {
            loads: vec![Embed::always(
                "https://socialverse.com/plugins/icons.woff2",
                ResourceType::Font,
            )],
        });
    }
    if path.starts_with("/plugins/count") || path.starts_with("/pixel") || path.ends_with(".woff2")
    {
        return ok(Content::leaf(1_024));
    }
    not_found()
}

fn sharebar(url: &Url) -> ServerReply {
    match url.path() {
        "/widget.js" => ok(Content::Script {
            actions: vec![
                Embed::always("https://sharebar.net/count?u={sid}", ResourceType::Xhr),
                // Widget runtime shared with other social embeds —
                // whichever loader wins the race becomes the parent.
                Embed::always(
                    "https://jslibs-cdn.net/npm/widgets-core.js",
                    ResourceType::Script,
                ),
            ],
            set_cookies: vec![],
        }),
        p if p.starts_with("/count") => ok(Content::Api {
            follow_ups: vec![],
            set_cookies: vec![],
        }),
        _ => not_found(),
    }
}

fn consent_shield(url: &Url) -> ServerReply {
    let path = url.path();
    if path == "/cmp.js" {
        return ok(Content::Script {
            actions: vec![
                Embed::always(
                    "https://consent-shield.com/cmp-frame?sid={sid}",
                    ResourceType::SubFrame,
                ),
                Embed::always(
                    "https://consent-shield.com/consent-status?sid={sid}",
                    ResourceType::Xhr,
                ),
                // Vendor-list adapter also pulled in by analytics tags —
                // whichever script runs first loads it (multi-parent).
                Embed::always(
                    "https://jslibs-cdn.net/npm/consent-adapter.js",
                    ResourceType::Script,
                ),
                // Consent-state relay shared with the tag-manager
                // ecosystem (raced at the same depth).
                Embed::always("https://analytics-relay.com/relay.js", ResourceType::Script)
                    .when(Condition::PerVisit(0.4)),
            ],
            set_cookies: vec!["cs_choice=pending; Path=/; SameSite=Lax".into()],
        });
    }
    if path == "/cmp-frame" {
        return ok(Content::Document {
            embeds: vec![
                Embed::always(
                    "https://consent-shield.com/cmp.css",
                    ResourceType::Stylesheet,
                ),
                Embed::always(
                    "https://consent-shield.com/img/shield.svg",
                    ResourceType::Image,
                ),
            ],
            set_cookies: vec![],
        });
    }
    if path == "/cmp.css" {
        return ok(Content::Stylesheet { loads: vec![] });
    }
    if path.starts_with("/consent-status") || path.starts_with("/img/") {
        return ok(Content::leaf(2_048));
    }
    not_found()
}

fn streamvid(url: &Url, ctx: &VisitCtx) -> ServerReply {
    let path = url.path();
    if let Some(vid) = path.strip_prefix("/embed/v") {
        let vid = vid.to_string();
        return ok(Content::Document {
            embeds: vec![
                Embed::always("https://streamvid-cdn.com/player.js", ResourceType::Script),
                Embed::always(
                    format!("https://streamvid-cdn.com/thumbs/{vid}.jpg"),
                    ResourceType::Image,
                ),
                Embed::always(
                    format!("https://streamvid-cdn.com/track/subtitles/{vid}.vtt"),
                    ResourceType::Other,
                ),
            ],
            set_cookies: vec![],
        });
    }
    if path == "/player.js" {
        let h = stable_hash(ctx.visit_seed, b"sv-play");
        return ok(Content::Script {
            actions: vec![
                Embed::always(
                    format!(
                        "https://streamvid-cdn.com/stream/s.mp4?v={}",
                        bounded(h, 10_000)
                    ),
                    ResourceType::Media,
                )
                .when(Condition::PerVisit(0.7)),
                Embed::always(
                    "https://beacon-hub.io/beacon?e=play&cb={cb}",
                    ResourceType::Beacon,
                )
                .when(Condition::PerVisit(0.65)),
            ],
            set_cookies: vec![],
        });
    }
    ok(Content::leaf(8_192))
}

fn cdn(url: &Url) -> ServerReply {
    let path = url.path();
    if path.ends_with(".js") {
        // Library scripts execute but load nothing further.
        return ok(Content::Script {
            actions: vec![],
            set_cookies: vec![],
        });
    }
    if path.ends_with(".css") {
        return ok(Content::Stylesheet { loads: vec![] });
    }
    ok(Content::leaf(16_384))
}

fn fontlibrary(url: &Url) -> ServerReply {
    if url.path().starts_with("/css2") {
        let family = url
            .query_pairs()
            .find(|(k, _)| *k == "family")
            .map(|(_, v)| v.to_string())
            .unwrap_or_else(|| "family0".to_string());
        return ok(Content::Stylesheet {
            loads: vec![
                Embed::always(
                    format!("https://fontlibrary.org/files/{family}-400.woff2"),
                    ResourceType::Font,
                ),
                Embed::always(
                    format!("https://fontlibrary.org/files/{family}-700.woff2"),
                    ResourceType::Font,
                ),
            ],
        });
    }
    ok(Content::leaf(48_000))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::{UniverseConfig, WebUniverse};

    fn uni() -> WebUniverse {
        WebUniverse::generate(UniverseConfig {
            seed: 11,
            sites_per_bucket: [8, 4, 4, 4, 4],
            max_subpages: 12,
        })
    }

    fn u(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    #[test]
    fn landing_page_is_document_with_embeds() {
        let uni = uni();
        let site = &uni.sites()[0];
        let reply = uni.serve(&site.landing_url(), &VisitCtx::standard(1));
        assert!(reply.status.is_success());
        match reply.content {
            Content::Document {
                ref embeds,
                ref set_cookies,
            } => {
                assert!(
                    embeds.len() >= 10,
                    "page should embed many elements, got {}",
                    embeds.len()
                );
                assert!(!set_cookies.is_empty());
            }
            other => panic!("expected document, got {other:?}"),
        }
    }

    #[test]
    fn serve_is_deterministic_per_visit() {
        let uni = uni();
        let site = &uni.sites()[0];
        let ctx = VisitCtx::standard(77);
        let a = uni.serve(&site.landing_url(), &ctx);
        let b = uni.serve(&site.landing_url(), &ctx);
        assert_eq!(a, b);
    }

    #[test]
    fn ad_rotation_varies_per_visit() {
        let uni = uni();
        // The adloader emits a per-visit auction path.
        let url = u("https://syndicate-ads.net/adloader.js?s=x.com");
        let a = uni.serve(&url, &VisitCtx::standard(1));
        let b = uni.serve(&url, &VisitCtx::standard(2));
        assert_ne!(a, b, "auction ids must rotate per visit");
    }

    #[test]
    fn site_structure_stable_across_profiles() {
        let uni = uni();
        let site = &uni.sites()[0];
        // Same visit seed, different browser flags: the *served document*
        // is identical; conditions are applied by the browser.
        let a = uni.serve(
            &site.landing_url(),
            &VisitCtx {
                visit_seed: 5,
                browser_version: 95,
                interaction: true,
                headless: false,
                returning_visitor: false,
            },
        );
        let b = uni.serve(
            &site.landing_url(),
            &VisitCtx {
                visit_seed: 5,
                browser_version: 86,
                interaction: false,
                headless: true,
                returning_visitor: false,
            },
        );
        assert_eq!(a, b);
    }

    #[test]
    fn unknown_host_is_404() {
        let uni = uni();
        let reply = uni.serve(
            &u("https://not-a-real-host.example/x"),
            &VisitCtx::standard(1),
        );
        assert_eq!(reply.status, Status::NOT_FOUND);
    }

    #[test]
    fn ad_chain_depth_capped() {
        assert!(nest_probability(0) >= 0.4);
        assert!(nest_probability(10) > 0.0);
        assert_eq!(nest_probability(28), 0.0);
        assert_eq!(nest_probability(100), 0.0);
    }

    #[test]
    fn site_param_threads_through_ad_chain() {
        // The s= parameter set by the document's adloader embed must
        // survive into slot frames, bid scripts, and RTB calls so the
        // structural-nesting gate can key on the site.
        let uni = uni();
        let ctx = VisitCtx::standard(4);
        let loader = uni.serve(
            &u("https://syndicate-ads.net/adloader.js?s=my-site.com"),
            &ctx,
        );
        let slot_url = loader
            .content
            .embeds()
            .iter()
            .find(|e| e.url.contains("/adserve/slot0"))
            .expect("slot0 embed")
            .url
            .replace("{sid}", "x");
        assert!(slot_url.contains("s=my-site.com"), "{slot_url}");
        let slot = uni.serve(&u(&slot_url), &ctx);
        let bid_url = slot
            .content
            .embeds()
            .iter()
            .find(|e| e.url.contains("bid.js"))
            .expect("bid.js embed")
            .url
            .replace("{cb}", "1");
        assert!(bid_url.contains("s=my-site.com"), "{bid_url}");
    }

    #[test]
    fn structural_nesting_is_site_stable() {
        // The nesting decision for a given (site, lane, depth) must not
        // depend on the visit at all.
        let uni = uni();
        for depth in 0..6 {
            let a = structural_nest(&uni, "site-a.com", "syn", depth);
            let b = structural_nest(&uni, "site-a.com", "syn", depth);
            assert_eq!(a, b);
        }
        // And different sites get different configurations somewhere.
        let diverse = (0..40).any(|i| {
            structural_nest(&uni, &format!("site-{i}.com"), "syn", 1)
                != structural_nest(&uni, &format!("site-{}.com", i + 100), "syn", 1)
        });
        assert!(diverse);
    }

    #[test]
    fn ua_sniffed_cookie_attributes_differ_by_version() {
        let uni = uni();
        let px = u("https://pixel-trail.com/track/pixel/imp?cb=1");
        let old = VisitCtx {
            browser_version: 86,
            ..VisitCtx::standard(1)
        };
        let new = VisitCtx::standard(1);
        let c_old = uni.serve(&px, &old).content.set_cookies()[0].clone();
        let c_new = uni.serve(&px, &new).content.set_cookies()[0].clone();
        assert!(!c_old.contains("SameSite"), "{c_old}");
        assert!(c_new.contains("SameSite=None"), "{c_new}");
    }

    #[test]
    fn sync_chain_redirects_then_terminates() {
        let uni = uni();
        let ctx = VisitCtx::standard(3);
        let mut url = u("https://sync-partners.net/cookie-sync?step=0&uid=abc");
        let mut hops = 0;
        loop {
            let reply = uni.serve(&url, &ctx);
            match reply.content {
                Content::Redirect { to, .. } => {
                    hops += 1;
                    assert!(hops < 10, "sync chain must terminate");
                    url = u(&to.replace("{uid}", "abc").replace("{cb}", "1"));
                }
                Content::Leaf { .. } => break,
                other => panic!("unexpected sync content {other:?}"),
            }
        }
        assert!(hops >= 1);
    }

    #[test]
    fn csp_reports_are_rare_and_conditional() {
        let uni = uni();
        let site = &uni.sites()[0];
        let profile = SiteProfile::derive(uni.config().seed, site);
        let url = u(&format!(
            "https://cdn.{}/assets/app-v{}.js?sid=x",
            site.domain, profile.app_version
        ));
        let reply = uni.serve(&url, &VisitCtx::standard(1));
        let actions = reply.content.embeds();
        let csp: Vec<_> = actions
            .iter()
            .filter(|e| e.resource_type == ResourceType::CspReport)
            .collect();
        assert_eq!(csp.len(), 1);
        assert!(matches!(csp[0].condition, Condition::PerVisit(p) if p < 0.2));
    }

    #[test]
    fn lazy_images_require_interaction() {
        let uni = uni();
        let site = &uni.sites()[0];
        let reply = uni.serve(&site.landing_url(), &VisitCtx::standard(1));
        let lazy = reply
            .content
            .embeds()
            .iter()
            .filter(|e| e.condition == Condition::RequiresInteraction)
            .count();
        assert!(lazy >= 2, "pages must have lazy content, got {lazy}");
    }

    #[test]
    fn legacy_and_modern_bundles_are_version_gated() {
        let uni = uni();
        let site = &uni.sites()[0];
        let reply = uni.serve(&site.landing_url(), &VisitCtx::standard(1));
        let embeds = reply.content.embeds();
        assert!(embeds
            .iter()
            .any(|e| matches!(e.condition, Condition::MinVersion(_))));
        assert!(embeds
            .iter()
            .any(|e| matches!(e.condition, Condition::BelowVersion(_))));
    }

    #[test]
    fn every_service_domain_serves_something() {
        // Smoke-check the canonical endpoint of each service.
        let uni = uni();
        let ctx = VisitCtx::standard(9);
        let endpoints = [
            "https://metricsphere.com/tag.js",
            "https://statcounter-pro.net/counter.js",
            "https://analytics-relay.com/relay.js",
            "https://tagrouter.com/route/some-site.com.js",
            "https://syndicate-ads.net/adloader.js",
            "https://rtb-exchange.net/frame/f1?d=2",
            "https://bidstream-x.com/tag/exp-5.js",
            "https://bannerfarm.biz/creative/7.jpg",
            "https://popmedia-ads.com/ads/loader.js",
            "https://pixel-trail.com/track/pixel?cb=1",
            "wss://live.beacon-hub.io/socket?ch=x",
            "https://sync-partners.net/cookie-sync?step=0&uid=a",
            "https://usertrack-cdn.net/sync/receive?p=sp&uid=a",
            "https://fingerprint-lab.net/fp.min.js",
            "https://socialverse.com/plugins/like.html?u=x",
            "https://sharebar.net/widget.js",
            "https://cdn-fastedge.net/lib/jquery.js",
            "https://staticfiles-cdn.com/creatives/c1.jpg",
            "https://jslibs-cdn.net/npm/react-17.js",
            "https://fontlibrary.org/css2?family=family3",
            "https://consent-shield.com/cmp.js?s=x",
            "https://streamvid-cdn.com/embed/v7",
        ];
        for e in endpoints {
            let reply = uni.serve(&u(e), &ctx);
            assert!(
                reply.status.is_success() || reply.status.is_redirect(),
                "{e} returned {}",
                reply.status
            );
        }
    }
}
