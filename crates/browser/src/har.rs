//! HAR-style export of a visit — the interchange format web tooling
//! expects. A [`VisitResult`] maps onto the HTTP Archive structure
//! (log → entries with request/response/timings), letting the simulated
//! traffic be inspected with standard HAR viewers.

use crate::record::{TriggerSource, VisitResult};
use serde::{Deserialize, Serialize};

/// Root of a HAR document.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Har {
    /// The single `log` member required by the HAR spec.
    pub log: HarLog,
}

/// The HAR log.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HarLog {
    /// HAR format version.
    pub version: String,
    /// Creator tool info.
    pub creator: HarCreator,
    /// One page entry (the visit).
    pub pages: Vec<HarPage>,
    /// One entry per request.
    pub entries: Vec<HarEntry>,
}

/// Creator metadata.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HarCreator {
    /// Tool name.
    pub name: String,
    /// Tool version.
    pub version: String,
}

/// A page record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HarPage {
    /// Page id referenced by entries.
    pub id: String,
    /// Page title (the URL).
    pub title: String,
    /// Virtual start time, serialized as milliseconds-from-zero.
    #[serde(rename = "startedDateTime")]
    pub started: String,
    /// Page timings.
    #[serde(rename = "pageTimings")]
    pub timings: HarPageTimings,
}

/// Page-level timings.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HarPageTimings {
    /// Virtual load-complete time in ms.
    #[serde(rename = "onLoad")]
    pub on_load: u64,
}

/// One request/response pair.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HarEntry {
    /// Owning page id.
    pub pageref: String,
    /// Virtual start offset in ms.
    #[serde(rename = "startedDateTime")]
    pub started: String,
    /// Total entry time in ms.
    pub time: u64,
    /// Request part.
    pub request: HarRequest,
    /// Response part.
    pub response: HarResponse,
    /// Non-standard extension fields carrying the measurement signals
    /// the dependency-tree builder consumes.
    #[serde(rename = "_wmtree")]
    pub wmtree: HarExt,
}

/// Request part of an entry.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HarRequest {
    /// Method.
    pub method: String,
    /// Full URL.
    pub url: String,
}

/// Response part of an entry.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HarResponse {
    /// HTTP status code.
    pub status: u16,
    /// `Set-Cookie` lines observed.
    #[serde(rename = "setCookies")]
    pub set_cookies: Vec<String>,
}

/// wmtree extension fields.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HarExt {
    /// Resource type label.
    #[serde(rename = "resourceType")]
    pub resource_type: String,
    /// Frame id.
    #[serde(rename = "frameId")]
    pub frame_id: u32,
    /// Latest call-stack entry URL, if any.
    #[serde(rename = "initiatorScript")]
    pub initiator_script: Option<String>,
    /// Redirect source, if any.
    #[serde(rename = "redirectFrom")]
    pub redirect_from: Option<String>,
    /// Trigger classification.
    pub trigger: String,
}

/// Convert a visit to HAR.
pub fn to_har(visit: &VisitResult) -> Har {
    let page_id = "page_0".to_string();
    let entries = visit
        .requests
        .iter()
        .map(|r| HarEntry {
            pageref: page_id.clone(),
            started: format!("{}ms", r.started_ms),
            time: r.completed_ms.saturating_sub(r.started_ms),
            request: HarRequest {
                method: "GET".into(),
                url: r.url.to_string(),
            },
            response: HarResponse {
                status: r.status.0,
                set_cookies: r.set_cookies.clone(),
            },
            wmtree: HarExt {
                resource_type: r.resource_type.label().to_string(),
                frame_id: r.frame_id,
                initiator_script: r.call_stack.last().map(|e| e.url.clone()),
                redirect_from: r.redirect_from.as_ref().map(|u| u.to_string()),
                trigger: match &r.trigger {
                    TriggerSource::Parser => "parser".into(),
                    TriggerSource::Script(_) => "script".into(),
                    TriggerSource::Css(_) => "css".into(),
                    TriggerSource::Redirect(_) => "redirect".into(),
                    TriggerSource::WebSocketPush(_) => "websocket".into(),
                    TriggerSource::Navigation => "navigation".into(),
                },
            },
        })
        .collect();
    Har {
        log: HarLog {
            version: "1.2".into(),
            creator: HarCreator {
                name: "wmtree".into(),
                version: env!("CARGO_PKG_VERSION").into(),
            },
            pages: vec![HarPage {
                id: page_id,
                title: visit.page_url.to_string(),
                started: "0ms".into(),
                timings: HarPageTimings {
                    on_load: visit.duration_ms,
                },
            }],
            entries,
        },
    }
}

/// Serialize a visit directly to HAR JSON.
pub fn to_har_json(visit: &VisitResult) -> String {
    // In-memory serialization of derive(Serialize) data is infallible.
    serde_json::to_string_pretty(&to_har(visit)).expect("HAR serializes") // wmtree-lint: allow(WM0105)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Browser, BrowserConfig};
    use wmtree_webgen::{UniverseConfig, WebUniverse};

    fn visit() -> VisitResult {
        let u = WebUniverse::generate(UniverseConfig {
            seed: 71,
            sites_per_bucket: [3, 1, 1, 1, 1],
            max_subpages: 4,
        });
        Browser::new(&u, BrowserConfig::reliable()).visit(&u.sites()[0].landing_url(), 5)
    }

    #[test]
    fn har_has_all_requests() {
        let v = visit();
        let har = to_har(&v);
        assert_eq!(har.log.entries.len(), v.requests.len());
        assert_eq!(har.log.pages.len(), 1);
        assert_eq!(har.log.version, "1.2");
        assert_eq!(har.log.pages[0].title, v.page_url.as_str());
    }

    #[test]
    fn har_preserves_measurement_signals() {
        let v = visit();
        let har = to_har(&v);
        // Navigation entry first.
        assert_eq!(har.log.entries[0].wmtree.trigger, "navigation");
        // Some entry carries an initiator script (call stack).
        assert!(har
            .log
            .entries
            .iter()
            .any(|e| e.wmtree.initiator_script.is_some()));
    }

    #[test]
    fn har_json_parses_back() {
        let v = visit();
        let json = to_har_json(&v);
        let back: Har = serde_json::from_str(&json).unwrap();
        assert_eq!(back.log.entries.len(), v.requests.len());
        // Field renames applied (camelCase HAR names).
        assert!(json.contains("startedDateTime"));
        assert!(json.contains("_wmtree"));
    }
}
