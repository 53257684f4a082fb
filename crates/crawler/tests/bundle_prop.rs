//! Property tests of the bundle archive: any database — failed visits,
//! idle profiles, empty databases, and complete visits with requests,
//! frames and cookies of every shape — round-trips through
//! write-bundle → read-bundle unchanged, a header-only decode of every
//! stored object is its full decode without requests and frames, and a
//! single flipped byte in a segment surfaces as a checksum error naming
//! the exact location.

use proptest::prelude::*;
use wmtree_browser::{FrameRecord, RequestRecord, StackEntry, TriggerSource};
use wmtree_bundle::{object, BundleError, BundleMeta};
use wmtree_crawler::{read_bundle, write_bundle, CrawlDb, PageKey, VisitResult};
use wmtree_net::cookie::{Cookie, SameSite};
use wmtree_net::{ResourceType, Status};
use wmtree_url::Url;
use wmtree_webgen::stable_hash;

/// Deterministic pseudo-random database: sites × pages × profiles with
/// per-slot presence (idle profiles), success/failure, and payload
/// variation all derived from `seed`.
fn synth_db(seed: u64, n_profiles: usize, n_sites: usize, pages_per_site: usize) -> CrawlDb {
    let mut db = CrawlDb::new(n_profiles);
    for s in 0..n_sites {
        let site = format!("site-{s}.com");
        for p in 0..pages_per_site {
            let url = format!("https://www.{site}/page/{p}");
            for profile in 0..n_profiles {
                let bits = stable_hash(seed, format!("{site}:{p}:{profile}").as_bytes());
                // Idle profile slot: one slot in eight is never visited.
                if bits.is_multiple_of(8) {
                    continue;
                }
                let mut visit = VisitResult::failed(
                    Url::parse(&url)
                        .unwrap_or_else(|e| panic!("synthetic url must parse: {url}: {e:?}")),
                );
                visit.success = bits % 4 != 1;
                visit.timed_out = bits % 16 == 2;
                // Low variation so identical payloads occur and the
                // dedup path is exercised; duration 0 keeps failures
                // byte-identical across pages.
                visit.duration_ms = if visit.success { (bits >> 8) % 3 } else { 0 };
                db.insert(
                    PageKey {
                        site: site.clone(),
                        url: url.clone(),
                    },
                    profile,
                    visit,
                );
            }
        }
    }
    db
}

/// Text that needs JSON escapes, or is not ASCII, picked by `bits`.
fn text(bits: u64) -> String {
    const PIECES: [&str; 10] = [
        "a",
        "\"",
        "\\",
        "\u{0}\t\n",
        "\u{1f}",
        "é",
        "😀",
        "\u{2028}",
        " ",
        "/",
    ];
    (0..bits % 5)
        .map(|i| PIECES[((bits >> (4 * i)) % 10) as usize])
        .collect()
}

/// A complete visit drawn from `bits`. Across a few visits it covers
/// every `TriggerSource`, call stacks, redirects, cookie lines, jar
/// cookies with every `SameSite` value, a negative `Max-Age` and
/// `Expires`, nested frames, URLs with a port, an empty query, a query
/// and a fragment, and strings with JSON escapes and non-ASCII text.
fn complete_visit(bits: u64, page: &str) -> VisitResult {
    let page_url = Url::parse(page).unwrap_or_else(|e| panic!("page url {page}: {e:?}"));
    let mut visit = VisitResult::failed(page_url.clone());
    visit.success = !bits.is_multiple_of(5);
    visit.timed_out = bits.is_multiple_of(7);
    visit.duration_ms = bits % 100_000;
    let word = |i: u64| stable_hash(bits, &i.to_le_bytes());
    let urls: Vec<Url> = (0..1 + bits % 9)
        .map(|i| {
            let w = word(i);
            let raw = match w % 5 {
                0 => format!(
                    "https://cdn{}.a-b.com:{}/p{}",
                    w % 3,
                    1 + w % 65535,
                    text(w >> 8)
                ),
                1 => format!("http://img.x.net/i{}.png?", w % 7),
                2 => format!("https://t.y.org/px?uid={}&v={}", w % 1000, text(w >> 12)),
                3 => format!("https://f.z.io/a#{}", text(w >> 16)),
                _ => format!("wss://bücher.de/s?q={}#f", text(w >> 20)),
            };
            Url::parse(&raw).unwrap_or_else(|e| panic!("url {raw}: {e:?}"))
        })
        .collect();
    for (i, url) in urls.iter().enumerate() {
        let w = word(100 + i as u64);
        // A URL-valued string: some request's URL, or free text.
        let linked = |w: u64| match w % 3 {
            0 => text(w >> 4),
            _ => urls[(w >> 2) as usize % urls.len()].as_str(),
        };
        let trigger = match w % 6 {
            0 => TriggerSource::Parser,
            1 => TriggerSource::Script(linked(w >> 3)),
            2 => TriggerSource::Css(linked(w >> 5)),
            3 => TriggerSource::Redirect(linked(w >> 7)),
            4 => TriggerSource::WebSocketPush(linked(w >> 9)),
            _ => TriggerSource::Navigation,
        };
        visit.requests.push(RequestRecord {
            id: w >> 11,
            url: url.clone(),
            resource_type: ResourceType::ANALYSED[(w >> 13) as usize % 12],
            frame_id: (w >> 17) as u32 % 4,
            call_stack: (0..(w >> 19) % 3)
                .map(|j| StackEntry {
                    url: linked(w >> (21 + j)),
                    function: text(w >> (23 + j)),
                })
                .collect(),
            redirect_from: ((w >> 25) % 4 == 0).then(|| match (w >> 27) % 2 {
                0 => urls[0].clone(),
                _ => page_url.clone(),
            }),
            trigger,
            started_ms: w % 1000,
            completed_ms: w % 100_000,
            status: Status((w >> 29) as u16),
            set_cookies: (0..(w >> 31) % 3)
                .map(|j| format!("c{j}={}; Path=/", text(w >> (33 + j))))
                .collect(),
            is_frame_navigation: (w >> 35) % 2 == 0,
        });
    }
    // Nested frames: each frame's parent is an earlier one.
    for f in 0..bits % 4 {
        visit.frames.push(FrameRecord {
            frame_id: f as u32,
            parent_frame_id: (f > 0).then(|| (word(200 + f) % f) as u32),
            document_url: urls[(word(300 + f) % urls.len() as u64) as usize].as_str(),
        });
    }
    let same_site = [
        None,
        Some(SameSite::Strict),
        Some(SameSite::Lax),
        Some(SameSite::None),
    ];
    for c in 0..(bits >> 8) % 5 {
        let w = word(400 + c);
        visit.cookies.push(Cookie {
            name: format!("k{c}{}", text(w)),
            value: text(w >> 8),
            domain: "a-b.com".into(),
            host_only: w % 2 == 0,
            path: "/".into(),
            secure: (w >> 1) % 2 == 0,
            http_only: (w >> 2) % 2 == 0,
            same_site: same_site[(w >> 3) as usize % 4],
            max_age: match (w >> 5) % 3 {
                0 => None,
                1 => Some(-((w >> 7) as i64 % 1000) - 1),
                _ => Some((w >> 7) as i64),
            },
            expires: ((w >> 9) % 2 == 0).then(|| format!("Wed, 21 Oct 2015 {}", text(w >> 11))),
        });
    }
    visit
}

/// A database of complete visits: every slot of every page visited.
fn complete_db(seed: u64, n_profiles: usize, n_sites: usize, pages_per_site: usize) -> CrawlDb {
    let mut db = CrawlDb::new(n_profiles);
    for s in 0..n_sites {
        let site = format!("site-{s}.com");
        for p in 0..pages_per_site {
            let url = format!("https://www.{site}/page/{p}");
            for profile in 0..n_profiles {
                let bits = stable_hash(seed, format!("{site}:{p}:{profile}").as_bytes());
                let page = PageKey {
                    site: site.clone(),
                    url: url.clone(),
                };
                db.insert(page, profile, complete_visit(bits, &url));
            }
        }
    }
    db
}

/// The payloads of every object the bundle at `dir` stores.
fn stored_objects(dir: &std::path::Path) -> Vec<String> {
    let mut segments: Vec<_> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("list bundle: {e}"))
        .map(|e| e.unwrap_or_else(|e| panic!("dir entry: {e}")).path())
        .filter(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("objects-"))
        })
        .collect();
    segments.sort();
    segments
        .iter()
        .flat_map(|seg| {
            let text = std::fs::read_to_string(seg).unwrap_or_else(|e| panic!("read segment: {e}"));
            text.lines()
                .map(|line| line[17..].to_string())
                .collect::<Vec<_>>()
        })
        .collect()
}

fn meta_for(db: &CrawlDb, seed: u64) -> BundleMeta {
    BundleMeta {
        n_profiles: db.n_profiles(),
        profiles: (0..db.n_profiles()).map(|i| format!("P{i}")).collect(),
        experiment_seed: seed,
    }
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("wmtree-bundle-prop-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    /// write-bundle → read-bundle is the identity for arbitrary
    /// databases, including failed visits, idle profiles, and the
    /// empty database.
    #[test]
    fn bundle_roundtrip_is_identity(
        seed in 0u64..100_000,
        n_profiles in 1usize..6,
        n_sites in 0usize..4,
        pages_per_site in 1usize..4,
    ) {
        let db = synth_db(seed, n_profiles, n_sites, pages_per_site);
        let dir = tmp(&format!("rt-{seed}-{n_profiles}-{n_sites}-{pages_per_site}"));
        let manifest = write_bundle(&db, &dir, meta_for(&db, seed))
            .unwrap_or_else(|e| panic!("write_bundle failed: {e}"));
        prop_assert!(manifest.complete);
        // One checkpoint per site that actually has visits: a site whose
        // every slot came up idle never enters the database.
        let sites_present: std::collections::BTreeSet<_> =
            db.pages().map(|p| p.site.clone()).collect();
        prop_assert_eq!(manifest.checkpoints as usize, sites_present.len());
        let back = read_bundle(&dir).unwrap_or_else(|e| panic!("read_bundle failed: {e}"));
        let a = serde_json::to_string(&db).unwrap_or_else(|e| panic!("serialize: {e}"));
        let b = serde_json::to_string(&back).unwrap_or_else(|e| panic!("serialize: {e}"));
        prop_assert_eq!(a, b, "round-trip must preserve the database byte-for-byte");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// write-bundle → read-bundle is the identity for databases of
    /// complete visits, and every stored object decodes header-only to
    /// exactly its full decode with `requests` and `frames` emptied.
    #[test]
    fn complete_visits_roundtrip(
        seed in 0u64..100_000,
        n_profiles in 1usize..4,
        n_sites in 1usize..3,
        pages_per_site in 1usize..3,
    ) {
        let db = complete_db(seed, n_profiles, n_sites, pages_per_site);
        let dir = tmp(&format!("complete-{seed}-{n_profiles}-{n_sites}-{pages_per_site}"));
        write_bundle(&db, &dir, meta_for(&db, seed))
            .unwrap_or_else(|e| panic!("write_bundle failed: {e}"));
        let back = read_bundle(&dir).unwrap_or_else(|e| panic!("read_bundle failed: {e}"));
        let a = serde_json::to_string(&db).unwrap_or_else(|e| panic!("serialize: {e}"));
        let b = serde_json::to_string(&back).unwrap_or_else(|e| panic!("serialize: {e}"));
        prop_assert_eq!(a, b, "round-trip must preserve the database byte-for-byte");
        for payload in stored_objects(&dir) {
            let mut full = object::decode(&payload).unwrap_or_else(|e| panic!("decode: {e}"));
            let header = object::decode_header(&payload).unwrap_or_else(|e| panic!("header: {e}"));
            full.requests.clear();
            full.frames.clear();
            prop_assert_eq!(header, full);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Flipping a single bit anywhere in the visit log surfaces as a
    /// checksum error naming the segment and the corrupted record's
    /// line and byte offset (flips that hit a newline disturb the
    /// framing instead and surface as a manifest mismatch).
    #[test]
    fn flipped_byte_names_segment_line_and_offset(
        seed in 0u64..10_000,
        victim in 0usize..10_000,
        bit in 0u8..8,
    ) {
        let db = synth_db(seed, 3, 2, 2);
        let dir = tmp(&format!("flip-{seed}-{victim}-{bit}"));
        write_bundle(&db, &dir, meta_for(&db, seed))
            .unwrap_or_else(|e| panic!("write_bundle failed: {e}"));
        let seg = dir.join("visits-000.seg");
        let mut bytes = std::fs::read(&seg).unwrap_or_else(|e| panic!("read segment: {e}"));
        let victim = victim % bytes.len();
        let flipped_newline = bytes[victim] == b'\n' || bytes[victim] ^ (1 << bit) == b'\n';
        // The record the victim byte belongs to (one record per line).
        let line_no = 1 + bytes[..victim].iter().filter(|&&b| b == b'\n').count();
        let line_start = bytes[..victim]
            .iter()
            .rposition(|&b| b == b'\n')
            .map(|i| i as u64 + 1)
            .unwrap_or(0);
        bytes[victim] ^= 1 << bit;
        std::fs::write(&seg, &bytes).unwrap_or_else(|e| panic!("write segment: {e}"));

        let err = match read_bundle(&dir) {
            Err(e) => e,
            Ok(_) => panic!("corruption must not read back cleanly"),
        };
        if flipped_newline {
            // Line structure shifted: detected, but as a framing or
            // count disagreement rather than a per-record checksum.
            prop_assert!(
                matches!(err, BundleError::Corrupt { .. } | BundleError::ManifestMismatch { .. }),
                "unexpected error for newline flip: {err}"
            );
        } else {
            match err {
                BundleError::Corrupt { segment, line, offset, .. } => {
                    prop_assert_eq!(segment, "visits-000.seg".to_string());
                    prop_assert_eq!(line, line_no);
                    prop_assert_eq!(offset, line_start);
                }
                other => panic!("expected Corrupt naming the location, got {other}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
