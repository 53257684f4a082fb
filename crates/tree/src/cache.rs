//! Content-hash memoized trees: never build the same visit twice.
//!
//! The bundle object store already content-addresses identical
//! [`VisitResult`] payloads (a 64-bit hash of the canonical JSON), so
//! a visit's content hash is a ready-made memoization key for the tree
//! built from it: `build_tree` is a pure function of the visit, the
//! filter list, and the [`crate::TreeConfig`]. [`TreeCache`] maps that
//! hash to the built [`DepTree`] in two tiers:
//!
//! * **in-memory** within a run — cross-profile and cross-visit dedup
//!   (tree clones are O(1) `Arc` bumps);
//! * **disk-backed** across runs — an append-only, checksummed segment
//!   log next to the bundle (`TREECACHE/`), committed with the same
//!   MANIFEST-style atomic-rename discipline and crash recovery as
//!   `crates/bundle`: `CACHE.json` pins every segment's record count
//!   and rolling chain checksum, anything past it is truncated on open,
//!   and any corruption or fingerprint mismatch discards the cache
//!   (it is derived data — a rebuild is always safe).
//!
//! Invalidation is by construction: the key *is* the content, and the
//! cache fingerprint covers everything else a tree depends on (tree
//! config, filter list, profile roster). A stale entry cannot exist,
//! only an unused one.
//!
//! Alongside trees the cache stores opaque single-line *site records*
//! (keyed by a site-delta hash) that the incremental re-analysis layer
//! in `wmtree` uses for per-site partial accumulators; this module
//! treats the payloads as opaque strings.

use crate::tree::{DepTree, NodeId};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use wmtree_browser::VisitResult;
use wmtree_bundle::atomic::{atomic_replace, temp_sibling};
use wmtree_bundle::error::BundleError;
use wmtree_bundle::hash::{from_hex, object_hash, to_hex};
use wmtree_bundle::manifest::DEFAULT_SEGMENT_CAPACITY;
use wmtree_bundle::segment::{LogScan, LogWriter, RecordLoc, Scanned};
use wmtree_bundle::{SegmentDefect, SegmentMeta};
use wmtree_net::ResourceType;
use wmtree_url::Party;

/// Cache format version this build reads and writes.
pub const CACHE_VERSION: u32 = 2;

/// Manifest file name within a cache directory.
pub const CACHE_MANIFEST_FILE: &str = "CACHE.json";

/// Conventional cache directory name next to (inside) a bundle.
pub const CACHE_DIR_NAME: &str = "TREECACHE";

/// Tree-record segment prefix (`trees-000.seg`, ...).
pub const TREES_PREFIX: &str = "trees";

/// Site-record segment prefix (`sites-000.seg`, ...).
pub const SITES_PREFIX: &str = "sites";

/// Field separator inside one encoded node (US, never in a URL).
const FIELD_SEP: char = '\u{1f}';
/// Node separator inside one encoded tree (RS, never in a URL).
const NODE_SEP: char = '\u{1e}';

/// The content hash of a visit — identical to the bundle object
/// store's address for the same payload, so replayed bundles get the
/// key for free from their visit records.
pub fn visit_hash(visit: &VisitResult) -> Option<u64> {
    let canonical = serde_json::to_string(visit).ok()?;
    Some(object_hash(canonical.as_bytes()))
}

/// The commit record of a cache directory: segment metas for both
/// logs, pinned fingerprint, format version. Rewritten atomically
/// (temp file + rename) on [`TreeCache::commit`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheManifest {
    /// Format version ([`CACHE_VERSION`]).
    pub version: u32,
    /// Fingerprint (hex) over everything a cached tree depends on
    /// besides the visit content: tree config, filter list, profile
    /// roster. A mismatch discards the cache.
    pub fingerprint: String,
    /// The tree-log segments.
    pub trees: Vec<SegmentMeta>,
    /// The site-record-log segments.
    pub sites: Vec<SegmentMeta>,
}

impl CacheManifest {
    fn store(&self, dir: &Path) -> Result<(), BundleError> {
        let body = serde_json::to_string(self)
            .map_err(|e| BundleError::json("serializing cache manifest", e))?;
        let path = dir.join(CACHE_MANIFEST_FILE);
        atomic_replace(&path, format!("{body}\n").as_bytes()).map_err(|e| BundleError::io(&path, e))
    }
}

/// Mutable state behind the cache's lock.
struct CacheState {
    /// hash → built tree (shared arena; clones are O(1)).
    trees: HashMap<u64, DepTree>,
    /// Hashes whose trees are durably in the tree log (loaded from a
    /// committed segment or appended this run). Site records may only
    /// reference these — a reference to a memory-only tree would
    /// dangle after reopen.
    disk: HashSet<u64>,
    /// site-delta hash → opaque payload line.
    sites: HashMap<u64, std::sync::Arc<str>>,
    /// Append handles; `None` for an in-memory cache or after a disk
    /// write error (the cache then degrades to memory-only).
    logs: Option<(LogWriter, LogWriter)>,
}

/// Two-tier (memory + disk) content-hash tree cache. All methods take
/// `&self`; a [`Mutex`] serializes the mutable state, and the callers
/// (the phased build pipeline in `wmtree-analysis`) only touch the
/// cache from sequential phases, so hit/miss counters and the on-disk
/// append order are deterministic for any worker count.
pub struct TreeCache {
    dir: Option<PathBuf>,
    fingerprint: u64,
    state: Mutex<CacheState>,
}

impl std::fmt::Debug for TreeCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock();
        f.debug_struct("TreeCache")
            .field("dir", &self.dir)
            .field("fingerprint", &to_hex(self.fingerprint))
            .field("trees", &state.trees.len())
            .field("sites", &state.sites.len())
            .finish()
    }
}

impl TreeCache {
    /// A memory-only cache (within-run dedup, nothing persisted).
    pub fn in_memory(fingerprint: u64) -> TreeCache {
        TreeCache {
            dir: None,
            fingerprint,
            state: Mutex::new(CacheState {
                trees: HashMap::new(),
                disk: HashSet::new(),
                sites: HashMap::new(),
                logs: None,
            }),
        }
    }

    /// Open (or create) a disk-backed cache at `dir`. Never fails: a
    /// missing directory is created; a corrupt, version-skewed, or
    /// fingerprint-mismatched cache is *discarded* and recreated empty
    /// (counted by `tree.cache.discard`) — the cache holds derived
    /// data, so discarding is always safe. Crash leftovers past the
    /// committed manifest are truncated away, exactly as bundle resume
    /// does.
    pub fn open(dir: &Path, fingerprint: u64) -> TreeCache {
        match Self::try_open(dir, fingerprint) {
            Ok(cache) => cache,
            Err(_) => {
                wmtree_telemetry::counter!("tree.cache.discard").inc();
                discard_dir(dir);
                // A discarded directory holds no segments, so a second
                // failure is impossible short of an unusable filesystem;
                // in that case degrade to memory-only.
                Self::try_open(dir, fingerprint)
                    .unwrap_or_else(|_| TreeCache::in_memory(fingerprint))
            }
        }
    }

    fn try_open(dir: &Path, fingerprint: u64) -> Result<TreeCache, BundleError> {
        std::fs::create_dir_all(dir).map_err(|e| BundleError::io(dir, e))?;
        let manifest_path = dir.join(CACHE_MANIFEST_FILE);
        let (tree_metas, site_metas) = match std::fs::read_to_string(&manifest_path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => (Vec::new(), Vec::new()),
            Err(e) => return Err(BundleError::io(&manifest_path, e)),
            Ok(text) => {
                let manifest: CacheManifest = serde_json::from_str(&text)
                    .map_err(|e| BundleError::json(manifest_path.display().to_string(), e))?;
                if manifest.version != CACHE_VERSION {
                    return Err(BundleError::UnsupportedVersion {
                        found: manifest.version,
                        supported: CACHE_VERSION,
                    });
                }
                if from_hex(&manifest.fingerprint) != Some(fingerprint) {
                    return Err(BundleError::Corrupt {
                        segment: CACHE_MANIFEST_FILE.to_string(),
                        line: 1,
                        offset: 0,
                        detail: format!(
                            "cache fingerprint {} does not match requested {}",
                            manifest.fingerprint,
                            to_hex(fingerprint)
                        ),
                    });
                }
                (manifest.trees, manifest.sites)
            }
        };

        // Fail-fast over both logs; leftovers are cut only once both
        // verified, and any defect discards the cache.
        let mut trees = HashMap::new();
        let mut tree_log = LogScan::new(dir, TREES_PREFIX, &tree_metas);
        while let Some((loc, payload)) = tree_log.next_record()? {
            let (hash, tree) = decode_tree(payload).map_err(|d| SegmentDefect::corrupt(&loc, d))?;
            trees.insert(hash, tree);
        }
        let mut sites = HashMap::new();
        let mut site_log = LogScan::new(dir, SITES_PREFIX, &site_metas);
        while let Some((loc, payload)) = site_log.next_record()? {
            let (key, body) = decode_site(payload).map_err(|d| SegmentDefect::corrupt(&loc, d))?;
            sites.insert(key, std::sync::Arc::from(body));
        }
        tree_log.truncate()?;
        site_log.truncate()?;

        let logs = Some((
            LogWriter::resume(dir, TREES_PREFIX, DEFAULT_SEGMENT_CAPACITY, tree_metas),
            LogWriter::resume(dir, SITES_PREFIX, DEFAULT_SEGMENT_CAPACITY, site_metas),
        ));
        // Collecting keys into a set is order-insensitive.
        let disk: HashSet<u64> = trees.keys().copied().collect(); // wmtree-lint: allow(WM0102)
        Ok(TreeCache {
            dir: Some(dir.to_path_buf()),
            fingerprint,
            state: Mutex::new(CacheState {
                trees,
                disk,
                sites,
                logs,
            }),
        })
    }

    /// The fingerprint this cache was opened under.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Is the cache disk-backed (and its disk tier still healthy)?
    pub fn is_disk_backed(&self) -> bool {
        self.state.lock().logs.is_some()
    }

    /// Number of trees currently held in memory.
    pub fn tree_count(&self) -> usize {
        self.state.lock().trees.len()
    }

    /// Number of site records currently held in memory.
    pub fn site_count(&self) -> usize {
        self.state.lock().sites.len()
    }

    /// Look up the tree for a visit content hash. Counts
    /// `tree.cache.hit` / `tree.cache.miss`. The returned clone shares
    /// the node arena (O(1)).
    pub fn get_tree(&self, hash: u64) -> Option<DepTree> {
        let found = self.state.lock().trees.get(&hash).cloned();
        match &found {
            Some(_) => wmtree_telemetry::counter!("tree.cache.hit").inc(),
            None => wmtree_telemetry::counter!("tree.cache.miss").inc(),
        }
        found
    }

    /// Memoize a freshly built tree under its visit content hash: into
    /// the memory tier, and (when disk-backed) appended to the tree
    /// log. Trees whose node keys contain the codec's separator bytes
    /// are kept in memory only — `build_tree` never produces such keys,
    /// but the cache refuses rather than corrupt its log.
    pub fn insert_tree(&self, hash: u64, tree: &DepTree) {
        let mut state = self.state.lock();
        if state.trees.contains_key(&hash) {
            return;
        }
        if let Some(encoded) = encode_tree(hash, tree) {
            if append_line(&mut state, Log::Trees, &encoded) {
                state.disk.insert(hash);
            }
        }
        state.trees.insert(hash, tree.clone());
    }

    /// Is this tree durably in the tree log (committed, or appended
    /// this run)? Only such trees may be referenced by site records —
    /// anything else would dangle after a reopen.
    pub fn is_tree_persisted(&self, hash: u64) -> bool {
        self.state.lock().disk.contains(&hash)
    }

    /// Look up an opaque site record. Counts `tree.cache.site.hit` /
    /// `tree.cache.site.miss`.
    pub fn get_site(&self, key: u64) -> Option<std::sync::Arc<str>> {
        let found = self.state.lock().sites.get(&key).cloned();
        match &found {
            Some(_) => wmtree_telemetry::counter!("tree.cache.site.hit").inc(),
            None => wmtree_telemetry::counter!("tree.cache.site.miss").inc(),
        }
        found
    }

    /// Store an opaque site record (single line; an embedded newline is
    /// rejected — impossible for JSON payloads, which escape control
    /// characters).
    pub fn insert_site(&self, key: u64, payload: &str) {
        if payload.contains('\n') {
            return;
        }
        let mut state = self.state.lock();
        if state.sites.contains_key(&key) {
            return;
        }
        let line = format!("{} {payload}", to_hex(key));
        append_line(&mut state, Log::Sites, &line);
        state.sites.insert(key, std::sync::Arc::from(payload));
    }

    /// Commit appended records durably: flush both logs and atomically
    /// rewrite `CACHE.json` to cover them. Also refreshes the
    /// `tree.cache.disk.bytes` gauge with the total committed segment
    /// size. A memory-only cache commits trivially.
    pub fn commit(&self) -> Result<(), BundleError> {
        let Some(dir) = &self.dir else { return Ok(()) };
        let mut state = self.state.lock();
        let Some((tree_log, site_log)) = state.logs.as_mut() else {
            return Ok(());
        };
        tree_log.flush()?;
        site_log.flush()?;
        let manifest = CacheManifest {
            version: CACHE_VERSION,
            fingerprint: to_hex(self.fingerprint),
            trees: tree_log.metas().to_vec(),
            sites: site_log.metas().to_vec(),
        };
        manifest.store(dir)?;
        let mut bytes: u64 = 0;
        for meta in manifest.trees.iter().chain(&manifest.sites) {
            if let Ok(md) = std::fs::metadata(dir.join(&meta.name)) {
                bytes += md.len();
            }
        }
        wmtree_telemetry::gauge!("tree.cache.disk.bytes").set(bytes as i64);
        Ok(())
    }
}

/// Which log an append targets.
enum Log {
    Trees,
    Sites,
}

/// Append to one of the logs; a write error permanently degrades the
/// cache to memory-only (counted by `tree.cache.disk.error`) rather
/// than failing the caller — the cache must never break an analysis.
fn append_line(state: &mut CacheState, which: Log, line: &str) -> bool {
    let Some((tree_log, site_log)) = state.logs.as_mut() else {
        return false;
    };
    let log = match which {
        Log::Trees => tree_log,
        Log::Sites => site_log,
    };
    if log.append(line).is_err() {
        wmtree_telemetry::counter!("tree.cache.disk.error").inc();
        state.logs = None;
        return false;
    }
    true
}

/// Remove a cache directory's manifest and segment files (targeted —
/// not a recursive delete, so an unrelated file in the way surfaces as
/// a later create error instead of being destroyed).
fn discard_dir(dir: &Path) {
    let _ = std::fs::remove_file(dir.join(CACHE_MANIFEST_FILE));
    let _ = std::fs::remove_file(temp_sibling(&dir.join(CACHE_MANIFEST_FILE)));
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let is_segment = name.ends_with(".seg")
                && (name.starts_with(TREES_PREFIX) || name.starts_with(SITES_PREFIX));
            if is_segment {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
}

fn resource_code(rt: ResourceType) -> char {
    match rt {
        ResourceType::MainFrame => 'M',
        ResourceType::SubFrame => 'F',
        ResourceType::Script => 'S',
        ResourceType::Stylesheet => 'C',
        ResourceType::Image => 'I',
        ResourceType::ImageSet => 'P',
        ResourceType::Font => 'T',
        ResourceType::Media => 'A',
        ResourceType::Xhr => 'X',
        ResourceType::WebSocket => 'W',
        ResourceType::Beacon => 'B',
        ResourceType::CspReport => 'R',
        ResourceType::Other => 'O',
    }
}

fn resource_from_code(c: &str) -> Option<ResourceType> {
    Some(match c {
        "M" => ResourceType::MainFrame,
        "F" => ResourceType::SubFrame,
        "S" => ResourceType::Script,
        "C" => ResourceType::Stylesheet,
        "I" => ResourceType::Image,
        "P" => ResourceType::ImageSet,
        "T" => ResourceType::Font,
        "A" => ResourceType::Media,
        "X" => ResourceType::Xhr,
        "W" => ResourceType::WebSocket,
        "B" => ResourceType::Beacon,
        "R" => ResourceType::CspReport,
        "O" => ResourceType::Other,
        _ => return None,
    })
}

/// Encode one tree as a single log line:
/// `<hash> <node-count> <node>\x1e<node>...` with each node as
/// `<parent|r>\x1f<type>\x1f<party>\x1f<tracking>\x1f<key>` in
/// attachment order. Children, depths, and the key index are derived
/// on decode, so only the irreducible structure is stored (≈10× denser
/// than the JSON form). Returns `None` when a node key would collide
/// with the framing (separator bytes or newline) — such a tree is
/// simply not disk-cached.
pub fn encode_tree(hash: u64, tree: &DepTree) -> Option<String> {
    let nodes = tree.nodes();
    let mut out = String::with_capacity(nodes.len() * 32);
    out.push_str(&to_hex(hash));
    out.push(' ');
    out.push_str(&nodes.len().to_string());
    out.push(' ');
    for (i, node) in nodes.iter().enumerate() {
        if node.key.contains([FIELD_SEP, NODE_SEP, '\n', '\r']) {
            return None;
        }
        if i > 0 {
            out.push(NODE_SEP);
        }
        match node.parent {
            None => out.push('r'),
            Some(p) => out.push_str(&p.to_string()),
        }
        out.push(FIELD_SEP);
        out.push(resource_code(node.resource_type));
        out.push(FIELD_SEP);
        out.push(if node.party == Party::Third { '3' } else { '1' });
        out.push(FIELD_SEP);
        out.push(if node.tracking { '1' } else { '0' });
        out.push(FIELD_SEP);
        out.push_str(&node.key);
    }
    Some(out)
}

/// Decode the line format of [`encode_tree`]. Every structural claim is
/// validated (count, parent order, key uniqueness); any mismatch is a
/// corruption error that discards the cache.
pub fn decode_tree(payload: &str) -> Result<(u64, DepTree), String> {
    let mut head = payload.splitn(3, ' ');
    let hash = head
        .next()
        .and_then(from_hex)
        .ok_or("malformed tree record hash")?;
    let count: usize = head
        .next()
        .and_then(|n| n.parse().ok())
        .ok_or("malformed tree record node count")?;
    let body = head.next().ok_or("truncated tree record")?;
    let mut parts = Vec::with_capacity(count);
    for node in body.split(NODE_SEP) {
        let mut fields = node.splitn(5, FIELD_SEP);
        let parent = match fields.next().ok_or("missing parent field")? {
            "r" => None,
            p => Some(p.parse::<NodeId>().map_err(|_| "malformed parent id")?),
        };
        let rt = resource_from_code(fields.next().ok_or("missing type field")?)
            .ok_or("unknown resource type code")?;
        let party = match fields.next().ok_or("missing party field")? {
            "1" => Party::First,
            "3" => Party::Third,
            _ => return Err("unknown party code".into()),
        };
        let tracking = match fields.next().ok_or("missing tracking field")? {
            "0" => false,
            "1" => true,
            _ => return Err("unknown tracking flag".into()),
        };
        let key = fields.next().ok_or("missing key field")?.to_string();
        parts.push((key, rt, party, tracking, parent));
    }
    if parts.len() != count {
        return Err(format!(
            "tree record declares {count} nodes, found {}",
            parts.len()
        ));
    }
    let tree = DepTree::from_parts(parts)?;
    Ok((hash, tree))
}

fn decode_site(payload: &str) -> Result<(u64, &str), String> {
    let (key, body) = payload.split_once(' ').ok_or("truncated site record")?;
    let key = from_hex(key).ok_or("malformed site record key")?;
    Ok((key, body))
}

/// One defect found by [`verify_cache`].
#[derive(Debug)]
pub enum CacheVerifyIssue {
    /// Framing, checksum, chain, or manifest disagreement — the
    /// integrity layer shared with `crates/bundle` segment logs — or
    /// uncommitted leftovers ([`SegmentDefect::TrailingBytes`]) that the
    /// next [`TreeCache::open`] truncates away.
    Segment(SegmentDefect),
    /// A record verifies at the framing layer but its hash key or
    /// payload does not decode into a valid cache entry.
    BadRecord {
        /// Segment file name.
        segment: String,
        /// One-based line number.
        line: usize,
        /// Human-readable defect.
        detail: String,
    },
    /// Duplicate or empty records: every committed record must carry a
    /// distinct, non-degenerate entry.
    Sparse {
        /// Segment file name.
        segment: String,
        /// One-based line number.
        line: usize,
        /// Human-readable defect.
        detail: String,
    },
}

/// Read-only scan report of a cache directory ([`verify_cache`]).
#[derive(Debug, Default)]
pub struct CacheVerifyReport {
    /// Valid tree records decoded.
    pub tree_records: usize,
    /// Valid site records decoded.
    pub site_records: usize,
    /// Every defect found — the scan is lenient (collects instead of
    /// failing fast), like `wmtree_bundle::verify_bundle`.
    pub issues: Vec<CacheVerifyIssue>,
}

impl CacheVerifyReport {
    /// No defects at all?
    pub fn is_clean(&self) -> bool {
        self.issues.is_empty()
    }
}

/// Lenient scan of one cache log: every framing defect lands in
/// `issues`, and `on_record` judges each verified record.
fn scan_lenient(
    dir: &Path,
    prefix: &'static str,
    metas: &[SegmentMeta],
    issues: &mut Vec<CacheVerifyIssue>,
    mut on_record: impl FnMut(&RecordLoc, &str) -> Option<CacheVerifyIssue>,
) -> Result<(), String> {
    let mut log = LogScan::new(dir, prefix, metas);
    while let Some(item) = log.next_item() {
        match item.map_err(|e| e.to_string())? {
            Scanned::Defect(defect) => issues.push(CacheVerifyIssue::Segment(defect)),
            Scanned::Record(loc, payload) => issues.extend(on_record(&loc, payload)),
        }
    }
    Ok(())
}

/// Read-only integrity + semantic scan of a cache directory, for
/// `wmtree-lint check-artifacts` (WM0244–WM0246). Unlike
/// [`TreeCache::open`], nothing is truncated or discarded — every
/// defect is reported: checksum/chain/count disagreements with
/// `CACHE.json`, records whose hash keys or payloads do not decode,
/// and duplicate or empty records. A missing `CACHE.json` is treated
/// as an empty committed set (any segments present are uncommitted
/// leftovers). `Err` means the directory cannot be scanned at all.
pub fn verify_cache(dir: &Path) -> Result<CacheVerifyReport, String> {
    if !dir.is_dir() {
        return Err(format!("{} is not a directory", dir.display()));
    }
    let mut report = CacheVerifyReport::default();
    let manifest_path = dir.join(CACHE_MANIFEST_FILE);
    let manifest: Option<CacheManifest> = match std::fs::read_to_string(&manifest_path) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e) => return Err(format!("cannot read {}: {e}", manifest_path.display())),
        Ok(text) => match serde_json::from_str(&text) {
            Ok(m) => Some(m),
            Err(e) => {
                report.issues.push(manifest_defect(format!(
                    "cache manifest does not parse: {e}"
                )));
                None
            }
        },
    };
    let (tree_metas, site_metas) = match &manifest {
        Some(m) => {
            if m.version != CACHE_VERSION {
                report.issues.push(manifest_defect(format!(
                    "cache format version {} (this build reads {CACHE_VERSION})",
                    m.version
                )));
            }
            if from_hex(&m.fingerprint).is_none() {
                report.issues.push(manifest_defect(format!(
                    "malformed cache fingerprint {:?}",
                    m.fingerprint
                )));
            }
            (m.trees.clone(), m.sites.clone())
        }
        None => (Vec::new(), Vec::new()),
    };

    let mut seen_trees: HashSet<u64> = HashSet::new();
    let mut tree_records = 0usize;
    scan_lenient(
        dir,
        TREES_PREFIX,
        &tree_metas,
        &mut report.issues,
        |loc, payload| match decode_tree(payload) {
            Err(detail) => Some(bad_record(loc, detail)),
            Ok((hash, _)) if !seen_trees.insert(hash) => Some(sparse(
                loc,
                format!("duplicate tree record for hash {}", to_hex(hash)),
            )),
            Ok(_) => {
                tree_records += 1;
                None
            }
        },
    )?;

    let mut seen_sites: HashSet<u64> = HashSet::new();
    let mut site_records = 0usize;
    scan_lenient(
        dir,
        SITES_PREFIX,
        &site_metas,
        &mut report.issues,
        |loc, payload| {
            let (key, body) = match decode_site(payload) {
                Ok(record) => record,
                Err(detail) => return Some(bad_record(loc, detail)),
            };
            if !seen_sites.insert(key) {
                let detail = format!("duplicate site record for key {}", to_hex(key));
                return Some(sparse(loc, detail));
            }
            if body.is_empty() {
                return Some(sparse(loc, "empty site record payload".into()));
            }
            let Ok(v) = serde_json::from_str::<serde_json::Value>(body) else {
                return Some(bad_record(
                    loc,
                    "site record payload is not valid JSON".into(),
                ));
            };
            if let Some(detail) = dangling_tree_ref(&v, &seen_trees) {
                return Some(bad_record(loc, detail));
            }
            site_records += 1;
            None
        },
    )?;

    report.tree_records = tree_records;
    report.site_records = site_records;
    Ok(report)
}

fn bad_record(loc: &RecordLoc, detail: String) -> CacheVerifyIssue {
    CacheVerifyIssue::BadRecord {
        segment: loc.segment.clone(),
        line: loc.line,
        detail,
    }
}

fn sparse(loc: &RecordLoc, detail: String) -> CacheVerifyIssue {
    CacheVerifyIssue::Sparse {
        segment: loc.segment.clone(),
        line: loc.line,
        detail,
    }
}

/// A defect of `CACHE.json` itself, located at its one line.
fn manifest_defect(detail: String) -> CacheVerifyIssue {
    CacheVerifyIssue::Segment(SegmentDefect::Corrupt {
        segment: CACHE_MANIFEST_FILE.to_string(),
        line: 1,
        offset: 0,
        detail,
    })
}

/// Site records store trees as content-hash references into the tree
/// log. A reference to a hash with no tree record would make the site
/// unreconstructable — report it so `check-artifacts` catches caches
/// whose tree and site logs have drifted apart. Payloads without a
/// `pages` array (opaque or foreign records) are left alone.
fn dangling_tree_ref(v: &serde_json::Value, seen_trees: &HashSet<u64>) -> Option<String> {
    let serde_json::Value::Seq(pages) = v.get("pages")? else {
        return None;
    };
    for page in pages {
        let Some(serde_json::Value::Seq(refs)) = page.get("trees") else {
            continue;
        };
        for t in refs {
            match t {
                serde_json::Value::U64(h) => {
                    if !seen_trees.contains(h) {
                        return Some(format!("dangling tree reference {}", to_hex(*h)));
                    }
                }
                _ => return Some("malformed tree reference (expected u64 hash)".to_string()),
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_tree, TreeConfig};
    use proptest::prelude::*;
    use wmtree_browser::{Browser, BrowserConfig};
    use wmtree_webgen::{UniverseConfig, WebUniverse};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wmtree-treecache-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_visits(n: usize) -> Vec<VisitResult> {
        let u = WebUniverse::generate(UniverseConfig {
            seed: 91,
            sites_per_bucket: [4, 2, 2, 2, 2],
            max_subpages: 5,
        });
        let b = Browser::new(&u, BrowserConfig::reliable());
        u.sites()
            .iter()
            .take(n)
            .enumerate()
            .map(|(i, s)| b.visit(&s.landing_url(), i as u64))
            .collect()
    }

    #[test]
    fn codec_roundtrips_built_trees() {
        for (i, v) in sample_visits(6).iter().enumerate() {
            let tree = build_tree(v, None, &TreeConfig::default());
            let encoded = encode_tree(i as u64, &tree).expect("URL keys are codec-safe");
            let (hash, back) = decode_tree(&encoded).unwrap();
            assert_eq!(hash, i as u64);
            assert_eq!(back, tree, "visit {i} tree must round-trip exactly");
            back.check_invariants().unwrap();
        }
    }

    #[test]
    fn codec_refuses_separator_keys() {
        let mut t = DepTree::new_rooted("https://p/".into());
        t.attach(
            0,
            format!("bad{}key", FIELD_SEP),
            ResourceType::Script,
            Party::First,
            false,
        );
        assert!(encode_tree(1, &t).is_none());
    }

    #[test]
    fn memory_tier_hits_and_misses() {
        let cache = TreeCache::in_memory(7);
        let visits = sample_visits(2);
        let h0 = visit_hash(&visits[0]).unwrap();
        assert!(cache.get_tree(h0).is_none());
        let tree = build_tree(&visits[0], None, &TreeConfig::default());
        cache.insert_tree(h0, &tree);
        assert_eq!(cache.get_tree(h0).unwrap(), tree);
        assert_eq!(cache.tree_count(), 1);
    }

    #[test]
    fn disk_tier_survives_reopen() {
        let dir = tmp("reopen");
        let visits = sample_visits(3);
        let cfg = TreeConfig::default();
        {
            let cache = TreeCache::open(&dir, 42);
            for v in &visits {
                let h = visit_hash(v).unwrap();
                cache.insert_tree(h, &build_tree(v, None, &cfg));
            }
            cache.insert_site(9, "{\"opaque\":true}");
            cache.commit().unwrap();
        }
        let cache = TreeCache::open(&dir, 42);
        assert_eq!(cache.tree_count(), visits.len());
        for v in &visits {
            let h = visit_hash(v).unwrap();
            assert_eq!(
                cache.get_tree(h).unwrap(),
                build_tree(v, None, &cfg),
                "reloaded tree must equal the built one"
            );
        }
        assert_eq!(&*cache.get_site(9).unwrap(), "{\"opaque\":true}");
    }

    #[test]
    fn fingerprint_mismatch_discards() {
        let dir = tmp("fingerprint");
        {
            let cache = TreeCache::open(&dir, 1);
            let v = &sample_visits(1)[0];
            cache.insert_tree(
                visit_hash(v).unwrap(),
                &build_tree(v, None, &TreeConfig::default()),
            );
            cache.commit().unwrap();
        }
        let cache = TreeCache::open(&dir, 2);
        assert_eq!(cache.tree_count(), 0, "different fingerprint starts empty");
        assert!(cache.is_disk_backed());
    }

    #[test]
    fn older_format_version_discards() {
        let dir = tmp("version");
        {
            let cache = TreeCache::open(&dir, 5);
            let v = &sample_visits(1)[0];
            cache.insert_tree(
                visit_hash(v).unwrap(),
                &build_tree(v, None, &TreeConfig::default()),
            );
            cache.commit().unwrap();
        }
        // A cache written by the previous format (other line checksums
        // and content addresses) is rebuilt, never read.
        let path = dir.join(CACHE_MANIFEST_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        let old = text.replace(
            &format!("\"version\":{CACHE_VERSION}"),
            &format!("\"version\":{}", CACHE_VERSION - 1),
        );
        assert_ne!(old, text);
        std::fs::write(&path, old).unwrap();
        let cache = TreeCache::open(&dir, 5);
        assert_eq!(cache.tree_count(), 0, "an older version starts empty");
        assert!(cache.is_disk_backed());
    }

    #[test]
    fn corrupt_segment_discards_and_recreates() {
        let dir = tmp("corrupt");
        {
            let cache = TreeCache::open(&dir, 3);
            for v in &sample_visits(2) {
                cache.insert_tree(
                    visit_hash(v).unwrap(),
                    &build_tree(v, None, &TreeConfig::default()),
                );
            }
            cache.commit().unwrap();
        }
        // Flip one byte inside the committed region.
        let seg = dir.join("trees-000.seg");
        let mut bytes = std::fs::read(&seg).unwrap();
        bytes[25] ^= 1;
        std::fs::write(&seg, &bytes).unwrap();

        let cache = TreeCache::open(&dir, 3);
        assert_eq!(cache.tree_count(), 0, "corruption discards the cache");
        assert!(cache.is_disk_backed(), "and recreates it fresh");
        // The discarded directory is usable again.
        let v = &sample_visits(1)[0];
        cache.insert_tree(
            visit_hash(v).unwrap(),
            &build_tree(v, None, &TreeConfig::default()),
        );
        cache.commit().unwrap();
        let back = TreeCache::open(&dir, 3);
        assert_eq!(back.tree_count(), 1);
    }

    #[test]
    fn uncommitted_tail_is_truncated() {
        let dir = tmp("tail");
        {
            let cache = TreeCache::open(&dir, 4);
            let v = &sample_visits(1)[0];
            cache.insert_tree(
                visit_hash(v).unwrap(),
                &build_tree(v, None, &TreeConfig::default()),
            );
            cache.commit().unwrap();
        }
        // Simulate a crash mid-append: garbage past the committed region.
        let seg = dir.join("trees-000.seg");
        let mut bytes = std::fs::read(&seg).unwrap();
        let committed = bytes.len();
        bytes.extend_from_slice(b"0123 half-written rec");
        std::fs::write(&seg, &bytes).unwrap();
        let stray = dir.join("sites-000.seg");
        std::fs::write(&stray, b"never committed").unwrap();

        let cache = TreeCache::open(&dir, 4);
        assert_eq!(cache.tree_count(), 1, "committed prefix survives");
        assert_eq!(
            std::fs::metadata(&seg).unwrap().len(),
            committed as u64,
            "crash leftovers are truncated"
        );
        assert!(!stray.exists(), "stray segments are deleted");
        assert!(verify_cache(&dir).expect("scan").is_clean());
    }

    #[test]
    fn verify_cache_clean_and_defect_reporting() {
        let dir = tmp("verify");
        let visits = sample_visits(3);
        {
            let cache = TreeCache::open(&dir, 11);
            for v in &visits {
                cache.insert_tree(
                    visit_hash(v).unwrap(),
                    &build_tree(v, None, &TreeConfig::default()),
                );
            }
            cache.insert_site(77, "{\"opaque\":true}");
            cache.commit().unwrap();
        }
        let report = verify_cache(&dir).expect("scan");
        assert!(report.is_clean(), "{:?}", report.issues);
        assert_eq!(report.tree_records, visits.len());
        assert_eq!(report.site_records, 1);

        // Crash leftovers: uncommitted garbage past the committed
        // region is a TrailingBytes warning, not corruption.
        let seg = dir.join("trees-000.seg");
        let committed = std::fs::read(&seg).unwrap();
        let mut bytes = committed.clone();
        bytes.extend_from_slice(b"0123 half-written rec");
        std::fs::write(&seg, &bytes).unwrap();
        let report = verify_cache(&dir).expect("scan");
        assert!(matches!(
            report.issues.as_slice(),
            [CacheVerifyIssue::Segment(SegmentDefect::TrailingBytes {
                bytes: 21,
                ..
            })]
        ));

        // A flipped byte inside the committed region is corruption
        // naming the segment and line.
        let mut bytes = committed.clone();
        bytes[25] ^= 1;
        std::fs::write(&seg, &bytes).unwrap();
        let report = verify_cache(&dir).expect("scan");
        assert!(
            report.issues.iter().any(|i| matches!(
                i,
                CacheVerifyIssue::Segment(SegmentDefect::Corrupt { segment, line: 1, .. })
                    if segment == "trees-000.seg"
            )),
            "{:?}",
            report.issues
        );
        std::fs::write(&seg, &committed).unwrap();

        // A duplicate record (valid framing, repeated key) is a
        // density defect. Re-append a copy of line 1 and re-pin the
        // manifest so the framing layer stays clean.
        let text = String::from_utf8(committed.clone()).unwrap();
        let first_line = text.lines().next().unwrap().to_string();
        let mut manifest: CacheManifest =
            serde_json::from_str(&std::fs::read_to_string(dir.join(CACHE_MANIFEST_FILE)).unwrap())
                .unwrap();
        let mut w = LogWriter::resume(
            &dir,
            TREES_PREFIX,
            DEFAULT_SEGMENT_CAPACITY,
            manifest.trees.clone(),
        );
        let payload = first_line[17..].to_string(); // strip checksum column
        w.append(&payload).unwrap();
        w.flush().unwrap();
        manifest.trees = w.metas().to_vec();
        manifest.store(&dir).unwrap();
        let report = verify_cache(&dir).expect("scan");
        assert!(
            report
                .issues
                .iter()
                .any(|i| matches!(i, CacheVerifyIssue::Sparse { line: 4, .. })),
            "{:?}",
            report.issues
        );
    }

    #[test]
    fn verify_cache_flags_dangling_tree_references() {
        let dir = tmp("dangling");
        let visits = sample_visits(2);
        let hashes: Vec<u64> = visits.iter().map(|v| visit_hash(v).unwrap()).collect();
        {
            let cache = TreeCache::open(&dir, 13);
            for (v, h) in visits.iter().zip(&hashes) {
                cache.insert_tree(*h, &build_tree(v, None, &TreeConfig::default()));
                assert!(cache.is_tree_persisted(*h), "appended to the tree log");
            }
            assert!(!cache.is_tree_persisted(0xDEAD), "never inserted");
            // A site record whose tree references all resolve is clean.
            let good = format!(
                "{{\"pages\":[{{\"trees\":[{},{}]}}]}}",
                hashes[0], hashes[1]
            );
            cache.insert_site(1, &good);
            // One referencing a hash absent from the tree log dangles.
            let bad = format!("{{\"pages\":[{{\"trees\":[{},57005]}}]}}", hashes[0]);
            cache.insert_site(2, &bad);
            // Non-integer references are malformed, not dangling.
            cache.insert_site(3, "{\"pages\":[{\"trees\":[\"x\"]}]}");
            // Records without a `pages` array are left alone.
            cache.insert_site(4, "{\"opaque\":true}");
            cache.commit().unwrap();
        }
        let report = verify_cache(&dir).expect("scan");
        let bad_records: Vec<&str> = report
            .issues
            .iter()
            .filter_map(|i| match i {
                CacheVerifyIssue::BadRecord { detail, .. } => Some(detail.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(bad_records.len(), 2, "{:?}", report.issues);
        assert!(
            bad_records
                .iter()
                .any(|d| d.contains("dangling tree reference")),
            "{bad_records:?}"
        );
        assert!(
            bad_records
                .iter()
                .any(|d| d.contains("malformed tree reference")),
            "{bad_records:?}"
        );
        assert_eq!(report.site_records, 2, "good + opaque records count");
    }

    #[test]
    fn memory_only_caches_never_mark_trees_persisted() {
        let cache = TreeCache::in_memory(5);
        let visits = sample_visits(1);
        let h = visit_hash(&visits[0]).unwrap();
        cache.insert_tree(h, &build_tree(&visits[0], None, &TreeConfig::default()));
        assert!(cache.get_tree(h).is_some());
        assert!(
            !cache.is_tree_persisted(h),
            "no tree log, so site records must not reference it"
        );
    }

    #[test]
    fn visit_hash_matches_bundle_object_address() {
        // The cache key must be the bundle object store's address so a
        // replayed bundle supplies keys for free.
        let v = &sample_visits(1)[0];
        let canonical = serde_json::to_string(v).unwrap();
        assert_eq!(visit_hash(v), Some(object_hash(canonical.as_bytes())));
    }

    /// Random trees for the codec property: a parent index for each
    /// node drawn below its own id, plus enum fields.
    fn arb_tree() -> impl Strategy<Value = DepTree> {
        let node = (0usize..8, 0u8..13, any::<bool>(), any::<bool>());
        proptest::collection::vec(node, 0..40).prop_map(|nodes| {
            let mut tree = DepTree::new_rooted("https://root.example/".to_string());
            for (i, (parent_seed, rt, third, tracking)) in nodes.iter().enumerate() {
                let parent = parent_seed % tree.node_count();
                let rt = [
                    ResourceType::MainFrame,
                    ResourceType::SubFrame,
                    ResourceType::Script,
                    ResourceType::Stylesheet,
                    ResourceType::Image,
                    ResourceType::ImageSet,
                    ResourceType::Font,
                    ResourceType::Media,
                    ResourceType::Xhr,
                    ResourceType::WebSocket,
                    ResourceType::Beacon,
                    ResourceType::CspReport,
                    ResourceType::Other,
                ][*rt as usize % 13];
                let party = if *third { Party::Third } else { Party::First };
                tree.attach(
                    parent,
                    format!("https://n{i}.example/x?y={parent_seed}"),
                    rt,
                    party,
                    *tracking,
                );
            }
            tree
        })
    }

    proptest! {
        #[test]
        fn codec_roundtrip_property(tree in arb_tree(), hash in any::<u64>()) {
            let encoded = encode_tree(hash, &tree).expect("generated keys are codec-safe");
            let (h, back) = decode_tree(&encoded).unwrap();
            prop_assert_eq!(h, hash);
            prop_assert_eq!(&back, &tree);
            back.check_invariants().unwrap();
        }
    }
}
