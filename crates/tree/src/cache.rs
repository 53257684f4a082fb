//! Cached dependency trees: never build the same site's trees twice.
//!
//! Tree building is the one step of a bundle replay worth skipping: the
//! analyses over the trees are cheap to recompute. [`TreeCache`] keeps,
//! per site, the trees of that site's vetted visits under the site's
//! *delta key* — a content hash the caller computes over everything
//! those trees depend on in the crawl data (`wmtree::incremental`).
//! `build_tree` is a pure function of the visit, the filter list and
//! the [`crate::TreeConfig`], and the cache fingerprint covers the
//! latter two plus the profile roster, so a stale record cannot exist,
//! only an unused one.
//!
//! On disk (`TREECACHE/`) the cache is one append-only, checksummed
//! segment log of self-contained site records, committed with the same
//! MANIFEST-style atomic-rename discipline and crash recovery as
//! `crates/bundle`: `CACHE.json` pins every segment's record count and
//! rolling chain checksum, anything past it is truncated on open, and
//! any corruption, version skew or fingerprint mismatch discards the
//! cache (it is derived data — a rebuild is always safe).

use crate::tree::{DepTree, NodeId, TreeBuilder};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use wmtree_bundle::atomic::{atomic_replace, temp_sibling};
use wmtree_bundle::error::BundleError;
use wmtree_bundle::hash::{from_hex, to_hex};
use wmtree_bundle::manifest::DEFAULT_SEGMENT_CAPACITY;
use wmtree_bundle::segment::{LogScan, LogWriter, Scanned};
use wmtree_bundle::{SegmentDefect, SegmentMeta};
use wmtree_net::ResourceType;
use wmtree_url::Party;

/// Cache format version this build reads and writes.
pub const CACHE_VERSION: u32 = 3;

/// Manifest file name within a cache directory.
pub const CACHE_MANIFEST_FILE: &str = "CACHE.json";

/// Conventional cache directory name next to (inside) a bundle.
pub const CACHE_DIR_NAME: &str = "TREECACHE";

/// Site-record segment prefix (`sites-000.seg`, ...).
pub const SITES_PREFIX: &str = "sites";

/// Segment prefix of the separate tree log a version-2 cache kept; a
/// discard removes those segments too.
const V2_TREES_PREFIX: &str = "trees";

/// Field separator inside one encoded node (US, never in a URL).
const FIELD_SEP: char = '\u{1f}';
/// Node separator inside one encoded tree (RS, never in a URL).
const NODE_SEP: char = '\u{1e}';
/// Tree separator inside one site record (GS, never in a URL).
const TREE_SEP: char = '\u{1d}';

/// The commit record of a cache directory: the site log's segment
/// metas, pinned fingerprint, format version. Rewritten atomically
/// (temp file + rename) on [`TreeCache::commit`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheManifest {
    /// Format version ([`CACHE_VERSION`]).
    pub version: u32,
    /// Fingerprint (hex) over everything a cached tree depends on
    /// besides the visit content: tree config, filter list, profile
    /// roster. A mismatch discards the cache.
    pub fingerprint: String,
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
    /// delta key → the site's trees (shared arenas; clones are O(1)).
    sites: HashMap<u64, Vec<DepTree>>,
    /// Append handle; `None` after a disk write error or when the
    /// directory could not be opened (the cache is then memory-only).
    log: Option<LogWriter>,
}

/// Disk-backed site-record cache. All methods take `&self`; a [`Mutex`]
/// serializes the mutable state, and the caller (`accumulate_cached`)
/// only touches the cache from sequential code in canonical site order,
/// so hit/miss counters and the on-disk append order are deterministic
/// for any worker count.
pub struct TreeCache {
    dir: PathBuf,
    state: Mutex<CacheState>,
    fingerprint: u64,
}

impl std::fmt::Debug for TreeCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TreeCache")
            .field("dir", &self.dir)
            .field("fingerprint", &to_hex(self.fingerprint))
            .field("sites", &self.site_count())
            .finish()
    }
}

impl TreeCache {
    /// Open (or create) the cache at `dir`. Never fails: a missing
    /// directory is created; a cache with any defect [`verify_cache`]
    /// reports but crash leftovers (a duplicate key included), or a
    /// fingerprint mismatch, is *discarded* and recreated empty (counted
    /// by `tree.cache.discard`) — it holds derived data, so discarding
    /// is always safe. Crash leftovers past the committed manifest are
    /// truncated away, exactly as bundle resume does.
    pub fn open(dir: &Path, fingerprint: u64) -> TreeCache {
        match Self::try_open(dir, fingerprint) {
            Ok(cache) => cache,
            Err(_) => {
                wmtree_telemetry::counter!("tree.cache.discard").inc();
                discard_dir(dir);
                // A discarded directory holds no segments, so a second
                // failure is impossible short of an unusable filesystem;
                // in that case degrade to memory-only.
                Self::try_open(dir, fingerprint).unwrap_or_else(|_| TreeCache {
                    dir: dir.to_path_buf(),
                    state: Mutex::new(CacheState {
                        sites: HashMap::new(),
                        log: None,
                    }),
                    fingerprint,
                })
            }
        }
    }

    fn try_open(dir: &Path, fingerprint: u64) -> Result<TreeCache, String> {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        // Leftovers are cut only once the log verified.
        let mut refuse = |issue| match issue {
            CacheVerifyIssue::Segment(SegmentDefect::TrailingBytes { .. }) => Ok(()),
            other => Err(format!("{other:?}")),
        };
        let (found, metas) = read_manifest(dir, &mut refuse)?;
        if found.is_some_and(|found| found != fingerprint) {
            return Err(format!("cache fingerprint does not match {fingerprint:x}"));
        }
        let (sites, log) = read_log(dir, &metas, &mut refuse)?;
        log.truncate().map_err(|e| e.to_string())?;
        Ok(TreeCache {
            dir: dir.to_path_buf(),
            state: Mutex::new(CacheState {
                sites,
                log: Some(LogWriter::resume(
                    dir,
                    SITES_PREFIX,
                    DEFAULT_SEGMENT_CAPACITY,
                    metas,
                )),
            }),
            fingerprint,
        })
    }

    /// Is the cache disk-backed (and its disk tier still healthy)?
    pub fn is_disk_backed(&self) -> bool {
        self.state.lock().log.is_some()
    }

    /// Number of site records currently held.
    pub fn site_count(&self) -> usize {
        self.state.lock().sites.len()
    }

    /// The trees of the site record stored under `key`, if there is one
    /// holding exactly `trees` trees; a record of any other length is a
    /// miss. Counts `tree.cache.site.hit` / `tree.cache.site.miss`, and
    /// `tree.cache.hit` per tree served. The returned clones share
    /// their node arenas (O(1) each).
    pub fn get_site(&self, key: u64, trees: usize) -> Option<Vec<DepTree>> {
        let found = self
            .state
            .lock()
            .sites
            .get(&key)
            .filter(|record| record.len() == trees)
            .cloned();
        match &found {
            Some(_) => {
                wmtree_telemetry::counter!("tree.cache.site.hit").inc();
                wmtree_telemetry::counter!("tree.cache.hit").add(trees as u64);
            }
            None => wmtree_telemetry::counter!("tree.cache.site.miss").inc(),
        }
        found
    }

    /// The number of trees in the record held under `key`, if any — a
    /// lookup that counts neither a hit nor a miss. A record serves
    /// ([`get_site`](TreeCache::get_site)) exactly the sites with that
    /// many vetted visits.
    pub fn site_len(&self, key: u64) -> Option<usize> {
        self.state.lock().sites.get(&key).map(Vec::len)
    }

    /// Store a site record: the trees of the site's vetted visits in
    /// (page, profile) order under its delta key, in memory and (when
    /// disk-backed) appended to the site log. A key already held is
    /// left as it is, and a record whose node keys contain the codec's
    /// separator bytes is not cached at all — `build_tree` never
    /// produces such keys, but the cache refuses rather than corrupt
    /// its log.
    pub fn insert_site(&self, key: u64, trees: &[DepTree]) {
        let mut state = self.state.lock();
        if state.sites.contains_key(&key) {
            return;
        }
        let Some(line) = encode_site(key, trees) else {
            return;
        };
        if let Some(log) = state.log.as_mut() {
            // A write error permanently degrades the cache to
            // memory-only rather than failing the caller — the cache
            // must never break an analysis.
            if log.append(&line).is_err() {
                wmtree_telemetry::counter!("tree.cache.disk.error").inc();
                state.log = None;
            }
        }
        state.sites.insert(key, trees.to_vec());
    }

    /// Commit appended records durably: flush the log and atomically
    /// rewrite `CACHE.json` to cover them. Also refreshes the
    /// `tree.cache.disk.bytes` gauge with the total committed segment
    /// size. A memory-only cache commits trivially.
    pub fn commit(&self) -> Result<(), BundleError> {
        let mut state = self.state.lock();
        let Some(log) = state.log.as_mut() else {
            return Ok(());
        };
        log.flush()?;
        let manifest = CacheManifest {
            version: CACHE_VERSION,
            fingerprint: to_hex(self.fingerprint),
            sites: log.metas().to_vec(),
        };
        manifest.store(&self.dir)?;
        let bytes: u64 = manifest
            .sites
            .iter()
            .filter_map(|meta| std::fs::metadata(self.dir.join(&meta.name)).ok())
            .map(|md| md.len())
            .sum();
        wmtree_telemetry::gauge!("tree.cache.disk.bytes").set(bytes as i64);
        Ok(())
    }
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
                && (name.starts_with(SITES_PREFIX) || name.starts_with(V2_TREES_PREFIX));
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

/// Encode one site record as a single log line: `<key> <tree-count>`,
/// then `\x1d<tree>` per tree, each tree as `<node-count> <node>\x1e<node>...`
/// with each node as `<parent|r>\x1f<type>\x1f<party>\x1f<tracking>\x1f<key>`
/// in attachment order. Children and depths are derived on decode, so
/// only the irreducible structure is stored (≈10× denser than the JSON
/// form). Returns `None` when a node key would collide with the framing
/// (separator bytes or newline).
fn encode_site(key: u64, trees: &[DepTree]) -> Option<String> {
    let nodes: usize = trees.iter().map(DepTree::node_count).sum();
    let mut out = String::with_capacity(24 + nodes * 32);
    out.push_str(&to_hex(key));
    out.push(' ');
    out.push_str(&trees.len().to_string());
    for tree in trees {
        out.push(TREE_SEP);
        let nodes = tree.nodes();
        out.push_str(&nodes.len().to_string());
        out.push(' ');
        for (i, node) in nodes.iter().enumerate() {
            if node
                .key
                .contains([FIELD_SEP, NODE_SEP, TREE_SEP, '\n', '\r'])
            {
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
    }
    Some(out)
}

/// Decode the line format of [`encode_site`]. Every structural claim is
/// validated (counts, parent order, key uniqueness); any mismatch is a
/// corruption error that discards the cache.
fn decode_site(payload: &str) -> Result<(u64, Vec<DepTree>), String> {
    let (key, body) = payload.split_once(' ').ok_or("truncated site record")?;
    let key = from_hex(key).ok_or("malformed site record key")?;
    let mut parts = body.split(TREE_SEP);
    let count: usize = parts
        .next()
        .and_then(|n| n.parse().ok())
        .ok_or("malformed site record tree count")?;
    let trees = parts.map(decode_tree).collect::<Result<Vec<_>, _>>()?;
    if trees.len() != count {
        return Err(format!(
            "site record declares {count} trees, found {}",
            trees.len()
        ));
    }
    Ok((key, trees))
}

/// Decode one `<node-count> <nodes>` tree of a site record. Depths and
/// child lists are derived, which makes them correct by construction;
/// everything else (node 0 is the parentless, untracked first-party
/// main frame every built tree has as its root, parents precede
/// children, keys are unique) is validated rather than trusted.
fn decode_tree(text: &str) -> Result<DepTree, String> {
    let (count, body) = text.split_once(' ').ok_or("truncated tree")?;
    let count: usize = count.parse().map_err(|_| "malformed tree node count")?;
    let mut nodes = body.split(NODE_SEP).map(decode_node);
    let mut tree = match nodes.next().ok_or("empty node arena")?? {
        (None, ResourceType::MainFrame, Party::First, false, key) => TreeBuilder::new(key),
        (None, ..) => return Err("root node is not an untracked first-party main frame".into()),
        (Some(_), ..) => return Err("root node has a parent".into()),
    };
    let mut found = 1;
    for node in nodes {
        let id = found;
        found += 1;
        let (parent, rt, party, tracking, key) = node?;
        let p = parent.ok_or_else(|| format!("non-root node {id} has no parent"))?;
        if p >= id {
            return Err(format!("parent {p} of node {id} not earlier in arena"));
        }
        let attached = tree.attach(p, key, rt, party, tracking);
        if attached != id {
            return Err(format!("node {id} repeats the key of node {attached}"));
        }
    }
    if found != count {
        return Err(format!("tree declares {count} nodes, found {found}"));
    }
    Ok(tree.finish())
}

/// Decode one `<parent|r>\x1f<type>\x1f<party>\x1f<tracking>\x1f<key>`
/// node of a tree.
fn decode_node(text: &str) -> Result<(Option<NodeId>, ResourceType, Party, bool, String), String> {
    let mut fields = text.splitn(5, FIELD_SEP);
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
    Ok((parent, rt, party, tracking, key))
}

/// One defect found by [`verify_cache`].
#[derive(Debug)]
pub enum CacheVerifyIssue {
    /// Framing, checksum, chain, or manifest disagreement — the
    /// integrity layer shared with `crates/bundle` segment logs — or
    /// uncommitted leftovers ([`SegmentDefect::TrailingBytes`]) that the
    /// next [`TreeCache::open`] truncates away.
    Segment(SegmentDefect),
    /// A record verifies at the framing layer but does not decode into
    /// a site key and valid trees.
    BadRecord {
        /// Segment file name.
        segment: String,
        /// One-based line number.
        line: usize,
        /// Human-readable defect.
        detail: String,
    },
    /// A second record under a key an earlier record already holds.
    Duplicate {
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
    /// Valid site records decoded, a duplicate key counted once.
    pub site_records: usize,
    /// Every defect found, in scan order.
    pub issues: Vec<CacheVerifyIssue>,
}

impl CacheVerifyReport {
    /// No defects at all?
    pub fn is_clean(&self) -> bool {
        self.issues.is_empty()
    }
}

/// Read-only integrity + semantic scan of a cache directory, for
/// `wmtree-lint check-artifacts` (WM0244–WM0246): [`TreeCache::open`]'s
/// scan, run to the end. Nothing is truncated or discarded — every
/// defect is reported, in scan order: checksum/chain/count
/// disagreements with `CACHE.json`, records that do not decode, and
/// duplicate keys. A missing `CACHE.json` is treated as an empty
/// committed set (any segments present are uncommitted leftovers).
/// `Err` means the directory cannot be scanned at all.
pub fn verify_cache(dir: &Path) -> Result<CacheVerifyReport, String> {
    if !dir.is_dir() {
        return Err(format!("{} is not a directory", dir.display()));
    }
    let mut issues = Vec::new();
    let mut collect = |issue| {
        issues.push(issue);
        Ok(())
    };
    let (_, metas) = read_manifest(dir, &mut collect)?;
    let (sites, _) = read_log(dir, &metas, &mut collect)?;
    Ok(CacheVerifyReport {
        site_records: sites.len(),
        issues,
    })
}

/// The fingerprint and committed segments `CACHE.json` at `dir` pins,
/// none without a manifest that parses. Each defect (no parse, a version
/// this build does not read, a malformed fingerprint) goes to `report`,
/// whose error stops the scan, as an I/O failure does.
fn read_manifest(
    dir: &Path,
    report: &mut impl FnMut(CacheVerifyIssue) -> Result<(), String>,
) -> Result<(Option<u64>, Vec<SegmentMeta>), String> {
    let path = dir.join(CACHE_MANIFEST_FILE);
    let manifest: CacheManifest = match std::fs::read_to_string(&path) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((None, Vec::new())),
        Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
        Ok(text) => match serde_json::from_str(&text) {
            Ok(manifest) => manifest,
            Err(e) => {
                report(manifest_defect(format!(
                    "cache manifest does not parse: {e}"
                )))?;
                return Ok((None, Vec::new()));
            }
        },
    };
    if manifest.version != CACHE_VERSION {
        report(manifest_defect(format!(
            "cache format version {} (this build reads {CACHE_VERSION})",
            manifest.version
        )))?;
    }
    let fingerprint = from_hex(&manifest.fingerprint);
    if fingerprint.is_none() {
        report(manifest_defect(format!(
            "malformed cache fingerprint {:?}",
            manifest.fingerprint
        )))?;
    }
    Ok((fingerprint, manifest.sites))
}

/// Every committed site record of the log `metas` describes, by key,
/// and the finished scan, for recovery. Each defect goes to `report`,
/// in scan order: a framing defect, a record that does not decode, or a
/// second record under a key already held (not kept).
fn read_log(
    dir: &Path,
    metas: &[SegmentMeta],
    report: &mut impl FnMut(CacheVerifyIssue) -> Result<(), String>,
) -> Result<(HashMap<u64, Vec<DepTree>>, LogScan), String> {
    let mut sites = HashMap::new();
    let mut log = LogScan::new(dir, SITES_PREFIX, metas);
    while let Some(item) = log.next_item() {
        let (segment, line, payload) = match item.map_err(|e| e.to_string())? {
            Scanned::Defect(defect) => {
                report(CacheVerifyIssue::Segment(defect))?;
                continue;
            }
            Scanned::Record(loc, payload) => (loc.segment, loc.line, payload),
        };
        match decode_site(payload) {
            Err(detail) => report(CacheVerifyIssue::BadRecord {
                segment,
                line,
                detail,
            })?,
            Ok((key, _)) if sites.contains_key(&key) => report(CacheVerifyIssue::Duplicate {
                segment,
                line,
                detail: format!("duplicate site record for key {}", to_hex(key)),
            })?,
            Ok((key, trees)) => drop(sites.insert(key, trees)),
        }
    }
    Ok((sites, log))
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

    fn sample_trees(n: usize) -> Vec<DepTree> {
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
            .map(|(i, s)| {
                build_tree(
                    &b.visit(&s.landing_url(), i as u64),
                    None,
                    &TreeConfig::default(),
                )
            })
            .collect()
    }

    /// A cache at `dir` holding `records` committed site records: record
    /// `k` has key `k + 1` and the first `k` sample trees, so record 0
    /// holds none.
    fn committed(dir: &Path, fingerprint: u64, records: usize) -> Vec<DepTree> {
        let trees = sample_trees(records);
        let cache = TreeCache::open(dir, fingerprint);
        for k in 0..records {
            cache.insert_site(k as u64 + 1, &trees[..k]);
        }
        cache.commit().unwrap();
        trees
    }

    #[test]
    fn codec_roundtrips_built_trees() {
        let trees = sample_trees(6);
        let encoded = encode_site(7, &trees).expect("URL keys are codec-safe");
        let (key, back) = decode_site(&encoded).unwrap();
        assert_eq!(key, 7);
        assert_eq!(back, trees, "site record trees must round-trip exactly");
        for tree in &back {
            tree.check_invariants().unwrap();
        }
        assert_eq!(
            decode_site(&encode_site(8, &[]).unwrap()).unwrap(),
            (8, Vec::new())
        );
    }

    #[test]
    fn decoder_refuses_trees_no_builder_makes() {
        let (f, n) = (FIELD_SEP, NODE_SEP);
        let site = |tree: String| {
            decode_site(&format!("{} 1{TREE_SEP}{tree}", to_hex(7))).map(|(_, trees)| trees.len())
        };
        let root = format!("r{f}M{f}1{f}0{f}https://p/");
        assert_eq!(
            site(format!("2 {root}{n}0{f}S{f}3{f}1{f}https://x/")),
            Ok(1)
        );
        assert_eq!(
            site(format!("2 {root}{n}0{f}S{f}3{f}1{f}https://p/")),
            Err("node 1 repeats the key of node 0".to_string())
        );
        assert_eq!(
            site(format!("1 r{f}S{f}1{f}0{f}https://p/")),
            Err("root node is not an untracked first-party main frame".to_string())
        );
    }

    #[test]
    fn codec_refuses_separator_keys() {
        for sep in [FIELD_SEP, NODE_SEP, TREE_SEP] {
            let mut t = TreeBuilder::new("https://p/".into());
            t.attach(
                0,
                format!("bad{sep}key"),
                ResourceType::Script,
                Party::First,
                false,
            );
            assert!(encode_site(1, &[t.finish()]).is_none());
        }
    }

    #[test]
    fn records_hit_only_at_their_tree_count() {
        let dir = tmp("hits");
        let cache = TreeCache::open(&dir, 7);
        let trees = sample_trees(2);
        assert!(cache.get_site(5, 2).is_none());
        cache.insert_site(5, &trees);
        assert_eq!(cache.get_site(5, 2).unwrap(), trees);
        assert!(
            cache.get_site(5, 3).is_none(),
            "a record of another length is a miss"
        );
        assert_eq!(cache.site_count(), 1);
    }

    #[test]
    fn disk_tier_survives_reopen() {
        let dir = tmp("reopen");
        let trees = committed(&dir, 42, 3);
        let cache = TreeCache::open(&dir, 42);
        assert_eq!(cache.site_count(), 3);
        for k in 0..3 {
            assert_eq!(
                cache.get_site(k as u64 + 1, k).unwrap(),
                trees[..k],
                "reloaded trees must equal the built ones"
            );
        }
    }

    #[test]
    fn fingerprint_mismatch_discards() {
        let dir = tmp("fingerprint");
        committed(&dir, 1, 2);
        let cache = TreeCache::open(&dir, 2);
        assert_eq!(cache.site_count(), 0, "different fingerprint starts empty");
        assert!(cache.is_disk_backed());
    }

    #[test]
    fn older_format_version_discards() {
        let dir = tmp("version");
        committed(&dir, 5, 2);
        // A version-2 cache kept its trees in a separate tree log beside
        // the site log; it is rebuilt, never read, and its tree log goes
        // with it.
        let path = dir.join(CACHE_MANIFEST_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        let old = text.replace(
            &format!("\"version\":{CACHE_VERSION}"),
            &format!("\"version\":{}", CACHE_VERSION - 1),
        );
        assert_ne!(old, text);
        std::fs::write(&path, old).unwrap();
        let tree_log = dir.join("trees-000.seg");
        std::fs::write(
            &tree_log,
            b"0123456789abcdef 0123 1 r\x1fM\x1f1\x1f0\x1fhttps://a/\n",
        )
        .unwrap();
        let cache = TreeCache::open(&dir, 5);
        assert_eq!(cache.site_count(), 0, "an older version starts empty");
        assert!(cache.is_disk_backed());
        assert!(!tree_log.exists(), "the version-2 tree log is discarded");
    }

    #[test]
    fn corrupt_segment_discards_and_recreates() {
        let dir = tmp("corrupt");
        let trees = committed(&dir, 3, 3);
        // Flip one byte inside the committed region.
        let seg = dir.join("sites-000.seg");
        let mut bytes = std::fs::read(&seg).unwrap();
        bytes[25] ^= 1;
        std::fs::write(&seg, &bytes).unwrap();

        let cache = TreeCache::open(&dir, 3);
        assert_eq!(cache.site_count(), 0, "corruption discards the cache");
        assert!(cache.is_disk_backed(), "and recreates it fresh");
        // The discarded directory is usable again.
        cache.insert_site(9, &trees);
        cache.commit().unwrap();
        let back = TreeCache::open(&dir, 3);
        assert_eq!(back.get_site(9, trees.len()).unwrap(), trees);
    }

    #[test]
    fn uncommitted_tail_is_truncated() {
        let dir = tmp("tail");
        committed(&dir, 4, 2);
        // Simulate a crash mid-append: garbage past the committed region.
        let seg = dir.join("sites-000.seg");
        let mut bytes = std::fs::read(&seg).unwrap();
        let committed = bytes.len();
        bytes.extend_from_slice(b"0123 half-written rec");
        std::fs::write(&seg, &bytes).unwrap();
        let stray = dir.join("sites-001.seg");
        std::fs::write(&stray, b"never committed").unwrap();

        let cache = TreeCache::open(&dir, 4);
        assert_eq!(cache.site_count(), 2, "committed prefix survives");
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
        committed(&dir, 11, 3);
        let report = verify_cache(&dir).expect("scan");
        assert!(report.is_clean(), "{:?}", report.issues);
        assert_eq!(
            report.site_records, 3,
            "a zero-tree record is a valid record"
        );

        // Crash leftovers: uncommitted garbage past the committed
        // region is a TrailingBytes warning, not corruption.
        let seg = dir.join("sites-000.seg");
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
                    if segment == "sites-000.seg"
            )),
            "{:?}",
            report.issues
        );
        std::fs::write(&seg, &committed).unwrap();

        // A duplicate record (valid framing, repeated key). Re-append a
        // copy of line 1 and re-pin the manifest so the framing layer
        // stays clean.
        let text = String::from_utf8(committed.clone()).unwrap();
        let first_line = text.lines().next().unwrap().to_string();
        let mut manifest: CacheManifest =
            serde_json::from_str(&std::fs::read_to_string(dir.join(CACHE_MANIFEST_FILE)).unwrap())
                .unwrap();
        let mut w = LogWriter::resume(
            &dir,
            SITES_PREFIX,
            DEFAULT_SEGMENT_CAPACITY,
            manifest.sites.clone(),
        );
        w.append(&first_line[17..]).unwrap(); // strip checksum column
        w.flush().unwrap();
        manifest.sites = w.metas().to_vec();
        manifest.store(&dir).unwrap();
        let report = verify_cache(&dir).expect("scan");
        assert!(
            report
                .issues
                .iter()
                .any(|i| matches!(i, CacheVerifyIssue::Duplicate { line: 4, .. })),
            "{:?}",
            report.issues
        );
    }

    /// Random trees for the codec property: a parent index for each
    /// node drawn below its own id, plus enum fields.
    fn arb_tree() -> impl Strategy<Value = DepTree> {
        let node = (0usize..8, 0u8..13, any::<bool>(), any::<bool>());
        proptest::collection::vec(node, 0..40).prop_map(|nodes| {
            let mut tree = TreeBuilder::new("https://root.example/".to_string());
            for (i, (parent_seed, rt, third, tracking)) in nodes.iter().enumerate() {
                // Every key is new, so nodes 0..=i exist.
                let parent = parent_seed % (i + 1);
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
            tree.finish()
        })
    }

    /// Decode `line`, which must not panic; whatever decodes holds
    /// well-formed trees.
    fn decodes_soundly(line: &str) -> bool {
        match decode_site(line) {
            Ok((_, trees)) => {
                for tree in &trees {
                    tree.check_invariants().unwrap();
                }
                true
            }
            Err(_) => false,
        }
    }

    proptest! {
        #[test]
        fn codec_roundtrip_property(
            trees in proptest::collection::vec(arb_tree(), 0..4),
            key in any::<u64>(),
        ) {
            let encoded = encode_site(key, &trees).expect("generated keys are codec-safe");
            let (k, back) = decode_site(&encoded).unwrap();
            prop_assert_eq!(k, key);
            prop_assert_eq!(&back, &trees);
            for tree in &back {
                tree.check_invariants().unwrap();
            }
        }

        /// Arbitrary bytes never decode; a flipped bit, a truncation or
        /// a splice of one record into another never panics the decoder
        /// and never yields a malformed tree. (A flip inside a URL can
        /// still decode; the segment layer's line checksum catches it.)
        #[test]
        fn record_decoder_never_panics(
            bytes in proptest::collection::vec(any::<u8>(), 0..96),
            a in proptest::collection::vec(arb_tree(), 0..3),
            b in proptest::collection::vec(arb_tree(), 0..3),
            kind in 0u8..3,
            at in any::<usize>(),
            span in any::<usize>(),
            bit in 0u8..8,
        ) {
            prop_assert!(!decodes_soundly(&String::from_utf8_lossy(&bytes)));
            let mut line = encode_site(1, &a).expect("codec-safe").into_bytes();
            let donor = encode_site(2, &b).expect("codec-safe").into_bytes();
            let at = at % (line.len() + 1);
            match kind {
                0 if at < line.len() => line[at] ^= 1 << bit,
                1 => line.truncate(at),
                _ => {
                    let from = span % (donor.len() + 1);
                    let to = (from + span % 64).min(donor.len());
                    line.splice(at..at, donor[from..to].iter().copied());
                }
            }
            decodes_soundly(&String::from_utf8_lossy(&line));
        }
    }
}
