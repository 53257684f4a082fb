//! The bundle manifest: the commit record of the archive.
//!
//! `MANIFEST.json` pins the experiment parameters the bundle was
//! recorded under and, for every segment file, the record count and
//! rolling chain checksum. The writer rewrites it atomically
//! (temp file + rename) after every site checkpoint, so the manifest
//! always describes a consistent prefix of the logs: anything beyond it
//! is an uncommitted crash leftover, truncated away on resume.

use crate::error::BundleError;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Format version this build reads and writes.
pub const FORMAT_VERSION: u32 = 2;

/// Manifest file name within a bundle directory.
pub const MANIFEST_FILE: &str = "MANIFEST.json";

/// Default records per segment before rotation.
pub const DEFAULT_SEGMENT_CAPACITY: usize = 4096;

/// Per-segment metadata the manifest pins.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentMeta {
    /// Segment file name (relative to the bundle directory).
    pub name: String,
    /// Committed record count.
    pub records: u64,
    /// Rolling chain checksum (hex) over the committed records.
    pub chain: String,
}

/// Identity of the experiment a bundle records. Pinned at creation and
/// re-checked on resume/replay so archives from different experiments
/// cannot be silently mixed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BundleMeta {
    /// Number of profiles of the recorded crawl.
    pub n_profiles: usize,
    /// Profile names, in Table 1 order.
    pub profiles: Vec<String>,
    /// The experiment seed the visits were derived from.
    pub experiment_seed: u64,
}

/// The manifest document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Format version ([`FORMAT_VERSION`]).
    pub version: u32,
    /// The recorded experiment's identity.
    pub meta: BundleMeta,
    /// Records per segment before rotation (resume must reuse it for
    /// byte-identity).
    pub segment_capacity: usize,
    /// `true` once the crawl covered every site and the writer
    /// finished; a `false` manifest is a resumable partial bundle.
    pub complete: bool,
    /// Committed site checkpoints.
    pub checkpoints: u64,
    /// Committed visit records (checkpoint records not included).
    pub visit_records: u64,
    /// Unique objects in the content-addressed store.
    pub objects: u64,
    /// Total visit references that hit an already-stored object —
    /// `dedup_hits / (objects + dedup_hits)` is the dedup ratio.
    pub dedup_hits: u64,
    /// The visit-log segments.
    pub visit_segments: Vec<SegmentMeta>,
    /// The object-store segments.
    pub object_segments: Vec<SegmentMeta>,
}

impl Manifest {
    /// A fresh, empty manifest for a new bundle.
    pub fn new(meta: BundleMeta, segment_capacity: usize) -> Manifest {
        Manifest {
            version: FORMAT_VERSION,
            meta,
            segment_capacity: segment_capacity.max(1),
            complete: false,
            checkpoints: 0,
            visit_records: 0,
            objects: 0,
            dedup_hits: 0,
            visit_segments: Vec::new(),
            object_segments: Vec::new(),
        }
    }

    /// Does `dir` hold a bundle manifest?
    pub fn exists(dir: &Path) -> bool {
        dir.join(MANIFEST_FILE).is_file()
    }

    /// Load and version-check the manifest of a bundle directory.
    pub fn load(dir: &Path) -> Result<Manifest, BundleError> {
        // A file where a directory belongs would otherwise surface as a
        // raw `NotADirectory` io error on `dir/MANIFEST.json` — name the
        // actual mistake (and the offending path) instead.
        if dir.exists() && !dir.is_dir() {
            return Err(BundleError::NotADirectory {
                path: dir.to_path_buf(),
            });
        }
        let path = dir.join(MANIFEST_FILE);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(BundleError::NotFound {
                    dir: dir.to_path_buf(),
                })
            }
            Err(e) => return Err(BundleError::io(path, e)),
        };
        let manifest: Manifest = serde_json::from_str(&text)
            .map_err(|e| BundleError::json(path.display().to_string(), e))?;
        if manifest.version != FORMAT_VERSION {
            return Err(BundleError::UnsupportedVersion {
                found: manifest.version,
                supported: FORMAT_VERSION,
            });
        }
        Ok(manifest)
    }

    /// Atomically (re)write [`MANIFEST_FILE`] ([`atomic_replace`]).
    ///
    /// [`atomic_replace`]: crate::atomic_replace
    pub fn store(&self, dir: &Path) -> Result<(), BundleError> {
        let body = serde_json::to_string(self)
            .map_err(|e| BundleError::json("serializing manifest", e))?;
        let path = dir.join(MANIFEST_FILE);
        crate::atomic_replace(&path, format!("{body}\n").as_bytes())
            .map_err(|e| BundleError::io(&path, e))
    }

    /// Reject a resume/replay under different experiment parameters.
    pub fn check_meta(&self, requested: &BundleMeta) -> Result<(), BundleError> {
        let mismatch = |field: &str, in_bundle: String, req: String| BundleError::MetaMismatch {
            field: field.to_string(),
            in_bundle,
            requested: req,
        };
        if self.meta.n_profiles != requested.n_profiles {
            return Err(mismatch(
                "n_profiles",
                self.meta.n_profiles.to_string(),
                requested.n_profiles.to_string(),
            ));
        }
        if self.meta.profiles != requested.profiles {
            return Err(mismatch(
                "profiles",
                format!("{:?}", self.meta.profiles),
                format!("{:?}", requested.profiles),
            ));
        }
        if self.meta.experiment_seed != requested.experiment_seed {
            return Err(mismatch(
                "experiment_seed",
                self.meta.experiment_seed.to_string(),
                requested.experiment_seed.to_string(),
            ));
        }
        Ok(())
    }

    /// Share of visit payloads that were deduplicated away:
    /// `dedup_hits / (objects + dedup_hits)`, 0 for an empty bundle.
    pub fn dedup_ratio(&self) -> f64 {
        let total = self.objects + self.dedup_hits;
        if total == 0 {
            0.0
        } else {
            self.dedup_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn meta() -> BundleMeta {
        BundleMeta {
            n_profiles: 5,
            profiles: vec!["Old".into(), "Sim1".into()],
            experiment_seed: 7,
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wmtree-bundle-manifest-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn store_load_roundtrip() {
        let dir = tmp("roundtrip");
        let mut m = Manifest::new(meta(), 64);
        m.checkpoints = 3;
        m.visit_segments.push(SegmentMeta {
            name: "visits-000.seg".into(),
            records: 12,
            chain: "00ff00ff00ff00ff".into(),
        });
        m.store(&dir).unwrap();
        assert!(Manifest::exists(&dir));
        let back = Manifest::load(&dir).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn missing_manifest_is_not_found() {
        let dir = tmp("missing");
        assert!(matches!(
            Manifest::load(&dir),
            Err(BundleError::NotFound { .. })
        ));
    }

    #[test]
    fn file_path_is_a_located_error() {
        let dir = tmp("filepath");
        let file = dir.join("not-a-bundle.txt");
        std::fs::write(&file, "plain file").unwrap();
        let err = Manifest::load(&file).expect_err("a file is not a bundle");
        assert!(matches!(err, BundleError::NotADirectory { .. }), "{err:?}");
        let msg = err.to_string();
        assert!(msg.contains("not-a-bundle.txt"), "names the path: {msg}");
        assert!(msg.contains("not a directory"), "names the mistake: {msg}");
    }

    #[test]
    fn version_gate() {
        let dir = tmp("version");
        // Version 1 bundles used other content addresses and checksums.
        for version in [1, 99] {
            let mut m = Manifest::new(meta(), 64);
            m.version = version;
            m.store(&dir).unwrap();
            assert!(matches!(
                Manifest::load(&dir),
                Err(BundleError::UnsupportedVersion {
                    found,
                    supported: FORMAT_VERSION
                }) if found == version
            ));
        }
    }

    #[test]
    fn type_error_names_the_field_and_its_byte_offset() {
        let dir = tmp("typeerr");
        Manifest::new(meta(), 64).store(&dir).unwrap();
        let path = dir.join(MANIFEST_FILE);
        let text = std::fs::read_to_string(&path)
            .unwrap()
            .replace("\"checkpoints\":0", "\"checkpoints\":\"30\"");
        std::fs::write(&path, &text).unwrap();
        let offset = text.find("\"30\"").unwrap();
        let msg = Manifest::load(&dir).unwrap_err().to_string();
        assert!(msg.contains(MANIFEST_FILE), "names the file: {msg}");
        assert!(
            msg.contains(&format!(
                "field `checkpoints`: expected integer at byte {offset}"
            )),
            "names the field and offset: {msg}"
        );
    }

    #[test]
    fn meta_check_rejects_each_field() {
        let m = Manifest::new(meta(), 64);
        assert!(m.check_meta(&meta()).is_ok());
        let mut wrong = meta();
        wrong.n_profiles = 3;
        assert!(matches!(
            m.check_meta(&wrong),
            Err(BundleError::MetaMismatch { field, .. }) if field == "n_profiles"
        ));
        let mut wrong = meta();
        wrong.profiles[0] = "New".into();
        assert!(m.check_meta(&wrong).is_err());
        let mut wrong = meta();
        wrong.experiment_seed = 8;
        assert!(m.check_meta(&wrong).is_err());
    }

    #[test]
    fn dedup_ratio_bounds() {
        let mut m = Manifest::new(meta(), 64);
        assert_eq!(m.dedup_ratio(), 0.0);
        m.objects = 3;
        m.dedup_hits = 1;
        assert_eq!(m.dedup_ratio(), 0.25);
    }
}
