//! The bundle error type.
//!
//! Every fallible bundle operation reports a [`BundleError`] that names
//! the exact artifact location (segment file, one-based line, byte
//! offset) wherever one exists — a corrupted archive is only fixable if
//! the error says *where* the corruption is.

use std::path::PathBuf;

/// Why a bundle operation failed.
#[derive(Debug)]
pub enum BundleError {
    /// Underlying I/O failure, with the path being touched.
    Io {
        /// The file or directory the operation was touching.
        path: PathBuf,
        /// The operating-system error.
        source: std::io::Error,
    },
    /// A JSON payload failed to parse or serialize.
    Json {
        /// What was being (de)serialized (e.g. `MANIFEST.json`,
        /// `visits-000.seg:12`).
        context: String,
        /// The underlying JSON error.
        source: serde_json::Error,
    },
    /// A record failed its checksum — the archive is corrupt.
    Corrupt {
        /// Segment file name (e.g. `visits-000.seg`).
        segment: String,
        /// One-based line number of the corrupt record.
        line: usize,
        /// Byte offset of the start of the corrupt record.
        offset: u64,
        /// What exactly disagreed.
        detail: String,
    },
    /// The manifest disagrees with the segment files (count or chain
    /// checksum mismatch) — a torn or tampered archive.
    ManifestMismatch {
        /// Segment file name the manifest disagrees with.
        segment: String,
        /// What exactly disagreed.
        detail: String,
    },
    /// A visit record references an object hash the store never wrote.
    DanglingObject {
        /// Segment file name of the referencing record.
        segment: String,
        /// One-based line number of the referencing record.
        line: usize,
        /// The unresolvable content hash (hex).
        object: String,
    },
    /// The bundle was created under different experiment parameters
    /// than the ones it is being resumed or replayed with.
    MetaMismatch {
        /// Which parameter disagreed (e.g. `n_profiles`).
        field: String,
        /// Value recorded in the bundle manifest.
        in_bundle: String,
        /// Value requested by the caller.
        requested: String,
    },
    /// A bundle already exists where a fresh one was to be created.
    AlreadyExists {
        /// The bundle directory.
        dir: PathBuf,
    },
    /// No bundle exists where one was to be opened.
    NotFound {
        /// The bundle directory.
        dir: PathBuf,
    },
    /// The bundle path exists but is not a directory (e.g. a file was
    /// passed where a bundle directory was expected).
    NotADirectory {
        /// The offending path.
        path: PathBuf,
    },
    /// The bundle's format version is not supported by this build.
    UnsupportedVersion {
        /// Version recorded in the manifest.
        found: u32,
        /// Version this build writes.
        supported: u32,
    },
    /// A visit to archive was navigated but never loaded, so it has no
    /// record to write: the database came from a crawl that loads only
    /// the pages vetting keeps.
    UnloadedVisit {
        /// The page's site.
        site: String,
        /// The page URL.
        url: String,
        /// The profile slot of the visit.
        profile: usize,
    },
}

impl std::fmt::Display for BundleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BundleError::Io { path, source } => {
                write!(f, "i/o error on {}: {source}", path.display())
            }
            BundleError::Json { context, source } => write!(f, "{context}: {source}"),
            BundleError::Corrupt {
                segment,
                line,
                offset,
                detail,
            } => write!(
                f,
                "corrupt record in {segment} line {line} (byte offset {offset}): {detail}"
            ),
            BundleError::ManifestMismatch { segment, detail } => {
                write!(f, "manifest disagrees with {segment}: {detail}")
            }
            BundleError::DanglingObject {
                segment,
                line,
                object,
            } => write!(
                f,
                "{segment} line {line}: visit references object {object} \
                 which the object store never recorded"
            ),
            BundleError::MetaMismatch {
                field,
                in_bundle,
                requested,
            } => write!(
                f,
                "bundle metadata mismatch on `{field}`: bundle has {in_bundle}, \
                 caller requested {requested}"
            ),
            BundleError::AlreadyExists { dir } => write!(
                f,
                "a bundle already exists at {} (resume it instead of creating)",
                dir.display()
            ),
            BundleError::NotFound { dir } => {
                write!(f, "no bundle manifest found at {}", dir.display())
            }
            BundleError::NotADirectory { path } => write!(
                f,
                "bundle path {} is not a directory (expected a bundle \
                 directory holding MANIFEST.json)",
                path.display()
            ),
            BundleError::UnsupportedVersion { found, supported } => write!(
                f,
                "bundle format version {found} is not supported (this build reads version {supported})"
            ),
            BundleError::UnloadedVisit { site, url, profile } => write!(
                f,
                "{site} / {url}: profile {profile} navigated the page but the crawl did not \
                 load it, so it has no record to archive (a crawl that loads only vetted \
                 pages cannot be written as a bundle)"
            ),
        }
    }
}

impl std::error::Error for BundleError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BundleError::Io { source, .. } => Some(source),
            BundleError::Json { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl BundleError {
    /// Wrap an I/O error with the path it occurred on.
    pub fn io(path: impl Into<PathBuf>, source: std::io::Error) -> BundleError {
        BundleError::Io {
            path: path.into(),
            source,
        }
    }

    /// Wrap a JSON error with what was being parsed.
    pub fn json(context: impl Into<String>, source: serde_json::Error) -> BundleError {
        BundleError::Json {
            context: context.into(),
            source,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn corrupt_names_segment_line_and_offset() {
        let e = BundleError::Corrupt {
            segment: "visits-003.seg".into(),
            line: 41,
            offset: 9217,
            detail: "checksum mismatch".into(),
        };
        let text = e.to_string();
        assert!(text.contains("visits-003.seg"), "{text}");
        assert!(text.contains("line 41"), "{text}");
        assert!(text.contains("9217"), "{text}");
    }

    #[test]
    fn io_error_exposes_source() {
        let e = BundleError::io(
            "/tmp/x",
            std::io::Error::new(std::io::ErrorKind::NotFound, "gone"),
        );
        assert!(e.source().is_some());
        assert!(e.to_string().contains("/tmp/x"));
    }

    #[test]
    fn meta_mismatch_names_both_sides() {
        let e = BundleError::MetaMismatch {
            field: "n_profiles".into(),
            in_bundle: "5".into(),
            requested: "3".into(),
        };
        let text = e.to_string();
        assert!(text.contains("n_profiles") && text.contains('5') && text.contains('3'));
    }
}
