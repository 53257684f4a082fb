//! Server error type.

use std::fmt;
use std::path::PathBuf;
use wmtree_bundle::BundleError;

/// Everything that can go wrong inside the measurement service.
#[derive(Debug)]
pub enum ServerError {
    /// An io failure, with the path or operation it happened on.
    Io {
        /// What was being done when the error hit.
        context: String,
        /// The underlying io error.
        source: std::io::Error,
    },
    /// A JSON (de)serialization failure.
    Json {
        /// What was being parsed or written.
        context: String,
        /// The underlying serde error.
        source: serde_json::Error,
    },
    /// A bundle-layer failure (load, replay, hash).
    Bundle(BundleError),
    /// The job store's `JOBS.json` was written by an unsupported
    /// format version.
    UnsupportedVersion {
        /// Version found in the file.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// `JOBS.json` lists a job the store cannot address by its id: its
    /// id is not its position, or its bundle dir is an earlier job's.
    BadJob {
        /// The `JOBS.json` path.
        path: PathBuf,
        /// The job's position in the list.
        at: usize,
        /// What is wrong with it.
        detail: String,
    },
    /// A request referenced a job id the store does not hold.
    UnknownJob {
        /// The requested id.
        id: usize,
        /// How many jobs the store holds (valid ids are `0..n_jobs`).
        n_jobs: usize,
    },
    /// A request was syntactically valid HTTP but semantically wrong
    /// (bad JSON body, unknown scale, unknown CSV name, ...).
    BadRequest {
        /// Human-readable explanation, sent back in the response body.
        detail: String,
    },
    /// The job store root exists but is not a directory.
    RootNotADirectory {
        /// The offending path.
        path: PathBuf,
    },
}

impl ServerError {
    /// Io error with context.
    pub fn io(context: impl fmt::Display, source: std::io::Error) -> ServerError {
        ServerError::Io {
            context: context.to_string(),
            source,
        }
    }

    /// JSON error with context.
    pub fn json(context: impl fmt::Display, source: serde_json::Error) -> ServerError {
        ServerError::Json {
            context: context.to_string(),
            source,
        }
    }

    /// Bad-request error with a detail message.
    pub fn bad_request(detail: impl fmt::Display) -> ServerError {
        ServerError::BadRequest {
            detail: detail.to_string(),
        }
    }

    /// The HTTP status this error maps to when it surfaces from a
    /// request handler.
    pub fn status(&self) -> u16 {
        match self {
            ServerError::UnknownJob { .. } => 404,
            ServerError::BadRequest { .. } => 400,
            ServerError::Bundle(BundleError::NotFound { .. }) => 404,
            _ => 500,
        }
    }
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Io { context, source } => write!(f, "io error ({context}): {source}"),
            ServerError::Json { context, source } => {
                write!(f, "json error ({context}): {source}")
            }
            ServerError::Bundle(e) => write!(f, "bundle error: {e}"),
            ServerError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported JOBS.json version {found} (this build reads version {supported})"
            ),
            ServerError::BadJob { path, at, detail } => {
                write!(f, "{} job[{at}]: {detail}", path.display())
            }
            ServerError::UnknownJob { id, n_jobs } => {
                write!(f, "no such job {id} (store holds {n_jobs} jobs)")
            }
            ServerError::BadRequest { detail } => write!(f, "bad request: {detail}"),
            ServerError::RootNotADirectory { path } => {
                write!(f, "job store root {} is not a directory", path.display())
            }
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Io { source, .. } => Some(source),
            ServerError::Json { source, .. } => Some(source),
            ServerError::Bundle(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BundleError> for ServerError {
    fn from(e: BundleError) -> ServerError {
        ServerError::Bundle(e)
    }
}
