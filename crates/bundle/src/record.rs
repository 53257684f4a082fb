//! The record types the segment logs store, and the one decoder for
//! each kind of payload.

use crate::hash::{from_hex, to_hex};
use serde::{Deserialize, Serialize};
use wmtree_browser::VisitResult;

/// One record of the visit log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Record {
    /// One profile's visit of one page, referencing its payload in the
    /// object store by content hash.
    Visit(VisitRef),
    /// A completed site: everything before this record is durable. The
    /// writer rewrites the manifest right after appending one, making
    /// the checkpoint the unit of crash recovery.
    Checkpoint(Checkpoint),
}

/// A visit record: the `(site, page, profile)` coordinates plus the
/// content address of the stored [`VisitResult`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VisitRef {
    /// Registerable domain of the site.
    pub site: String,
    /// Full page URL.
    pub url: String,
    /// Profile index (Table 1 order).
    pub profile: usize,
    /// Content hash (hex) of the visit payload in the object store.
    pub object: String,
}

/// A site-completion checkpoint.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// The completed site (registerable domain).
    pub site: String,
    /// Number of visit records the site contributed.
    pub visits: usize,
}

/// The defect of an object whose address is already stored.
pub(crate) fn duplicate_object(hash: u64) -> String {
    format!(
        "duplicate object {} defeats content addressing",
        to_hex(hash)
    )
}

/// A visit-log payload, decoded by [`Record::decode`].
pub(crate) enum LogEntry {
    /// A visit record with its parsed object address.
    Visit(VisitRef, u64),
    /// A site checkpoint.
    Checkpoint(Checkpoint),
}

/// Why [`Record::decode`] rejected a visit-log payload.
pub(crate) enum BadRecord {
    /// Unparseable, or a malformed object hash.
    Corrupt(String),
    /// A visit by a profile index the bundle does not have.
    ProfileOutOfRange(usize),
}

impl Record {
    /// Decode one visit-log payload: parse the record, then a visit's
    /// object hash, then check its profile index against the bundle's
    /// `n_profiles`.
    pub(crate) fn decode(payload: &str, n_profiles: usize) -> Result<LogEntry, BadRecord> {
        let record: Record = serde_json::from_str(payload)
            .map_err(|e| BadRecord::Corrupt(format!("unparseable record: {e}")))?;
        match record {
            Record::Checkpoint(cp) => Ok(LogEntry::Checkpoint(cp)),
            Record::Visit(vr) => {
                let Some(hash) = from_hex(&vr.object) else {
                    return Err(BadRecord::Corrupt(format!(
                        "malformed object hash `{}`",
                        vr.object
                    )));
                };
                if vr.profile >= n_profiles {
                    return Err(BadRecord::ProfileOutOfRange(vr.profile));
                }
                Ok(LogEntry::Visit(vr, hash))
            }
        }
    }
}

/// A fully resolved visit streamed out of a bundle: the coordinates of
/// a [`VisitRef`] joined with its payload from the object store.
#[derive(Debug, Clone, PartialEq)]
pub struct BundleVisit {
    /// Registerable domain of the site.
    pub site: String,
    /// Full page URL.
    pub url: String,
    /// Profile index.
    pub profile: usize,
    /// Content hash of the payload — the object store's address,
    /// already verified against the payload by the reader. Downstream
    /// consumers use it as a ready-made memoization key (the tree
    /// cache) without re-hashing the visit.
    pub object: u64,
    /// The visit payload.
    pub visit: VisitResult,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_json_roundtrip() {
        let rec = Record::Visit(VisitRef {
            site: "a.com".into(),
            url: "https://www.a.com/p".into(),
            profile: 3,
            object: "00ff00ff00ff00ff".into(),
        });
        let json = serde_json::to_string(&rec).unwrap();
        let back: Record = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rec);

        let cp = Record::Checkpoint(Checkpoint {
            site: "a.com".into(),
            visits: 20,
        });
        let json = serde_json::to_string(&cp).unwrap();
        let back: Record = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cp);
    }
}
