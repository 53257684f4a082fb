//! The record types the segment logs store, and the one decoder for
//! each kind of payload.

use crate::hash::{from_hex, object_hash, to_hex};
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

/// One entry of the object store: a content hash and the payload it
/// addresses. The hash is stored redundantly so a reader can verify the
/// content address without re-deriving which record referenced it.
///
/// On disk an entry is exactly `{"hash":"<16 hex>","visit":<canonical>}`,
/// the compact serialization of this struct, where `<canonical>` is the
/// compact serialization of the visit — the very bytes the hash covers.
/// The writer stores it from those bytes, and the reader verifies the
/// hash on them before parsing them, so an object is serialized once
/// and parsed once.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObjectEntry {
    /// Content hash (hex) of the canonical serialization of `visit`.
    pub hash: String,
    /// The deduplicated payload.
    pub visit: VisitResult,
}

/// What an object entry holds before its content address.
const ENTRY_HEAD: &str = "{\"hash\":\"";
/// What separates the content address from the payload.
const ENTRY_VISIT: &str = "\",\"visit\":";

impl ObjectEntry {
    /// The object-store payload for the visit whose canonical
    /// serialization `canonical` hashes to `hash`.
    pub(crate) fn encode(hash: u64, canonical: &str) -> String {
        format!("{ENTRY_HEAD}{}{ENTRY_VISIT}{canonical}}}", to_hex(hash))
    }

    /// Decode one object-store payload into its content address and
    /// visit: check the address against the raw payload bytes, then
    /// parse them. The error describes the defect; the caller knows
    /// where the record is.
    pub(crate) fn decode(payload: &str) -> Result<(u64, VisitResult), String> {
        let (hex, canonical) = payload
            .strip_prefix(ENTRY_HEAD)
            .and_then(|rest| rest.split_once(ENTRY_VISIT))
            .and_then(|(hex, rest)| Some((hex, rest.strip_suffix('}')?)))
            .ok_or("malformed object entry: expected {\"hash\":\"<hex>\",\"visit\":<payload>}")?;
        let hash = from_hex(hex).ok_or_else(|| format!("malformed object hash `{hex}`"))?;
        let actual = object_hash(canonical.as_bytes());
        if actual != hash {
            return Err(format!(
                "content address mismatch: entry says {hex}, payload hashes to {}",
                to_hex(actual)
            ));
        }
        let visit = serde_json::from_str(canonical)
            .map_err(|e| format!("unparseable visit payload: {e}"))?;
        Ok((hash, visit))
    }
}

/// The defect of an object entry whose address is already stored.
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
    use wmtree_url::Url;

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

    #[test]
    fn object_entry_roundtrip() {
        let entry = ObjectEntry {
            hash: "0123456789abcdef".into(),
            visit: VisitResult::failed(Url::parse("https://www.a.com/").unwrap()),
        };
        let json = serde_json::to_string(&entry).unwrap();
        let back: ObjectEntry = serde_json::from_str(&json).unwrap();
        assert_eq!(back, entry);
    }

    #[test]
    fn encode_is_the_serialized_entry_and_decodes_back() {
        let visit = VisitResult::failed(Url::parse("https://www.a.com/\"q\"").unwrap());
        let canonical = serde_json::to_string(&visit).unwrap();
        let hash = object_hash(canonical.as_bytes());
        let payload = ObjectEntry::encode(hash, &canonical);
        let entry = ObjectEntry {
            hash: to_hex(hash),
            visit: visit.clone(),
        };
        assert_eq!(payload, serde_json::to_string(&entry).unwrap());
        assert_eq!(ObjectEntry::decode(&payload).unwrap(), (hash, visit));
    }

    #[test]
    fn decode_checks_the_raw_bytes() {
        let visit = VisitResult::failed(Url::parse("https://www.a.com/").unwrap());
        let canonical = serde_json::to_string(&visit).unwrap();
        let hash = object_hash(canonical.as_bytes());
        // The same visit spelled with a space hashes differently: the
        // address covers the stored bytes, not what they parse to.
        let spaced = ObjectEntry::encode(hash, &canonical.replacen(':', ": ", 1));
        let err = ObjectEntry::decode(&spaced).unwrap_err();
        assert!(err.contains("content address mismatch"), "{err}");
        // Framing defects are named, never a panic.
        for bad in [
            "",
            "{}",
            "{\"hash\":\"0123\"",
            "{\"hash\":\"zzzzzzzzzzzzzzzz\",\"visit\":{}}",
            "{\"visit\":{},\"hash\":\"0123456789abcdef\"}",
            "{\"hash\":\"0123456789abcdef\",\"visit\":{}",
        ] {
            assert!(ObjectEntry::decode(bad).is_err(), "{bad}");
        }
        // A payload that hashes right but does not parse as a visit.
        let junk = "{\"page_url\":1}";
        let entry = ObjectEntry::encode(object_hash(junk.as_bytes()), junk);
        let err = ObjectEntry::decode(&entry).unwrap_err();
        assert!(err.contains("unparseable visit payload"), "{err}");
    }
}
