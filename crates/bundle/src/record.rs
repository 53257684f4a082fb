//! The record types the segment logs store, and the one decoder for
//! each kind of payload.

use crate::hash::{from_hex, to_hex};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
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

/// The visit log's one site rule, checked record by record, in log
/// order, by the loader: a checkpoint closes exactly the visit records
/// it counts, each of them names the checkpoint's site, no earlier
/// checkpoint named that site, and no `(url, profile)` appears twice
/// among them. So no page is visited twice by one profile, and every
/// site's visits are one checkpoint's.
/// Each checkpoint's records are reported at their first defect only.
#[derive(Debug, Default)]
pub(crate) struct SiteRule {
    /// The sites the checkpoints so far closed.
    pub(crate) closed: BTreeSet<String>,
    /// The site the records since the last checkpoint name.
    open: Option<String>,
    /// Those records, counted.
    records: usize,
    /// Their `(url, profile)` pairs.
    visits: BTreeSet<(String, usize)>,
    /// One of them, or their checkpoint, was reported.
    reported: bool,
}

impl SiteRule {
    /// Check the next visit record: `profile`'s visit of page `url` of
    /// `site`. The error is what is wrong with it.
    pub(crate) fn visit(&mut self, site: &str, url: &str, profile: usize) -> Result<(), String> {
        self.records += 1;
        let open = self.open.get_or_insert_with(|| site.to_string());
        let defect = if self.closed.contains(site) {
            format!("visit of {site} / {url} follows the checkpoint that closed {site}")
        } else if open != site {
            format!("visit of {site} / {url} among the visit records of {open}")
        } else if !self.visits.insert((url.to_string(), profile)) {
            format!("second visit of {site} / {url} by profile {profile}")
        } else {
            return Ok(());
        };
        if std::mem::replace(&mut self.reported, true) {
            Ok(())
        } else {
            Err(defect)
        }
    }

    /// Check the next checkpoint record, which closes the visit records
    /// since the last one.
    pub(crate) fn checkpoint(&mut self, cp: &Checkpoint) -> Result<(), String> {
        let (open, records) = (self.open.take(), std::mem::take(&mut self.records));
        let reported = std::mem::take(&mut self.reported);
        self.visits.clear();
        let site = &cp.site;
        let defect = if !self.closed.insert(site.clone()) {
            format!("second checkpoint of {site}")
        } else if let Some(open) = open.filter(|open| open != site) {
            format!("checkpoint of {site} closes the visit records of {open}")
        } else if cp.visits != records {
            format!(
                "checkpoint of {site} counts {} visit record(s), closes {records}",
                cp.visits
            )
        } else {
            return Ok(());
        };
        if reported {
            Ok(())
        } else {
            Err(defect)
        }
    }
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

impl Record {
    /// Decode one visit-log payload: parse the record, then a visit's
    /// object hash. The error is what is wrong with it.
    pub(crate) fn decode(payload: &str) -> Result<LogEntry, String> {
        let record: Record =
            serde_json::from_str(payload).map_err(|e| format!("unparseable record: {e}"))?;
        match record {
            Record::Checkpoint(cp) => Ok(LogEntry::Checkpoint(cp)),
            Record::Visit(vr) => match from_hex(&vr.object) {
                Some(hash) => Ok(LogEntry::Visit(vr, hash)),
                None => Err(format!("malformed object hash `{}`", vr.object)),
            },
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
