//! Append-only, checksummed segment logs.
//!
//! A log is a sequence of segment files (`<prefix>-000.seg`,
//! `<prefix>-001.seg`, ...), each holding at most `segment_capacity`
//! records. A record is one text line:
//!
//! ```text
//! <checksum:016x> <payload JSON>\n
//! ```
//!
//! The checksum column covers the payload bytes; additionally every
//! segment carries a rolling *chain* checksum (folded over each full
//! line) that the manifest pins, so a reordered, truncated, or spliced
//! segment is detected even when each individual line still verifies.
//!
//! [`LogWriter`] appends; [`LogScan`] is the one reader. It consumes
//! exactly the records the manifest declares and yields every framing
//! defect as an item ([`LogScan::next_item`]), in scan order, so one
//! loop serves every caller: readers stop at the first defect that is
//! not a crash leftover, verifiers collect them all, and recovering
//! callers cut crash leftovers away afterwards ([`LogScan::truncate`]).

use crate::error::BundleError;
use crate::hash::{chain_fold, chain_start, from_hex, line_checksum, to_hex};
use crate::manifest::SegmentMeta;
use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

/// Width of the checksum column (16 hex digits + one space).
const HEADER_WIDTH: usize = 17;

/// Deterministic segment file name: `<prefix>-<idx:03>.seg`.
pub fn segment_name(prefix: &str, idx: usize) -> String {
    format!("{prefix}-{idx:03}.seg")
}

/// Where a record lives, for error reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordLoc {
    /// Segment file name.
    pub segment: String,
    /// One-based line number within the segment.
    pub line: usize,
    /// Byte offset of the start of the line within the segment.
    pub offset: u64,
}

/// A defect of a segment log. [`LogScan`] reports the framing ones;
/// record decoders report undecodable payloads as `Corrupt` at the
/// record's [`RecordLoc`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegmentDefect {
    /// A committed record is not UTF-8, is malformed, fails its
    /// checksum, or does not decode.
    Corrupt {
        /// Segment file name.
        segment: String,
        /// One-based line number.
        line: usize,
        /// Byte offset of the record start.
        offset: u64,
        /// What exactly is wrong.
        detail: String,
    },
    /// The log disagrees with its manifest: a segment ends early or
    /// its chain differs, or a whole-log count is off.
    ManifestMismatch {
        /// Segment file name (or log prefix for whole-log counts).
        segment: String,
        /// What exactly disagrees.
        detail: String,
    },
    /// Bytes past a segment's committed region, or a stray segment past
    /// the committed set: an interrupted run's uncommitted leftovers,
    /// harmless, and removed by recovery.
    TrailingBytes {
        /// Segment file name.
        segment: String,
        /// How many uncommitted bytes there are.
        bytes: u64,
    },
}

impl SegmentDefect {
    /// A `Corrupt` defect at `loc`.
    pub fn corrupt(loc: &RecordLoc, detail: impl Into<String>) -> SegmentDefect {
        SegmentDefect::Corrupt {
            segment: loc.segment.clone(),
            line: loc.line,
            offset: loc.offset,
            detail: detail.into(),
        }
    }
}

impl From<SegmentDefect> for BundleError {
    fn from(defect: SegmentDefect) -> BundleError {
        match defect {
            SegmentDefect::Corrupt {
                segment,
                line,
                offset,
                detail,
            } => BundleError::Corrupt {
                segment,
                line,
                offset,
                detail,
            },
            SegmentDefect::ManifestMismatch { segment, detail } => {
                BundleError::ManifestMismatch { segment, detail }
            }
            SegmentDefect::TrailingBytes { segment, bytes } => BundleError::ManifestMismatch {
                segment,
                detail: format!("{bytes} uncommitted byte(s) past the committed region"),
            },
        }
    }
}

/// Split a raw line into `(checksum, payload)`, without verifying.
/// Returns a static description of the framing defect on failure. The
/// writer only emits lowercase hex, so any other spelling of the
/// checksum column is a defect of the line itself.
fn split_line(line: &str) -> Result<(u64, &str), &'static str> {
    let line = line.strip_suffix('\n').unwrap_or(line);
    let bytes = line.as_bytes();
    if bytes.len() < HEADER_WIDTH {
        return Err("record shorter than its checksum column");
    }
    if bytes[HEADER_WIDTH - 1] != b' ' {
        return Err("missing separator after checksum column");
    }
    if !bytes[..HEADER_WIDTH - 1]
        .iter()
        .all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'))
    {
        return Err("malformed checksum column");
    }
    // Every byte up to the separator is ASCII, so this is a char boundary.
    let (head, payload) = line.split_at(HEADER_WIDTH);
    match from_hex(&head[..HEADER_WIDTH - 1]) {
        Some(h) => Ok((h, payload)),
        None => Err("malformed checksum column"),
    }
}

/// Verify one line's checksum column against its payload.
fn verify_line(line: &str) -> Result<&str, String> {
    let (declared, payload) = split_line(line).map_err(|e| e.to_string())?;
    let actual = line_checksum(payload.as_bytes());
    if actual != declared {
        return Err(format!(
            "checksum mismatch: record declares {}, payload hashes to {}",
            to_hex(declared),
            to_hex(actual)
        ));
    }
    Ok(payload)
}

/// Decode one raw record line as UTF-8 (corruption can produce invalid
/// byte sequences the checksum column never gets to see), reusing the
/// buffer's allocation on success.
fn decode_line(buf: Vec<u8>) -> Result<String, String> {
    String::from_utf8(buf).map_err(|e| {
        format!(
            "record is not valid UTF-8 from byte {}",
            e.utf8_error().valid_up_to()
        )
    })
}

/// Writer over a rotating segment log.
#[derive(Debug)]
pub struct LogWriter {
    dir: PathBuf,
    prefix: &'static str,
    capacity: usize,
    metas: Vec<SegmentMeta>,
    file: Option<BufWriter<File>>,
}

impl LogWriter {
    /// A fresh log with no segments yet.
    pub fn create(dir: &Path, prefix: &'static str, capacity: usize) -> LogWriter {
        LogWriter::resume(dir, prefix, capacity, Vec::new())
    }

    /// Reopen a verified, truncated log for appending. `metas` must
    /// describe the on-disk state exactly (as a clean [`LogScan`]
    /// followed by [`LogScan::truncate`] guarantees).
    pub fn resume(
        dir: &Path,
        prefix: &'static str,
        capacity: usize,
        metas: Vec<SegmentMeta>,
    ) -> LogWriter {
        LogWriter {
            dir: dir.to_path_buf(),
            prefix,
            capacity: capacity.max(1),
            metas,
            file: None,
        }
    }

    /// The per-segment metadata (name, record count, chain checksum).
    pub fn metas(&self) -> &[SegmentMeta] {
        &self.metas
    }

    /// Append one record payload. Rotates to a new segment when the
    /// current one is full.
    pub fn append(&mut self, payload: &str) -> Result<(), BundleError> {
        let need_rotate = match self.metas.last() {
            None => true,
            Some(m) => m.records as usize >= self.capacity,
        };
        if need_rotate {
            self.flush()?;
            self.file = None;
            self.metas.push(SegmentMeta {
                name: segment_name(self.prefix, self.metas.len()),
                records: 0,
                chain: to_hex(chain_start()),
            });
        }
        // `metas` is non-empty here: rotation above pushes the first one.
        let Some(meta) = self.metas.last_mut() else {
            unreachable!("rotation guarantees an open segment");
        };
        if self.file.is_none() {
            let path = self.dir.join(&meta.name);
            let file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .map_err(|e| BundleError::io(&path, e))?;
            self.file = Some(BufWriter::new(file));
        }
        let line = format!("{} {payload}", to_hex(line_checksum(payload.as_bytes())));
        let Some(out) = self.file.as_mut() else {
            unreachable!("opened above");
        };
        let path = self.dir.join(&meta.name);
        out.write_all(line.as_bytes())
            .and_then(|_| out.write_all(b"\n"))
            .map_err(|e| BundleError::io(&path, e))?;
        wmtree_telemetry::counter!("bundle.bytes.written").add(line.len() as u64 + 1);
        let chain = from_hex(&meta.chain).unwrap_or_else(chain_start);
        meta.chain = to_hex(chain_fold(chain, line.as_bytes()));
        meta.records += 1;
        Ok(())
    }

    /// Flush buffered bytes of the open segment to the OS.
    pub fn flush(&mut self) -> Result<(), BundleError> {
        if let (Some(file), Some(meta)) = (self.file.as_mut(), self.metas.last()) {
            file.flush()
                .map_err(|e| BundleError::io(self.dir.join(&meta.name), e))?;
        }
        Ok(())
    }
}

/// One item of a [`LogScan`].
#[derive(Debug)]
pub enum Scanned<'a> {
    /// A committed record whose checksum verified, with its payload.
    Record(RecordLoc, &'a str),
    /// A framing defect; the scan goes on past it.
    Defect(SegmentDefect),
}

/// What one step of the scan produced (owned, so the payload is
/// borrowed only when a caller takes it).
enum Step {
    Record(RecordLoc),
    Defect(SegmentDefect),
}

/// The one reader of segment logs: a pull-based scan over the records
/// the manifest declares, then over any stray segments past them.
///
/// Each record is read into a reused buffer, counted in
/// `bundle.bytes.read`, checked against its checksum column and folded
/// into the segment's chain. Framing defects come out as items in scan
/// order: a corrupt line, a file that ends early, a chain that differs
/// from the manifest, uncommitted trailing bytes, and stray segments.
/// An I/O failure is an `Err`, after which callers stop.
#[derive(Debug)]
pub struct LogScan {
    dir: PathBuf,
    prefix: &'static str,
    metas: Vec<SegmentMeta>,
    /// Index into `metas` of the segment being read; past the end, the
    /// index of the next candidate stray segment.
    seg: usize,
    reader: Option<BufReader<File>>,
    /// Records read from the current segment.
    lines: u64,
    /// Bytes consumed from the current segment.
    offset: u64,
    chain: u64,
    /// The current line (reused allocation).
    buf: String,
    /// Defects found at a segment's end, yielded before moving on.
    queued: VecDeque<SegmentDefect>,
    /// Crash leftovers to remove on [`LogScan::truncate`]: a committed
    /// length to cut a segment back to, or `None` to delete a stray.
    cuts: Vec<(String, Option<u64>)>,
}

impl LogScan {
    /// A scan over the log `prefix` in `dir` whose committed segments
    /// `metas` describes.
    pub fn new(dir: &Path, prefix: &'static str, metas: &[SegmentMeta]) -> LogScan {
        LogScan {
            dir: dir.to_path_buf(),
            prefix,
            metas: metas.to_vec(),
            seg: 0,
            reader: None,
            lines: 0,
            offset: 0,
            chain: chain_start(),
            buf: String::new(),
            queued: VecDeque::new(),
            cuts: Vec::new(),
        }
    }

    /// The next record or defect, `None` once the log is exhausted.
    pub fn next_item(&mut self) -> Option<Result<Scanned<'_>, BundleError>> {
        Some(match self.step()? {
            Ok(Step::Record(loc)) => Ok(Scanned::Record(loc, self.payload())),
            Ok(Step::Defect(defect)) => Ok(Scanned::Defect(defect)),
            Err(e) => Err(e),
        })
    }

    /// Recovery after a scan that found no defect but crash leftovers:
    /// cut every segment back to the committed length the scan
    /// measured and delete stray segments.
    pub fn truncate(&self) -> Result<(), BundleError> {
        for (name, committed) in &self.cuts {
            let path = self.dir.join(name);
            match committed {
                Some(len) => OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .and_then(|f| f.set_len(*len)),
                None => std::fs::remove_file(&path),
            }
            .map_err(|e| BundleError::io(&path, e))?;
        }
        Ok(())
    }

    /// The payload of the record the last step read.
    fn payload(&self) -> &str {
        let line = self.buf.strip_suffix('\n').unwrap_or(&self.buf);
        line.get(HEADER_WIDTH..).unwrap_or_default()
    }

    fn step(&mut self) -> Option<Result<Step, BundleError>> {
        loop {
            if let Some(defect) = self.queued.pop_front() {
                return Some(Ok(Step::Defect(defect)));
            }
            let Some(meta) = self.metas.get(self.seg) else {
                return self.next_stray().map(|r| r.map(Step::Defect));
            };
            if self.lines < meta.records {
                return Some(self.read_record());
            }
            let path = self.dir.join(&meta.name);
            // The segment's declared records are read: its chain must
            // match, and anything after them is uncommitted.
            if to_hex(self.chain) != meta.chain {
                self.queued.push_back(SegmentDefect::ManifestMismatch {
                    segment: meta.name.clone(),
                    detail: format!(
                        "segment chain is {}, manifest declares {}",
                        to_hex(self.chain),
                        meta.chain
                    ),
                });
            }
            let len = match std::fs::metadata(&path) {
                Ok(md) => md.len(),
                // A segment with no records may never have been created.
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => 0,
                Err(e) => return Some(Err(BundleError::io(path, e))),
            };
            if len > self.offset {
                self.queued.push_back(SegmentDefect::TrailingBytes {
                    segment: meta.name.clone(),
                    bytes: len - self.offset,
                });
                self.cuts.push((meta.name.clone(), Some(self.offset)));
            }
            self.next_segment();
        }
    }

    fn next_segment(&mut self) {
        self.seg += 1;
        self.reader = None;
        self.lines = 0;
        self.offset = 0;
        self.chain = chain_start();
    }

    /// Read, count, chain and verify the current segment's next line.
    fn read_record(&mut self) -> Result<Step, BundleError> {
        let meta = &self.metas[self.seg];
        if self.reader.is_none() {
            let path = self.dir.join(&meta.name);
            match File::open(&path) {
                Ok(f) => self.reader = Some(BufReader::new(f)),
                // A missing segment is one that ends before its first record.
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(BundleError::io(path, e)),
            }
        }
        let mut bytes = std::mem::take(&mut self.buf).into_bytes();
        bytes.clear();
        let read = match self.reader.as_mut() {
            Some(reader) => reader
                .read_until(b'\n', &mut bytes)
                .map_err(|e| BundleError::io(self.dir.join(&meta.name), e))?,
            None => 0,
        };
        if read == 0 {
            let defect = SegmentDefect::ManifestMismatch {
                segment: meta.name.clone(),
                detail: format!(
                    "file ends after {} record(s), manifest declares {}",
                    self.lines, meta.records
                ),
            };
            self.next_segment();
            return Ok(Step::Defect(defect));
        }
        wmtree_telemetry::counter!("bundle.bytes.read").add(read as u64);
        let loc = RecordLoc {
            segment: meta.name.clone(),
            line: self.lines as usize + 1,
            offset: self.offset,
        };
        self.lines += 1;
        self.offset += read as u64;
        let trimmed = bytes.strip_suffix(b"\n").unwrap_or(&bytes);
        self.chain = chain_fold(self.chain, trimmed);
        let verified = decode_line(bytes).and_then(|line| {
            verify_line(&line)?;
            Ok(line)
        });
        match verified {
            Ok(line) => {
                self.buf = line;
                Ok(Step::Record(loc))
            }
            Err(detail) => Ok(Step::Defect(SegmentDefect::corrupt(&loc, detail))),
        }
    }

    /// The next stray segment past the committed set, as a
    /// `TrailingBytes` defect covering the whole file.
    fn next_stray(&mut self) -> Option<Result<SegmentDefect, BundleError>> {
        let name = segment_name(self.prefix, self.seg);
        let path = self.dir.join(&name);
        match std::fs::metadata(&path) {
            Ok(md) => {
                self.seg += 1;
                self.cuts.push((name.clone(), None));
                Some(Ok(SegmentDefect::TrailingBytes {
                    segment: name,
                    bytes: md.len(),
                }))
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => Some(Err(BundleError::io(path, e))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wmtree-bundle-seg-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write(dir: &Path, capacity: usize, n: usize) -> LogWriter {
        let mut w = LogWriter::create(dir, "visits", capacity);
        for i in 0..n {
            w.append(&format!("{{\"n\":{i}}}")).unwrap();
        }
        w.flush().unwrap();
        w
    }

    /// A reader's policy over the scan: the next committed record,
    /// `None` at the end; crash leftovers are skipped, any other defect
    /// is an error.
    fn next_record(scan: &mut LogScan) -> Result<Option<(RecordLoc, String)>, BundleError> {
        loop {
            match scan.next_item().transpose()? {
                None => return Ok(None),
                Some(Scanned::Defect(SegmentDefect::TrailingBytes { .. })) => {}
                Some(Scanned::Defect(defect)) => return Err(defect.into()),
                Some(Scanned::Record(loc, payload)) => return Ok(Some((loc, payload.to_string()))),
            }
        }
    }

    fn drain(dir: &Path, metas: &[SegmentMeta]) -> Vec<String> {
        let mut scan = LogScan::new(dir, "visits", metas);
        let mut out = Vec::new();
        while let Some((_, payload)) = next_record(&mut scan).unwrap() {
            out.push(payload);
        }
        out
    }

    fn defects(dir: &Path, metas: &[SegmentMeta]) -> Vec<SegmentDefect> {
        let mut scan = LogScan::new(dir, "visits", metas);
        let mut out = Vec::new();
        while let Some(item) = scan.next_item() {
            if let Scanned::Defect(d) = item.unwrap() {
                out.push(d);
            }
        }
        out
    }

    #[test]
    fn write_read_roundtrip_with_rotation() {
        let dir = tmp("rotate");
        let w = write(&dir, 3, 8);
        assert_eq!(w.metas().len(), 3, "8 records at capacity 3 = 3 segments");
        let expected: Vec<String> = (0..8).map(|i| format!("{{\"n\":{i}}}")).collect();
        assert_eq!(drain(&dir, w.metas()), expected);
        assert!(defects(&dir, w.metas()).is_empty());
    }

    #[test]
    fn flipped_byte_names_segment_line_and_offset() {
        let dir = tmp("corrupt");
        let w = write(&dir, 100, 5);
        // Flip one payload byte in the middle of line 3.
        let path = dir.join(segment_name("visits", 0));
        let mut bytes = std::fs::read(&path).unwrap();
        let line_len = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        let victim = 2 * line_len + HEADER_WIDTH + 2;
        bytes[victim] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();

        let mut scan = LogScan::new(&dir, "visits", w.metas());
        next_record(&mut scan).unwrap().unwrap();
        next_record(&mut scan).unwrap().unwrap();
        match next_record(&mut scan).unwrap_err() {
            BundleError::Corrupt {
                segment,
                line,
                offset,
                ..
            } => {
                assert_eq!(segment, "visits-000.seg");
                assert_eq!(line, 3);
                assert_eq!(offset, 2 * line_len as u64);
            }
            other => panic!("expected Corrupt, got {other}"),
        }
        // Stopping is the caller's choice: the scan itself goes on.
        let (loc, _) = next_record(&mut scan).unwrap().unwrap();
        assert_eq!(loc.line, 4);
    }

    #[test]
    fn truncated_file_reported_as_manifest_mismatch() {
        let dir = tmp("short");
        let w = write(&dir, 100, 3);
        let path = dir.join(segment_name("visits", 0));
        let bytes = std::fs::read(&path).unwrap();
        let keep = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        std::fs::write(&path, &bytes[..keep]).unwrap();

        let mut scan = LogScan::new(&dir, "visits", w.metas());
        next_record(&mut scan).unwrap().unwrap();
        let err = next_record(&mut scan).unwrap_err();
        assert!(matches!(err, BundleError::ManifestMismatch { .. }), "{err}");
        // A missing segment is the shortest file of all.
        std::fs::remove_file(&path).unwrap();
        let found = defects(&dir, w.metas());
        assert!(
            matches!(found.as_slice(), [SegmentDefect::ManifestMismatch { detail, .. }] if detail.contains("after 0 record(s)")),
            "{found:?}"
        );
    }

    #[test]
    fn lenient_scan_reports_every_defect_in_order() {
        let dir = tmp("lenient");
        let w = write(&dir, 2, 4);
        // Swap the two lines of the first segment (each still verifies,
        // the chain does not), corrupt line 1 of the second, and leave
        // a torn tail plus a stray segment behind.
        let first = dir.join(segment_name("visits", 0));
        let text = std::fs::read_to_string(&first).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        std::fs::write(&first, format!("{}\n{}\n", lines[1], lines[0])).unwrap();
        let second = dir.join(segment_name("visits", 1));
        let mut bytes = std::fs::read(&second).unwrap();
        bytes[HEADER_WIDTH + 1] ^= 1;
        bytes.extend_from_slice(b"0123 torn");
        std::fs::write(&second, &bytes).unwrap();
        std::fs::write(dir.join(segment_name("visits", 2)), b"junk").unwrap();

        let found = defects(&dir, w.metas());
        assert_eq!(found.len(), 5, "{found:?}");
        assert!(
            matches!(&found[0], SegmentDefect::ManifestMismatch { segment, .. } if segment == "visits-000.seg")
        );
        let line_len = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        assert!(
            matches!(&found[1], SegmentDefect::Corrupt { segment, line: 1, offset: 0, .. } if segment == "visits-001.seg")
        );
        assert!(
            matches!(&found[2], SegmentDefect::ManifestMismatch { segment, .. } if segment == "visits-001.seg")
        );
        assert_eq!(
            found[3],
            SegmentDefect::TrailingBytes {
                segment: "visits-001.seg".into(),
                bytes: (bytes.len() - 2 * line_len) as u64,
            }
        );
        assert_eq!(
            found[4],
            SegmentDefect::TrailingBytes {
                segment: "visits-002.seg".into(),
                bytes: 4,
            }
        );
    }

    #[test]
    fn truncate_drops_uncommitted_tail_and_strays() {
        let dir = tmp("trunc");
        let mut w = write(&dir, 100, 3);
        let committed = w.metas().to_vec();
        // Uncommitted tail: one more record and a stray next segment,
        // as if the process died mid-site before the manifest update.
        w.append("{\"n\":98}").unwrap();
        w.flush().unwrap();
        std::fs::write(dir.join(segment_name("visits", 1)), b"garbage").unwrap();

        let mut scan = LogScan::new(&dir, "visits", &committed);
        let mut seen = 0;
        while next_record(&mut scan).unwrap().is_some() {
            seen += 1;
        }
        assert_eq!(seen, 3);
        scan.truncate().unwrap();
        assert!(!dir.join(segment_name("visits", 1)).exists());
        assert!(defects(&dir, &committed).is_empty(), "nothing left over");
        // After truncation a resumed writer continues as if the tail
        // never happened.
        let mut w2 = LogWriter::resume(&dir, "visits", 100, committed.clone());
        w2.append("{\"n\":3}").unwrap();
        w2.flush().unwrap();
        let all = drain(&dir, w2.metas());
        assert_eq!(all.last().map(String::as_str), Some("{\"n\":3}"));
        assert_eq!(all.len(), 4);
    }

    #[test]
    fn resumed_log_is_byte_identical_to_uninterrupted() {
        let a = tmp("ident-a");
        let b = tmp("ident-b");
        let payloads: Vec<String> = (0..10).map(|i| format!("{{\"n\":{i}}}")).collect();

        let mut wa = LogWriter::create(&a, "visits", 4);
        for p in &payloads {
            wa.append(p).unwrap();
        }
        wa.flush().unwrap();

        let mut wb = LogWriter::create(&b, "visits", 4);
        for p in &payloads[..5] {
            wb.append(p).unwrap();
        }
        wb.flush().unwrap();
        let committed = wb.metas().to_vec();
        drop(wb);
        let mut wb = LogWriter::resume(&b, "visits", 4, committed);
        for p in &payloads[5..] {
            wb.append(p).unwrap();
        }
        wb.flush().unwrap();

        assert_eq!(wa.metas(), wb.metas());
        for meta in wa.metas() {
            let fa = std::fs::read(a.join(&meta.name)).unwrap();
            let fb = std::fs::read(b.join(&meta.name)).unwrap();
            assert_eq!(fa, fb, "{}", meta.name);
        }
    }

    #[test]
    fn split_line_rejects_framing_defects() {
        assert!(split_line("short").is_err());
        assert!(split_line("0000000000000000_{}").is_err());
        assert!(split_line("zzzzzzzzzzzzzzzz {}").is_err());
        let good = format!("{} {{}}", to_hex(line_checksum(b"{}")));
        assert_eq!(split_line(&good).unwrap().1, "{}");
        // The same value spelled in uppercase is not what the writer
        // emits, so it does not verify.
        let upper = format!("{} {{}}", to_hex(line_checksum(b"{}")).to_uppercase());
        assert_ne!(upper, good, "the checksum has a hex letter");
        assert!(split_line(&upper).is_err());
        // A multi-byte character straddling the column is an error, not
        // a slicing panic.
        assert!(split_line("000000000000000\u{e9}{}").is_err());
    }
}
