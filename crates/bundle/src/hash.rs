//! Content and record hashing.
//!
//! All bundle checksums are one word-at-a-time hash kernel (`digest`)
//! under domain-separating seeds, rendered as fixed-width lowercase hex
//! so the archives are plain text, byte-stable, and diffable. The
//! kernel is not `wmtree_webgen::stable_hash`: that byte-at-a-time hash
//! seeds the generated universe and must never change, while this one
//! only has to be stable per bundle [`FORMAT_VERSION`].
//!
//! [`FORMAT_VERSION`]: crate::manifest::FORMAT_VERSION

use crate::error::BundleError;
use crate::manifest::MANIFEST_FILE;
use std::path::Path;

/// Domain seed for content addresses of stored objects.
const OBJECT_SEED: u64 = 0x776d_6275_6f62_6a31; // "wmbuobj1"
/// Domain seed for per-record line checksums.
const LINE_SEED: u64 = 0x776d_6275_6c6e_3131; // "wmbuln11"
/// Domain seed (initial value) for the per-segment rolling chain.
const CHAIN_SEED: u64 = 0x776d_6275_6368_6e31; // "wmbuchn1"
/// Domain seed for whole-bundle content hashes.
const BUNDLE_SEED: u64 = 0x776d_6275_6e64_6c31; // "wmbundl1"

/// Odd multiplier of the kernel (the 64-bit golden ratio).
const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

/// The bundle hash kernel: the length mixed into `seed`, then each
/// 8-byte little-endian word (the last one zero-padded) folded in with
/// one multiply and a rotation, then the splitmix64 finalizer.
///
/// Every step is a bijection of the running state, so two inputs of the
/// same length that differ in one word always hash differently.
fn digest(seed: u64, bytes: &[u8]) -> u64 {
    let fold = |h: u64, word: u64| (h ^ word).wrapping_mul(MULTIPLIER).rotate_left(31);
    let mut h = seed ^ (bytes.len() as u64).wrapping_mul(MULTIPLIER);
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let mut w = [0u8; 8];
        w.copy_from_slice(word);
        h = fold(h, u64::from_le_bytes(w));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut w = [0u8; 8];
        w[..tail.len()].copy_from_slice(tail);
        h = fold(h, u64::from_le_bytes(w));
    }
    let mut z = h;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Content address of a stored object: the hash of exactly its payload
/// bytes.
pub fn object_hash(payload: &[u8]) -> u64 {
    digest(OBJECT_SEED, payload)
}

/// Checksum of one record line's payload (the JSON after the checksum
/// column).
pub fn line_checksum(payload: &[u8]) -> u64 {
    digest(LINE_SEED, payload)
}

/// The initial value of a segment's rolling chain checksum.
pub fn chain_start() -> u64 {
    CHAIN_SEED
}

/// Fold one full record line (checksum column + payload, no trailing
/// newline) into a segment's rolling chain.
pub fn chain_fold(chain: u64, line: &[u8]) -> u64 {
    digest(chain, line)
}

/// Content hash of a whole bundle, as fixed-width hex.
///
/// Defined as the `digest` of the `MANIFEST.json` bytes under a
/// bundle-specific domain seed. The manifest pins the record count and
/// rolling chain checksum of every segment, so any committed byte of
/// the archive is transitively covered: two bundles share a content
/// hash iff their committed contents are byte-identical. (Bytes beyond
/// the manifest-covered prefix are uncommitted crash leftovers and
/// deliberately excluded — resuming truncates them.)
pub fn bundle_content_hash(dir: &Path) -> Result<String, BundleError> {
    let path = dir.join(MANIFEST_FILE);
    let bytes = std::fs::read(&path).map_err(|source| BundleError::Io { path, source })?;
    Ok(to_hex(digest(BUNDLE_SEED, &bytes)))
}

/// Render a hash as the fixed-width lowercase hex the archive stores.
pub fn to_hex(h: u64) -> String {
    format!("{h:016x}")
}

/// Parse a fixed-width hex hash back. `None` for malformed input.
pub fn from_hex(s: &str) -> Option<u64> {
    if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_roundtrip() {
        for h in [0, 1, u64::MAX, 0xdead_beef_0123_4567] {
            assert_eq!(from_hex(&to_hex(h)), Some(h));
        }
    }

    #[test]
    fn hex_rejects_malformed() {
        assert_eq!(from_hex(""), None);
        assert_eq!(from_hex("123"), None);
        assert_eq!(from_hex("zzzzzzzzzzzzzzzz"), None);
        assert_eq!(from_hex("00000000000000000"), None);
    }

    #[test]
    fn domains_are_separated() {
        // The same payload must hash differently per domain, or a
        // record forged from an object (or vice versa) would verify.
        let p = b"payload";
        assert_ne!(object_hash(p), line_checksum(p));
        assert_ne!(object_hash(p), chain_fold(chain_start(), p));
    }

    #[test]
    fn kernel_sees_length_and_every_byte() {
        // Zero padding of the last word must not hide a length change.
        assert_ne!(digest(1, b"ab"), digest(1, b"ab\0"));
        assert_ne!(digest(1, b""), digest(1, b"\0"));
        // A flip of any single bit, in full words and in the tail.
        let base = b"0123456789abcdefXYZ".to_vec();
        let h = digest(7, &base);
        for i in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(digest(7, &flipped), h, "byte {i} bit {bit}");
            }
        }
        // The high bits of adjacent words do not cancel.
        let mut pair = vec![0u8; 16];
        pair[7] ^= 0x80;
        pair[15] ^= 0x80;
        assert_ne!(digest(7, &pair), digest(7, &[0u8; 16]));
    }

    #[test]
    fn chain_is_order_sensitive() {
        let a = chain_fold(chain_fold(chain_start(), b"one"), b"two");
        let b = chain_fold(chain_fold(chain_start(), b"two"), b"one");
        assert_ne!(a, b);
    }
}
