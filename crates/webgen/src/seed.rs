//! Seed derivation: stable hashing so every part of the universe is a
//! pure function of (universe seed, identity strings).

/// FNV-1a + avalanche hash of a byte string with a seed. Stable across
//  runs and platforms (unlike `DefaultHasher`).
pub fn stable_hash(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = StableHasher::new(seed);
    h.write(bytes);
    h.finish()
}

/// [`stable_hash`] fed piece by piece: hashing the pieces of a byte
/// string in order gives `stable_hash` of the whole string, so a key
/// need not be assembled in a buffer first.
#[derive(Debug, Clone, Copy)]
pub struct StableHasher(u64);

impl StableHasher {
    /// Start hashing with `seed`.
    pub fn new(seed: u64) -> StableHasher {
        StableHasher(0xcbf2_9ce4_8422_2325 ^ seed)
    }

    /// Hash the next bytes (FNV-1a).
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }

    /// Hash `n` written in decimal, as `n.to_string()` spells it.
    pub fn write_decimal(&mut self, n: u64) {
        let mut digits = [0u8; 20];
        let mut start = digits.len();
        let mut rest = n;
        loop {
            start -= 1;
            digits[start] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        self.write(&digits[start..]);
    }

    /// The hash of everything written (splitmix64 finalizer for
    /// avalanche).
    pub fn finish(self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Hierarchical seed derivation: `SeedMixer::new(seed).with("site").with(domain).finish()`.
#[derive(Debug, Clone, Copy)]
pub struct SeedMixer(u64);

impl SeedMixer {
    /// Start from a root seed.
    pub fn new(seed: u64) -> Self {
        SeedMixer(seed)
    }

    /// Mix in a labelled component.
    pub fn with(self, label: &str) -> Self {
        SeedMixer(stable_hash(self.0, label.as_bytes()))
    }

    /// Mix in an integer component.
    pub fn with_u64(self, v: u64) -> Self {
        SeedMixer(stable_hash(self.0, &v.to_le_bytes()))
    }

    /// The derived seed.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Derive a bounded value in `[0, bound)` from a hash (for structural
/// choices that do not need a full RNG).
pub fn bounded(hash: u64, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    // Multiply-shift: unbiased enough for structural variety.
    ((hash as u128 * bound as u128) >> 64) as u64
}

/// Derive a probability check: true with probability `p`.
pub fn chance(hash: u64, p: f64) -> bool {
    (hash as f64 / u64::MAX as f64) < p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_and_distinct() {
        assert_eq!(stable_hash(1, b"a"), stable_hash(1, b"a"));
        assert_ne!(stable_hash(1, b"a"), stable_hash(2, b"a"));
        assert_ne!(stable_hash(1, b"a"), stable_hash(1, b"b"));
    }

    #[test]
    fn mixer_order_matters() {
        let a = SeedMixer::new(7).with("x").with("y").finish();
        let b = SeedMixer::new(7).with("y").with("x").finish();
        assert_ne!(a, b);
    }

    #[test]
    fn mixer_with_u64() {
        let a = SeedMixer::new(7).with_u64(1).finish();
        let b = SeedMixer::new(7).with_u64(2).finish();
        assert_ne!(a, b);
    }

    #[test]
    fn bounded_in_range() {
        for i in 0..1000u64 {
            let v = bounded(stable_hash(3, &i.to_le_bytes()), 10);
            assert!(v < 10);
        }
    }

    #[test]
    fn bounded_covers_range() {
        let seen: std::collections::BTreeSet<u64> = (0..1000u64)
            .map(|i| bounded(stable_hash(3, &i.to_le_bytes()), 10))
            .collect();
        assert_eq!(seen.len(), 10);
    }

    #[test]
    fn chance_roughly_calibrated() {
        let hits = (0..10_000u64)
            .filter(|&i| chance(stable_hash(5, &i.to_le_bytes()), 0.3))
            .count();
        assert!((2700..3300).contains(&hits), "got {hits}");
    }
}
