//! `StableHasher` against `stable_hash`: feeding a byte string in
//! pieces, split anywhere, hashes it as one call does, and the decimal
//! writer hashes what `to_string` spells.

use proptest::prelude::*;
use wmtree_webgen::{stable_hash, StableHasher};

proptest! {
    #[test]
    fn any_split_hashes_as_the_whole(
        seed in any::<u64>(),
        text in "[a-z0-9:/?=&{}é日 -]{0,40}",
        cuts in prop::collection::vec(any::<usize>(), 0..5),
    ) {
        let bytes = text.as_bytes();
        let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (bytes.len() + 1)).collect();
        cuts.sort_unstable();
        let mut hasher = StableHasher::new(seed);
        let mut start = 0;
        for cut in cuts.into_iter().chain([bytes.len()]) {
            hasher.write(&bytes[start..cut]);
            start = cut;
        }
        prop_assert_eq!(hasher.finish(), stable_hash(seed, bytes));
    }

    #[test]
    fn decimal_writer_hashes_to_string(
        seed in any::<u64>(),
        prefix in "[a-z:]{0,8}",
        n in any::<u64>(),
        small in 0u64..1000,
    ) {
        for n in [n, small] {
            let mut hasher = StableHasher::new(seed);
            hasher.write(prefix.as_bytes());
            hasher.write_decimal(n);
            prop_assert_eq!(hasher.finish(), stable_hash(seed, format!("{prefix}{n}").as_bytes()));
        }
    }
}

#[test]
fn decimal_writer_edges() {
    for n in [
        0,
        1,
        9,
        10,
        99,
        100,
        u64::from(u32::MAX),
        u64::MAX - 1,
        u64::MAX,
    ] {
        let mut hasher = StableHasher::new(7);
        hasher.write_decimal(n);
        assert_eq!(
            hasher.finish(),
            stable_hash(7, n.to_string().as_bytes()),
            "{n}"
        );
    }
    assert_eq!(StableHasher::new(3).finish(), stable_hash(3, b""));
}
