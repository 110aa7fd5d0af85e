//! Property tests for the bit-parallel pattern block: pack/extract
//! round-trips and the `valid_mask` invariant that the simulator and the
//! equivalence checker lean on.

use gshe_logic::PatternBlock;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `from_patterns` → `pattern(k)` is the identity for every row, for
    /// any pattern count in 1..=64 and any width.
    #[test]
    fn pack_then_extract_round_trips(
        count in 1usize..=64,
        width in 1usize..40,
        seed in 0u64..500,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let patterns: Vec<Vec<bool>> = (0..count)
            .map(|_| (0..width).map(|_| rand::Rng::gen_bool(&mut rng, 0.5)).collect())
            .collect();
        let block = PatternBlock::from_patterns(&patterns);
        prop_assert_eq!(block.count, count);
        prop_assert_eq!(block.lanes.len(), width);
        for (k, row) in patterns.iter().enumerate() {
            prop_assert_eq!(&block.pattern(k), row, "row {}", k);
        }
    }

    /// `valid_mask` has exactly `count` low bits set, and no lane of a
    /// packed block ever carries bits outside the mask.
    #[test]
    fn valid_mask_invariant(
        count in 1usize..=64,
        width in 1usize..40,
        seed in 0u64..500,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xB10C);
        let patterns: Vec<Vec<bool>> = (0..count)
            .map(|_| (0..width).map(|_| rand::Rng::gen_bool(&mut rng, 0.5)).collect())
            .collect();
        let block = PatternBlock::from_patterns(&patterns);
        let mask = block.valid_mask();
        prop_assert_eq!(mask.count_ones() as usize, count);
        if count < 64 {
            prop_assert_eq!(mask, (1u64 << count) - 1);
        } else {
            prop_assert_eq!(mask, !0u64);
        }
        for (i, &lane) in block.lanes.iter().enumerate() {
            prop_assert_eq!(lane & !mask, 0, "lane {} spills outside the mask", i);
        }
    }

    /// Random blocks always claim 64 valid patterns and extract cleanly.
    #[test]
    fn random_blocks_are_full(width in 1usize..40, seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let block = PatternBlock::random(width, &mut rng);
        prop_assert_eq!(block.count, 64);
        prop_assert_eq!(block.valid_mask(), !0u64);
        prop_assert_eq!(block.pattern(63).len(), width);
    }
}
