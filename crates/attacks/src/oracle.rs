//! The attacker's view of the working chip: the [`Oracle`] trait.
//!
//! The chip itself is always an [`OracleStack`](crate::stack::OracleStack)
//! — exact, noisy, rotating, or rotating + noisy. The one other
//! implementor only reshapes its answers: [`CoiOracle`](crate::coi::CoiOracle)
//! projects it onto a cone of influence. Nothing memoizes them; every
//! attack cell queries its stack directly.
//!
//! A cone-projected attack hands the chip each block with the cone's
//! input ordinals and the affected outputs ([`Oracle::query_cone`]). By
//! default that is a scatter, a full [`Oracle::query_block`] and a
//! gather; the exact stack answers from the outputs' fanin cone instead.

use gshe_logic::PatternBlock;

/// A black-box working chip: apply inputs, observe outputs.
pub trait Oracle {
    /// Queries the chip on a whole [`PatternBlock`] (up to 64 patterns) in
    /// one call, returning one `u64` per primary output with bit `k` set to
    /// the output's value under pattern `k` (bits at `k >= block.count`
    /// clear). Every pattern counts as one query.
    fn query_block(&mut self, block: &PatternBlock) -> Vec<u64>;
    /// Number of primary inputs.
    fn num_inputs(&self) -> usize;
    /// Number of primary outputs.
    fn num_outputs(&self) -> usize;
    /// Queries issued so far.
    fn queries(&self) -> u64;

    /// Queries the chip on a cone block: lane `k` drives input ordinal
    /// `inputs[k]` (strictly ascending), every other input is held at 0,
    /// and word `j` of the answer is output `outputs[j]`'s lanes (output
    /// ordinals, any order, repeats allowed). Every pattern counts as one
    /// query, and the chip is left as [`Oracle::query_block`] on the
    /// scattered block leaves it. The default scatters, answers the whole
    /// block and gathers.
    ///
    /// # Panics
    ///
    /// Panics if `block` has not one lane per listed input, or an ordinal
    /// is out of range.
    fn query_cone(
        &mut self,
        block: &PatternBlock,
        inputs: &[usize],
        outputs: &[usize],
    ) -> Vec<u64> {
        query_cone_full(self, block, inputs, outputs)
    }

    /// Queries the chip once: a one-pattern [`Oracle::query_block`].
    fn query(&mut self, inputs: &[bool]) -> Vec<bool> {
        let block = PatternBlock {
            lanes: inputs.iter().map(|&bit| u64::from(bit)).collect(),
            count: 1,
        };
        self.query_block(&block)
            .iter()
            .map(|lane| lane & 1 == 1)
            .collect()
    }
}

/// The default [`Oracle::query_cone`], and every stack's but the exact
/// static one: scatter, one [`Oracle::query_block`], gather.
pub(crate) fn query_cone_full<O: Oracle + ?Sized>(
    oracle: &mut O,
    block: &PatternBlock,
    inputs: &[usize],
    outputs: &[usize],
) -> Vec<u64> {
    assert_eq!(
        block.lanes.len(),
        inputs.len(),
        "a cone block has one lane per listed input"
    );
    let mut lanes = vec![0u64; oracle.num_inputs()];
    for (&input, &lane) in inputs.iter().zip(&block.lanes) {
        lanes[input] = lane;
    }
    let full = oracle.query_block(&PatternBlock {
        lanes,
        count: block.count,
    });
    outputs.iter().map(|&o| full[o]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::tests::{c17_keyed, cloaked_noise};
    use crate::stack::OracleStack;
    use gshe_logic::bench_format::{parse_bench, C17_BENCH};
    use gshe_logic::ErrorProfile;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn netlist_oracle_counts_queries() {
        let nl = parse_bench(C17_BENCH).unwrap();
        let mut o = OracleStack::exact(&nl);
        assert_eq!(o.queries(), 0);
        let y = o.query(&[false; 5]);
        assert_eq!(y.len(), 2);
        assert_eq!(o.queries(), 1);
        assert_eq!(o.num_inputs(), 5);
        assert_eq!(o.num_outputs(), 2);
    }

    #[test]
    fn zero_error_stochastic_oracle_matches_original() {
        let (nl, keyed) = c17_keyed();
        let mut o = OracleStack::noisy(&keyed, cloaked_noise(&keyed, 0.0), 5);
        for p in 0..32u32 {
            let v: Vec<bool> = (0..5).map(|k| (p >> k) & 1 == 1).collect();
            assert_eq!(o.query(&v), nl.evaluate(&v), "p={p}");
        }
    }

    #[test]
    fn high_error_oracle_disagrees_often() {
        let (nl, keyed) = c17_keyed();
        let mut o = OracleStack::noisy(&keyed, cloaked_noise(&keyed, 0.5), 5);
        let mut mismatches = 0;
        for _ in 0..20 {
            for p in 0..32u32 {
                let v: Vec<bool> = (0..5).map(|k| (p >> k) & 1 == 1).collect();
                if o.query(&v) != nl.evaluate(&v) {
                    mismatches += 1;
                }
            }
        }
        assert!(
            mismatches > 100,
            "only {mismatches} mismatches at 50% error"
        );
    }

    #[test]
    fn small_error_rate_is_mostly_correct() {
        let (nl, keyed) = c17_keyed();
        let mut o = OracleStack::noisy(&keyed, cloaked_noise(&keyed, 0.02), 6);
        let mut mismatches = 0usize;
        let trials = 640usize;
        for _ in 0..(trials / 32) {
            for p in 0..32u32 {
                let v: Vec<bool> = (0..5).map(|k| (p >> k) & 1 == 1).collect();
                if o.query(&v) != nl.evaluate(&v) {
                    mismatches += 1;
                }
            }
        }
        let rate = mismatches as f64 / trials as f64;
        // 6 cells × 2% ≈ 11% worst-case output error; must be well below 30%.
        assert!(rate < 0.3, "output error rate {rate}");
        assert!(
            mismatches > 0,
            "2% per-cell error should show up in 640 queries"
        );
    }

    #[test]
    fn oracle_is_reproducible_per_seed() {
        let (_, keyed) = c17_keyed();
        let inputs = [true, false, true, true, false];
        let mut a = OracleStack::noisy(&keyed, cloaked_noise(&keyed, 0.3), 42);
        let mut b = OracleStack::noisy(&keyed, cloaked_noise(&keyed, 0.3), 42);
        for _ in 0..10 {
            assert_eq!(a.query(&inputs), b.query(&inputs));
        }
    }

    #[test]
    #[should_panic(expected = "error rate")]
    fn error_rate_is_validated() {
        let (_, keyed) = c17_keyed();
        let _ = OracleStack::noisy(&keyed, cloaked_noise(&keyed, 1.5), 0);
    }

    #[test]
    fn block_query_matches_scalar_queries_and_counts() {
        let nl = parse_bench(C17_BENCH).unwrap();
        let patterns: Vec<Vec<bool>> = (0..20u32)
            .map(|p| (0..5).map(|k| (p >> k) & 1 == 1).collect())
            .collect();
        let block = PatternBlock::from_patterns(&patterns);

        let mut fast = OracleStack::exact(&nl);
        let lanes = fast.query_block(&block);
        assert_eq!(fast.queries(), 20, "block path must count every pattern");

        let mut slow = OracleStack::exact(&nl);
        for (k, p) in patterns.iter().enumerate() {
            let y = slow.query(p);
            for (o, &bit) in y.iter().enumerate() {
                assert_eq!(bit, (lanes[o] >> k) & 1 == 1, "pattern {k} output {o}");
            }
        }
        assert_eq!(slow.queries(), 20);
    }

    #[test]
    fn stochastic_block_query_counts_per_pattern() {
        // A noisy stack's query_block must count one query per pattern,
        // and with zero error it must agree bit-for-bit with the exact
        // chip.
        let (_, keyed) = c17_keyed();
        let mut o = OracleStack::noisy(&keyed, cloaked_noise(&keyed, 0.0), 1);
        let block = PatternBlock::from_patterns(&[vec![false; 5], vec![true; 5]]);
        let lanes = o.query_block(&block);
        assert_eq!(o.queries(), 2);
        assert_eq!(lanes.len(), o.num_outputs());

        let mut exact = OracleStack::exact(keyed.netlist());
        assert_eq!(exact.query_block(&block), lanes);
    }

    #[test]
    fn noisy_block_queries_flip_outputs() {
        // At 50% per-cell error over six cloaked cells, a full block must
        // disagree with the clean chip on many lanes.
        let (nl, keyed) = c17_keyed();
        let mut noisy = OracleStack::noisy(&keyed, cloaked_noise(&keyed, 0.5), 9);
        let mut clean = OracleStack::exact(&nl);
        let mut rng = StdRng::seed_from_u64(2);
        let mut flipped = 0u32;
        for _ in 0..8 {
            let block = PatternBlock::random(5, &mut rng);
            let a = noisy.query_block(&block);
            let b = clean.query_block(&block);
            flipped += a
                .iter()
                .zip(&b)
                .map(|(x, y)| (x ^ y).count_ones())
                .sum::<u32>();
        }
        assert!(flipped > 100, "only {flipped} lane flips at 50% error");
    }

    #[test]
    fn scalar_path_uses_a_dense_rate_table() {
        // The scalar path must not probe a per-node hash set. The stack
        // exposes its engine profile — a dense per-node rate vector
        // covering *every* node, with the cloaked cells (and only those)
        // noisy.
        let (_, keyed) = c17_keyed();
        let o = OracleStack::noisy(&keyed, cloaked_noise(&keyed, 0.25), 3);
        let profile = o.profile().expect("noisy base carries a profile");
        assert_eq!(profile.len(), keyed.netlist().len(), "table must be dense");
        let mut expected: Vec<_> = keyed.camo_gates().iter().map(|g| g.node).collect();
        expected.sort_unstable();
        assert_eq!(profile.noisy_nodes().collect::<Vec<_>>(), expected);
        for node in profile.noisy_nodes() {
            assert_eq!(profile.rate(node), 0.25);
        }
    }

    #[test]
    fn rotating_block_edge_periods_match_scalar_bit_for_bit() {
        // Edge cases of the epoch-splitting block path: period 1 (rotate
        // before every query after the first), period 7 (does not divide
        // 64, so the boundary drifts through consecutive blocks), and
        // period 20 (one full block straddles the three epoch boundaries
        // at counts 20, 40, and 60). Each must match 64 scalar queries
        // bit-for-bit.
        let (_, keyed) = c17_keyed();
        for period in [1u64, 7, 20] {
            let mut fast = OracleStack::rotating(&keyed, period, 5);
            let mut slow = OracleStack::rotating(&keyed, period, 5);
            let mut rng = StdRng::seed_from_u64(4);
            for round in 0..2 {
                let block = PatternBlock::random(5, &mut rng);
                assert_eq!(block.count, 64);
                let lanes = fast.query_block(&block);
                for k in 0..block.count {
                    let y = slow.query(&block.pattern(k));
                    for (o, &bit) in y.iter().enumerate() {
                        assert_eq!(
                            bit,
                            (lanes[o] >> k) & 1 == 1,
                            "period {period} round {round} pattern {k} output {o}"
                        );
                    }
                }
                assert_eq!(fast.queries(), slow.queries(), "period {period}");
            }
        }
    }

    #[test]
    fn rotating_block_path_leaves_count_and_key_stream_in_sync() {
        // After a block query, the oracle must sit in *exactly* the state
        // the scalar loop would leave: same query count, same RNG position
        // in the key stream. Follow-up scalar queries spanning several
        // more rotations must therefore agree between the twins.
        let (_, keyed) = c17_keyed();
        for period in [1u64, 7, 20] {
            let mut fast = OracleStack::rotating(&keyed, period, 9);
            let mut slow = OracleStack::rotating(&keyed, period, 9);
            let mut rng = StdRng::seed_from_u64(6);
            let block = PatternBlock::random_n(5, 50, &mut rng);
            let _ = fast.query_block(&block);
            for k in 0..block.count {
                let _ = slow.query(&block.pattern(k));
            }
            assert_eq!(fast.queries(), slow.queries(), "period {period}");
            for q in 0..(3 * period + 2) {
                let p = block.pattern(q as usize % block.count);
                assert_eq!(
                    fast.query(&p),
                    slow.query(&p),
                    "period {period} post-block query {q} diverged"
                );
            }
        }
    }

    #[test]
    fn heterogeneous_profile_targets_single_cell() {
        // Per-switch tunability: only one cloaked cell noisy, at
        // certainty. Scalar queries must flip deterministically whenever
        // that cell's value matters.
        let (nl, keyed) = c17_keyed();
        let target = keyed.camo_gates()[0].node;
        let profile = ErrorProfile::uniform_at(keyed.netlist().len(), &[target], 1.0);
        let mut o = OracleStack::noisy(&keyed, profile, 4);
        assert_eq!(o.profile().map(ErrorProfile::max_rate), Some(1.0));
        let mut disagreements = 0;
        for p in 0..32u32 {
            let v: Vec<bool> = (0..5).map(|k| (p >> k) & 1 == 1).collect();
            if o.query(&v) != nl.evaluate(&v) {
                disagreements += 1;
            }
        }
        assert!(disagreements > 0, "a certain flip must reach an output");
    }
}
