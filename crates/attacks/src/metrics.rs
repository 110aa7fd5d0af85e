//! Key verification and attack-quality metrics.

use crate::coi::{affected_outputs, CoiMode};
use crate::encode::encode_keyed;
use gshe_camo::{CamoError, KeyedNetlist};
use gshe_logic::{Netlist, NodeId, PatternBlock, Simulator};
use gshe_sat::{CircuitEncoder, Lit, Polarity, SolveResult, Solver};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Verdict on a recovered key.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KeyVerification {
    /// The key selects the defender's exact candidate at every cell.
    pub structurally_correct: bool,
    /// The resolved netlist is **provably** (SAT-checked) equivalent to the
    /// original — the attacker's actual success criterion.
    pub functionally_equivalent: bool,
    /// Fraction of 4096 random patterns on which the resolved netlist
    /// disagrees with the original (0.0 when equivalent).
    pub sampled_error_rate: f64,
}

/// Verifies a recovered key against the original design: exact SAT
/// equivalence of the resolved netlist plus a sampled error rate.
///
/// # Errors
///
/// Returns [`CamoError::KeyLengthMismatch`] if the key has the wrong width.
pub fn verify_key(
    original: &Netlist,
    keyed: &KeyedNetlist,
    key: &[bool],
) -> Result<KeyVerification, CamoError> {
    verify_key_scoped(original, keyed, key, CoiMode::Off)
}

/// [`verify_key`] with the equivalence proof scoped to the cone of
/// influence of the cloaked cells when `mode` engages on this design.
///
/// Resolution rewrites only the cloaked cells, so any output no cell
/// reaches computes the same function of the primary inputs in both
/// netlists by construction — the SAT proof need cover only the
/// affected outputs' fanin cones. On superblue-scale designs that turns
/// a full-width UNSAT proof (the dominant cost of a campaign attack
/// cell once the DIP loop itself runs on the cone) into one over a
/// few-thousand-node cone. The verdict is identical to [`verify_key`]'s;
/// [`CoiMode::Off`] (or a degenerate affected set) proves every output.
///
/// # Errors
///
/// Returns [`CamoError::KeyLengthMismatch`] if the key has the wrong width.
pub fn verify_key_scoped(
    original: &Netlist,
    keyed: &KeyedNetlist,
    key: &[bool],
    mode: CoiMode,
) -> Result<KeyVerification, CamoError> {
    let resolved = keyed.resolve(key)?;
    let outputs =
        affected_outputs(keyed, mode).unwrap_or_else(|| (0..original.outputs().len()).collect());
    let functionally_equivalent = sat_equivalent_on(original, &resolved, &outputs);
    let sampled_error_rate = if functionally_equivalent {
        0.0
    } else {
        sampled_error(original, &resolved, 64)
    };
    Ok(KeyVerification {
        structurally_correct: keyed.key_is_structurally_correct(key),
        functionally_equivalent,
        sampled_error_rate,
    })
}

/// Exact equivalence of `a` and `b` on the outputs at the given
/// **ordinals** (positions in `outputs()`), by a SAT miter over their
/// fanin cones. Primary inputs are matched by ordinal too, so the two
/// netlists need not share an id space: an original design and a keyed
/// netlist camouflage rebuilt from it (inserting cells, which shifts
/// every later id) compare directly. An input only one cone reads stays
/// free — if the other side truly ignores it the miter stays UNSAT, and
/// any dependence it could witness is a real inequivalence.
///
/// # Panics
///
/// Panics if the interfaces differ in width, or an ordinal is out of
/// range.
pub fn sat_equivalent_on(a: &Netlist, b: &Netlist, outputs: &[usize]) -> bool {
    assert_eq!(a.inputs().len(), b.inputs().len(), "interface mismatch");
    assert_eq!(a.outputs().len(), b.outputs().len(), "interface mismatch");
    let mut solver = Solver::new();
    let diff = {
        let mut enc = CircuitEncoder::new(&mut solver);
        let (ia, oa) = encode_cone(&mut enc, a, outputs);
        let (ib, ob) = encode_cone(&mut enc, b, outputs);
        for (la, lb) in ia.into_iter().zip(ib) {
            if let (Some(la), Some(lb)) = (la, lb) {
                enc.equal(la, lb);
            }
        }
        // The difference literal is only ever asserted true, so the
        // single-sided (Plaisted–Greenbaum) miter is exact.
        enc.miter_pol(&oa, &ob, Polarity::Pos)
    };
    solver.add_clause(&[diff]);
    solver.solve() == SolveResult::Unsat
}

/// Encodes the fanin cone of `nl`'s outputs at `outputs` (ordinals).
/// Returns the literal of every primary input by ordinal (`None` when
/// the cone does not read it) and the cone's output literals.
fn encode_cone(
    enc: &mut CircuitEncoder<'_, Solver>,
    nl: &Netlist,
    outputs: &[usize],
) -> (Vec<Option<Lit>>, Vec<Lit>) {
    let roots: Vec<NodeId> = outputs.iter().map(|&k| nl.outputs()[k]).collect();
    let (cone, map) = nl.cone_of(&roots);
    // Reuse the keyed encoder with an empty key.
    let keyed = KeyedNetlist::new(cone, Vec::new(), 0);
    let copy = encode_keyed(enc, &keyed, &[]);
    let mut by_ordinal = vec![None; nl.inputs().len()];
    for (&n, lit) in keyed.netlist().inputs().iter().zip(copy.inputs) {
        // `inputs()` lists the input nodes in ascending id order.
        let k = nl
            .inputs()
            .binary_search(&map.to_full(n))
            .expect("a cone input is a primary input");
        by_ordinal[k] = Some(lit);
    }
    (by_ordinal, copy.outputs)
}

/// Fraction of `blocks`×64 random patterns where the two netlists disagree
/// on at least one output.
pub fn sampled_error(a: &Netlist, b: &Netlist, blocks: usize) -> f64 {
    let mut rng = StdRng::seed_from_u64(0xE44);
    let mut sim_a = Simulator::new(a);
    let mut sim_b = Simulator::new(b);
    let mut wrong = 0u64;
    let mut total = 0u64;
    for _ in 0..blocks {
        let block = PatternBlock::random(a.inputs().len(), &mut rng);
        let ya = sim_a.run(&block).expect("interface checked");
        let yb = sim_b.run(&block).expect("interface checked");
        let mut any_diff = 0u64;
        for (p, q) in ya.iter().zip(&yb) {
            any_diff |= p ^ q;
        }
        wrong += (any_diff & block.valid_mask()).count_ones() as u64;
        total += block.count as u64;
    }
    wrong as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use gshe_camo::{camouflage, select_gates, CamoScheme};
    use gshe_logic::bench_format::{parse_bench, C17_BENCH};
    use gshe_logic::Bf2;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sat_equivalent(a: &Netlist, b: &Netlist) -> bool {
        let all: Vec<usize> = (0..a.outputs().len()).collect();
        sat_equivalent_on(a, b, &all)
    }

    #[test]
    fn identical_netlists_are_equivalent() {
        let a = parse_bench(C17_BENCH).unwrap();
        let b = parse_bench(C17_BENCH).unwrap();
        assert!(sat_equivalent(&a, &b));
        assert_eq!(sampled_error(&a, &b, 4), 0.0);
    }

    #[test]
    fn mutated_netlist_is_not_equivalent() {
        let a = parse_bench(C17_BENCH).unwrap();
        let mut b = parse_bench(C17_BENCH).unwrap();
        let g = b.find("22").unwrap();
        b.set_gate2_function(g, Bf2::NOR).unwrap();
        assert!(!sat_equivalent(&a, &b));
        assert!(sampled_error(&a, &b, 4) > 0.0);
    }

    #[test]
    fn correct_key_verifies() {
        let nl = parse_bench(C17_BENCH).unwrap();
        let picks = select_gates(&nl, 1.0, 2);
        let mut rng = StdRng::seed_from_u64(2);
        let keyed = camouflage(&nl, &picks, CamoScheme::GsheAll16, &mut rng).unwrap();
        let v = verify_key(&nl, &keyed, &keyed.correct_key()).unwrap();
        assert!(v.structurally_correct);
        assert!(v.functionally_equivalent);
        assert_eq!(v.sampled_error_rate, 0.0);
    }

    #[test]
    fn wrong_key_fails_verification() {
        let nl = parse_bench(C17_BENCH).unwrap();
        let picks = select_gates(&nl, 1.0, 2);
        let mut rng = StdRng::seed_from_u64(2);
        let keyed = camouflage(&nl, &picks, CamoScheme::GsheAll16, &mut rng).unwrap();
        let mut key = keyed.correct_key();
        for b in key.iter_mut() {
            *b = !*b;
        }
        let v = verify_key(&nl, &keyed, &key).unwrap();
        assert!(!v.structurally_correct);
        assert!(!v.functionally_equivalent);
        assert!(v.sampled_error_rate > 0.0);
    }

    /// Cone-scoped verification returns the exact verdict of the
    /// full-interface proof, for correct keys, near-miss keys (one cell
    /// flipped), and fully wrong keys, on a netlist whose cloaked cells
    /// affect a proper subset of the outputs (so the scoping engages).
    /// Inv-buf and four-fn insert cells while camouflaging, so their
    /// keyed netlists number nodes differently from the original: the
    /// scoped proof must address outputs and inputs by ordinal.
    #[test]
    fn scoped_verification_matches_full() {
        use gshe_logic::{GeneratorConfig, NetlistGenerator};
        let nl = NetlistGenerator::new(GeneratorConfig::new("sv", 12, 8, 120).with_seed(9))
            .unwrap()
            .generate();
        // Cloak an output gate directly: its influence is exactly the
        // outputs that read it — a proper subset — where a random
        // interior pick percolates to every output on this topology.
        let picks = vec![nl.outputs()[0]];
        for scheme in [
            CamoScheme::GsheAll16,
            CamoScheme::InvBuf,
            CamoScheme::FourFn,
        ] {
            let mut rng = StdRng::seed_from_u64(5);
            let keyed = camouflage(&nl, &picks, scheme, &mut rng).unwrap();
            assert!(
                affected_outputs(&keyed, CoiMode::On).is_some(),
                "{scheme}: placement must give the scoped path a proper output subset"
            );
            let correct = keyed.correct_key();
            let mut near = correct.clone();
            near[0] = !near[0];
            let mut wrong = correct.clone();
            for b in wrong.iter_mut() {
                *b = !*b;
            }
            for key in [&correct, &near, &wrong] {
                let full = verify_key(&nl, &keyed, key).unwrap();
                let scoped = verify_key_scoped(&nl, &keyed, key, CoiMode::On).unwrap();
                assert_eq!(full, scoped, "{scheme}: verdicts diverged for key {key:?}");
            }
            assert!(
                verify_key_scoped(&nl, &keyed, &correct, CoiMode::On)
                    .unwrap()
                    .functionally_equivalent
            );
        }
    }

    #[test]
    fn key_width_is_checked() {
        let nl = parse_bench(C17_BENCH).unwrap();
        let picks = select_gates(&nl, 1.0, 2);
        let mut rng = StdRng::seed_from_u64(2);
        let keyed = camouflage(&nl, &picks, CamoScheme::GsheAll16, &mut rng).unwrap();
        assert!(verify_key(&nl, &keyed, &[true]).is_err());
    }
}
