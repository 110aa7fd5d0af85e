//! Runtime polymorphism at the chip level (Sec. V-C).
//!
//! Two defensive mechanisms built on the truly polymorphic primitive:
//!
//! * **Function morphing** ([`morph_complement`], [`morph_random`]):
//!   complement the function of a GSHE gate and compensate by negating the
//!   corresponding input of every fanout gate (also GSHE-reconfigurable at
//!   runtime). The chip's function is preserved, but the layout-level
//!   function of each cell keeps changing — an RE attacker imaging the chip
//!   at two instants sees two different circuits ("it is virtually
//!   impossible to resolve all dynamic features on full-chip scale at
//!   once").
//! * **Key rotation**, after Koteshwara et al. \[40\]: the chip's key
//!   (and hence oracle behaviour) is altered dynamically, rendering
//!   runtime-intensive attacks — SAT attacks in particular — incapable.
//!   The rotating chip is the oracle stack's rotation layer
//!   ([`gshe_attacks::OracleStack::rotating`]), where the campaign engine
//!   materializes it per job.

use gshe_logic::{Bf1, LogicError, Netlist, NodeId, NodeKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Complements the function of gate `node` and compensates every fanout by
/// negating the corresponding input, preserving the netlist's function.
///
/// # Errors
///
/// Returns [`LogicError::Validation`] if `node` is not a two-input gate, is
/// a primary output (its external value would flip), or feeds a node that
/// cannot absorb an input negation.
pub fn morph_complement(nl: &mut Netlist, node: NodeId) -> Result<(), LogicError> {
    let NodeKind::Gate2 { f, .. } = nl.node(node).kind else {
        return Err(LogicError::Validation(format!(
            "{node} is not a two-input gate"
        )));
    };
    if nl.outputs().contains(&node) {
        return Err(LogicError::Validation(format!(
            "{node} drives a primary output; morphing it would change the chip function"
        )));
    }
    // Pre-validate all fanouts, then apply (no partial morphs). A fanout
    // feeding both of its inputs from `node` appears twice in the adjacency
    // list but must be compensated exactly once (both inputs negated in one
    // update).
    let mut fanouts = nl.fanouts()[node.index()].clone();
    fanouts.dedup();
    for &fo in &fanouts {
        match nl.node(fo).kind {
            NodeKind::Gate1 { .. } | NodeKind::Gate2 { .. } => {}
            _ => {
                return Err(LogicError::Validation(format!(
                    "fanout {fo} cannot absorb an input negation"
                )))
            }
        }
    }
    nl.set_gate2_function(node, f.complement())?;
    for fo in fanouts {
        match nl.node(fo).kind {
            NodeKind::Gate1 { f: g, a } => {
                let g2 = match g {
                    Bf1::Buf => Bf1::Inv,
                    Bf1::Inv => Bf1::Buf,
                    other => other, // constants ignore their input
                };
                nl.set_gate1_function(fo, g2, a)?;
            }
            NodeKind::Gate2 { f: g, a, b } => {
                let mut g2 = g;
                if a == node {
                    g2 = g2.negate_a();
                }
                if b == node {
                    g2 = g2.negate_b();
                }
                nl.set_gate2_function(fo, g2)?;
            }
            _ => unreachable!("pre-validated"),
        }
    }
    Ok(())
}

/// Morphs a random subset of `candidates` (each attempted with probability
/// 1/2); returns the nodes actually morphed. Nodes whose morph would be
/// unsound (primary outputs, exotic fanouts) are skipped.
pub fn morph_random(nl: &mut Netlist, candidates: &[NodeId], seed: u64) -> Vec<NodeId> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x904B);
    let mut morphed = Vec::new();
    for &c in candidates {
        if rng.gen_bool(0.5) && morph_complement(nl, c).is_ok() {
            morphed.push(c);
        }
    }
    morphed
}

#[cfg(test)]
mod tests {
    use super::*;
    use gshe_attacks::{sat_attack, verify_key, AttackConfig, AttackStatus, Oracle, OracleStack};
    use gshe_camo::{camouflage, select_gates, CamoScheme};
    use gshe_logic::sim::random_equivalence_check;
    use gshe_logic::{Bf2, GeneratorConfig, NetlistBuilder, NetlistGenerator};
    use std::sync::Arc;

    #[test]
    fn morph_preserves_function() {
        let original = NetlistGenerator::new(GeneratorConfig::new("t", 10, 5, 150).with_seed(3))
            .unwrap()
            .generate();
        let mut morphed = original.clone();
        let gates = morphed.gate_ids();
        let changed = morph_random(&mut morphed, &gates, 99);
        assert!(!changed.is_empty(), "some gates must morph");
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(
            random_equivalence_check(&original, &morphed, 8, &mut rng).unwrap(),
            None,
            "morphing must preserve the chip function"
        );
        // And the layout-visible functions actually changed.
        assert_ne!(original, morphed);
    }

    #[test]
    fn repeated_morphs_keep_preserving_function() {
        let original = NetlistGenerator::new(GeneratorConfig::new("t", 8, 4, 80).with_seed(5))
            .unwrap()
            .generate();
        let mut morphed = original.clone();
        let gates = morphed.gate_ids();
        for epoch in 0..5 {
            morph_random(&mut morphed, &gates, epoch);
            let mut rng = StdRng::seed_from_u64(epoch);
            assert_eq!(
                random_equivalence_check(&original, &morphed, 4, &mut rng).unwrap(),
                None,
                "epoch {epoch}"
            );
        }
    }

    #[test]
    fn morphing_an_output_gate_is_rejected() {
        let mut b = NetlistBuilder::new("t");
        let x = b.input("x");
        let y = b.input("y");
        let g = b.gate2("g", Bf2::AND, x, y);
        b.output(g);
        let mut nl = b.finish().unwrap();
        assert!(morph_complement(&mut nl, g).is_err());
    }

    #[test]
    fn morph_handles_double_edges() {
        // node feeds both inputs of a downstream gate.
        let mut b = NetlistBuilder::new("t");
        let x = b.input("x");
        let y = b.input("y");
        let g = b.gate2("g", Bf2::NAND, x, y);
        let h = b.gate2("h", Bf2::AND, g, g);
        b.output(h);
        let mut nl = b.finish().unwrap();
        let orig = nl.clone();
        morph_complement(&mut nl, g).unwrap();
        for a in [false, true] {
            for bb in [false, true] {
                assert_eq!(nl.evaluate(&[a, bb]), orig.evaluate(&[a, bb]));
            }
        }
    }

    #[test]
    fn rotating_oracle_defeats_sat_attack() {
        let nl = Arc::new(
            NetlistGenerator::new(GeneratorConfig::new("t", 8, 4, 60).with_seed(7))
                .unwrap()
                .generate(),
        );
        let picks = select_gates(&nl, 0.5, 11);
        let mut rng = StdRng::seed_from_u64(11);
        let keyed = camouflage(&nl, &picks, CamoScheme::GsheAll16, &mut rng).unwrap();
        let mut broken = 0;
        let trials = 3;
        for seed in 0..trials {
            let mut oracle = OracleStack::rotating(&keyed, 3, seed);
            let out = sat_attack(&keyed, &mut oracle, &AttackConfig::with_timeout_secs(20));
            let failed = match out.status {
                AttackStatus::Inconsistent => true,
                AttackStatus::Success => {
                    !verify_key(&nl, &keyed, out.key.as_ref().unwrap())
                        .unwrap()
                        .functionally_equivalent
                }
                _ => true,
            };
            broken += failed as usize;
        }
        assert!(
            broken >= trials as usize - 1,
            "rotation failed to stop the attack"
        );
    }

    #[test]
    fn rotating_oracle_is_consistent_within_first_epoch() {
        let nl = Arc::new(
            NetlistGenerator::new(GeneratorConfig::new("t", 6, 3, 30).with_seed(9))
                .unwrap()
                .generate(),
        );
        let picks = select_gates(&nl, 0.5, 13);
        let mut rng = StdRng::seed_from_u64(13);
        let keyed = camouflage(&nl, &picks, CamoScheme::GsheAll16, &mut rng).unwrap();
        let mut oracle = OracleStack::rotating(&keyed, 1000, 1);
        let x = vec![true; 6];
        let y0 = oracle.query(&x);
        assert_eq!(y0, nl.evaluate(&x), "first epoch uses the correct key");
    }
}
