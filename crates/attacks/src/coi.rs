//! Cone-of-influence (COI) miter reduction for oracle-guided attacks.
//!
//! A cloaked cell can only be distinguished through outputs its value
//! reaches. On large designs (superblue-scale, hundreds of thousands of
//! gates) a handful of cloaked cells typically influences a small
//! fraction of the outputs — yet the classic miter encodes *two full
//! copies* of the circuit per phase. This module projects the attack onto
//! the **cone of influence** of the cloaked cells:
//!
//! 1. **Affected outputs** — a forward sweep marks every node reached by
//!    some cloaked cell; the affected outputs are the primary outputs so
//!    marked ([`KeyedNetlist::reached_outputs`], computed once when the
//!    keyed netlist is assembled). Unaffected outputs are key-independent
//!    by construction and need no miter at all.
//! 2. **Cone extraction** —
//!    [`Netlist::cone_of`](gshe_logic::Netlist::cone_of) over the
//!    affected outputs yields a compact netlist containing exactly the
//!    transitive fanin of those outputs, with an
//!    [`IdMap`](gshe_logic::IdMap) back to the full design. The cone is
//!    encoded as extracted: the keyed encoder folds its constants and
//!    turns its one-input gates into literals.
//! 3. **Key projection** — cloaked cells inside the cone are remapped to
//!    contiguous key offsets; cells *outside* the cone reach no primary
//!    output at all (otherwise that output would be affected), so any
//!    valid candidate works and the expansion assigns them code 0.
//! 4. **Oracle projection** — [`CoiOracle`] adapts the full working chip
//!    to the cone interface: cone input lanes scatter into a full-width
//!    block (zero elsewhere — the cone outputs do not depend on those
//!    positions), and the chip answers only the affected outputs
//!    ([`Oracle::query_outputs`]). The exact chip simulates just their
//!    fanin cone; a noisy or rotating chip answers the whole block and
//!    gathers, so its noise and key streams advance as they would for
//!    the full design. Query accounting passes through one-to-one, so
//!    rotation periods and per-pattern query counts are preserved
//!    exactly.
//!
//! The DIP loop then runs unchanged on the cone instance and the
//! recovered cone key is [expanded](CoiProjection::expand_key) to a full
//! key. [`CoiMode::On`] (the [`AttackConfig`](crate::AttackConfig)
//! default) applies the reduction at every design size whenever the
//! cloaked cells reach a non-empty strict subset of the outputs;
//! [`CoiMode::Off`] keeps the full-design miter as the reference path.
//!
//! Outputs and inputs are addressed by **ordinal** (position in
//! `outputs()` / `inputs()`), never by node id. A draw that cloaks every
//! pick in its own slot keeps the original's ids, but a scheme that
//! inserts cells renumbers every node behind each insertion, so an id of
//! the keyed netlist can name a different node, or none, in the original
//! design.

use crate::oracle::Oracle;
use gshe_camo::{CamoGate, KeyedNetlist};
use gshe_logic::{Netlist, NodeId, NodeKind, PatternBlock};

/// Whether the DIP engine, the campaign's oracle cache and key
/// verification work on the cone of influence of the cloaked cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoiMode {
    /// Reduce whenever the cloaked cells reach a non-empty strict subset
    /// of the outputs (the default).
    #[default]
    On,
    /// Never reduce: the full-design reference path.
    Off,
}

/// Full-design **input ordinals** feeding the cone the DIP engine will
/// attack under `mode`, ascending, or `None` when the engine stays on
/// the full miter. This mirrors [`CoiProjection::build`]'s engagement
/// decision exactly — same mode gate, same affected-output
/// preconditions — but walks only the affected outputs' fanin and
/// materializes nothing, so callers (the campaign's cone-keyed oracle
/// cache) can key on the cone inputs *before* the attack runs without
/// risking a key-aliasing mismatch.
pub fn cone_inputs(keyed: &KeyedNetlist, mode: CoiMode) -> Option<Vec<usize>> {
    let nl = keyed.netlist();
    let roots: Vec<NodeId> = affected_outputs(keyed, mode)?
        .iter()
        .map(|&k| nl.outputs()[k])
        .collect();
    Some(
        nl.fanin_set(&roots)
            .iter()
            .filter(|&id| nl.kind(id) == NodeKind::Input)
            .map(|id| input_ordinal(nl, id))
            .collect(),
    )
}

/// Position of input node `id` in `nl.inputs()`, which lists the input
/// nodes in ascending id order.
pub(crate) fn input_ordinal(nl: &Netlist, id: NodeId) -> usize {
    nl.inputs().binary_search(&id).expect("an input node")
}

/// Ordinals of the primary outputs some cloaked cell reaches
/// ([`KeyedNetlist::reached_outputs`], computed once per keyed netlist),
/// or `None` when callers should stay on the full design: mode
/// [`CoiMode::Off`], no affected output (the key is unconstrained), or
/// every output affected (no reduction to be had). The same decision
/// [`CoiProjection::build`] and [`cone_inputs`] make, and all cone-scoped
/// key verification needs.
pub fn affected_outputs(keyed: &KeyedNetlist, mode: CoiMode) -> Option<&[usize]> {
    let reached = keyed.reached_outputs();
    let strict = !reached.is_empty() && reached.len() < keyed.netlist().outputs().len();
    (mode == CoiMode::On && strict).then_some(reached)
}

/// A keyed netlist projected onto the cone of influence of its cloaked
/// cells, with the maps needed to run the attack on the cone and expand
/// the result back to the full design.
#[derive(Debug, Clone)]
pub struct CoiProjection {
    keyed: KeyedNetlist,
    /// Cone input ordinal → full input ordinal.
    input_map: Vec<usize>,
    /// Cone output ordinal → full output ordinal.
    output_map: Vec<usize>,
    /// Cone key bit → full key bit.
    key_map: Vec<usize>,
    full_key_len: usize,
    full_num_inputs: usize,
}

impl CoiProjection {
    /// Builds the projection for `keyed` under `mode`, or `None` when the
    /// attack should run on the full design (see [`affected_outputs`]).
    pub fn build(keyed: &KeyedNetlist, mode: CoiMode) -> Option<CoiProjection> {
        let output_map = affected_outputs(keyed, mode)?.to_vec();
        let nl = keyed.netlist();
        let roots: Vec<NodeId> = output_map.iter().map(|&k| nl.outputs()[k]).collect();
        let (cone, map) = nl.cone_of(&roots);

        // Remap in-cone cloaked cells onto contiguous cone key offsets.
        let mut gates: Vec<CamoGate> = Vec::new();
        let mut key_map = Vec::new();
        let mut offset = 0usize;
        for g in keyed.camo_gates() {
            if let Some(cone_node) = map.to_cone(g.node) {
                key_map.extend((0..g.key_bits()).map(|b| g.key_offset + b));
                gates.push(CamoGate {
                    node: cone_node,
                    candidates: g.candidates.clone(),
                    key_offset: offset,
                    correct_index: g.correct_index,
                });
                offset += g.key_bits();
            }
        }

        let input_map: Vec<usize> = cone
            .inputs()
            .iter()
            .map(|&ci| input_ordinal(nl, map.to_full(ci)))
            .collect();

        Some(CoiProjection {
            keyed: KeyedNetlist::new(cone, gates, offset),
            input_map,
            output_map,
            key_map,
            full_key_len: keyed.key_len(),
            full_num_inputs: nl.inputs().len(),
        })
    }

    /// The cone-projected keyed netlist the attack runs on.
    pub fn keyed(&self) -> &KeyedNetlist {
        &self.keyed
    }

    /// Expands a key recovered on the cone to a full-design key. Bits of
    /// cloaked cells outside the cone are left at `false` (candidate
    /// code 0 — always a valid code, and those cells reach no primary
    /// output, so any candidate preserves functional equivalence).
    ///
    /// # Panics
    ///
    /// Panics if `cone_key` does not match the cone key width.
    pub fn expand_key(&self, cone_key: &[bool]) -> Vec<bool> {
        assert_eq!(cone_key.len(), self.key_map.len(), "cone key width");
        let mut full = vec![false; self.full_key_len];
        for (c, &f) in self.key_map.iter().enumerate() {
            full[f] = cone_key[c];
        }
        full
    }

    /// Primary outputs of the full design the cloaked cells can reach.
    pub fn affected_outputs(&self) -> &[usize] {
        &self.output_map
    }

    /// Nodes in the cone vs. the full design, as a reduction diagnostic.
    pub fn cone_len(&self) -> usize {
        self.keyed.netlist().len()
    }

    /// Cone input ordinal → full-design input ordinal.
    pub fn input_map(&self) -> &[usize] {
        &self.input_map
    }
}

/// Adapts a full-design working chip to the cone interface of a
/// [`CoiProjection`]: scatter cone input lanes into a full-width block
/// (zero-filled elsewhere), and ask the chip for the affected outputs
/// only ([`Oracle::query_outputs`]). Query accounting delegates
/// one-to-one to the wrapped oracle.
pub struct CoiOracle<'a> {
    inner: &'a mut dyn Oracle,
    proj: &'a CoiProjection,
}

impl<'a> CoiOracle<'a> {
    /// Wraps `inner` (the full chip) behind `proj`'s cone interface.
    pub fn new(inner: &'a mut dyn Oracle, proj: &'a CoiProjection) -> Self {
        CoiOracle { inner, proj }
    }
}

impl Oracle for CoiOracle<'_> {
    fn query_block(&mut self, block: &PatternBlock) -> Vec<u64> {
        let mut lanes = vec![0u64; self.proj.full_num_inputs];
        for (k, &full) in self.proj.input_map.iter().enumerate() {
            lanes[full] = block.lanes[k];
        }
        let full_block = PatternBlock {
            lanes,
            count: block.count,
        };
        self.inner.query_outputs(&full_block, &self.proj.output_map)
    }

    fn num_inputs(&self) -> usize {
        self.proj.input_map.len()
    }

    fn num_outputs(&self) -> usize {
        self.proj.output_map.len()
    }

    fn queries(&self) -> u64 {
        self.inner.queries()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::verify_key;
    use crate::sat_attack::{sat_attack, AttackConfig, AttackStatus};
    use crate::stack::OracleStack;
    use gshe_camo::{camouflage, select_gates, CamoScheme};
    use gshe_logic::{Bf1, Bf2, GeneratorConfig, Netlist, NetlistBuilder, NetlistGenerator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Two independent AND cones sharing nothing; camouflage only the
    /// first cone's gate, so exactly one output is affected.
    fn split_design() -> (Netlist, KeyedNetlist) {
        let mut b = NetlistBuilder::new("split");
        let a = b.input("a");
        let c = b.input("b");
        let d = b.input("c");
        let e = b.input("d");
        let g1 = b.gate2("g1", Bf2::AND, a, c);
        let g2 = b.gate2("g2", Bf2::OR, d, e);
        b.output(g1);
        b.output(g2);
        let nl = b.finish().unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let keyed = camouflage(&nl, &[g1], CamoScheme::GsheAll16, &mut rng).unwrap();
        (nl, keyed)
    }

    #[test]
    fn cone_with_constants_and_one_input_gates_is_encoded_as_is() {
        // The cloaked cell's cone holds a constant, a BUF→NOT chain, an
        // AND with a constant fanin and a lone NOT (an odd number of
        // inversions, so a one-input gate encoded with the wrong polarity
        // shows); the other output escapes the cell.
        let mut b = NetlistBuilder::new("consts");
        let a = b.input("a");
        let c = b.input("b");
        let d = b.input("c");
        let e = b.input("d");
        let one = b.constant(true);
        let buf = b.gate1("buf", Bf1::Buf, a);
        let inv = b.gate1("inv", Bf1::Inv, buf);
        let and = b.gate2("and", Bf2::AND, inv, one);
        let not_b = b.gate1("not_b", Bf1::Inv, c);
        let cell = b.gate2("cell", Bf2::XOR, and, not_b);
        let other = b.gate2("other", Bf2::OR, d, e);
        b.output(cell);
        b.output(other);
        let nl = b.finish().unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let keyed = camouflage(&nl, &[cell], CamoScheme::GsheAll16, &mut rng).unwrap();

        let proj = CoiProjection::build(&keyed, CoiMode::On).expect("one of two outputs affected");
        assert_eq!(proj.affected_outputs(), &[0]);
        // The projection keeps them as they are; the encoder copes.
        let cone = proj.keyed().netlist();
        let is_const = |id: NodeId| matches!(cone.kind(id), NodeKind::Const(_));
        let is_buf = |id: NodeId| matches!(cone.kind(id), NodeKind::Gate1 { f: Bf1::Buf, .. });
        let buf_not = |k| matches!(k, NodeKind::Gate1 { f: Bf1::Inv, a } if is_buf(a));
        let const_fanin =
            |k| matches!(k, NodeKind::Gate2 { a, b, .. } if is_const(a) || is_const(b));
        assert!(cone.nodes().any(|n| buf_not(n.kind)));
        assert!(cone.nodes().any(|n| const_fanin(n.kind)));
        for mode in [CoiMode::On, CoiMode::Off] {
            let mut oracle = OracleStack::exact(&nl);
            let config = AttackConfig::with_timeout_secs(10).with_coi_mode(mode);
            let out = sat_attack(&keyed, &mut oracle, &config);
            assert_eq!(out.status, AttackStatus::Success, "{mode:?}");
            let v = verify_key(&nl, &keyed, out.key.as_ref().unwrap()).unwrap();
            assert!(v.functionally_equivalent, "{mode:?}");
        }
    }

    #[test]
    fn projection_drops_unaffected_logic() {
        let (_, keyed) = split_design();
        let proj = CoiProjection::build(&keyed, CoiMode::On).expect("one of two outputs affected");
        assert_eq!(proj.affected_outputs(), &[0]);
        let cone = proj.keyed().netlist();
        assert_eq!(cone.inputs().len(), 2, "only a, b feed the cone");
        assert_eq!(cone.outputs().len(), 1);
        assert!(proj.cone_len() < keyed.netlist().len());
        assert_eq!(proj.keyed().key_len(), keyed.key_len());
        assert!(CoiProjection::build(&keyed, CoiMode::Off).is_none());
    }

    #[test]
    fn fully_affected_designs_skip_the_projection() {
        // Every output in the cloaked cells' cone: nothing to reduce.
        let nl = NetlistGenerator::new(GeneratorConfig::new("t", 8, 2, 60).with_seed(1))
            .unwrap()
            .generate();
        let picks = select_gates(&nl, 1.0, 5);
        let mut rng = StdRng::seed_from_u64(5);
        let keyed = camouflage(&nl, &picks, CamoScheme::GsheAll16, &mut rng).unwrap();
        if CoiProjection::build(&keyed, CoiMode::On).is_some() {
            // Only legitimate when some output genuinely escapes the cone.
            let proj = CoiProjection::build(&keyed, CoiMode::On).unwrap();
            assert!(proj.affected_outputs().len() < nl.outputs().len());
        }
    }

    #[test]
    fn cone_oracle_matches_full_oracle_on_affected_outputs() {
        let (nl, keyed) = split_design();
        let proj = CoiProjection::build(&keyed, CoiMode::On).unwrap();
        let mut full = OracleStack::exact(&nl);
        let mut inner = OracleStack::exact(&nl);
        let mut cone = CoiOracle::new(&mut inner, &proj);
        assert_eq!(cone.num_inputs(), 2);
        assert_eq!(cone.num_outputs(), 1);
        for p in 0..4u32 {
            let cone_in: Vec<bool> = (0..2).map(|k| (p >> k) & 1 == 1).collect();
            let y_cone = cone.query(&cone_in);
            // Reconstruct the equivalent full query by scattering.
            let mut full_in = vec![false; 4];
            for (k, &fi) in proj.input_map.iter().enumerate() {
                full_in[fi] = cone_in[k];
            }
            let y_full = full.query(&full_in);
            assert_eq!(y_cone, vec![y_full[0]], "p={p}");
        }
        assert_eq!(cone.queries(), 4);
    }

    #[test]
    fn expanded_cone_key_is_functionally_correct() {
        let (nl, keyed) = split_design();
        let proj = CoiProjection::build(&keyed, CoiMode::On).unwrap();
        let mut inner = OracleStack::exact(&nl);
        let mut cone_oracle = CoiOracle::new(&mut inner, &proj);
        let out = sat_attack(
            proj.keyed(),
            &mut cone_oracle,
            &AttackConfig::with_timeout_secs(10),
        );
        assert_eq!(out.status, AttackStatus::Success);
        let full_key = proj.expand_key(out.key.as_ref().unwrap());
        assert_eq!(full_key.len(), keyed.key_len());
        let v = verify_key(&nl, &keyed, &full_key).unwrap();
        assert!(v.functionally_equivalent);
    }

    #[test]
    fn engine_auto_threshold_is_transparent_end_to_end() {
        // coi: On through the engine entry point must recover an
        // equivalent key to coi: Off on the same seeded instance.
        let nl = NetlistGenerator::new(GeneratorConfig::new("t", 10, 8, 120).with_seed(11))
            .unwrap()
            .generate();
        let picks = select_gates(&nl, 0.05, 13);
        let mut rng = StdRng::seed_from_u64(13);
        let keyed = camouflage(&nl, &picks, CamoScheme::GsheAll16, &mut rng).unwrap();
        let base = AttackConfig::with_timeout_secs(20);
        let mut o1 = OracleStack::exact(&nl);
        let off = sat_attack(&keyed, &mut o1, &base.with_coi_mode(CoiMode::Off));
        let mut o2 = OracleStack::exact(&nl);
        let on = sat_attack(&keyed, &mut o2, &base.with_coi_mode(CoiMode::On));
        assert_eq!(off.status, AttackStatus::Success);
        assert_eq!(on.status, AttackStatus::Success);
        for out in [&off, &on] {
            let v = verify_key(&nl, &keyed, out.key.as_ref().unwrap()).unwrap();
            assert!(v.functionally_equivalent);
        }
    }

    #[test]
    fn cone_inputs_matches_projection_engagement_and_map() {
        let (_, keyed) = split_design();
        // The cheap sweep and the full build must agree on engagement for
        // every mode, and on the input set whenever both engage.
        for mode in [CoiMode::On, CoiMode::Off] {
            let inputs = cone_inputs(&keyed, mode);
            let proj = CoiProjection::build(&keyed, mode);
            assert_eq!(inputs.is_some(), proj.is_some(), "{mode:?}");
            if let (Some(inputs), Some(proj)) = (inputs, proj) {
                let mut from_proj = proj.input_map().to_vec();
                from_proj.sort_unstable();
                assert_eq!(inputs, from_proj, "{mode:?}");
            }
        }
    }

    #[test]
    fn auto_at_engages_small_designs_through_the_engine() {
        // There is no size threshold: the default mode projects an
        // eight-node design, and the engine recovers a correct key
        // through the cone.
        let (nl, keyed) = split_design();
        let proj = CoiProjection::build(&keyed, CoiMode::default()).expect("strict output subset");
        assert!(proj.cone_len() < nl.len());
        let mut oracle = OracleStack::exact(&nl);
        let out = sat_attack(&keyed, &mut oracle, &AttackConfig::with_timeout_secs(10));
        assert_eq!(out.status, AttackStatus::Success);
        let v = verify_key(&nl, &keyed, out.key.as_ref().unwrap()).unwrap();
        assert!(v.functionally_equivalent);
    }
}
