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
//!    to the cone interface: each cone block goes to the chip as is,
//!    with the cone's input ordinals and the affected outputs
//!    ([`Oracle::query_cone`]); every other input is held at 0 (the cone
//!    outputs do not depend on those positions). The exact chip simulates
//!    just the outputs' fanin cone; a noisy or rotating chip scatters
//!    the block to full width, answers it whole and gathers, so its noise
//!    and key streams advance as they would for the full design. Query
//!    accounting passes through one-to-one, so rotation periods and
//!    per-pattern query counts are preserved exactly.
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
use gshe_logic::{Netlist, NodeId, PatternBlock};

/// Whether the DIP engine, the exact chip's answers and key
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
/// attack under `mode`, ascending (a [`CoiProjection::input_map`]), or
/// `None` when the engine stays on the full miter. Kept, with its
/// signature, for perfbench's frozen traced replay; ROADMAP item 1's
/// benchmark change removes that last caller.
pub fn cone_inputs(keyed: &KeyedNetlist, mode: CoiMode) -> Option<Vec<usize>> {
    CoiProjection::build(keyed, mode).map(|p| p.input_map().to_vec())
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
/// [`CoiProjection::build`] makes, and all cone-scoped key verification
/// needs.
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
    /// Cone input ordinal → full input ordinal, ascending.
    input_map: Vec<usize>,
    /// Cone output ordinal → full output ordinal.
    output_map: Vec<usize>,
    /// Cone key bit → full key bit.
    key_map: Vec<usize>,
    full_key_len: usize,
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

    /// Cone input ordinal → full-design input ordinal. Ascending, since
    /// [`Netlist::cone_of`](gshe_logic::Netlist::cone_of) keeps the
    /// design's input order.
    pub fn input_map(&self) -> &[usize] {
        &self.input_map
    }
}

/// Adapts a full-design working chip to the cone interface of a
/// [`CoiProjection`]: each cone block goes to the chip with the cone's
/// input ordinals and the affected outputs ([`Oracle::query_cone`]).
/// Query accounting delegates one-to-one to the wrapped oracle.
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
        self.inner
            .query_cone(block, &self.proj.input_map, &self.proj.output_map)
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
    use gshe_logic::{
        Bf1, Bf2, GeneratorConfig, Netlist, NetlistBuilder, NetlistGenerator, NodeKind,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    /// Two independent AND cones sharing nothing; camouflage only the
    /// first cone's gate, so exactly one output is affected.
    fn split_design() -> (Arc<Netlist>, KeyedNetlist) {
        let mut b = NetlistBuilder::new("split");
        let a = b.input("a");
        let c = b.input("b");
        let d = b.input("c");
        let e = b.input("d");
        let g1 = b.gate2("g1", Bf2::AND, a, c);
        let g2 = b.gate2("g2", Bf2::OR, d, e);
        b.output(g1);
        b.output(g2);
        let nl = Arc::new(b.finish().unwrap());
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
        let nl = Arc::new(b.finish().unwrap());
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
        let nl = Arc::new(
            NetlistGenerator::new(GeneratorConfig::new("t", 8, 2, 60).with_seed(1))
                .unwrap()
                .generate(),
        );
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
        let nl = Arc::new(
            NetlistGenerator::new(GeneratorConfig::new("t", 10, 8, 120).with_seed(11))
                .unwrap()
                .generate(),
        );
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
        // `cone_inputs` is the projection's input map, which is strictly
        // ascending (the order a cone key packs its lanes in) and names
        // exactly the inputs the affected outputs read.
        let (_, keyed) = split_design();
        assert_eq!(cone_inputs(&keyed, CoiMode::Off), None);
        assert_eq!(cone_inputs(&keyed, CoiMode::On), Some(vec![0, 1]));
        let nl = Arc::new(
            NetlistGenerator::new(GeneratorConfig::new("t", 24, 12, 400).with_seed(2))
                .unwrap()
                .generate(),
        );
        let mut engaged = 0;
        for seed in 0..8 {
            let picks = select_gates(&nl, 0.01, seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let keyed = camouflage(&nl, &picks, CamoScheme::GsheAll16, &mut rng).unwrap();
            let Some(proj) = CoiProjection::build(&keyed, CoiMode::On) else {
                continue;
            };
            engaged += 1;
            let knl = keyed.netlist();
            let roots: Vec<NodeId> = proj
                .affected_outputs()
                .iter()
                .map(|&o| knl.outputs()[o])
                .collect();
            let read: Vec<usize> = knl
                .fanin_set(&roots)
                .iter()
                .filter(|&id| knl.kind(id) == NodeKind::Input)
                .map(|id| input_ordinal(knl, id))
                .collect();
            assert_eq!(proj.input_map(), read, "seed {seed}");
            assert!(proj.input_map().windows(2).all(|w| w[0] < w[1]));
            assert_eq!(cone_inputs(&keyed, CoiMode::On).as_deref(), Some(&read[..]));
        }
        assert!(engaged > 0, "no draw engaged the projection");
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
