//! The camouflaging transform: netlist + memorized selection + scheme →
//! [`KeyedNetlist`].
//!
//! Schemes with small candidate sets cannot directly cloak every function a
//! synthesized netlist contains. The transform absorbs the mismatch the way
//! a real camouflaging flow (resynthesis) would:
//!
//! 1. function ∈ set → cloak in place;
//! 2. ¬function ∈ set → cloak the complement and emit a *visible* inverter;
//! 3. XOR/XNOR with a NAND-capable set → rewrite as the 4-NAND tree and
//!    cloak the output NAND (+ visible inverter for XNOR);
//! 4. one-input gates → cloak as a degenerate two-input cell `f₂(a, a)`;
//! 5. otherwise the gate is uncloakable under that scheme
//!    ([`CamoError::Uncloakable`]).
//!
//! The INV/BUF scheme (\[24, c\], \[35\]) instead *inserts* a cloaked
//! inverter-or-buffer cell behind the selected gate, randomly complementing
//! the gate so that both candidate functions genuinely occur on chip.
//!
//! # Two ways to emit cells
//!
//! Rule 1 and rule 4's direct case cloak a gate *in its own slot*: the
//! cell is the gate itself, and rule 4 swaps the one-input gate for the
//! degenerate cell `f₂(a, a)` on the same fanin. When every pick of a
//! draw is cloaked that way, the transform takes the design's own
//! [`Arc`], so ids, names and ports all stay. A rule-1 cell changes no
//! node, so a draw of only rule-1 cells shares the design's arena: that
//! covers every gshe16, stt-lut and dwm draw on a generated
//! (`Gate2`-only, standard-function) design. The first rule-4 cell copies
//! the arena ([`Arc::make_mut`]) and each such cell is installed with
//! [`Netlist::set_gate`]; the caller's design is never written. A draw
//! with any pick that needs an inserted node (INV/BUF insertion, rules
//! 2–3, rule 4's complement case) goes through the builder loop instead,
//! which re-emits every node through [`NetlistBuilder`] and renumbers the
//! nodes behind each insertion. Both ways keep the design's name. For an
//! in-place draw both give the same keyed netlist, except that the
//! in-place way keeps each constant's name where the builder renames it
//! `const0_<n>` / `const1_<n>`.

use crate::error::CamoError;
use crate::keyed::{CamoGate, Candidates, KeyedNetlist};
use crate::scheme::CamoScheme;
use gshe_logic::{Bf1, Bf2, Netlist, NetlistBuilder, NodeId, NodeKind};
use rand::Rng;
use std::sync::Arc;

/// Statistics of one camouflaging run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CamoReport {
    /// Cells cloaked in place (rule 1).
    pub direct: usize,
    /// Cells cloaked via the complement rule (rule 2).
    pub complemented: usize,
    /// Cells cloaked via NAND-tree decomposition (rule 3).
    pub decomposed: usize,
    /// One-input gates cloaked as degenerate two-input cells (rule 4).
    pub degenerate: usize,
    /// Extra visible gates added by rules 2–3.
    pub extra_gates: usize,
    /// Total key bits.
    pub key_bits: usize,
}

impl CamoReport {
    /// Total cloaked cells.
    pub fn protected(&self) -> usize {
        self.direct + self.complemented + self.decomposed + self.degenerate
    }

    /// Counts one cell that took neither rule 2 nor rule 3: `degenerate`
    /// when it cloaks a one-input gate, `direct` otherwise.
    fn count_plain(&mut self, gate: NodeKind) {
        if matches!(gate, NodeKind::Gate1 { .. }) {
            self.degenerate += 1;
        } else {
            self.direct += 1;
        }
    }
}

/// Camouflages `picks` (a memorized selection from
/// [`crate::selection::select_gates`]) in `netlist` under `scheme`. A
/// draw that changes no node shares `netlist` (see
/// [`KeyedNetlist::shares_netlist`]).
///
/// # Errors
///
/// Returns [`CamoError::NotAGate`] if a pick is not a gate of `netlist`
/// and [`CamoError::Uncloakable`] if the scheme cannot absorb a picked
/// gate's function.
pub fn camouflage<R: Rng + ?Sized>(
    netlist: &Arc<Netlist>,
    picks: &[NodeId],
    scheme: CamoScheme,
    rng: &mut R,
) -> Result<KeyedNetlist, CamoError> {
    camouflage_with_report(netlist, picks, scheme, rng).map(|(k, _)| k)
}

/// Like [`camouflage`], also returning the transform statistics.
///
/// # Errors
///
/// See [`camouflage`].
pub fn camouflage_with_report<R: Rng + ?Sized>(
    netlist: &Arc<Netlist>,
    picks: &[NodeId],
    scheme: CamoScheme,
    rng: &mut R,
) -> Result<(KeyedNetlist, CamoReport), CamoError> {
    if let Some(&p) = picks
        .iter()
        .find(|p| p.index() >= netlist.len() || !netlist.kind(**p).is_gate())
    {
        return Err(CamoError::NotAGate(p));
    }
    let candidates = scheme.candidates();
    let cells: Option<Vec<_>> = picks
        .iter()
        .map(|&p| cloak_in_place(netlist.kind(p), &candidates).map(|(cell, pos)| (p, cell, pos)))
        .collect();
    match cells {
        Some(cells) => Ok(patch(netlist, cells, scheme)),
        None => rebuild(netlist, picks, scheme, rng),
    }
}

/// The cell that cloaks a gate of `kind` in its own slot under
/// `candidates`, with the index of its correct function, or `None` when
/// the scheme needs an inserted node (or cannot cloak the gate at all):
///
/// * rule 1: a two-input gate whose function is a candidate is its own
///   cell;
/// * rule 4, direct case: a one-input gate `f` becomes the degenerate
///   cell `f₂(a, a)` of the first candidate with `f₂(v, v) = f(v)`.
fn cloak_in_place(kind: NodeKind, candidates: &Candidates) -> Option<(NodeKind, usize)> {
    let Candidates::TwoInput(fs) = candidates else {
        return None;
    };
    match kind {
        NodeKind::Gate2 { f, .. } => fs.iter().position(|&g| g == f).map(|pos| (kind, pos)),
        NodeKind::Gate1 { f, a } => {
            let pos = fs
                .iter()
                .position(|g| (0..2).all(|v| g.eval(v == 1, v == 1) == f.eval(v == 1)))?;
            Some((
                NodeKind::Gate2 {
                    f: fs[pos],
                    a,
                    b: a,
                },
                pos,
            ))
        }
        NodeKind::Input | NodeKind::Const(_) => None,
    }
}

/// The in-place way: `netlist` with each `(gate, cell, correct index)` of
/// `cells` installed in its own slot. A cell equal to its gate is skipped,
/// so the result shares `netlist` until a cell changes a kind; that cell
/// copies it once.
fn patch(
    netlist: &Arc<Netlist>,
    mut cells: Vec<(NodeId, NodeKind, usize)>,
    scheme: CamoScheme,
) -> (KeyedNetlist, CamoReport) {
    // Ascending ids, each gate once: the order and the collapse of the
    // builder loop's `picked` bitmap.
    cells.sort_unstable_by_key(|&(id, ..)| id);
    cells.dedup_by_key(|&mut (id, ..)| id);
    let mut nl = Arc::clone(netlist);
    let mut report = CamoReport::default();
    let mut camo_gates = Vec::with_capacity(cells.len());
    let mut key_offset = 0;
    for (id, cell, correct_index) in cells {
        let kind = netlist.kind(id);
        report.count_plain(kind);
        if cell != kind {
            Arc::make_mut(&mut nl)
                .set_gate(id, cell)
                .expect("an in-place cell keeps its gate's fanins");
        }
        let gate = CamoGate {
            node: id,
            candidates: scheme.candidates(),
            key_offset,
            correct_index,
        };
        key_offset += gate.key_bits();
        camo_gates.push(gate);
    }
    report.key_bits = key_offset;
    (KeyedNetlist::new(nl, camo_gates, key_offset), report)
}

/// The builder loop: re-emits every node of `netlist` through
/// [`NetlistBuilder`], emitting each pick's cell(s) by the first rule
/// that absorbs it. The only way to emit inserted nodes; every pick must
/// be a gate.
fn rebuild<R: Rng + ?Sized>(
    netlist: &Netlist,
    picks: &[NodeId],
    scheme: CamoScheme,
    rng: &mut R,
) -> Result<(KeyedNetlist, CamoReport), CamoError> {
    let mut picked = vec![false; netlist.len()];
    for &p in picks {
        picked[p.index()] = true;
    }

    let mut b = NetlistBuilder::new(netlist.name());
    let mut map: Vec<Option<NodeId>> = vec![None; netlist.len()];
    let mut camo_gates: Vec<CamoGate> = Vec::with_capacity(picks.len());
    let mut key_offset = 0usize;
    let mut report = CamoReport::default();

    let remap = |map: &[Option<NodeId>], id: NodeId| -> NodeId {
        map[id.index()].expect("topological order guarantees the fanin exists")
    };
    let emit =
        |b: &mut NetlistBuilder, map: &[Option<NodeId>], name: &str, kind: NodeKind| match kind {
            NodeKind::Input => b.input(name),
            NodeKind::Const(c) => b.constant(c),
            NodeKind::Gate1 { f, a } => b.gate1(name, f, remap(map, a)),
            NodeKind::Gate2 { f, a, b: bb } => b.gate2(name, f, remap(map, a), remap(map, bb)),
        };

    for (i, node) in netlist.nodes().enumerate() {
        let old = NodeId(i as u32);
        if !picked[i] {
            map[i] = Some(emit(&mut b, &map, node.name, node.kind));
            continue;
        }

        // Picked: emit the cloaked cell(s).
        let candidates = scheme.candidates();
        let in_place = cloak_in_place(node.kind, &candidates);
        let (cell_node, correct_index, mapped) = match (in_place, &candidates, node.kind) {
            (Some((cell, pos)), _, kind) => {
                // Rules 1 and 4 (direct case): the cell is the gate itself.
                let cell = emit(&mut b, &map, node.name, cell);
                report.count_plain(kind);
                (cell, pos, cell)
            }
            (None, Candidates::OneInput(fs), kind) => {
                // INV/BUF insertion behind the gate.
                let invert = rng.gen_bool(0.5);
                let pre = match kind {
                    NodeKind::Gate1 { f, a } => {
                        let f = if invert { f.complement() } else { f };
                        b.gate1(format!("{}__camopre", node.name), f, remap(&map, a))
                    }
                    NodeKind::Gate2 { f, a, b: bb } => {
                        let f = if invert { f.complement() } else { f };
                        b.gate2(
                            format!("{}__camopre", node.name),
                            f,
                            remap(&map, a),
                            remap(&map, bb),
                        )
                    }
                    _ => return Err(CamoError::NotAGate(old)),
                };
                let cell_fn = if invert { Bf1::Inv } else { Bf1::Buf };
                let cell = b.gate1(node.name, cell_fn, pre);
                let correct = fs
                    .iter()
                    .position(|&f| f == cell_fn)
                    .expect("InvBuf candidates contain both functions");
                report.count_plain(kind);
                report.extra_gates += 1;
                (cell, correct, cell)
            }
            (None, Candidates::TwoInput(fs), NodeKind::Gate2 { f, a, b: bb }) => {
                let (na, nb) = (remap(&map, a), remap(&map, bb));
                if let Some(pos) = fs.iter().position(|&g| g == f.complement()) {
                    let cell = b.gate2(format!("{}__camocell", node.name), f.complement(), na, nb);
                    let inv = b.gate1(node.name, Bf1::Inv, cell);
                    report.complemented += 1;
                    report.extra_gates += 1;
                    (cell, pos, inv)
                } else if (f == Bf2::XOR || f == Bf2::XNOR) && fs.contains(&Bf2::NAND) {
                    // 4-NAND tree; cloak the output NAND.
                    let t1 = b.gate2(format!("{}__t1", node.name), Bf2::NAND, na, nb);
                    let t2 = b.gate2(format!("{}__t2", node.name), Bf2::NAND, na, t1);
                    let t3 = b.gate2(format!("{}__t3", node.name), Bf2::NAND, nb, t1);
                    let pos = fs.iter().position(|&g| g == Bf2::NAND).expect("checked");
                    report.decomposed += 1;
                    if f == Bf2::XOR {
                        let cell = b.gate2(node.name, Bf2::NAND, t2, t3);
                        report.extra_gates += 3;
                        (cell, pos, cell)
                    } else {
                        let cell = b.gate2(format!("{}__camocell", node.name), Bf2::NAND, t2, t3);
                        let inv = b.gate1(node.name, Bf1::Inv, cell);
                        report.extra_gates += 4;
                        (cell, pos, inv)
                    }
                } else {
                    return Err(CamoError::Uncloakable {
                        node: old,
                        function: f.name(),
                    });
                }
            }
            (None, Candidates::TwoInput(fs), NodeKind::Gate1 { f, a }) => {
                // Rule 4, complement case: a degenerate cell with
                // f₂(v, v) = ¬f(v) behind a visible inverter.
                let na = remap(&map, a);
                let matches_compl =
                    |g: &Bf2| (0..2).all(|v| g.eval(v == 1, v == 1) != f.eval(v == 1));
                if let Some(pos) = fs.iter().position(matches_compl) {
                    let cell = b.gate2(format!("{}__camocell", node.name), fs[pos], na, na);
                    let inv = b.gate1(node.name, Bf1::Inv, cell);
                    report.degenerate += 1;
                    report.extra_gates += 1;
                    (cell, pos, inv)
                } else {
                    return Err(CamoError::Uncloakable {
                        node: old,
                        function: f.name(),
                    });
                }
            }
            (None, _, NodeKind::Input | NodeKind::Const(_)) => {
                return Err(CamoError::NotAGate(old))
            }
        };

        let bits = candidates.key_bits();
        camo_gates.push(CamoGate {
            node: cell_node,
            candidates,
            key_offset,
            correct_index,
        });
        key_offset += bits;
        map[i] = Some(mapped);
    }

    for &o in netlist.outputs() {
        b.output(remap(&map, o));
    }
    report.key_bits = key_offset;
    let nl = b.finish().expect("transform preserves invariants");
    Ok((KeyedNetlist::new(nl, camo_gates, key_offset), report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selection::select_gates;
    use gshe_logic::bench_format::{parse_bench, C17_BENCH};
    use gshe_logic::sim::random_equivalence_check;
    use gshe_logic::{GeneratorConfig, NetlistGenerator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample() -> Arc<Netlist> {
        Arc::new(
            NetlistGenerator::new(GeneratorConfig::new("t", 10, 5, 120).with_seed(21))
                .unwrap()
                .generate(),
        )
    }

    fn check_correct_key_preserves_function(scheme: CamoScheme) {
        let nl = sample();
        let picks = select_gates(&nl, 0.25, 77);
        let mut rng = StdRng::seed_from_u64(1);
        let keyed = camouflage(&nl, &picks, scheme, &mut rng).unwrap();
        let resolved = keyed.resolve(&keyed.correct_key()).unwrap();
        let mut rng2 = StdRng::seed_from_u64(2);
        assert_eq!(
            random_equivalence_check(&nl, &resolved, 6, &mut rng2).unwrap(),
            None,
            "{scheme}: correct key must restore the original function"
        );
    }

    #[test]
    fn every_scheme_preserves_function_under_correct_key() {
        for scheme in CamoScheme::ALL {
            check_correct_key_preserves_function(scheme);
        }
    }

    #[test]
    fn key_bits_scale_with_scheme() {
        let nl = sample();
        let picks = select_gates(&nl, 0.25, 77);
        let mut rng = StdRng::seed_from_u64(1);
        let small = camouflage(&nl, &picks, CamoScheme::InvBuf, &mut rng).unwrap();
        let big = camouflage(&nl, &picks, CamoScheme::GsheAll16, &mut rng).unwrap();
        assert_eq!(small.key_len(), picks.len());
        assert_eq!(big.key_len(), 4 * picks.len());
    }

    #[test]
    fn report_accounts_for_every_pick() {
        let nl = sample();
        let picks = select_gates(&nl, 0.3, 5);
        let mut rng = StdRng::seed_from_u64(3);
        for scheme in CamoScheme::ALL {
            let (_, report) = camouflage_with_report(&nl, &picks, scheme, &mut rng).unwrap();
            assert_eq!(report.protected(), picks.len(), "{scheme}");
        }
    }

    #[test]
    fn lookalike_uses_complement_rule_for_and_or() {
        // Generator netlists contain AND/OR which LookAlike {NAND,NOR,XOR}
        // must absorb by complementing.
        let nl = sample();
        let picks = select_gates(&nl, 0.5, 6);
        let mut rng = StdRng::seed_from_u64(4);
        let (_, report) =
            camouflage_with_report(&nl, &picks, CamoScheme::LookAlike, &mut rng).unwrap();
        assert!(report.complemented > 0);
        assert!(report.extra_gates > 0);
    }

    #[test]
    fn fourfn_decomposes_xor() {
        let nl = sample();
        let picks = select_gates(&nl, 0.6, 8);
        let mut rng = StdRng::seed_from_u64(5);
        let (keyed, report) =
            camouflage_with_report(&nl, &picks, CamoScheme::FourFn, &mut rng).unwrap();
        assert!(report.decomposed > 0, "sample contains XOR/XNOR gates");
        // Decomposition inflates the gate count.
        assert!(keyed.netlist().gate_count() > nl.gate_count());
    }

    #[test]
    fn c17_full_protection_all_schemes() {
        let nl = Arc::new(parse_bench(C17_BENCH).unwrap());
        let picks = nl.gate_ids();
        for scheme in CamoScheme::ALL {
            let mut rng = StdRng::seed_from_u64(9);
            let keyed = camouflage(&nl, &picks, scheme, &mut rng).unwrap();
            let resolved = keyed.resolve(&keyed.correct_key()).unwrap();
            // c17 is tiny: exhaustively verify.
            for p in 0..32u32 {
                let v: Vec<bool> = (0..5).map(|k| (p >> k) & 1 == 1).collect();
                assert_eq!(nl.evaluate(&v), resolved.evaluate(&v), "{scheme} p={p}");
            }
        }
    }

    #[test]
    fn wrong_key_usually_breaks_function() {
        let nl = Arc::new(parse_bench(C17_BENCH).unwrap());
        let picks = nl.gate_ids();
        let mut rng = StdRng::seed_from_u64(10);
        let keyed = camouflage(&nl, &picks, CamoScheme::GsheAll16, &mut rng).unwrap();
        let mut wrong = keyed.correct_key();
        for b in wrong.iter_mut() {
            *b = !*b;
        }
        let resolved = keyed.resolve(&wrong).unwrap();
        let mut differs = false;
        for p in 0..32u32 {
            let v: Vec<bool> = (0..5).map(|k| (p >> k) & 1 == 1).collect();
            if nl.evaluate(&v) != resolved.evaluate(&v) {
                differs = true;
                break;
            }
        }
        assert!(differs, "all-bits-flipped key should change c17's function");
    }

    #[test]
    fn picking_an_input_is_rejected() {
        let nl = Arc::new(parse_bench(C17_BENCH).unwrap());
        let input = nl.inputs()[0];
        let mut rng = StdRng::seed_from_u64(11);
        assert!(matches!(
            camouflage(&nl, &[input], CamoScheme::GsheAll16, &mut rng),
            Err(CamoError::NotAGate(_))
        ));
    }

    /// Camouflages `picks` through the in-place way and through the
    /// builder loop, and asserts both give the same keyed netlist and
    /// report, both keep `nl`'s name, the in-place draw shares `nl`
    /// exactly when every cell is its gate unchanged, and the public entry
    /// point gives the same draw.
    fn assert_in_place_matches_builder(nl: &Arc<Netlist>, picks: &[NodeId], scheme: CamoScheme) {
        let candidates = scheme.candidates();
        let cells: Vec<_> = picks
            .iter()
            .map(|&p| {
                let (cell, pos) =
                    cloak_in_place(nl.kind(p), &candidates).expect("every pick cloaks in place");
                (p, cell, pos)
            })
            .collect();
        let keeps_kinds = cells.iter().all(|&(p, cell, _)| nl.kind(p) == cell);
        let (patched, patched_report) = patch(nl, cells, scheme);
        let mut rng = StdRng::seed_from_u64(0);
        let (built, built_report) = rebuild(nl, picks, scheme, &mut rng).unwrap();
        let what = format!("{scheme} on {} with {} picks", nl.name(), picks.len());
        let (p, b) = (patched.netlist(), built.netlist());
        assert_eq!(p.len(), b.len(), "{what}");
        for (i, (pn, bn)) in p.nodes().zip(b.nodes()).enumerate() {
            assert_eq!(pn, bn, "{what}: node {i}");
        }
        assert_eq!(p.name(), nl.name(), "{what}");
        assert_eq!(b.name(), nl.name(), "{what}");
        assert_eq!(patched.shares_netlist(nl), keeps_kinds, "{what}");
        assert_eq!(p.inputs(), b.inputs(), "{what}");
        assert_eq!(p.outputs(), b.outputs(), "{what}");
        assert_eq!(patched.camo_gates(), built.camo_gates(), "{what}");
        assert_eq!(patched.key_len(), built.key_len(), "{what}");
        assert_eq!(patched.correct_key(), built.correct_key(), "{what}");
        assert_eq!(patched.reached_outputs(), built.reached_outputs(), "{what}");
        assert_eq!(patched_report, built_report, "{what}");
        assert_eq!(patched_report.extra_gates, 0, "{what}");
        assert_eq!(patched, built, "{what}");
        let via_entry = camouflage_with_report(nl, picks, scheme, &mut rng).unwrap();
        assert_eq!(via_entry, (patched, patched_report), "{what}");
    }

    /// `picks` reversed with its first and last picks repeated.
    fn shuffled_with_repeats(picks: &[NodeId]) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = picks.iter().rev().copied().collect();
        v.extend(picks.first());
        v.extend(picks.last());
        v
    }

    const IN_PLACE_SCHEMES: [CamoScheme; 3] = [
        CamoScheme::GsheAll16,
        CamoScheme::ThresholdSttLut,
        CamoScheme::DwmPolymorphic,
    ];

    #[test]
    fn in_place_matches_builder_on_generated_designs() {
        for seed in [3, 21, 58] {
            let nl = Arc::new(
                NetlistGenerator::new(GeneratorConfig::new("g", 12, 6, 300).with_seed(seed))
                    .unwrap()
                    .generate(),
            );
            for level in [0.01, 0.1, 0.5, 1.0] {
                let picks = select_gates(&nl, level, seed ^ 7);
                for scheme in IN_PLACE_SCHEMES {
                    assert_in_place_matches_builder(&nl, &picks, scheme);
                    assert_in_place_matches_builder(&nl, &shuffled_with_repeats(&picks), scheme);
                }
            }
        }
    }

    /// A `.bench` design with `NOT` and `BUFF` gates, which rule 4 cloaks
    /// as degenerate two-input cells.
    const ONE_INPUT_BENCH: &str = "\
        INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nOUTPUT(z)\n\
        n1 = NAND(a, b)\nn2 = NOT(n1)\nn3 = BUFF(c)\n\
        n4 = XOR(n2, n3)\ny = NOT(n4)\nz = AND(n3, a)\n";

    #[test]
    fn in_place_matches_builder_on_one_input_gates() {
        let nl = Arc::new(parse_bench(ONE_INPUT_BENCH).unwrap());
        let gates = nl.gate_ids();
        let one_input: Vec<NodeId> = gates
            .iter()
            .copied()
            .filter(|&g| matches!(nl.kind(g), NodeKind::Gate1 { .. }))
            .collect();
        assert_eq!(one_input.len(), 3);
        for scheme in IN_PLACE_SCHEMES {
            for picks in [&gates, &one_input] {
                assert_in_place_matches_builder(&nl, picks, scheme);
                assert_in_place_matches_builder(&nl, &shuffled_with_repeats(picks), scheme);
            }
            let (_, report) =
                camouflage_with_report(&nl, &gates, scheme, &mut StdRng::seed_from_u64(0)).unwrap();
            assert_eq!((report.direct, report.degenerate), (3, 3), "{scheme}");
        }
    }

    #[test]
    fn a_draw_that_changes_a_kind_copies_and_leaves_the_design_alone() {
        let nl = Arc::new(parse_bench(ONE_INPUT_BENCH).unwrap());
        let before = Netlist::clone(&nl);
        let gates = nl.gate_ids();
        let mut rng = StdRng::seed_from_u64(0);
        let keyed = camouflage(&nl, &gates, CamoScheme::GsheAll16, &mut rng).unwrap();
        assert!(!keyed.shares_netlist(&nl), "rule 4 rewrites NOT and BUFF");
        assert_eq!(*nl, before, "copy-on-write never writes the design");
        assert_ne!(keyed.netlist(), &before);
        let two_input: Vec<NodeId> = gates
            .into_iter()
            .filter(|&g| matches!(nl.kind(g), NodeKind::Gate2 { .. }))
            .collect();
        let keyed = camouflage(&nl, &two_input, CamoScheme::GsheAll16, &mut rng).unwrap();
        assert!(keyed.shares_netlist(&nl), "rule-1 cells change no node");
    }

    #[test]
    fn a_pick_that_inserts_sends_the_draw_through_the_builder() {
        // SiNW has neither AND nor a candidate with f₂(v, v) = v: the AND
        // gate takes rule 2 and BUFF rule 4's complement case, and each
        // inserts a visible inverter that renumbers every later node.
        let nl = Arc::new(parse_bench(ONE_INPUT_BENCH).unwrap());
        let gates = nl.gate_ids();
        let mut rng = StdRng::seed_from_u64(0);
        let (keyed, report) =
            camouflage_with_report(&nl, &gates, CamoScheme::SiNw, &mut rng).unwrap();
        let (built, built_report) = rebuild(&nl, &gates, CamoScheme::SiNw, &mut rng).unwrap();
        assert_eq!(report.extra_gates, 2);
        assert_eq!(keyed.netlist().len(), nl.len() + 2);
        assert_eq!((keyed, report), (built, built_report));
    }

    #[test]
    fn picking_outside_the_design_is_rejected() {
        let nl = Arc::new(parse_bench(C17_BENCH).unwrap());
        let outside = NodeId(nl.len() as u32);
        for scheme in CamoScheme::ALL {
            let mut rng = StdRng::seed_from_u64(11);
            assert_eq!(
                camouflage(&nl, &[nl.gate_ids()[0], outside], scheme, &mut rng),
                Err(CamoError::NotAGate(outside)),
                "{scheme}"
            );
        }
    }

    #[test]
    fn invbuf_produces_both_variants() {
        let nl = sample();
        let picks = select_gates(&nl, 0.5, 12);
        let mut rng = StdRng::seed_from_u64(13);
        let keyed = camouflage(&nl, &picks, CamoScheme::InvBuf, &mut rng).unwrap();
        let key = keyed.correct_key();
        let bufs = key.iter().filter(|&&b| !b).count();
        let invs = key.iter().filter(|&&b| b).count();
        assert!(bufs > 0 && invs > 0, "both BUF and INV cells must occur");
    }
}
