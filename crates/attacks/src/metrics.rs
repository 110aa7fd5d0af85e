//! Key verification and attack-quality metrics.

use crate::coi::{affected_outputs, CoiMode};
use gshe_camo::{CamoError, KeyedNetlist};
use gshe_logic::{Bf2, Netlist, NodeId, NodeKind, PatternBlock, Simulator};
use gshe_sat::{CircuitEncoder, Lit, Polarity, SolveResult, Solver};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// Verdict on a recovered key.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KeyVerification {
    /// The key selects the defender's exact candidate at every cell.
    pub structurally_correct: bool,
    /// The resolved netlist is **provably** equivalent to the original —
    /// the attacker's actual success criterion. The proof is
    /// [`sat_equivalent_on`]: outputs that structural hashing merges with
    /// the original's are equal by construction, the rest are SAT-checked.
    pub functionally_equivalent: bool,
    /// Fraction of 4096 random patterns on which the resolved netlist
    /// disagrees with the original (0.0 when equivalent).
    pub sampled_error_rate: f64,
}

/// Verifies a recovered key against the original design: an exact
/// equivalence proof of the resolved netlist plus a sampled error rate.
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
/// netlists by construction — the proof need cover only the affected
/// outputs' fanin cones, which on superblue-scale designs are a few
/// hundred nodes of a full-width interface. The keyed side is encoded
/// straight from the keyed netlist with each cloaked cell's keyed
/// function ([`KeyedNetlist::cell_kinds`]) substituted, so nothing
/// design-sized is copied or indexed: the proof's tables are as long as
/// the cones. It is the same structurally
/// hashed CNF [`sat_equivalent_on`] builds over the resolved netlist.
/// The key is resolved only to sample the error rate of a key that
/// fails the proof. The verdict is identical to [`verify_key`]'s;
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
    let cells = keyed.cell_kinds(key)?;
    let all: Vec<usize>;
    let outputs = match affected_outputs(keyed, mode) {
        Some(outputs) => outputs,
        None => {
            all = (0..original.outputs().len()).collect();
            &all
        }
    };
    let functionally_equivalent = prove_on(original, keyed.netlist(), &cells, outputs);
    let sampled_error_rate = if functionally_equivalent {
        0.0
    } else {
        sampled_error(original, &keyed.resolve(key)?, 64)
    };
    Ok(KeyVerification {
        structurally_correct: keyed.key_is_structurally_correct(key),
        functionally_equivalent,
        sampled_error_rate,
    })
}

/// Exact equivalence of `a` and `b` on the outputs at the given
/// **ordinals** (positions in `outputs()`). Primary inputs are matched by
/// ordinal too, so the two netlists need not share an id space: an
/// original design and a keyed netlist camouflage rebuilt from it
/// (inserting cells, which shifts every later id) compare directly.
///
/// Both fanin cones go into one structurally hashed CNF: the two sides
/// share their input literals, and a gate computing the same function of
/// the same literals as one already encoded reuses its literal. Logic a
/// recovered key left unchanged therefore collapses onto the original's,
/// output pairs that hash to one literal are equal by construction, and
/// only the remaining pairs reach a SAT miter. When none remain (an empty
/// `outputs` included) the answer is `true` without a solve. An input
/// only one cone reads stays free — if the other side truly ignores it
/// the miter stays UNSAT, and any dependence it could witness is a real
/// inequivalence.
///
/// # Panics
///
/// Panics if the interfaces differ in width, or an ordinal is out of
/// range.
pub fn sat_equivalent_on(a: &Netlist, b: &Netlist, outputs: &[usize]) -> bool {
    prove_on(a, b, &[], outputs)
}

/// [`sat_equivalent_on`] against `b` with the kinds in `b_cells` —
/// `(node, kind)` pairs in ascending node order, each a gate on the
/// node's own fanins — substituted for `b`'s own.
fn prove_on(a: &Netlist, b: &Netlist, b_cells: &[(NodeId, NodeKind)], outputs: &[usize]) -> bool {
    assert_eq!(a.inputs().len(), b.inputs().len(), "interface mismatch");
    assert_eq!(a.outputs().len(), b.outputs().len(), "interface mismatch");
    gshe_obs::count("verify.outputs", outputs.len() as u64);
    let (mut solver, open) = open_pairs(a, b, b_cells, outputs);
    gshe_obs::count("verify.open_outputs", open.len() as u64);
    if open.is_empty() {
        return true;
    }
    let (oa, ob): (Vec<Lit>, Vec<Lit>) = open.into_iter().unzip();
    // The difference literal is only ever asserted true, so the
    // single-sided (Plaisted–Greenbaum) miter is exact.
    let diff = CircuitEncoder::new(&mut solver).miter_pol(&oa, &ob, Polarity::Pos);
    solver.add_clause(&[diff]);
    solver.solve() == SolveResult::Unsat
}

/// Encodes the cones of `a`'s and `b`'s outputs at `outputs` into one
/// structurally hashed CNF. Returns it with the output pairs that
/// hashing left on distinct literals.
fn open_pairs(
    a: &Netlist,
    b: &Netlist,
    b_cells: &[(NodeId, NodeKind)],
    outputs: &[usize],
) -> (Solver, Vec<(Lit, Lit)>) {
    let mut strash = Strash::new(a.inputs().len());
    let oa = strash.cone(a, &[], outputs);
    let ob = strash.cone(b, b_cells, outputs);
    let open = oa.into_iter().zip(ob).filter(|(x, y)| x != y).collect();
    (strash.solver, open)
}

/// A structurally hashed Tseitin encoder. Every two-input gate is put
/// in a canonical form — fanins positive and ordered by variable, output
/// complemented so that row 00 reads 0 — and looked up before it is
/// encoded, so a gate identical to one already in the CNF costs nothing.
/// Constants and one-input gates are literals, never variables.
struct Strash {
    solver: Solver,
    /// The constant-true literal (the first variable allocated).
    t: Lit,
    /// One literal per primary-input ordinal, shared by every cone.
    inputs: Vec<Option<Lit>>,
    /// Canonical `(truth table, a, b)` → the gate's output literal. Only
    /// ever looked up, never iterated, so the CNF is deterministic.
    gates: HashMap<(u8, Lit, Lit), Lit>,
}

impl Strash {
    fn new(inputs: usize) -> Self {
        let mut solver = Solver::new();
        let t = Lit::pos(solver.new_var());
        solver.add_clause(&[t]);
        Strash {
            solver,
            t,
            inputs: vec![None; inputs],
            gates: HashMap::new(),
        }
    }

    /// Encodes the fanin cone of `nl`'s outputs at `outputs` (ordinals),
    /// with the kinds in `cells` (ascending by node) in place of the
    /// netlist's, and returns the outputs' literals.
    fn cone(&mut self, nl: &Netlist, cells: &[(NodeId, NodeKind)], outputs: &[usize]) -> Vec<Lit> {
        let roots: Vec<NodeId> = outputs.iter().map(|&k| nl.outputs()[k]).collect();
        let cone = nl.fanin_set(&roots);
        // Literals by cone position. Ids are topological and the cone is
        // walked ascending, so every fanin is encoded before its gate.
        let mut lits: Vec<Lit> = Vec::with_capacity(cone.len());
        let lit = |lits: &[Lit], id: NodeId| lits[cone.position(id).expect("fanin in the cone")];
        let mut cells = cells.iter().peekable();
        for id in cone.iter() {
            // The cells are ascending too: skip those outside the cone.
            while cells.next_if(|&&(c, _)| c < id).is_some() {}
            let kind = match cells.next_if(|&&(c, _)| c == id) {
                Some(&(_, kind)) => kind,
                None => nl.kind(id),
            };
            let z = match kind {
                NodeKind::Input => {
                    // `inputs()` lists the input nodes in ascending id order.
                    let k = nl.inputs().binary_search(&id).expect("an input node");
                    *self.inputs[k].get_or_insert_with(|| Lit::pos(self.solver.new_var()))
                }
                NodeKind::Const(c) => self.constant(c),
                NodeKind::Gate1 { f, a } => self.unary(f.eval(false), f.eval(true), lit(&lits, a)),
                NodeKind::Gate2 { f, a, b } => self.gate2(f, lit(&lits, a), lit(&lits, b)),
            };
            lits.push(z);
        }
        roots.iter().map(|&r| lit(&lits, r)).collect()
    }

    fn constant(&self, value: bool) -> Lit {
        if value {
            self.t
        } else {
            !self.t
        }
    }

    /// The one-input function reading `v0` at `x = 0` and `v1` at `x = 1`.
    fn unary(&self, v0: bool, v1: bool, x: Lit) -> Lit {
        match (v0, v1) {
            (false, true) => x,
            (true, false) => !x,
            (v, _) => self.constant(v),
        }
    }

    /// `f(a, b)`, folded when degenerate and hashed otherwise.
    fn gate2(&mut self, mut f: Bf2, mut a: Lit, mut b: Lit) -> Lit {
        if !a.is_positive() {
            f = f.negate_a();
            a = !a;
        }
        if !b.is_positive() {
            f = f.negate_b();
            b = !b;
        }
        if a.var() > b.var() {
            f = f.swap_inputs();
            std::mem::swap(&mut a, &mut b);
        }
        if a == b {
            return self.unary(f.eval(false, false), f.eval(true, true), a);
        }
        // The constant sorts first: it is the lowest variable.
        if a == self.t {
            return self.unary(f.eval(true, false), f.eval(true, true), b);
        }
        // Constant tables ignore both inputs.
        if f.ignores_a() {
            return self.unary(f.eval(false, false), f.eval(false, true), b);
        }
        if f.ignores_b() {
            return self.unary(f.eval(false, false), f.eval(true, false), a);
        }
        let flip = f.eval(false, false);
        if flip {
            f = f.complement();
        }
        let tt = f.truth_table();
        let z = *self
            .gates
            .entry((tt, a, b))
            .or_insert_with(|| CircuitEncoder::new(&mut self.solver).gate_tt(tt, a, b));
        if flip {
            !z
        } else {
            z
        }
    }
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
    fn empty_output_set_is_vacuously_equivalent() {
        let a = parse_bench(C17_BENCH).unwrap();
        let mut b = parse_bench(C17_BENCH).unwrap();
        let g = b.find("22").unwrap();
        b.set_gate2_function(g, Bf2::NOR).unwrap();
        assert!(sat_equivalent_on(&a, &b, &[]));
    }

    #[test]
    fn canonical_gates_hash_to_one_literal() {
        let mut strash = Strash::new(2);
        let a = Lit::pos(strash.solver.new_var());
        let b = Lit::pos(strash.solver.new_var());
        let and = strash.gate2(Bf2::AND, a, b);
        assert_eq!(strash.gate2(Bf2::AND, b, a), and);
        assert_eq!(strash.gate2(Bf2::NOR, !a, !b), and);
        let xor = strash.gate2(Bf2::XOR, a, b);
        assert_eq!(strash.gate2(Bf2::XNOR, a, b), !xor);
        assert_eq!(strash.gate2(Bf2::XNOR, b, !a), xor);
        // Degenerate gates fold to a literal or a constant.
        let t = strash.t;
        assert_eq!(strash.gate2(Bf2::NOT_A, a, b), !a);
        assert_eq!(strash.gate2(Bf2::AND, a, !a), !t);
        assert_eq!(strash.gate2(Bf2::OR, !t, b), b);
        assert_eq!(strash.gate2(Bf2::NAND, b, t), !b);
        assert_eq!(strash.gates.len(), 2, "only AND and XOR reach the CNF");
    }

    /// A structurally correct key rebuilds the original's logic, so every
    /// output pair hashes to one literal and the proof never solves; a
    /// wrong key leaves pairs open. Inv-buf's inserted inverter pairs fold
    /// away too (four-fn and look-alike rebuild XORs as NAND trees, which
    /// hashing does not undo).
    #[test]
    fn structurally_correct_key_leaves_no_pair_open() {
        use gshe_logic::{GeneratorConfig, NetlistGenerator};
        let nl = NetlistGenerator::new(GeneratorConfig::new("sh", 12, 8, 120).with_seed(4))
            .unwrap()
            .generate();
        let all: Vec<usize> = (0..nl.outputs().len()).collect();
        let picks = select_gates(&nl, 0.3, 4);
        for scheme in [CamoScheme::GsheAll16, CamoScheme::InvBuf] {
            let mut rng = StdRng::seed_from_u64(4);
            let keyed = camouflage(&nl, &picks, scheme, &mut rng).unwrap();
            let correct = keyed.correct_key();
            let resolved = keyed.resolve(&correct).unwrap();
            assert!(
                open_pairs(&nl, &resolved, &[], &all).1.is_empty(),
                "{scheme}"
            );
            assert!(sat_equivalent_on(&nl, &resolved, &all), "{scheme}");
            let wrong: Vec<bool> = correct.iter().map(|b| !b).collect();
            let resolved = keyed.resolve(&wrong).unwrap();
            assert!(
                !open_pairs(&nl, &resolved, &[], &all).1.is_empty(),
                "{scheme}"
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
