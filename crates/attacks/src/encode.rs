//! SAT encoding of keyed netlists (the attacker's model).
//!
//! A cloaked cell with candidate set `{f₀ … f_{k−1}}` and key bits `K` is
//! encoded as: for every candidate `i` and every input row, the clause
//! `(K ≠ i) ∨ (inputs ≠ row) ∨ (z = fᵢ(row))`. Unused binary codes are
//! globally forbidden by [`assert_valid_key_codes`] so SAT models always
//! decode to real candidates.
//!
//! One encoder walks the keyed netlist under a vector of key literals,
//! carrying each signal as a known constant or a literal ([`SigVal`]).
//! Its primary inputs are free or fixed:
//!
//! - [`encode_keyed`] gives every input a fresh literal: the symbolic
//!   copies the miter compares.
//! - [`encode_keyed_fixed`] fixes the inputs, for the oracle I/O
//!   constraints `C(X_d, K) = Y_d`: all key-independent logic folds away
//!   and each cloaked cell costs only one short clause per candidate — the
//!   dominant factor in DIP-loop throughput.
//!
//! Constants fold the same way in both, so a `Const` node or a constant
//! one-input gate costs no variable or clause.

use gshe_camo::{CamoGate, Candidates, KeyedNetlist};
use gshe_logic::NodeKind;
use gshe_sat::{CircuitEncoder, Lit};
use std::collections::HashMap;

/// One encoded copy of the keyed circuit.
#[derive(Debug, Clone)]
pub struct EncodedCopy {
    /// Literals of the primary inputs (shared across copies when the caller
    /// passes them around).
    pub inputs: Vec<Lit>,
    /// Literals of the primary outputs.
    pub outputs: Vec<Lit>,
}

/// A signal during encoding: known constant or symbolic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SigVal {
    /// Compile-time constant.
    Known(bool),
    /// Symbolic literal.
    Sym(Lit),
}

/// The literals of `K ≠ code` over the cell's key bits: the prefix that
/// satisfies a clause unless the cell's key selects `code`.
fn selector_negation<'a>(
    gate: &'a CamoGate,
    code: usize,
    key: &'a [Lit],
) -> impl Iterator<Item = Lit> + 'a {
    key[gate.key_offset..gate.key_offset + gate.key_bits()]
        .iter()
        .enumerate()
        .map(move |(j, &k)| if (code >> j) & 1 == 1 { !k } else { k })
}

/// Forbids the unused binary codes of every cloaked cell (emit once per key
/// vector, not per circuit copy).
pub fn assert_valid_key_codes(enc: &mut CircuitEncoder<'_>, keyed: &KeyedNetlist, key: &[Lit]) {
    for gate in keyed.camo_gates() {
        let n = gate.candidates.len();
        for code in n..(1usize << gate.key_bits()) {
            let clause: Vec<Lit> = selector_negation(gate, code, key).collect();
            enc.clause(&clause);
        }
    }
}

/// Encodes a full symbolic copy of the keyed circuit under key literals
/// `key`, allocating fresh input literals.
///
/// # Panics
///
/// Panics if `key.len() != keyed.key_len()`.
pub fn encode_keyed(
    enc: &mut CircuitEncoder<'_>,
    keyed: &KeyedNetlist,
    key: &[Lit],
) -> EncodedCopy {
    let (inputs, outputs) = encode_copy(enc, keyed, key, None);
    let mut lit = |v| match v {
        SigVal::Known(b) => enc.constant(b),
        SigVal::Sym(l) => l,
    };
    EncodedCopy {
        inputs: inputs.into_iter().map(&mut lit).collect(),
        outputs: outputs.into_iter().map(&mut lit).collect(),
    }
}

/// Encodes the circuit with *fixed* primary inputs, constant-folding all
/// key-independent logic. Returns the output signals.
///
/// # Panics
///
/// Panics on key or input width mismatch.
pub fn encode_keyed_fixed(
    enc: &mut CircuitEncoder<'_>,
    keyed: &KeyedNetlist,
    key: &[Lit],
    inputs: &[bool],
) -> Vec<SigVal> {
    encode_copy(enc, keyed, key, Some(inputs)).1
}

/// The one netlist walk: encodes a copy of the keyed circuit under key
/// literals `key`. The primary inputs, in node order, take the values
/// `fixed` or, when it is `None`, fresh literals. Returns the input and
/// output signals.
fn encode_copy(
    enc: &mut CircuitEncoder<'_>,
    keyed: &KeyedNetlist,
    key: &[Lit],
    fixed: Option<&[bool]>,
) -> (Vec<SigVal>, Vec<SigVal>) {
    assert_eq!(key.len(), keyed.key_len(), "key literal width mismatch");
    let nl = keyed.netlist();
    if let Some(fixed) = fixed {
        assert_eq!(fixed.len(), nl.inputs().len(), "input width mismatch");
    }
    let camo: HashMap<usize, &CamoGate> = keyed
        .camo_gates()
        .iter()
        .map(|g| (g.node.index(), g))
        .collect();
    let mut vals: Vec<SigVal> = Vec::with_capacity(nl.len());
    let mut inputs = Vec::with_capacity(nl.inputs().len());

    for (i, node) in nl.nodes().enumerate() {
        let v = if let Some(gate) = camo.get(&i) {
            SigVal::Sym(encode_camo_cell(enc, gate, key, &vals, &node.kind))
        } else {
            match node.kind {
                NodeKind::Input => {
                    let v = match fixed {
                        Some(fixed) => SigVal::Known(fixed[inputs.len()]),
                        None => SigVal::Sym(enc.fresh()),
                    };
                    inputs.push(v);
                    v
                }
                NodeKind::Const(c) => SigVal::Known(c),
                NodeKind::Gate1 { f, a } => match vals[a.index()] {
                    SigVal::Known(v) => SigVal::Known(f.eval(v)),
                    SigVal::Sym(l) => of_one_literal(f.eval(false), f.eval(true), l),
                },
                NodeKind::Gate2 { f, a, b } => match (vals[a.index()], vals[b.index()]) {
                    (SigVal::Known(va), SigVal::Known(vb)) => SigVal::Known(f.eval(va, vb)),
                    (SigVal::Known(va), SigVal::Sym(lb)) => {
                        of_one_literal(f.eval(va, false), f.eval(va, true), lb)
                    }
                    (SigVal::Sym(la), SigVal::Known(vb)) => {
                        of_one_literal(f.eval(false, vb), f.eval(true, vb), la)
                    }
                    (SigVal::Sym(la), SigVal::Sym(lb)) => {
                        SigVal::Sym(enc.gate_tt(f.truth_table(), la, lb))
                    }
                },
            }
        };
        vals.push(v);
    }
    let outputs = nl.outputs().iter().map(|o| vals[o.index()]).collect();
    (inputs, outputs)
}

/// A gate whose only symbolic fanin is `l`, given its outputs at `l = 0`
/// (`f0`) and `l = 1` (`f1`): a constant, `l` or `¬l`.
fn of_one_literal(f0: bool, f1: bool, l: Lit) -> SigVal {
    match (f0, f1) {
        (false, true) => SigVal::Sym(l),
        (true, false) => SigVal::Sym(!l),
        (same, _) => SigVal::Known(same),
    }
}

/// Encodes a cloaked cell and returns its output literal `z`: for every
/// candidate `i` and every row of the fanins that agrees with the known
/// ones, the clause `(K ≠ i) ∨ (symbolic fanins ≠ row) ∨ (z = fᵢ(row))`.
fn encode_camo_cell(
    enc: &mut CircuitEncoder<'_>,
    gate: &CamoGate,
    key: &[Lit],
    vals: &[SigVal],
    kind: &NodeKind,
) -> Lit {
    // The fanin signals, and each candidate's truth table over them (bit
    // `row` is the output when fanin `j` carries bit `j` of `row`).
    let (fanins, tables): (Vec<SigVal>, Vec<u8>) = match (&gate.candidates, kind) {
        (Candidates::TwoInput(fs), NodeKind::Gate2 { a, b, .. }) => (
            vec![vals[a.index()], vals[b.index()]],
            fs.iter().map(|f| f.truth_table()).collect(),
        ),
        (Candidates::OneInput(fs), NodeKind::Gate1 { a, .. }) => (
            vec![vals[a.index()]],
            fs.iter()
                .map(|f| u8::from(f.eval(false)) | u8::from(f.eval(true)) << 1)
                .collect(),
        ),
        (c, k) => unreachable!("camo cell shape mismatch: {c:?} at {k:?}"),
    };
    let z = enc.fresh();
    let mut clause = Vec::new();
    for (i, tt) in tables.into_iter().enumerate() {
        for row in 0..1u8 << fanins.len() {
            let bit = |j: usize| (row >> j) & 1 == 1;
            if (0..fanins.len()).any(|j| fanins[j] == SigVal::Known(!bit(j))) {
                continue;
            }
            clause.clear();
            clause.extend(selector_negation(gate, i, key));
            for (j, &s) in fanins.iter().enumerate() {
                if let SigVal::Sym(l) = s {
                    clause.push(if bit(j) { !l } else { l });
                }
            }
            clause.push(if (tt >> row) & 1 == 1 { z } else { !z });
            enc.clause(&clause);
        }
    }
    z
}

/// Asserts `outputs == expected`; a `Known` mismatch adds the empty clause
/// (the constraint set is contradictory — exactly what happens when a
/// stochastic oracle returns an output no key can explain).
///
/// # Panics
///
/// Panics on width mismatch.
pub fn assert_outputs_equal(enc: &mut CircuitEncoder<'_>, outputs: &[SigVal], expected: &[bool]) {
    assert_eq!(outputs.len(), expected.len(), "output width mismatch");
    for (&o, &y) in outputs.iter().zip(expected) {
        match o {
            SigVal::Known(v) => {
                if v != y {
                    enc.clause(&[]);
                }
            }
            SigVal::Sym(l) => enc.assert(if y { l } else { !l }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gshe_camo::{camouflage, select_gates, CamoScheme};
    use gshe_logic::bench_format::{parse_bench, C17_BENCH};
    use gshe_logic::{Bf1, Bf2, Netlist, NetlistBuilder};
    use gshe_sat::{SolveResult, Solver};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    fn keyed(scheme: CamoScheme) -> (Arc<Netlist>, KeyedNetlist) {
        let nl = Arc::new(parse_bench(C17_BENCH).unwrap());
        let picks = select_gates(&nl, 1.0, 3);
        let mut rng = StdRng::seed_from_u64(8);
        let k = camouflage(&nl, &picks, scheme, &mut rng).unwrap();
        (nl, k)
    }

    /// The assumptions fixing `lits` to `bits`.
    fn assume<'a>(lits: &'a [Lit], bits: &'a [bool]) -> impl Iterator<Item = Lit> + 'a {
        lits.iter()
            .zip(bits)
            .map(|(&l, &bit)| if bit { l } else { !l })
    }

    /// With the key literals forced to the correct key, the encoded circuit
    /// must agree with the original on every input pattern.
    fn check_encoding(scheme: CamoScheme) {
        let (nl, keyed) = keyed(scheme);
        let mut s = Solver::new();
        let key_lits: Vec<Lit> = (0..keyed.key_len())
            .map(|_| Lit::pos(s.new_var()))
            .collect();
        let copy = {
            let mut enc = CircuitEncoder::new(&mut s);
            assert_valid_key_codes(&mut enc, &keyed, &key_lits);
            encode_keyed(&mut enc, &keyed, &key_lits)
        };
        let correct = keyed.correct_key();
        for p in 0..32u32 {
            let v: Vec<bool> = (0..5).map(|k| (p >> k) & 1 == 1).collect();
            let asm: Vec<Lit> = assume(&key_lits, &correct)
                .chain(assume(&copy.inputs, &v))
                .collect();
            assert_eq!(s.solve_with(&asm), SolveResult::Sat, "{scheme} p={p}");
            let got: Vec<bool> = copy.outputs.iter().map(|&o| s.model_lit(o)).collect();
            assert_eq!(got, nl.evaluate(&v), "{scheme} p={p}");
        }
    }

    #[test]
    fn symbolic_encoding_matches_original_under_correct_key() {
        for scheme in CamoScheme::ALL {
            check_encoding(scheme);
        }
    }

    /// For the correct key and `random_keys` keys drawn from every cell's
    /// valid codes, on every input pattern, three views of the keyed
    /// circuit must give the same outputs: the symbolic copy with inputs
    /// and key assumed, the fixed-input copy with the key assumed, and the
    /// netlist the key resolves to.
    fn check_input_domains_agree(keyed: &KeyedNetlist, random_keys: usize, label: &str) {
        let n = keyed.netlist().inputs().len();
        let patterns: Vec<Vec<bool>> = (0..1u32 << n)
            .map(|p| (0..n).map(|k| (p >> k) & 1 == 1).collect())
            .collect();
        let mut s = Solver::new();
        let key_lits: Vec<Lit> = (0..keyed.key_len())
            .map(|_| Lit::pos(s.new_var()))
            .collect();
        let (symbolic, fixed) = {
            let mut enc = CircuitEncoder::new(&mut s);
            assert_valid_key_codes(&mut enc, keyed, &key_lits);
            let symbolic = encode_keyed(&mut enc, keyed, &key_lits);
            let fixed: Vec<Vec<SigVal>> = patterns
                .iter()
                .map(|v| encode_keyed_fixed(&mut enc, keyed, &key_lits, v))
                .collect();
            (symbolic, fixed)
        };
        let mut rng = StdRng::seed_from_u64(21);
        let mut keys = vec![keyed.correct_key()];
        for _ in 0..random_keys {
            let mut key = vec![false; keyed.key_len()];
            for g in keyed.camo_gates() {
                g.encode(rng.gen_range(0..g.candidates.len()), &mut key);
            }
            keys.push(key);
        }
        for key in &keys {
            let resolved = keyed.resolve(key).unwrap();
            for (v, fixed_outs) in patterns.iter().zip(&fixed) {
                let asm: Vec<Lit> = assume(&key_lits, key)
                    .chain(assume(&symbolic.inputs, v))
                    .collect();
                assert_eq!(s.solve_with(&asm), SolveResult::Sat, "{label} {v:?}");
                let expected = resolved.evaluate(v);
                let sym: Vec<bool> = symbolic.outputs.iter().map(|&o| s.model_lit(o)).collect();
                assert_eq!(sym, expected, "symbolic copy, {label} {key:?} {v:?}");
                let folded: Vec<bool> = fixed_outs
                    .iter()
                    .map(|&o| match o {
                        SigVal::Known(b) => b,
                        SigVal::Sym(l) => s.model_lit(l),
                    })
                    .collect();
                assert_eq!(folded, expected, "fixed copy, {label} {key:?} {v:?}");
            }
        }
    }

    #[test]
    fn fixed_encoding_matches_symbolic() {
        for scheme in CamoScheme::ALL {
            let (_, keyed) = keyed(scheme);
            check_input_domains_agree(&keyed, 8, &scheme.to_string());
        }
        // Constants fold in the symbolic copy too: a `Const` node feeding a
        // cloaked cell, a cloaked `Const1` gate, and a `Const0` gate feeding
        // both a cloaked cell and an output. An inverter and two asymmetric
        // gates with one fanin known in the fixed copy pin which fanin folds.
        let mut b = NetlistBuilder::new("const_fed");
        let (x, y, w) = (b.input("x"), b.input("y"), b.input("w"));
        let one = b.constant(true);
        let nx = b.gate1("nx", Bf1::Inv, x);
        let g1 = b.gate2("g1", Bf2::AND, nx, one);
        let zero = b.gate1("zero", Bf1::Const0, y);
        let g2 = b.gate2("g2", Bf2::OR, zero, w);
        let high = b.gate1("high", Bf1::Const1, w);
        let g3 = b.gate2("g3", Bf2::XOR, g1, g2);
        let g4 = b.gate2("g4", Bf2::A_OR_NOT_B, x, g2);
        let g5 = b.gate2("g5", Bf2::A_OR_NOT_B, g1, w);
        for o in [g3, g4, g5, high, zero] {
            b.output(o);
        }
        let nl = Arc::new(b.finish().unwrap());
        for scheme in [CamoScheme::GsheAll16, CamoScheme::InvBuf] {
            let mut rng = StdRng::seed_from_u64(8);
            let keyed = camouflage(&nl, &[g1, g2, high], scheme, &mut rng).unwrap();
            check_input_domains_agree(&keyed, 8, &format!("const_fed {scheme}"));
        }
    }

    #[test]
    fn io_constraint_prunes_wrong_keys() {
        let (nl, keyed) = keyed(CamoScheme::GsheAll16);
        let mut s = Solver::new();
        let key_lits: Vec<Lit> = (0..keyed.key_len())
            .map(|_| Lit::pos(s.new_var()))
            .collect();
        {
            let mut enc = CircuitEncoder::new(&mut s);
            assert_valid_key_codes(&mut enc, &keyed, &key_lits);
            // Constrain on the full truth table: only functionally correct
            // keys remain.
            for p in 0..32u32 {
                let v: Vec<bool> = (0..5).map(|k| (p >> k) & 1 == 1).collect();
                let y = nl.evaluate(&v);
                let outs = encode_keyed_fixed(&mut enc, &keyed, &key_lits, &v);
                assert_outputs_equal(&mut enc, &outs, &y);
            }
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        let key: Vec<bool> = key_lits.iter().map(|&l| s.model_lit(l)).collect();
        let resolved = keyed.resolve(&key).unwrap();
        for p in 0..32u32 {
            let v: Vec<bool> = (0..5).map(|k| (p >> k) & 1 == 1).collect();
            assert_eq!(
                resolved.evaluate(&v),
                nl.evaluate(&v),
                "recovered key wrong at {p}"
            );
        }
    }

    #[test]
    fn contradictory_io_makes_unsat() {
        let (nl, keyed) = keyed(CamoScheme::GsheAll16);
        let mut s = Solver::new();
        let key_lits: Vec<Lit> = (0..keyed.key_len())
            .map(|_| Lit::pos(s.new_var()))
            .collect();
        {
            let mut enc = CircuitEncoder::new(&mut s);
            assert_valid_key_codes(&mut enc, &keyed, &key_lits);
            let v = vec![false; 5];
            let y = nl.evaluate(&v);
            let flipped: Vec<bool> = y.iter().map(|&b| !b).collect();
            let outs = encode_keyed_fixed(&mut enc, &keyed, &key_lits, &v);
            assert_outputs_equal(&mut enc, &outs, &y);
            let outs2 = encode_keyed_fixed(&mut enc, &keyed, &key_lits, &v);
            assert_outputs_equal(&mut enc, &outs2, &flipped);
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
    }
}
