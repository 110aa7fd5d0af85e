//! SAT encoding of keyed netlists (the attacker's model).
//!
//! A cloaked cell is a key-driven multiplexer. Its candidates `{f₀ … f_{k−1}}`
//! fix, for each row of its fanins, a function of its key bits `K`: bit
//! `i` of the row's table is `fᵢ(row)`. On each row of its symbolic
//! fanins that agrees with the known ones, the cell's output `z` is
//! defined as that function by its prime implicates over `K`
//! ([`CircuitEncoder::define_tt`]), each clause guarded by
//! `symbolic fanins ≠ row`. A GSHE16 cell's row function is one key bit,
//! so a row costs the clause pair `(row ∨ ¬z ∨ kᵣ)`, `(row ∨ z ∨ ¬kᵣ)`.
//! Codes at or above the candidate count are don't-cares:
//! [`assert_valid_key_codes`] forbids them once per key vector, and every
//! encoding of a cell relies on it.
//!
//! A cell whose fanins are all known has one row, and folds away: to a
//! constant when its valid candidates agree on the row, to the key literal
//! `kⱼ` or `¬kⱼ` when the row's function is one key bit, and only
//! otherwise to a fresh literal defined over `K`. Every GSHE16 and INV/BUF
//! cell with known fanins costs no variable and no clause, so two
//! observations that contradict each other meet as complementary unit
//! clauses instead of in search.
//!
//! One encoder walks the keyed netlist under a vector of key literals,
//! carrying each signal as a known constant or a literal ([`SigVal`]).
//! Its primary inputs are free or fixed:
//!
//! - [`encode_keyed`] gives every input a fresh literal: the symbolic
//!   copies the miter compares.
//! - [`encode_keyed_fixed`] fixes the inputs, for the oracle I/O
//!   constraints `C(X_d, K) = Y_d`: all key-independent logic folds away,
//!   and so does every cell that only key-independent logic feeds.
//!
//! Constants fold the same way in both, so a `Const` node or a constant
//! one-input gate costs no variable or clause.

use gshe_camo::{CamoGate, Candidates, KeyedNetlist};
use gshe_logic::NodeKind;
use gshe_sat::{CircuitEncoder, Lit, Polarity};

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

/// The cell's key literals, least significant code bit first.
fn cell_key<'a>(gate: &CamoGate, key: &'a [Lit]) -> &'a [Lit] {
    &key[gate.key_offset..gate.key_offset + gate.key_bits()]
}

/// The cell's valid codes as a truth-table care set: bit `code` is set
/// for every code below the candidate count.
fn valid_codes(gate: &CamoGate) -> u16 {
    ((1u32 << gate.candidates.len()) - 1) as u16
}

/// Forbids the unused binary codes of every cloaked cell (emit once per key
/// vector, not per circuit copy): one clause per cube of their prime cover.
pub fn assert_valid_key_codes(enc: &mut CircuitEncoder<'_>, keyed: &KeyedNetlist, key: &[Lit]) {
    for gate in keyed.camo_gates() {
        let invalid = !valid_codes(gate);
        let vars = cell_key(gate, key);
        if invalid & ((1u32 << (1 << vars.len())) - 1) as u16 != 0 {
            enc.forbid_tt(vars, invalid);
        }
    }
}

/// Encodes a full symbolic copy of the keyed circuit under key literals
/// `key`, allocating fresh input literals.
///
/// `key` must carry [`assert_valid_key_codes`]: a cell's encoding leaves
/// its output unconstrained under an invalid code.
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
/// `key` must carry [`assert_valid_key_codes`]: a cell's encoding leaves
/// its output unconstrained under an invalid code.
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
    // The cells in node order, met by one cursor as the walk passes them.
    let mut cells: Vec<&CamoGate> = keyed.camo_gates().iter().collect();
    cells.sort_unstable_by_key(|g| g.node);
    let mut cells = cells.into_iter().peekable();
    let mut vals: Vec<SigVal> = Vec::with_capacity(nl.len());
    let mut inputs = Vec::with_capacity(nl.inputs().len());

    for (i, node) in nl.nodes().enumerate() {
        let v = if let Some(gate) = cells.next_if(|g| g.node.index() == i) {
            encode_camo_cell(enc, gate, key, &vals, &node.kind)
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

/// The value of a function of the cell's key bits, given as its table
/// `on` over the valid codes `care`, when it needs no definition: a
/// constant when the valid codes agree, `kⱼ` or `¬kⱼ` when it is one key
/// bit.
fn fold_key_function(on: u16, care: u16, key: &[Lit]) -> Option<SigVal> {
    // The codes whose bit `j` is set, for each of a cell's at most four
    // key bits.
    const KEY_BIT_CODES: [u16; 4] = [0xAAAA, 0xCCCC, 0xF0F0, 0xFF00];
    let on = on & care;
    if on == 0 || on == care {
        return Some(SigVal::Known(on != 0));
    }
    key.iter().zip(KEY_BIT_CODES).find_map(|(&k, bit)| {
        if on == bit & care {
            Some(SigVal::Sym(k))
        } else if on == !bit & care {
            Some(SigVal::Sym(!k))
        } else {
            None
        }
    })
}

/// Encodes a cloaked cell. Its function on fanin row `row` is the table
/// over its key codes whose bit `i` is candidate `i`'s output on the row.
/// With every fanin known, the cell has one row and folds
/// ([`fold_key_function`]) or, failing that, is a fresh literal defined
/// over the key bits. Otherwise its output `z` is defined on every row that
/// agrees with the known fanins, guarded by `symbolic fanins ≠ row`.
fn encode_camo_cell(
    enc: &mut CircuitEncoder<'_>,
    gate: &CamoGate,
    key: &[Lit],
    vals: &[SigVal],
    kind: &NodeKind,
) -> SigVal {
    // The fanin signals; fanin `j` carries bit `j` of a row.
    let (fanins, arity) = match (&gate.candidates, kind) {
        (Candidates::TwoInput(_), NodeKind::Gate2 { a, b, .. }) => {
            ([vals[a.index()], vals[b.index()]], 2)
        }
        (Candidates::OneInput(_), NodeKind::Gate1 { a, .. }) => {
            ([vals[a.index()], SigVal::Known(false)], 1)
        }
        (c, k) => unreachable!("camo cell shape mismatch: {c:?} at {k:?}"),
    };
    let row_function = |row: u8| -> u16 {
        let out = |i: usize, bit: bool| u16::from(bit) << i;
        match &gate.candidates {
            Candidates::TwoInput(fs) => fs
                .iter()
                .enumerate()
                .map(|(i, f)| out(i, (f.truth_table() >> row) & 1 == 1))
                .sum(),
            Candidates::OneInput(fs) => fs
                .iter()
                .enumerate()
                .map(|(i, f)| out(i, f.eval(row & 1 == 1)))
                .sum(),
        }
    };
    let cell_key = cell_key(gate, key);
    let care = valid_codes(gate);
    // The known fanins as a row mask and their values.
    let (mut known, mut bits) = (0u8, 0u8);
    for (j, s) in fanins[..arity].iter().enumerate() {
        if let SigVal::Known(v) = *s {
            known |= 1 << j;
            bits |= u8::from(v) << j;
        }
    }
    if known == (1 << arity) - 1 {
        let on = row_function(bits);
        return fold_key_function(on, care, cell_key).unwrap_or_else(|| {
            let z = enc.fresh();
            enc.define_tt(z, &[], cell_key, on, care, Polarity::Both);
            SigVal::Sym(z)
        });
    }
    let z = enc.fresh();
    for row in (0..1u8 << arity).filter(|row| row & known == bits) {
        // `symbolic fanins ≠ row`: at most two literals.
        let mut guard = [z; 2];
        let mut len = 0;
        for (j, s) in fanins[..arity].iter().enumerate() {
            if let SigVal::Sym(l) = *s {
                guard[len] = if (row >> j) & 1 == 1 { !l } else { l };
                len += 1;
            }
        }
        enc.define_tt(
            z,
            &guard[..len],
            cell_key,
            row_function(row),
            care,
            Polarity::Both,
        );
    }
    SigVal::Sym(z)
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

    /// Inputs `x` and `y` and one output gate `f(x, y)`, returned with it.
    fn one_gate(f: Bf2) -> (Arc<Netlist>, gshe_logic::NodeId) {
        let mut b = NetlistBuilder::new("one_gate");
        let (x, y) = (b.input("x"), b.input("y"));
        let g = b.gate2("g", f, x, y);
        b.output(g);
        (Arc::new(b.finish().unwrap()), g)
    }

    /// A solver holding fresh key literals for `keyed`, their valid codes
    /// asserted.
    fn keyed_solver(keyed: &KeyedNetlist) -> (Solver, Vec<Lit>) {
        let mut s = Solver::new();
        let key: Vec<Lit> = (0..keyed.key_len())
            .map(|_| Lit::pos(s.new_var()))
            .collect();
        assert_valid_key_codes(&mut CircuitEncoder::new(&mut s), keyed, &key);
        (s, key)
    }

    /// A one-output design's fixed copy on `inputs`: its output, its
    /// solver and key literals, and the variables and clauses it added.
    struct FixedCopy {
        out: SigVal,
        s: Solver,
        key: Vec<Lit>,
        added: (usize, usize),
    }

    fn fixed_copy(keyed: &KeyedNetlist, inputs: [bool; 2]) -> FixedCopy {
        let (mut s, key) = keyed_solver(keyed);
        let before = (s.num_vars(), s.num_clauses());
        let outs = encode_keyed_fixed(&mut CircuitEncoder::new(&mut s), keyed, &key, &inputs);
        let added = (s.num_vars() - before.0, s.num_clauses() - before.1);
        FixedCopy {
            out: outs[0],
            s,
            key,
            added,
        }
    }

    #[test]
    fn cells_with_known_fanins_cost_nothing_and_are_the_selected_key_literal() {
        for scheme in [CamoScheme::GsheAll16, CamoScheme::InvBuf] {
            let (nl, g) = one_gate(Bf2::AND);
            let keyed = camouflage(&nl, &[g], scheme, &mut StdRng::seed_from_u64(8)).unwrap();
            let cell = &keyed.camo_gates()[0];
            for row in 0..4usize {
                let v = [row & 1 == 1, row & 2 == 2];
                let FixedCopy {
                    out, key, added, ..
                } = fixed_copy(&keyed, v);
                assert_eq!(added, (0, 0), "{scheme} {v:?} added to the formula");
                let SigVal::Sym(lit) = out else {
                    panic!("{scheme} {v:?}: a cell with key-dependent output folded to {out:?}");
                };
                let bit = (cell.key_offset..cell.key_offset + cell.key_bits())
                    .find(|&b| lit.var() == key[b].var())
                    .expect("the output is a key literal");
                let positive = lit == key[bit];
                if scheme == CamoScheme::GsheAll16 {
                    // Candidate `i` is truth table `i`: row `r` reads key bit `r`.
                    assert_eq!((bit - cell.key_offset, positive), (row, true));
                }
                for code in 0..cell.candidates.len() {
                    let mut k = vec![false; keyed.key_len()];
                    cell.encode(code, &mut k);
                    let want = keyed.resolve(&k).unwrap().evaluate(&v)[0];
                    assert_eq!(k[bit] == positive, want, "{scheme} {v:?} code {code}");
                }
            }
        }
    }

    #[test]
    fn a_cell_whose_valid_candidates_agree_folds_to_a_constant() {
        // Look-alike's NAND, NOR and XOR all read 0 on row 11.
        let (nl, g) = one_gate(Bf2::NAND);
        let scheme = CamoScheme::LookAlike;
        let keyed = camouflage(&nl, &[g], scheme, &mut StdRng::seed_from_u64(8)).unwrap();
        assert_eq!(keyed.camo_gates()[0].node, g, "the cell is the gate itself");
        let copy = fixed_copy(&keyed, [true, true]);
        assert_eq!(copy.out, SigVal::Known(false));
        assert_eq!(copy.added, (0, 0));
    }

    #[test]
    fn a_row_function_of_two_key_bits_is_a_fresh_literal_defined_by_prime_clauses() {
        for (scheme, f, inputs, clauses) in [
            // AND, OR, NAND, NOR on a = 1, b = 0 read 0, 1, 1, 0: k0 ⊕ k1,
            // whose four prime implicates with z are its minterms.
            (CamoScheme::FourFn, Bf2::OR, [true, false], 4),
            // NAND, NOR, XOR, XNOR on 00 read 1, 1, 0, 1: ¬k1 ∨ k0, one
            // ternary clause for its zero and two binary ones with z.
            (CamoScheme::SiNw, Bf2::NAND, [false, false], 3),
        ] {
            let (nl, g) = one_gate(f);
            let keyed = camouflage(&nl, &[g], scheme, &mut StdRng::seed_from_u64(8)).unwrap();
            let cell = &keyed.camo_gates()[0];
            assert_eq!(cell.node, g, "{scheme}: the cell is the gate itself");
            let FixedCopy {
                out,
                mut s,
                key,
                added,
            } = fixed_copy(&keyed, inputs);
            let SigVal::Sym(z) = out else {
                panic!("{scheme}: a two-bit row function folded to {out:?}");
            };
            assert_eq!(
                z.var().index(),
                s.num_vars() - 1,
                "{scheme}: a fresh literal"
            );
            assert_eq!(added, (1, clauses), "{scheme}");
            for code in 0..4 {
                let mut k = vec![false; keyed.key_len()];
                cell.encode(code, &mut k);
                let want = keyed.resolve(&k).unwrap().evaluate(&inputs)[0];
                let mut asm: Vec<Lit> = assume(&key, &k).collect();
                asm.push(if want { z } else { !z });
                assert_eq!(s.solve_with(&asm), SolveResult::Sat, "{scheme} code {code}");
                *asm.last_mut().unwrap() = !*asm.last().unwrap();
                assert_eq!(
                    s.solve_with(&asm),
                    SolveResult::Unsat,
                    "{scheme} code {code}"
                );
            }
        }
    }

    #[test]
    fn opposite_observations_of_one_cell_conflict_without_search() {
        // One GSHE16 cell drives the output; two fixed copies on one input
        // see opposite answers. Both copies are the same key literal, so
        // the pins are complementary units.
        let (nl, g) = one_gate(Bf2::AND);
        let keyed = camouflage(
            &nl,
            &[g],
            CamoScheme::GsheAll16,
            &mut StdRng::seed_from_u64(8),
        )
        .unwrap();
        let (mut s, key) = keyed_solver(&keyed);
        {
            let mut enc = CircuitEncoder::new(&mut s);
            for y in [true, false] {
                let outs = encode_keyed_fixed(&mut enc, &keyed, &key, &[false, false]);
                assert_outputs_equal(&mut enc, &outs, &[y]);
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert_eq!(s.stats().conflicts, 0, "the contradiction needed search");
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
