//! Tseitin encoding of combinational logic into CNF.
//!
//! [`CircuitEncoder`] adds clauses straight into a live [`Solver`], so
//! incremental attacks can keep encoding between solves. Two-input gates
//! are encoded from their 4-bit truth tables, so every one of the 16
//! functions the GSHE primitive cloaks — and any key-dependent selection
//! among them — encodes uniformly.
//!
//! Definitions can be emitted single-sided (Plaisted–Greenbaum) via the
//! [`Polarity`]-taking variants: when a defined literal `z` only ever
//! occurs positively downstream (e.g. it is asserted or assumed, never
//! fixed false), the `¬z → ¬f` direction is never needed and its clauses
//! can be dropped. See [`Polarity`] for the exact contract.

use crate::lit::Lit;
use crate::solver::Solver;

/// Which implication direction of a Tseitin definition `z ↔ f` must be
/// emitted, given how the defined literal `z` is used downstream.
///
/// - [`Polarity::Pos`]: `z` occurs only **positively** downstream (it is
///   asserted, assumed, or appears un-negated inside later clauses). Only
///   `z → f` is needed: a model with `z` false never constrains `f`.
/// - [`Polarity::Both`]: full equivalence — required whenever `z` may
///   later be fixed to either value, read from a model *and reused in an
///   added clause*, or compared with [`CircuitEncoder::equal`].
///
/// Single-sided definitions preserve satisfiability of every formula that
/// respects the declared polarity, and models still assign meaningful
/// values to asserted/assumed outputs; but a model may under-constrain an
/// unasserted output (e.g. a `Pos`-encoded miter output can be false in a
/// model even though the buses differ). Callers must therefore not read
/// unassumed single-sided outputs from models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Polarity {
    /// Only the `z → f` clauses (those containing `¬z`).
    Pos,
    /// Full equivalence (the default everywhere a literal is reused).
    Both,
}

/// Tseitin encoder over a solver.
#[derive(Debug)]
pub struct CircuitEncoder<'a> {
    solver: &'a mut Solver,
    const_true: Option<Lit>,
}

impl<'a> CircuitEncoder<'a> {
    /// Wraps a solver.
    pub fn new(solver: &'a mut Solver) -> Self {
        CircuitEncoder {
            solver,
            const_true: None,
        }
    }

    /// Allocates a fresh literal (positive phase of a new variable).
    pub fn fresh(&mut self) -> Lit {
        Lit::pos(self.solver.new_var())
    }

    /// Adds a raw clause.
    pub fn clause(&mut self, lits: &[Lit]) {
        let _ = self.solver.add_clause(lits);
    }

    /// Asserts that `l` holds.
    pub fn assert(&mut self, l: Lit) {
        self.clause(&[l]);
    }

    /// A literal constrained to `true` (cached).
    pub fn constant(&mut self, value: bool) -> Lit {
        let t = match self.const_true {
            Some(t) => t,
            None => {
                let t = self.fresh();
                self.assert(t);
                self.const_true = Some(t);
                t
            }
        };
        if value {
            t
        } else {
            !t
        }
    }

    /// Constrains `a ↔ b`.
    pub fn equal(&mut self, a: Lit, b: Lit) {
        self.clause(&[!a, b]);
        self.clause(&[a, !b]);
    }

    /// Encodes a two-input gate from its truth-table nibble
    /// (bit `va + 2·vb` = output for inputs `(va, vb)`) and returns the
    /// output literal.
    pub fn gate_tt(&mut self, tt: u8, a: Lit, b: Lit) -> Lit {
        self.gate_tt_pol(tt, a, b, Polarity::Both)
    }

    /// [`CircuitEncoder::gate_tt`] with Plaisted–Greenbaum polarity
    /// control. The rows where the gate outputs 0 produce the clauses
    /// containing `¬z` (the `z → f` direction, always emitted); the rows
    /// outputting 1 produce the clauses containing `z` (`f → z`, emitted
    /// only for [`Polarity::Both`]).
    pub fn gate_tt_pol(&mut self, tt: u8, a: Lit, b: Lit, pol: Polarity) -> Lit {
        debug_assert!(tt < 16, "truth table must be a nibble");
        let z = self.fresh();
        for row in 0..4u8 {
            let va = row & 1 == 1;
            let vb = row & 2 == 2;
            let out = (tt >> row) & 1 == 1;
            if out && pol == Polarity::Pos {
                continue;
            }
            // (a = va ∧ b = vb) → (z = out)
            let la = if va { !a } else { a };
            let lb = if vb { !b } else { b };
            let lz = if out { z } else { !z };
            self.clause(&[la, lb, lz]);
        }
        z
    }

    /// `z = l₀ ∨ l₁ ∨ …` with polarity control: the big clause
    /// `(l₀ ∨ … ∨ ¬z)` is the `z → f` side (always emitted), the
    /// per-operand bindings `(¬lᵢ ∨ z)` the `f → z` side. A single
    /// operand is passed through unchanged (no definition at all).
    ///
    /// # Panics
    ///
    /// Panics on an empty operand list.
    pub fn or_many_pol(&mut self, lits: &[Lit], pol: Polarity) -> Lit {
        assert!(!lits.is_empty(), "or_many_pol needs at least one operand");
        if lits.len() == 1 {
            return lits[0];
        }
        let z = self.fresh();
        let mut big = Vec::with_capacity(lits.len() + 1);
        for &l in lits {
            if pol == Polarity::Both {
                self.clause(&[!l, z]);
            }
            big.push(l);
        }
        big.push(!z);
        self.clause(&big);
        z
    }

    /// `z = l₀ ∧ l₁ ∧ …` with polarity control: the per-operand bindings
    /// `(¬z ∨ lᵢ)` are the `z → f` side (always emitted), the big clause
    /// `(¬l₀ ∨ … ∨ z)` the `f → z` side.
    ///
    /// # Panics
    ///
    /// Panics on an empty operand list.
    pub fn and_many_pol(&mut self, lits: &[Lit], pol: Polarity) -> Lit {
        assert!(!lits.is_empty(), "and_many_pol needs at least one operand");
        if lits.len() == 1 {
            return lits[0];
        }
        let z = self.fresh();
        let mut big = Vec::with_capacity(lits.len() + 1);
        for &l in lits {
            self.clause(&[!z, l]);
            big.push(!l);
        }
        if pol == Polarity::Both {
            big.push(z);
            self.clause(&big);
        }
        z
    }

    /// A miter over two buses: returns a literal that (under `pol`)
    /// implies `∃i: a[i] ≠ b[i]`, and is equivalent to it under
    /// [`Polarity::Both`]. The per-bit XORs inherit the requested
    /// polarity (each xor output occurs downstream only inside the OR
    /// with that same polarity), so a [`Polarity::Pos`] miter — an
    /// output that is only ever *assumed* or asserted true, the
    /// DIP-loop and equivalence-proof case — costs half the xor rows and
    /// drops every per-bit OR binding.
    ///
    /// # Panics
    ///
    /// Panics if the lists have different lengths or are empty.
    pub fn miter_pol(&mut self, a: &[Lit], b: &[Lit], pol: Polarity) -> Lit {
        assert_eq!(a.len(), b.len(), "miter needs equal-width buses");
        let diffs: Vec<Lit> = a
            .iter()
            .zip(b)
            .map(|(&x, &y)| self.gate_tt_pol(0b0110, x, y, pol))
            .collect();
        self.or_many_pol(&diffs, pol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SolveResult;

    /// Exhaustively verifies `z = f(a,b)` for the encoded gate.
    fn check_gate_tt(tt: u8) {
        for va in [false, true] {
            for vb in [false, true] {
                let mut s = Solver::new();
                let a = Lit::pos(s.new_var());
                let b = Lit::pos(s.new_var());
                let z = {
                    let mut enc = CircuitEncoder::new(&mut s);
                    enc.gate_tt(tt, a, b)
                };
                let assumptions = [if va { a } else { !a }, if vb { b } else { !b }];
                assert_eq!(s.solve_with(&assumptions), SolveResult::Sat);
                let expect = (tt >> ((va as u8) | ((vb as u8) << 1))) & 1 == 1;
                assert_eq!(s.model_lit(z), expect, "tt={tt:04b} a={va} b={vb}");
            }
        }
    }

    #[test]
    fn all_sixteen_truth_tables_encode_correctly() {
        for tt in 0..16 {
            check_gate_tt(tt);
        }
    }

    #[test]
    fn or_many_and_and_many() {
        let mut s = Solver::new();
        let xs: Vec<Lit> = (0..5).map(|_| Lit::pos(s.new_var())).collect();
        let (any, all) = {
            let mut enc = CircuitEncoder::new(&mut s);
            (
                enc.or_many_pol(&xs, Polarity::Both),
                enc.and_many_pol(&xs, Polarity::Both),
            )
        };
        // All false → any = 0; force and check.
        let neg: Vec<Lit> = xs.iter().map(|&l| !l).collect();
        assert_eq!(s.solve_with(&neg), SolveResult::Sat);
        assert!(!s.model_lit(any));
        assert!(!s.model_lit(all));
        // All true.
        assert_eq!(s.solve_with(&xs), SolveResult::Sat);
        assert!(s.model_lit(any));
        assert!(s.model_lit(all));
        // Mixed.
        let mut asm = xs.clone();
        asm[2] = !asm[2];
        assert_eq!(s.solve_with(&asm), SolveResult::Sat);
        assert!(s.model_lit(any));
        assert!(!s.model_lit(all));
    }

    #[test]
    fn miter_detects_difference() {
        let mut s = Solver::new();
        let a: Vec<Lit> = (0..3).map(|_| Lit::pos(s.new_var())).collect();
        let b: Vec<Lit> = (0..3).map(|_| Lit::pos(s.new_var())).collect();
        let diff = CircuitEncoder::new(&mut s).miter_pol(&a, &b, Polarity::Both);
        // Force equal buses → diff must be 0.
        let mut asm: Vec<Lit> = Vec::new();
        for i in 0..3 {
            asm.push(a[i]);
            asm.push(b[i]);
        }
        assert_eq!(s.solve_with(&asm), SolveResult::Sat);
        assert!(!s.model_lit(diff));
        // Flip one bit → diff must be 1.
        asm[2] = !asm[2]; // b[1]? index 2 is a[1]; flip it
        assert_eq!(s.solve_with(&asm), SolveResult::Sat);
        assert!(s.model_lit(diff));
    }

    #[test]
    fn constant_is_cached_and_correct() {
        let mut s = Solver::new();
        let (t, f) = {
            let mut enc = CircuitEncoder::new(&mut s);
            (enc.constant(true), enc.constant(false))
        };
        assert_eq!(t, !f);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.model_lit(t));
        assert!(!s.model_lit(f));
    }

    #[test]
    fn pos_polarity_gate_constrains_only_forward() {
        // Pos-encoded AND: assuming z forces both inputs; fixing an input
        // false must NOT force z false (that is the dropped direction).
        let mut s = Solver::new();
        let a = Lit::pos(s.new_var());
        let b = Lit::pos(s.new_var());
        let z = CircuitEncoder::new(&mut s).gate_tt_pol(0b1000, a, b, Polarity::Pos);
        assert_eq!(s.solve_with(&[z]), SolveResult::Sat);
        assert!(s.model_lit(a) && s.model_lit(b), "z → a ∧ b must hold");
        assert_eq!(s.solve_with(&[z, !a]), SolveResult::Unsat);
        // The reverse direction is absent: z may float true-or-false
        // under ¬a, so both completions are satisfiable.
        assert_eq!(s.solve_with(&[!a, z]), SolveResult::Unsat);
        assert_eq!(s.solve_with(&[!a]), SolveResult::Sat);
    }

    #[test]
    fn pos_polarity_miter_finds_differences() {
        // The DIP-loop contract: the miter output is only ever assumed
        // true. Under that use, Pos encoding must agree with Both on
        // satisfiability for every input fixing.
        for width in [1usize, 3] {
            for fix in 0..(1u32 << (2 * width)) {
                let mut s_pos = Solver::new();
                let mut s_both = Solver::new();
                let mut results = Vec::new();
                for (s, pol) in [(&mut s_pos, Polarity::Pos), (&mut s_both, Polarity::Both)] {
                    let a: Vec<Lit> = (0..width).map(|_| Lit::pos(s.new_var())).collect();
                    let b: Vec<Lit> = (0..width).map(|_| Lit::pos(s.new_var())).collect();
                    let diff = CircuitEncoder::new(s).miter_pol(&a, &b, pol);
                    let mut asm = vec![diff];
                    for i in 0..width {
                        let va = (fix >> i) & 1 == 1;
                        let vb = (fix >> (width + i)) & 1 == 1;
                        asm.push(if va { a[i] } else { !a[i] });
                        asm.push(if vb { b[i] } else { !b[i] });
                    }
                    results.push(s.solve_with(&asm));
                }
                assert_eq!(results[0], results[1], "width={width} fix={fix:b}");
            }
        }
    }

    #[test]
    fn polarity_halves_gate_clauses() {
        let mut pos = Solver::new();
        let mut both = Solver::new();
        for (s, pol) in [(&mut pos, Polarity::Pos), (&mut both, Polarity::Both)] {
            let mut enc = CircuitEncoder::new(s);
            let a = enc.fresh();
            let b = enc.fresh();
            enc.gate_tt_pol(0b0110, a, b, pol);
        }
        assert_eq!(both.num_problem_clauses(), 4);
        assert_eq!(pos.num_problem_clauses(), 2, "xor has two 0-rows");
    }

    #[test]
    fn equal_binds_literals() {
        let mut s = Solver::new();
        let a = Lit::pos(s.new_var());
        let b = Lit::pos(s.new_var());
        CircuitEncoder::new(&mut s).equal(a, b);
        assert_eq!(s.solve_with(&[a, !b]), SolveResult::Unsat);
        assert_eq!(s.solve_with(&[a, b]), SolveResult::Sat);
    }
}
