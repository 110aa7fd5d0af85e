//! Tseitin encoding of combinational logic into CNF.
//!
//! [`CircuitEncoder`] adds clauses straight into a live [`Solver`], so
//! incremental attacks can keep encoding between solves. A function of up
//! to four variables, given as its truth table, is defined by the prime
//! implicates of that table ([`CircuitEncoder::define_tt`]): a two-input
//! gate is one such function of its fanins, so every one of the 16
//! functions the GSHE primitive cloaks encodes uniformly, and a
//! key-dependent selection among them is one such function of the key
//! bits per fanin row.
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

/// A product of literals over truth-table variables: variable `j` occurs
/// iff bit `j` of `mask` is set, positively iff bit `j` of `value` is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cube {
    /// The variables that occur.
    mask: u8,
    /// Their polarities (a subset of `mask`).
    value: u8,
}

/// The points where truth-table variable `j` is 1, for `j < 4`: bit `x`
/// of a table is the function's value when variable `j` carries bit `j`
/// of `x`.
const VAR_POINTS: [u16; 4] = [0xAAAA, 0xCCCC, 0xF0F0, 0xFF00];

/// Every cube over four variables with its points. The cubes over the
/// first `v` variables are the first `3^v`: the table over `v + 1` adds
/// each of them with `¬x_v`, then with `x_v`.
const CUBES: [(Cube, u16); 81] = {
    let mut table = [(Cube { mask: 0, value: 0 }, 0xFFFF); 81];
    let (mut len, mut j) = (1, 0);
    while j < 4 {
        let mut i = 0;
        while i < len {
            let (c, points) = table[i];
            let mask = c.mask | 1 << j;
            table[len + 2 * i] = (
                Cube {
                    mask,
                    value: c.value,
                },
                points & !VAR_POINTS[j],
            );
            let value = c.value | 1 << j;
            table[len + 2 * i + 1] = (Cube { mask, value }, points & VAR_POINTS[j]);
            i += 1;
        }
        len *= 3;
        j += 1;
    }
    table
};

/// `points` with variable `j` flipped at every point.
fn flip(points: u16, j: usize) -> u16 {
    let shift = 1 << j;
    ((points & VAR_POINTS[j]) >> shift) | ((points & !VAR_POINTS[j]) << shift)
}

/// A prime cover: at most one cube per covered point, so at most 16.
#[derive(Debug, Clone, Copy)]
struct Cover {
    cubes: [Cube; 16],
    len: usize,
}

impl std::ops::Deref for Cover {
    type Target = [Cube];

    fn deref(&self) -> &[Cube] {
        &self.cubes[..self.len]
    }
}

/// A prime cover of the care points `on & care` of a function of `vars ≤ 4`
/// variables: cubes that cover every such point, each one a prime
/// implicant of `on | !care` (points outside `care` are don't-cares and
/// may be covered or not). Essential primes come first, then the prime
/// covering the most points still open (ties go to the cube with fewer
/// literals, then to the first in [`CUBES`]), and a cube the others make
/// redundant is dropped.
///
/// With `on` the points where a function is 0, each cube `P` gives the
/// clause `¬P` of a minimal CNF of the function; an AND of two variables
/// has the cover `{¬a, ¬b}` of its zeros and `{a ∧ b}` of its ones.
///
/// # Panics
///
/// Panics if `vars > 4`.
fn prime_cover(vars: usize, on: u16, care: u16) -> Cover {
    assert!(vars <= 4, "prime covers take at most four variables");
    let full = (((1u32 << (1 << vars)) - 1) & 0xFFFF) as u16;
    let target = on & care & full;
    let allowed = (on | !care) & full;
    let mut cover = Cover {
        cubes: [Cube { mask: 0, value: 0 }; 16],
        len: 0,
    };
    if target == 0 {
        return cover;
    }
    // Every prime implicant of `allowed` that covers a target point: a
    // cube inside `allowed` that leaves it when any one literal is
    // dropped, that is, when its points are joined by their flips.
    let mut primes = [(Cube { mask: 0, value: 0 }, 0u16); 81];
    let mut n = 0;
    for &(cube, points) in &CUBES[..3usize.pow(vars as u32)] {
        let points = points & full;
        if points & !allowed == 0
            && points & target != 0
            && (0..vars)
                .filter(|&j| (cube.mask >> j) & 1 == 1)
                .all(|j| flip(points, j) & !allowed != 0)
        {
            primes[n] = (cube, points);
            n += 1;
        }
    }
    let primes = &primes[..n];
    let mut chosen = [false; 81];
    let mut covered = 0u16;
    // Essential primes: the only prime on some target point.
    for x in (0..16).filter(|&x| (target >> x) & 1 == 1) {
        let mut hits = (0..n).filter(|&i| (primes[i].1 >> x) & 1 == 1);
        if let (Some(i), None) = (hits.next(), hits.next()) {
            chosen[i] = true;
            covered |= primes[i].1;
        }
    }
    while covered & target != target {
        let best = (0..n)
            .filter(|&i| !chosen[i])
            .max_by_key(|&i| {
                let gain = (primes[i].1 & target & !covered).count_ones();
                let literals = primes[i].0.mask.count_ones();
                (gain, std::cmp::Reverse((literals, i)))
            })
            .expect("the primes cover the target");
        chosen[best] = true;
        covered |= primes[best].1;
    }
    for i in 0..n {
        if chosen[i] {
            let rest = (0..n)
                .filter(|&k| k != i && chosen[k])
                .fold(0u16, |acc, k| acc | primes[k].1);
            chosen[i] = rest & target != target;
        }
    }
    for i in (0..n).filter(|&i| chosen[i]) {
        cover.cubes[cover.len] = primes[i].0;
        cover.len += 1;
    }
    cover
}

/// Tseitin encoder over a solver.
#[derive(Debug)]
pub struct CircuitEncoder<'a> {
    solver: &'a mut Solver,
    const_true: Option<Lit>,
    /// The clause being assembled by [`CircuitEncoder::define_tt`] and
    /// [`CircuitEncoder::forbid_tt`]; reused across clauses.
    buf: Vec<Lit>,
}

impl<'a> CircuitEncoder<'a> {
    /// Wraps a solver.
    pub fn new(solver: &'a mut Solver) -> Self {
        CircuitEncoder {
            solver,
            const_true: None,
            buf: Vec::new(),
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
    /// control: [`CircuitEncoder::define_tt`] over `(a, b)`. The prime
    /// implicates covering the gate's zeros give the clauses containing
    /// `¬z` (the `z → f` direction, always emitted); those covering its
    /// ones give the clauses containing `z` (`f → z`, emitted only for
    /// [`Polarity::Both`]). An AND costs `(¬z ∨ a)`, `(¬z ∨ b)` and
    /// `(z ∨ ¬a ∨ ¬b)`; an XOR its four ternary rows.
    pub fn gate_tt_pol(&mut self, tt: u8, a: Lit, b: Lit, pol: Polarity) -> Lit {
        debug_assert!(tt < 16, "truth table must be a nibble");
        let z = self.fresh();
        self.define_tt(z, &[], &[a, b], u16::from(tt), 0xF, pol);
        z
    }

    /// Defines `z` as the function with truth table `on` over `vars` (bit
    /// `x` is its value when `vars[j]` carries bit `j` of `x`), wherever
    /// every literal of `guard` is false. A prime cover of the function's
    /// zeros gives one clause `guard ∨ ¬P ∨ ¬z` per cube `P` (`z → f`);
    /// under [`Polarity::Both`], a prime cover of its ones gives one
    /// clause `guard ∨ ¬P ∨ z` per cube (`f → z`). Each `¬P` is a prime
    /// implicate: no literal of it can be dropped, so a definition whose
    /// value one variable decides propagates from that variable alone.
    /// Points outside `care` are don't-cares: the caller rules them out
    /// elsewhere, and `z` is unconstrained on them.
    ///
    /// # Panics
    ///
    /// Panics if `vars` has more than four literals.
    pub fn define_tt(
        &mut self,
        z: Lit,
        guard: &[Lit],
        vars: &[Lit],
        on: u16,
        care: u16,
        pol: Polarity,
    ) {
        self.cover_clauses(guard, vars, !on, care, Some(!z));
        if pol == Polarity::Both {
            self.cover_clauses(guard, vars, on, care, Some(z));
        }
    }

    /// Rules out the points `points` of `vars` (a truth table as in
    /// [`CircuitEncoder::define_tt`]): one clause `¬P` per cube `P` of
    /// their prime cover.
    ///
    /// # Panics
    ///
    /// Panics if `vars` has more than four literals.
    pub fn forbid_tt(&mut self, vars: &[Lit], points: u16) {
        self.cover_clauses(&[], vars, points, 0xFFFF, None);
    }

    /// The clauses `guard ∨ ¬P ∨ tail` for every cube `P` of the prime
    /// cover of `points & care` over `vars`.
    fn cover_clauses(
        &mut self,
        guard: &[Lit],
        vars: &[Lit],
        points: u16,
        care: u16,
        tail: Option<Lit>,
    ) {
        for cube in prime_cover(vars.len(), points, care).iter() {
            self.buf.clear();
            self.buf.extend_from_slice(guard);
            for (j, &v) in vars.iter().enumerate() {
                if (cube.mask >> j) & 1 == 1 {
                    self.buf
                        .push(if (cube.value >> j) & 1 == 1 { !v } else { v });
                }
            }
            self.buf.extend(tail);
            let _ = self.solver.add_clause(&self.buf);
        }
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

    /// The prime implicants of the points `set` of a two-variable table
    /// (bit `va + 2·vb`), by brute force over its nine cubes: those inside
    /// `set` that no strictly larger cube inside `set` contains.
    fn two_variable_primes(set: u8) -> usize {
        let points = |(mask, value): (u8, u8)| {
            (0..4u8)
                .filter(|x| x & mask == value)
                .fold(0u8, |acc, x| acc | 1 << x)
        };
        let cubes: Vec<(u8, u8)> = (0..4u8)
            .flat_map(|mask| {
                (0..4u8)
                    .filter(move |v| v & !mask == 0)
                    .map(move |v| (mask, v))
            })
            .collect();
        let inside = |c| points(c) & !set == 0;
        cubes
            .iter()
            .filter(|&&c| inside(c))
            .filter(|&&c| {
                !cubes.iter().any(|&d| {
                    inside(d) && points(d) != points(c) && points(d) & points(c) == points(c)
                })
            })
            .count()
    }

    #[test]
    fn every_gate_is_defined_by_its_prime_implicates() {
        assert_eq!(
            two_variable_primes(0b0111) + two_variable_primes(0b1000),
            3,
            "and"
        );
        assert_eq!(two_variable_primes(0b0111), 2, "and's zeros");
        assert_eq!(
            two_variable_primes(0b1001) + two_variable_primes(0b0110),
            4,
            "xor"
        );
        assert_eq!(two_variable_primes(0b1001), 2, "xor's zeros");
        for tt in 0..16u8 {
            let zeros = two_variable_primes(!tt & 0xF);
            let ones = two_variable_primes(tt);
            for (pol, clauses) in [(Polarity::Pos, zeros), (Polarity::Both, zeros + ones)] {
                let mut s = Solver::new();
                let a = Lit::pos(s.new_var());
                let b = Lit::pos(s.new_var());
                let z = CircuitEncoder::new(&mut s).gate_tt_pol(tt, a, b, pol);
                // A constant table's one clause is a unit on the trail.
                assert_eq!(
                    s.num_problem_clauses() + s.trail.len(),
                    clauses,
                    "tt={tt:04b} {pol:?}"
                );
                for row in 0..4u8 {
                    let f = (tt >> row) & 1 == 1;
                    let la = if row & 1 == 1 { a } else { !a };
                    let lb = if row & 2 == 2 { b } else { !b };
                    let with_z = |v: bool| [la, lb, if v { z } else { !z }];
                    assert_eq!(s.solve_with(&with_z(f)), SolveResult::Sat);
                    // `z → f` always holds; `f → z` only under `Both`.
                    let flipped = if pol == Polarity::Both || !f {
                        SolveResult::Unsat
                    } else {
                        SolveResult::Sat
                    };
                    assert_eq!(
                        s.solve_with(&with_z(!f)),
                        flipped,
                        "tt={tt:04b} {pol:?} row={row}"
                    );
                }
            }
        }
    }

    #[test]
    fn prime_covers_cover_the_care_points_with_irredundant_primes() {
        for vars in 0..=4usize {
            let full = (((1u32 << (1 << vars)) - 1) & 0xFFFF) as u16;
            let points = |c: &Cube| {
                (0..1u16 << vars)
                    .filter(|&x| x as u8 & c.mask == c.value)
                    .fold(0u16, |acc, x| acc | 1 << x)
            };
            for care in [full, full & 0x003F, full & 0x0007] {
                for on in 0..=full {
                    let cover = prime_cover(vars, on, care);
                    let (target, allowed) = (on & care, (on | !care) & full);
                    let sets: Vec<u16> = cover.iter().map(points).collect();
                    let union = sets.iter().fold(0, |acc, p| acc | p);
                    let label = format!("vars={vars} on={on:#x} care={care:#x}");
                    assert_eq!(union & target, target, "{label} uncovered");
                    for (c, &p) in cover.iter().zip(&sets) {
                        assert_eq!(p & !allowed, 0, "{label}: {c:?} leaves the function");
                        for j in (0..vars).filter(|&j| (c.mask >> j) & 1 == 1) {
                            let wider = Cube {
                                mask: c.mask & !(1 << j),
                                value: c.value & !(1 << j),
                            };
                            assert_ne!(points(&wider) & !allowed, 0, "{label}: {c:?} not prime");
                        }
                    }
                    for i in 0..sets.len() {
                        let rest = (0..sets.len())
                            .filter(|&k| k != i)
                            .fold(0, |acc, k| acc | sets[k]);
                        assert_ne!(rest & target, target, "{label}: cube {i} redundant");
                    }
                }
            }
        }
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
