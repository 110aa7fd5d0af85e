//! The sixteen two-input Boolean functions ([`Bf2`]) and the four one-input
//! functions ([`Bf1`]).
//!
//! `Bf2` wraps the 4-bit truth table of a function `f(a, b)`: bit
//! `i = a + 2 b` holds `f(a, b)`. All 16 values of the nibble are valid —
//! exactly the function space the GSHE primitive cloaks (paper Fig. 5).

use std::fmt;

/// A two-input Boolean function, represented by its 4-bit truth table.
///
/// Bit `i = a + 2 b` of the wrapped nibble is `f(a, b)`.
///
/// ```
/// use gshe_logic::Bf2;
///
/// assert!(Bf2::AND.eval(true, true));
/// assert!(!Bf2::AND.eval(true, false));
/// assert_eq!(Bf2::NAND, Bf2::AND.complement());
/// assert_eq!(Bf2::ALL.len(), 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Bf2(u8);

impl Bf2 {
    /// Constant 0.
    pub const FALSE: Bf2 = Bf2(0b0000);
    /// NOR: ¬(a ∨ b).
    pub const NOR: Bf2 = Bf2(0b0001);
    /// Inhibition a ∧ ¬b.
    pub const A_AND_NOT_B: Bf2 = Bf2(0b0010);
    /// ¬b (ignores a).
    pub const NOT_B: Bf2 = Bf2(0b0011);
    /// Inhibition ¬a ∧ b.
    pub const NOT_A_AND_B: Bf2 = Bf2(0b0100);
    /// ¬a (ignores b).
    pub const NOT_A: Bf2 = Bf2(0b0101);
    /// XOR: a ⊕ b.
    pub const XOR: Bf2 = Bf2(0b0110);
    /// NAND: ¬(a ∧ b).
    pub const NAND: Bf2 = Bf2(0b0111);
    /// AND: a ∧ b.
    pub const AND: Bf2 = Bf2(0b1000);
    /// XNOR: ¬(a ⊕ b).
    pub const XNOR: Bf2 = Bf2(0b1001);
    /// Buffer of a (ignores b).
    pub const BUF_A: Bf2 = Bf2(0b1010);
    /// Implication a ∨ ¬b.
    pub const A_OR_NOT_B: Bf2 = Bf2(0b1011);
    /// Buffer of b (ignores a).
    pub const BUF_B: Bf2 = Bf2(0b1100);
    /// Implication ¬a ∨ b.
    pub const NOT_A_OR_B: Bf2 = Bf2(0b1101);
    /// OR: a ∨ b.
    pub const OR: Bf2 = Bf2(0b1110);
    /// Constant 1.
    pub const TRUE: Bf2 = Bf2(0b1111);

    /// All 16 functions in truth-table order — the cloaking set of the GSHE
    /// primitive (Fig. 5).
    pub const ALL: [Bf2; 16] = [
        Bf2::FALSE,
        Bf2::NOR,
        Bf2::A_AND_NOT_B,
        Bf2::NOT_B,
        Bf2::NOT_A_AND_B,
        Bf2::NOT_A,
        Bf2::XOR,
        Bf2::NAND,
        Bf2::AND,
        Bf2::XNOR,
        Bf2::BUF_A,
        Bf2::A_OR_NOT_B,
        Bf2::BUF_B,
        Bf2::NOT_A_OR_B,
        Bf2::OR,
        Bf2::TRUE,
    ];

    /// Builds a function from its truth-table nibble.
    ///
    /// # Panics
    ///
    /// Panics if `tt > 15`.
    pub const fn from_truth_table(tt: u8) -> Bf2 {
        assert!(tt < 16, "truth table must be a nibble");
        Bf2(tt)
    }

    /// The 4-bit truth table (bit `a + 2b` = `f(a, b)`).
    pub const fn truth_table(self) -> u8 {
        self.0
    }

    /// Evaluates the function.
    pub const fn eval(self, a: bool, b: bool) -> bool {
        let idx = (a as u8) | ((b as u8) << 1);
        (self.0 >> idx) & 1 == 1
    }

    /// Bit-parallel evaluation over 64 packed input patterns.
    pub const fn eval_u64(self, a: u64, b: u64) -> u64 {
        // Shannon expansion over the four minterms of the truth table.
        let mut out = 0u64;
        if self.0 & 0b0001 != 0 {
            out |= !a & !b;
        }
        if self.0 & 0b0010 != 0 {
            out |= a & !b;
        }
        if self.0 & 0b0100 != 0 {
            out |= !a & b;
        }
        if self.0 & 0b1000 != 0 {
            out |= a & b;
        }
        out
    }

    /// The complement function ¬f.
    pub const fn complement(self) -> Bf2 {
        Bf2(!self.0 & 0x0F)
    }

    /// The function with its inputs swapped, `g(a, b) = f(b, a)`.
    pub const fn swap_inputs(self) -> Bf2 {
        // Swap bits 1 (a=1,b=0) and 2 (a=0,b=1).
        let fixed = self.0 & 0b1001;
        let b1 = (self.0 >> 1) & 1;
        let b2 = (self.0 >> 2) & 1;
        Bf2(fixed | (b2 << 1) | (b1 << 2))
    }

    /// `f(¬a, b)`.
    pub const fn negate_a(self) -> Bf2 {
        let mut out = 0u8;
        let mut idx = 0u8;
        while idx < 4 {
            let a = idx & 1;
            let b = (idx >> 1) & 1;
            let src = (1 - a) | (b << 1);
            out |= ((self.0 >> src) & 1) << idx;
            idx += 1;
        }
        Bf2(out)
    }

    /// `f(a, ¬b)`.
    pub const fn negate_b(self) -> Bf2 {
        let mut out = 0u8;
        let mut idx = 0u8;
        while idx < 4 {
            let a = idx & 1;
            let b = (idx >> 1) & 1;
            let src = a | ((1 - b) << 1);
            out |= ((self.0 >> src) & 1) << idx;
            idx += 1;
        }
        Bf2(out)
    }

    /// `true` if the output does not depend on input `a`.
    pub const fn ignores_a(self) -> bool {
        // f(0,b) == f(1,b) for both b.
        let f00 = self.0 & 1;
        let f10 = (self.0 >> 1) & 1;
        let f01 = (self.0 >> 2) & 1;
        let f11 = (self.0 >> 3) & 1;
        f00 == f10 && f01 == f11
    }

    /// `true` if the output does not depend on input `b`.
    pub const fn ignores_b(self) -> bool {
        let f00 = self.0 & 1;
        let f10 = (self.0 >> 1) & 1;
        let f01 = (self.0 >> 2) & 1;
        let f11 = (self.0 >> 3) & 1;
        f00 == f01 && f10 == f11
    }

    /// `true` if the function genuinely depends on both inputs.
    pub const fn is_nondegenerate(self) -> bool {
        !self.ignores_a() && !self.ignores_b()
    }

    /// `true` if `f(a, b) = f(b, a)`.
    pub const fn is_symmetric(self) -> bool {
        self.swap_inputs().0 == self.0
    }

    /// Canonical mnemonic name.
    pub const fn name(self) -> &'static str {
        match self.0 {
            0b0000 => "FALSE",
            0b0001 => "NOR",
            0b0010 => "A_AND_NOT_B",
            0b0011 => "NOT_B",
            0b0100 => "NOT_A_AND_B",
            0b0101 => "NOT_A",
            0b0110 => "XOR",
            0b0111 => "NAND",
            0b1000 => "AND",
            0b1001 => "XNOR",
            0b1010 => "BUF_A",
            0b1011 => "A_OR_NOT_B",
            0b1100 => "BUF_B",
            0b1101 => "NOT_A_OR_B",
            0b1110 => "OR",
            _ => "TRUE",
        }
    }

    /// The standard-cell-like subset the synthetic benchmark generator
    /// draws from (the functions CMOS libraries actually ship).
    pub const STANDARD: [Bf2; 6] = [Bf2::NAND, Bf2::NOR, Bf2::AND, Bf2::OR, Bf2::XOR, Bf2::XNOR];
}

impl fmt::Display for Bf2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A one-input Boolean function (used by INV/BUF camouflaging cells).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Bf1 {
    /// Identity.
    Buf,
    /// Inversion.
    Inv,
    /// Constant 0.
    Const0,
    /// Constant 1.
    Const1,
}

impl Bf1 {
    /// All four one-input functions.
    pub const ALL: [Bf1; 4] = [Bf1::Buf, Bf1::Inv, Bf1::Const0, Bf1::Const1];

    /// A stable 2-bit code for the function (the netlist arena packs this
    /// into a node's meta byte).
    pub const fn code(self) -> u8 {
        match self {
            Bf1::Buf => 0,
            Bf1::Inv => 1,
            Bf1::Const0 => 2,
            Bf1::Const1 => 3,
        }
    }

    /// Inverse of [`Bf1::code`].
    ///
    /// # Panics
    ///
    /// Panics if `code > 3`.
    pub const fn from_code(code: u8) -> Bf1 {
        match code {
            0 => Bf1::Buf,
            1 => Bf1::Inv,
            2 => Bf1::Const0,
            3 => Bf1::Const1,
            _ => panic!("Bf1 code must be 0..=3"),
        }
    }

    /// Evaluates the function.
    pub const fn eval(self, a: bool) -> bool {
        match self {
            Bf1::Buf => a,
            Bf1::Inv => !a,
            Bf1::Const0 => false,
            Bf1::Const1 => true,
        }
    }

    /// Bit-parallel evaluation over 64 packed patterns.
    pub const fn eval_u64(self, a: u64) -> u64 {
        match self {
            Bf1::Buf => a,
            Bf1::Inv => !a,
            Bf1::Const0 => 0,
            Bf1::Const1 => !0,
        }
    }

    /// The complement function.
    pub const fn complement(self) -> Bf1 {
        match self {
            Bf1::Buf => Bf1::Inv,
            Bf1::Inv => Bf1::Buf,
            Bf1::Const0 => Bf1::Const1,
            Bf1::Const1 => Bf1::Const0,
        }
    }

    /// Canonical mnemonic name.
    pub const fn name(self) -> &'static str {
        match self {
            Bf1::Buf => "BUF",
            Bf1::Inv => "NOT",
            Bf1::Const0 => "CONST0",
            Bf1::Const1 => "CONST1",
        }
    }

    /// Lifts the function to a two-input function acting on input `a`.
    pub const fn lift_a(self) -> Bf2 {
        match self {
            Bf1::Buf => Bf2::BUF_A,
            Bf1::Inv => Bf2::NOT_A,
            Bf1::Const0 => Bf2::FALSE,
            Bf1::Const1 => Bf2::TRUE,
        }
    }
}

impl fmt::Display for Bf1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_sixteen_functions_are_distinct() {
        for (i, f) in Bf2::ALL.iter().enumerate() {
            assert_eq!(f.truth_table() as usize, i);
        }
    }

    #[test]
    fn named_constants_match_semantics() {
        for a in [false, true] {
            for b in [false, true] {
                assert_eq!(Bf2::AND.eval(a, b), a && b);
                assert_eq!(Bf2::OR.eval(a, b), a || b);
                assert_eq!(Bf2::NAND.eval(a, b), !(a && b));
                assert_eq!(Bf2::NOR.eval(a, b), !(a || b));
                assert_eq!(Bf2::XOR.eval(a, b), a ^ b);
                assert_eq!(Bf2::XNOR.eval(a, b), !(a ^ b));
                assert_eq!(Bf2::BUF_A.eval(a, b), a);
                assert_eq!(Bf2::NOT_A.eval(a, b), !a);
                assert_eq!(Bf2::BUF_B.eval(a, b), b);
                assert_eq!(Bf2::NOT_B.eval(a, b), !b);
                assert_eq!(Bf2::A_AND_NOT_B.eval(a, b), a && !b);
                assert_eq!(Bf2::NOT_A_AND_B.eval(a, b), !a && b);
                assert_eq!(Bf2::A_OR_NOT_B.eval(a, b), a || !b);
                assert_eq!(Bf2::NOT_A_OR_B.eval(a, b), !a || b);
                assert!(!Bf2::FALSE.eval(a, b));
                assert!(Bf2::TRUE.eval(a, b));
            }
        }
    }

    #[test]
    fn complement_is_involution() {
        for f in Bf2::ALL {
            assert_eq!(f.complement().complement(), f);
            for a in [false, true] {
                for b in [false, true] {
                    assert_eq!(f.complement().eval(a, b), !f.eval(a, b));
                }
            }
        }
    }

    #[test]
    fn swap_inputs_is_involution_and_correct() {
        for f in Bf2::ALL {
            let g = f.swap_inputs();
            assert_eq!(g.swap_inputs(), f);
            for a in [false, true] {
                for b in [false, true] {
                    assert_eq!(g.eval(a, b), f.eval(b, a));
                }
            }
        }
    }

    #[test]
    fn negate_a_and_b_are_correct() {
        for f in Bf2::ALL {
            for a in [false, true] {
                for b in [false, true] {
                    assert_eq!(f.negate_a().eval(a, b), f.eval(!a, b));
                    assert_eq!(f.negate_b().eval(a, b), f.eval(a, !b));
                }
            }
        }
    }

    #[test]
    fn eval_u64_matches_scalar() {
        // Pack the 4 input combinations into the low bits.
        let a = 0b0101u64; // a = 1,0,1,0 for patterns 0..4 (lsb first: 1,0,1,0)
        let b = 0b0011u64;
        for f in Bf2::ALL {
            let packed = f.eval_u64(a, b);
            for i in 0..4 {
                let ai = (a >> i) & 1 == 1;
                let bi = (b >> i) & 1 == 1;
                assert_eq!((packed >> i) & 1 == 1, f.eval(ai, bi), "{f} pattern {i}");
            }
        }
    }

    #[test]
    fn degeneracy_classification() {
        assert!(Bf2::BUF_A.ignores_b());
        assert!(Bf2::NOT_B.ignores_a());
        let nondegenerate: Vec<_> = Bf2::ALL.iter().filter(|f| f.is_nondegenerate()).collect();
        // 16 total − 2 constants − 4 single-input = 10 genuinely 2-input.
        assert_eq!(nondegenerate.len(), 10);
    }

    #[test]
    fn symmetry_classification() {
        for f in [Bf2::AND, Bf2::OR, Bf2::NAND, Bf2::NOR, Bf2::XOR, Bf2::XNOR] {
            assert!(f.is_symmetric(), "{f}");
        }
        for f in [Bf2::A_AND_NOT_B, Bf2::NOT_A_OR_B, Bf2::BUF_A, Bf2::NOT_B] {
            assert!(!f.is_symmetric(), "{f}");
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Bf2::ALL.iter().map(|f| f.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 16);
    }

    #[test]
    fn bf1_semantics() {
        for a in [false, true] {
            assert_eq!(Bf1::Buf.eval(a), a);
            assert_eq!(Bf1::Inv.eval(a), !a);
            assert!(!Bf1::Const0.eval(a));
            assert!(Bf1::Const1.eval(a));
        }
        assert_eq!(Bf1::Buf.complement(), Bf1::Inv);
        assert_eq!(Bf1::Inv.eval_u64(0), !0u64);
    }

    #[test]
    fn bf1_code_round_trips() {
        for f in Bf1::ALL {
            assert_eq!(Bf1::from_code(f.code()), f);
        }
    }

    #[test]
    fn bf1_lift_matches() {
        for f in Bf1::ALL {
            for a in [false, true] {
                for b in [false, true] {
                    assert_eq!(f.lift_a().eval(a, b), f.eval(a));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "nibble")]
    fn from_truth_table_rejects_wide_values() {
        let _ = Bf2::from_truth_table(16);
    }
}
