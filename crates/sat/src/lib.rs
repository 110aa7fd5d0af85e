//! # gshe-sat
//!
//! A from-scratch modern CDCL (conflict-driven clause learning) SAT
//! solver — the substrate under the paper's SAT attacks (refs. 8, 12, 37
//! of the paper). Features:
//!
//! - **Arena clause database**: clauses live in one flat `u32` buffer
//!   (header word + inline literals, [`arena::ClauseRef`] offsets) with a
//!   real garbage collector that compacts the arena, rebuilds watch
//!   lists, and remaps reason references — memory stays bounded across
//!   long incremental sessions.
//! - **Propagation**: two watched literals with a blocker-literal fast
//!   path, plus dedicated binary-clause watchers that carry the implied
//!   literal inline so binary propagation never touches the arena.
//! - **Search**: 1UIP learning with clause minimization, EVSIDS
//!   branching, phase saving, Glucose-style adaptive restarts (fast/slow
//!   LBD averages with trail-depth restart blocking), on-the-fly LBD
//!   updates, and LBD-tiered learnt-DB reduction on a geometric schedule
//!   — see [`solver::SearchConfig`].
//! - **Incrementality**: clause addition between solves, solving under
//!   assumptions, and model-blocking enumeration ([`Solver::block_model`]).
//! - **Simplification** ([`simplify`]): SatELite-style preprocessing
//!   (backward subsumption, self-subsumption strengthening, bounded
//!   variable elimination with model reconstruction and a
//!   [`solver::Solver::freeze`] contract for incremental use) gated by
//!   [`simplify::SimplifyMode`]; and Plaisted–Greenbaum single-sided
//!   encoding via [`tseitin::Polarity`].
//!
//! ```
//! use gshe_sat::{Lit, Solver, SolveResult};
//!
//! let mut s = Solver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
//! s.add_clause(&[Lit::neg(a)]);
//! assert_eq!(s.solve(), SolveResult::Sat);
//! assert!(s.model_value(b));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod heap;
pub mod lit;
pub mod simplify;
pub mod solver;
pub mod tseitin;

pub use lit::{Lit, Var};
pub use simplify::SimplifyMode;
pub use solver::{SearchConfig, SolveResult, Solver, SolverStats};
pub use tseitin::{CircuitEncoder, Polarity};
