//! # gshe-camo
//!
//! IC camouflaging / logic-locking transforms for the GSHE primitive and
//! every prior-art scheme the paper benchmarks against in Table IV.
//!
//! Camouflaging and locking are *transformable notions* (paper Sec. V-A,
//! ref. \[36\]): a camouflaged gate with `k` candidate functions is modeled
//! as a key-controlled selection among those candidates, which is exactly
//! what a SAT attacker reasons about. [`KeyedNetlist`] is that model;
//! [`camouflage`] produces it from a plain netlist held by `Arc`, a
//! memorized gate selection, and a [`CamoScheme`]. A draw that changes no
//! node shares the netlist instead of copying it.
//!
//! ```
//! use gshe_camo::{camouflage, select_gates, CamoScheme};
//! use gshe_logic::{parse_bench, bench_format::C17_BENCH};
//! use rand::{rngs::StdRng, SeedableRng};
//! use std::sync::Arc;
//!
//! let nl = Arc::new(parse_bench(C17_BENCH).unwrap());
//! let picks = select_gates(&nl, 0.5, 7);
//! let mut rng = StdRng::seed_from_u64(7);
//! let locked = camouflage(&nl, &picks, CamoScheme::GsheAll16, &mut rng).unwrap();
//! // The correct key restores the original function.
//! let key = locked.correct_key();
//! assert_eq!(
//!     locked.evaluate_with_key(&[true, false, true, false, true], &key).unwrap(),
//!     nl.evaluate(&[true, false, true, false, true]),
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod keyed;
pub mod scheme;
pub mod selection;
pub mod transform;

pub use error::CamoError;
pub use keyed::{CamoGate, Candidates, KeyedNetlist};
pub use scheme::CamoScheme;
pub use selection::{select_gates, select_gates_count};
pub use transform::{camouflage, camouflage_with_report, CamoReport};
