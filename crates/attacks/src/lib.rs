//! # gshe-attacks
//!
//! Analytical attacks against camouflaged/locked netlists, reproducing the
//! paper's Sec. V evaluation apparatus:
//!
//! * the oracle-guided **SAT attack** of Subramanyan et al. (\[8\], \[37\]) —
//!   miter-based DIP refinement ([`sat_attack`](fn@sat_attack));
//! * **Double DIP** (Shen & Zhou \[12\]) — each iteration rules out at least
//!   two incorrect keys ([`double_dip_attack`]);
//! * an **AppSAT**-style approximate attack (Shamsi et al. \[11\]) — SAT
//!   attack interleaved with random-query error estimation and early exit
//!   ([`appsat_attack`]);
//! * the shared [`dip_engine`] all three delegate to: one
//!   miter/constraint-accumulation loop parameterized by a
//!   [`RefinePolicy`], querying the oracle once per discriminating input
//!   pattern and pinning every key copy to the answer;
//! * the working chip as one layered [`OracleStack`] behind the
//!   [`Oracle`] trait: one bit-parallel [`gshe_logic::Simulator`] (exact
//!   or noisy) with an optional key-rotation layer — the perfect chip
//!   ([`OracleStack::exact`]), the tunable **stochastic** GSHE chip of
//!   Sec. V-B ([`OracleStack::noisy`]) whose per-cell error rates
//!   superpose into correlated output errors, the key-rotating chip of
//!   Sec. V-C ([`OracleStack::rotating`]), and the combined rotating +
//!   stochastic defense ([`OracleStack::rotating_noisy`]);
//! * key verification by exact SAT equivalence ([`verify_key`]).
//!
//! The attacker's view of a [`gshe_camo::KeyedNetlist`] is its structure
//! and per-cell candidate sets only; attacks never read the embedded
//! correct key (it is used solely by oracles and verification).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod appsat;
pub mod coi;
pub mod dip_engine;
pub mod double_dip;
pub mod encode;
pub mod metrics;
pub mod oracle;
pub mod runner;
pub mod sat_attack;
pub mod stack;

pub use appsat::{appsat_attack, AppSatConfig};
pub use coi::{cone_inputs, CoiMode, CoiOracle, CoiProjection};
pub use dip_engine::RefinePolicy;
pub use double_dip::double_dip_attack;
pub use encode::{assert_valid_key_codes, encode_keyed, encode_keyed_fixed, EncodedCopy};
pub use gshe_sat::SimplifyMode;
pub use metrics::{sat_equivalent_on, verify_key, verify_key_scoped, KeyVerification};
pub use oracle::Oracle;
pub use runner::{AttackKind, AttackRunner};
pub use sat_attack::{sat_attack, AttackConfig, AttackOutcome, AttackStatus};
pub use stack::OracleStack;
