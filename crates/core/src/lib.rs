//! # gshe-core
//!
//! The paper's primary contribution: a **polymorphic, GSHE-based security
//! primitive** that cloaks all 16 two-input Boolean functions within a
//! single, layout-uniform instance — simultaneously enabling IC
//! camouflaging and logic locking (Patnaik, Rangarajan et al., DATE 2018).
//!
//! * [`config`] — the terminal-assignment model: three input charge
//!   currents (signals, their transducer-inverted forms, or ±I ties) plus
//!   the read-voltage mode; one canonical configuration per Boolean
//!   function (Fig. 5) and the current-centric truth tables of Fig. 2.
//! * [`primitive`] — [`GshePrimitive`]: evaluates a configuration through
//!   the *device*: current summation → sLLGS write of the W-NM → dipolar
//!   flip of the R-NM → resistive read-out current direction.
//! * [`stochastic`] — Sec. V-B: the primitive operated in the stochastic
//!   regime (per-device error rates derived from the switching-delay
//!   distribution vs. the clock period live in
//!   [`campaign::physical`]).
//! * [`polymorphic`] — Sec. V-C: runtime polymorphism (function morphing
//!   that preserves chip function); key rotation against
//!   runtime-intensive attacks is the oracle stack's rotation layer
//!   ([`OracleStack::rotating`](gshe_attacks::OracleStack::rotating)).
//! * [`flows`] — chip-level protection flows: plain/full camouflaging and
//!   the delay-aware hybrid CMOS–GSHE flow, with the Sec. IV provisioning
//!   options.
//!
//! All substrate crates are re-exported (`gshe_core::device`, `::logic`,
//! `::sat`, `::camo`, `::timing`, `::attacks`, `::campaign`), and
//! [`prelude`] pulls in the common types — including the campaign engine's
//! [`prelude::Campaign`] entry point for grid-scale experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod flows;
pub mod polymorphic;
pub mod primitive;
pub mod stochastic;

pub use config::{CurrentInput, GsheConfig, ReadMode};
pub use flows::{protect, protect_delay_aware, Protected, Provisioning};
pub use polymorphic::{morph_complement, morph_random};
pub use primitive::GshePrimitive;
pub use stochastic::StochasticPrimitive;

pub use gshe_attacks as attacks;
pub use gshe_camo as camo;
pub use gshe_campaign as campaign;
pub use gshe_device as device;
pub use gshe_logic as logic;
pub use gshe_obs as obs;
pub use gshe_sat as sat;
pub use gshe_timing as timing;

/// Common imports for applications built on this crate.
pub mod prelude {
    pub use crate::config::{CurrentInput, GsheConfig, ReadMode};
    pub use crate::flows::{protect, protect_delay_aware, Protected, Provisioning};
    pub use crate::primitive::GshePrimitive;
    pub use crate::stochastic::StochasticPrimitive;
    pub use gshe_attacks::{
        appsat_attack, double_dip_attack, sat_attack, verify_key, AttackConfig, AttackKind,
        AttackRunner, AttackStatus, Oracle, OracleStack,
    };
    pub use gshe_camo::{camouflage, select_gates, CamoScheme, KeyedNetlist};
    pub use gshe_campaign::{
        Campaign, CampaignReport, CampaignSpec, EvalSession, JobStatus, NoiseShape, ProfileSearch,
        SearchReport, SearchSpec,
    };
    pub use gshe_device::{GsheSwitch, MonteCarlo, MonteCarloConfig, SwitchParams};
    pub use gshe_logic::{parse_bench, Bf1, Bf2, Netlist, NetlistBuilder, NodeId};
    pub use gshe_timing::{delay_aware_replace, DelayModel, TimingAnalysis};
}
