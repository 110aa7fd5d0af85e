//! # gshe-device
//!
//! Macrospin device physics for the **giant spin-Hall effect (GSHE) switch**
//! of Patnaik, Rangarajan et al., *Advancing Hardware Security Using
//! Polymorphic and Stochastic Spin-Hall Effect Devices* (DATE 2018).
//!
//! The crate implements, from scratch, everything the paper's Sec. III
//! depends on:
//!
//! * the stochastic Landau–Lifshitz–Gilbert–Slonczewski (sLLGS) equation of
//!   motion for the write (W) and read (R) nanomagnets, including uniaxial
//!   anisotropy, shape anisotropy via the analytic Aharoni demagnetization
//!   tensor, negative mutual dipolar coupling, Slonczewski spin-transfer
//!   torque from the spin-Hall layer, and Brownian thermal fields
//!   ([`llgs`], [`fields`]);
//! * the norm-preserving implicit **midpoint** integrator of d'Aquino et al.
//!   (the paper's ref. \[29\]) plus a stochastic Heun integrator for
//!   cross-checking ([`integrator`]);
//! * the coupled W/R switch model with charge-current write and resistive
//!   read-out ([`switch`], [`readout`]);
//! * Monte Carlo switching-delay characterization reproducing Fig. 4
//!   ([`montecarlo`]);
//! * the Table I / Table II characterization helpers ([`characterize`]).
//!
//! ## Quick start
//!
//! ```
//! use gshe_device::{GsheSwitch, SwitchParams};
//!
//! // The paper's Table I device, driven at the deterministic-switching
//! // threshold of 20 uA of spin current.
//! let params = SwitchParams::table_i();
//! let mut switch = GsheSwitch::new(params);
//! let outcome = switch.write_deterministic(20e-6, true);
//! assert!(outcome.switched);
//! ```
//!
//! All quantities are SI unless a name says otherwise (`*_nm`, `*_ns`, ...).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod characterize;
pub mod consts;
pub mod error;
pub mod fields;
pub mod integrator;
pub mod llgs;
pub mod material;
pub mod montecarlo;
pub mod readout;
pub mod switch;
pub mod vec3;

pub use characterize::{DeviceMetrics, EMERGING_DEVICE_TABLE};
pub use error::DeviceError;
pub use fields::{demag_factors, DipolarCoupling, ThermalField, UniaxialAnisotropy};
pub use integrator::{Integrator, MidpointIntegrator, StochasticHeun};
pub use llgs::{LlgsSystem, Torque};
pub use material::{HeavyMetal, Nanomagnet, SwitchParams};
pub use montecarlo::{
    mean_switched_delay, miss_rate, DelayHistogram, DelaySample, MonteCarlo, MonteCarloConfig,
};
pub use readout::{ReadoutCircuit, ReadoutPoint};
pub use switch::{GsheSwitch, SwitchOutcome, WriteDrive};
pub use vec3::Vec3;
