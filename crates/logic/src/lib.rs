//! # gshe-logic
//!
//! Gate-level netlist substrate for the DATE 2018 GSHE hardware-security
//! reproduction: the intermediate representation, two-input Boolean function
//! algebra ([`Bf2`]), an ISCAS `.bench` parser/writer, fast (bit-parallel)
//! simulation, sequential-to-combinational scan preprocessing, and the
//! seeded synthetic benchmark generator that stands in for the paper's
//! ISCAS-85 / MCNC / ITC-99 / EPFL / IBM superblue suites (Table III).
//!
//! ```
//! use gshe_logic::{Bf2, NetlistBuilder};
//!
//! let mut b = NetlistBuilder::new("half_adder");
//! let a = b.input("a");
//! let c = b.input("b");
//! let sum = b.gate2("sum", Bf2::XOR, a, c);
//! let carry = b.gate2("carry", Bf2::AND, a, c);
//! b.output(sum);
//! b.output(carry);
//! let nl = b.finish().unwrap();
//! assert_eq!(nl.evaluate(&[true, true]), vec![false, true]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aiger;
pub mod bench_format;
pub mod bf2;
pub mod builder;
pub mod error;
pub mod generator;
pub mod netlist;
pub mod noise;
pub mod seq;
pub mod sim;
pub mod stats;
pub mod suites;

pub use aiger::{parse_aag, write_aag};
pub use bench_format::{parse_bench, write_bench};
pub use bf2::{Bf1, Bf2};
pub use builder::NetlistBuilder;
pub use error::LogicError;
pub use generator::{GeneratorConfig, NetlistGenerator, Topology, LOCAL_WINDOW};
pub use netlist::{FanoutCsr, IdMap, Netlist, Node, NodeId, NodeKind, NodeRef, NodeSet};
pub use noise::ErrorProfile;
pub use seq::scan_preprocess;
pub use sim::{PatternBlock, Simulator};
pub use stats::NetlistStats;
pub use suites::{
    benchmark, benchmark_scaled, benchmark_scaled_with, benchmark_with, BenchmarkSpec, TABLE_III,
};
