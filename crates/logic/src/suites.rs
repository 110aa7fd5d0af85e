//! The paper's benchmark suites (Table III), realized through the synthetic
//! generator.
//!
//! The paper's netlists are not in the repository, so each benchmark is a
//! generated stand-in with its Table III row's gate, input and output
//! counts. [`benchmark_scaled_with`] divides all three by `scale` (the
//! harnesses' `--scale`, with floors of 64 gates, 32 inputs and 16
//! outputs) so the SAT-attack study completes in minutes instead of the
//! paper's 48-hour Xeon budget.

use crate::generator::{GeneratorConfig, NetlistGenerator, Topology};
use crate::netlist::Netlist;

/// Which suite a benchmark belongs to (Table III typography: EPFL in
/// italics, IBM superblue in bold).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// ISCAS-85 combinational circuits.
    Iscas85,
    /// ISCAS-89 sequential circuits.
    Iscas89,
    /// MCNC benchmarks.
    Mcnc,
    /// ITC-99 benchmarks.
    Itc99,
    /// IWLS/OpenCores-style industrial blocks.
    Iwls,
    /// EPFL arithmetic suite.
    Epfl,
    /// IBM superblue placement suite (sequential, scan-preprocessed).
    Superblue,
}

/// One benchmark row of Table III.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchmarkSpec {
    /// Benchmark name as printed in the paper.
    pub name: &'static str,
    /// Primary inputs (after scan preprocessing for sequential designs).
    pub inputs: usize,
    /// Primary outputs (after scan preprocessing).
    pub outputs: usize,
    /// Gate count as synthesized in the paper.
    pub gates: usize,
    /// Source suite.
    pub suite: Suite,
    /// Depth profile: higher for arithmetic-heavy circuits (log2, aes).
    pub chain_bias: f64,
}

/// The twelve benchmarks of Table III.
pub const TABLE_III: &[BenchmarkSpec] = &[
    BenchmarkSpec {
        name: "aes_core",
        inputs: 789,
        outputs: 668,
        gates: 39_014,
        suite: Suite::Iwls,
        chain_bias: 0.10,
    },
    BenchmarkSpec {
        name: "b14",
        inputs: 277,
        outputs: 299,
        gates: 11_028,
        suite: Suite::Itc99,
        chain_bias: 0.15,
    },
    BenchmarkSpec {
        name: "b21",
        inputs: 522,
        outputs: 512,
        gates: 22_715,
        suite: Suite::Itc99,
        chain_bias: 0.15,
    },
    BenchmarkSpec {
        name: "c7552",
        inputs: 207,
        outputs: 108,
        gates: 4_045,
        suite: Suite::Iscas85,
        chain_bias: 0.12,
    },
    BenchmarkSpec {
        name: "ex1010",
        inputs: 10,
        outputs: 10,
        gates: 5_066,
        suite: Suite::Mcnc,
        chain_bias: 0.05,
    },
    BenchmarkSpec {
        name: "pci_bridge32",
        inputs: 3_520,
        outputs: 3_528,
        gates: 35_992,
        suite: Suite::Iwls,
        chain_bias: 0.08,
    },
    BenchmarkSpec {
        name: "log2",
        inputs: 32,
        outputs: 32,
        gates: 51_627,
        suite: Suite::Epfl,
        chain_bias: 0.30,
    },
    BenchmarkSpec {
        name: "sb1",
        inputs: 8_320,
        outputs: 13_025,
        gates: 856_403,
        suite: Suite::Superblue,
        chain_bias: 0.06,
    },
    BenchmarkSpec {
        name: "sb5",
        inputs: 11_661,
        outputs: 9_617,
        gates: 741_483,
        suite: Suite::Superblue,
        chain_bias: 0.06,
    },
    BenchmarkSpec {
        name: "sb10",
        inputs: 10_454,
        outputs: 23_663,
        gates: 1_117_846,
        suite: Suite::Superblue,
        chain_bias: 0.06,
    },
    BenchmarkSpec {
        name: "sb12",
        inputs: 1_936,
        outputs: 4_629,
        gates: 1_523_108,
        suite: Suite::Superblue,
        chain_bias: 0.06,
    },
    BenchmarkSpec {
        name: "sb18",
        inputs: 3_921,
        outputs: 7_465,
        gates: 659_511,
        suite: Suite::Superblue,
        chain_bias: 0.06,
    },
];

/// The s38584 benchmark (ISCAS-89) used for the Sec. II cost-limited
/// STT-LUT experiment; interface counts after scan preprocessing
/// (38 PIs + 1426 pseudo-PIs, 304 POs + 1426 pseudo-POs).
pub const S38584: BenchmarkSpec = BenchmarkSpec {
    name: "s38584",
    inputs: 38 + 1_426,
    outputs: 304 + 1_426,
    gates: 19_253,
    suite: Suite::Iscas89,
    chain_bias: 0.08,
};

/// Looks up a Table III spec by name.
pub fn spec(name: &str) -> Option<&'static BenchmarkSpec> {
    TABLE_III
        .iter()
        .find(|s| s.name == name)
        .or(if name == "s38584" {
            Some(&S38584)
        } else {
            None
        })
}

/// Names of every known benchmark (Table III plus `s38584`), in table
/// order.
pub fn all_names() -> impl Iterator<Item = &'static str> {
    TABLE_III
        .iter()
        .map(|s| s.name)
        .chain(std::iter::once(S38584.name))
}

/// All benchmarks belonging to one suite.
pub fn by_suite(suite: Suite) -> Vec<&'static BenchmarkSpec> {
    TABLE_III
        .iter()
        .chain(std::iter::once(&S38584))
        .filter(|s| s.suite == suite)
        .collect()
}

impl Suite {
    /// Short machine-friendly name, used by suite selectors.
    pub fn name(self) -> &'static str {
        match self {
            Suite::Iscas85 => "iscas85",
            Suite::Iscas89 => "iscas89",
            Suite::Mcnc => "mcnc",
            Suite::Itc99 => "itc99",
            Suite::Iwls => "iwls",
            Suite::Epfl => "epfl",
            Suite::Superblue => "superblue",
        }
    }

    /// Parses [`Suite::name`] back into a suite.
    pub fn parse(name: &str) -> Option<Suite> {
        [
            Suite::Iscas85,
            Suite::Iscas89,
            Suite::Mcnc,
            Suite::Itc99,
            Suite::Iwls,
            Suite::Epfl,
            Suite::Superblue,
        ]
        .into_iter()
        .find(|s| s.name() == name)
    }
}

/// Resolves a benchmark selector into specs:
///
/// * `"all"` — every Table III benchmark (excluding `s38584`);
/// * `"suite:<name>"` — every benchmark of that suite (e.g. `suite:itc99`);
/// * otherwise — the single named benchmark.
///
/// Returns an empty vector for unknown names, so callers can report the
/// selector that failed.
pub fn resolve_selector(selector: &str) -> Vec<&'static BenchmarkSpec> {
    if selector == "all" {
        return TABLE_III.iter().collect();
    }
    if let Some(suite_name) = selector.strip_prefix("suite:") {
        return Suite::parse(suite_name).map(by_suite).unwrap_or_default();
    }
    spec(selector).into_iter().collect()
}

/// Instantiates a benchmark as a synthetic netlist.
///
/// `scale ≥ 1` divides the gate count (PI/PO counts are kept, except where
/// the scaled gate count could no longer drive all outputs, in which case
/// outputs are reduced proportionally — reported via the returned netlist's
/// stats). `seed` controls the topology.
///
/// # Panics
///
/// Panics if `scale == 0`.
pub fn benchmark(spec: &BenchmarkSpec, scale: usize, seed: u64) -> Netlist {
    benchmark_with(spec, scale, seed, Topology::Uniform)
}

/// [`benchmark`] with an explicit fanin [`Topology`].
/// [`Topology::Uniform`] reproduces [`benchmark`] bit-for-bit;
/// [`Topology::Local`] builds the placed-netlist profile whose bounded
/// influence cones make cone-of-influence attacks representative at
/// superblue scale.
///
/// # Panics
///
/// Panics if `scale == 0`.
pub fn benchmark_with(
    spec: &BenchmarkSpec,
    scale: usize,
    seed: u64,
    topology: Topology,
) -> Netlist {
    assert!(scale > 0, "scale must be at least 1");
    let gates = (spec.gates / scale).max(8);
    let outputs = spec.outputs.min(gates);
    let inputs = spec.inputs.max(2);
    let cfg = GeneratorConfig::new(spec.name, inputs, outputs, gates)
        .with_seed(seed ^ 0x5EED_0000)
        .with_chain_bias(spec.chain_bias)
        .with_topology(topology);
    NetlistGenerator::new(cfg)
        .expect("specs are valid")
        .generate()
}

/// Instantiates a benchmark with **proportional** scaling: gates *and*
/// interface widths divide by `scale` (floors: 32 inputs, 16 outputs, 64
/// gates), preserving the gates-per-endpoint ratio — and with it the logic
/// depth and the path-delay *shape* — at tractable sizes. This is the
/// constructor the Table IV / Fig. 6 harnesses use.
///
/// # Panics
///
/// Panics if `scale == 0`.
pub fn benchmark_scaled(spec: &BenchmarkSpec, scale: usize, seed: u64) -> Netlist {
    benchmark_scaled_with(spec, scale, seed, Topology::Uniform)
}

/// [`benchmark_scaled`] with an explicit fanin [`Topology`] (see
/// [`benchmark_with`]).
///
/// # Panics
///
/// Panics if `scale == 0`.
pub fn benchmark_scaled_with(
    spec: &BenchmarkSpec,
    scale: usize,
    seed: u64,
    topology: Topology,
) -> Netlist {
    assert!(scale > 0, "scale must be at least 1");
    let gates = (spec.gates / scale).max(64);
    let inputs = (spec.inputs / scale).max(32);
    let outputs = (spec.outputs / scale).clamp(16, gates);
    let cfg = GeneratorConfig::new(spec.name, inputs, outputs, gates)
        .with_seed(seed ^ 0x5CA1_ED00)
        .with_chain_bias(spec.chain_bias)
        .with_topology(topology);
    NetlistGenerator::new(cfg)
        .expect("specs are valid")
        .generate()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::NetlistStats;

    #[test]
    fn proportional_scaling_preserves_gate_output_ratio() {
        let spec = spec("sb1").unwrap();
        let nl = benchmark_scaled(spec, 100, 3);
        let s = NetlistStats::compute(&nl);
        let full_ratio = spec.gates as f64 / spec.outputs as f64;
        let scaled_ratio = s.gates as f64 / s.outputs as f64;
        assert!(
            (scaled_ratio / full_ratio - 1.0).abs() < 0.35,
            "ratio drifted: {scaled_ratio} vs {full_ratio}"
        );
    }

    #[test]
    fn proportional_scaling_applies_floors() {
        let spec = spec("ex1010").unwrap(); // 10 PIs
        let nl = benchmark_scaled(spec, 10, 3);
        assert_eq!(nl.inputs().len(), 32); // floored up for DIP-space realism
        assert_eq!(nl.gate_count(), 506);
    }

    #[test]
    fn table_iii_matches_paper_counts() {
        // Spot-check the transcription against the paper's Table III.
        let aes = spec("aes_core").unwrap();
        assert_eq!((aes.inputs, aes.outputs, aes.gates), (789, 668, 39_014));
        let sb12 = spec("sb12").unwrap();
        assert_eq!(
            (sb12.inputs, sb12.outputs, sb12.gates),
            (1_936, 4_629, 1_523_108)
        );
        let log2 = spec("log2").unwrap();
        assert_eq!((log2.inputs, log2.outputs, log2.gates), (32, 32, 51_627));
        assert_eq!(TABLE_III.len(), 12);
    }

    #[test]
    fn unscaled_small_benchmark_has_exact_interface() {
        let nl = benchmark(spec("ex1010").unwrap(), 1, 42);
        let s = NetlistStats::compute(&nl);
        assert_eq!((s.inputs, s.outputs, s.gates), (10, 10, 5_066));
    }

    #[test]
    fn scaling_divides_gates() {
        let nl = benchmark(spec("c7552").unwrap(), 10, 42);
        let s = NetlistStats::compute(&nl);
        assert_eq!(s.gates, 404);
        assert_eq!(s.inputs, 207);
        assert_eq!(s.outputs, 108);
    }

    #[test]
    fn superblue_scales_to_tractable_size() {
        let nl = benchmark(spec("sb1").unwrap(), 100, 1);
        let s = NetlistStats::compute(&nl);
        assert_eq!(s.gates, 8_564);
        // POs exceed gates at this scale? 13_025 > 8_564 → clamped.
        assert_eq!(s.outputs, 8_564);
    }

    #[test]
    fn benchmark_is_reproducible() {
        let a = benchmark(spec("ex1010").unwrap(), 10, 7);
        let b = benchmark(spec("ex1010").unwrap(), 10, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn s38584_spec_reflects_scan_preprocessing() {
        assert_eq!(S38584.inputs, 1_464);
        assert_eq!(S38584.outputs, 1_730);
        assert_eq!(spec("s38584"), Some(&S38584));
    }

    #[test]
    fn unknown_benchmark_is_none() {
        assert_eq!(spec("c17_missing"), None);
    }

    #[test]
    fn enumeration_helpers_cover_the_tables() {
        assert_eq!(all_names().count(), TABLE_III.len() + 1);
        assert!(all_names().any(|n| n == "s38584"));
        let itc = by_suite(Suite::Itc99);
        assert_eq!(
            itc.iter().map(|s| s.name).collect::<Vec<_>>(),
            ["b14", "b21"]
        );
        assert_eq!(by_suite(Suite::Iscas89).len(), 1);
    }

    #[test]
    fn suite_names_round_trip() {
        for suite in [
            Suite::Iscas85,
            Suite::Iscas89,
            Suite::Mcnc,
            Suite::Itc99,
            Suite::Iwls,
            Suite::Epfl,
            Suite::Superblue,
        ] {
            assert_eq!(Suite::parse(suite.name()), Some(suite));
        }
        assert_eq!(Suite::parse("vtr"), None);
    }

    #[test]
    fn selectors_resolve() {
        assert_eq!(resolve_selector("all").len(), TABLE_III.len());
        assert_eq!(resolve_selector("suite:epfl").len(), 1);
        assert_eq!(resolve_selector("c7552").len(), 1);
        assert!(resolve_selector("bogus").is_empty());
        assert!(resolve_selector("suite:bogus").is_empty());
    }

    #[test]
    fn topology_variants_share_interface_counts() {
        let spec = spec("c7552").unwrap();
        let u = benchmark_with(spec, 10, 42, Topology::Uniform);
        let l = benchmark_with(spec, 10, 42, Topology::Local);
        // Uniform is the historical constructor bit-for-bit; local is a
        // different netlist with the same interface.
        assert_eq!(u, benchmark(spec, 10, 42));
        assert_ne!(u, l);
        let su = NetlistStats::compute(&u);
        let sl = NetlistStats::compute(&l);
        assert_eq!((su.inputs, su.outputs), (sl.inputs, sl.outputs));
        assert_eq!(su.gates, sl.gates);
        assert_eq!(
            benchmark_scaled(spec, 10, 42),
            benchmark_scaled_with(spec, 10, 42, Topology::Uniform)
        );
    }

    #[test]
    fn log2_is_deepest_per_gate() {
        // The EPFL log2 circuit is arithmetic-heavy: our profile encodes
        // that through a larger chain bias.
        let log2 = spec("log2").unwrap();
        let sb = spec("sb1").unwrap();
        assert!(log2.chain_bias > sb.chain_bias);
    }
}
