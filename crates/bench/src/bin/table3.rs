//! Regenerates **Table III**: characteristics of the synthesized
//! benchmarks. The paper-reported interface/gate counts come from the spec
//! table; the harness also instantiates each circuit at the working scale
//! used by the Table IV attacks and prints the resulting statistics.

use gshe_bench::HarnessArgs;
use gshe_core::logic::suites::{benchmark_scaled, S38584, TABLE_III};
use gshe_core::logic::NetlistStats;

fn main() {
    let args = HarnessArgs::parse(&["--scale", "--seed", "--only"]);
    println!("TABLE III — CHARACTERISTICS OF SYNTHESIZED BENCHMARKS");
    println!("(italics = EPFL suite, bold = IBM superblue; both marked in the Suite column)");
    println!(
        "{:<14} {:>8} {:>8} {:>10}   {:<10} | scaled (1/{}): {:>6} {:>6} {:>8} {:>6}",
        "Benchmark",
        "Inputs",
        "Outputs",
        "Gates",
        "Suite",
        args.scale,
        "PI",
        "PO",
        "Gates",
        "Depth"
    );
    println!("{:-<100}", "");
    for spec in TABLE_III.iter().chain(std::iter::once(&S38584)) {
        if !args.only.is_empty() && spec.name != args.only {
            continue;
        }
        let nl = benchmark_scaled(spec, args.scale, args.seed);
        let s = NetlistStats::compute(&nl);
        println!(
            "{:<14} {:>8} {:>8} {:>10}   {:<10} | {:>21} {:>6} {:>8} {:>6}",
            spec.name,
            spec.inputs,
            spec.outputs,
            spec.gates,
            format!("{:?}", spec.suite),
            s.inputs,
            s.outputs,
            s.gates,
            s.depth
        );
    }
}
