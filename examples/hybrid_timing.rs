//! Sec. V-A hybrid study as a runnable demo: delay-aware CMOS->GSHE
//! replacement at zero delay overhead, then a SAT attack on the result.
//!
//! Run with `cargo run --release --example hybrid_timing`.

use spin_hall_security::logic::suites::{benchmark_scaled, spec};
use spin_hall_security::prelude::*;
use spin_hall_security::timing::path_delay_histogram;

fn main() {
    let design = benchmark_scaled(spec("sb18").expect("known benchmark"), 100, 13);
    let model = DelayModel::cmos_45nm();
    println!("workload: {design}");

    // The Fig. 6 view: biased path-delay profile.
    let delays = model.node_delays(&design);
    let hist = path_delay_histogram(&design, &delays, 60, 0.5e-9);
    println!(
        "path profile: {:.2e} paths, median {:.1} ns, critical ~{:.1} ns",
        hist.total_paths(),
        hist.quantile(0.5) * 1e9,
        hist.max_delay() * 1e9
    );

    // Zero-overhead replacement + camouflaging of exactly those gates.
    let (protected, hybrid) =
        spin_hall_security::protect_delay_aware(&design, &model, 21).expect("flow");
    println!(
        "\nreplaced {:.1}% of gates with GSHE primitives ({} cells, {} key bits)",
        hybrid.fraction * 100.0,
        protected.report.protected(),
        protected.keyed.key_len()
    );
    println!(
        "critical delay: {:.2} ns -> {:.2} ns (zero overhead enforced)",
        hybrid.baseline_critical * 1e9,
        hybrid.hybrid_critical * 1e9
    );
    println!(
        "static power:   {:.1} uW -> {:.1} uW (GSHE cells are cheaper)",
        hybrid.baseline_power * 1e6,
        hybrid.hybrid_power * 1e6
    );

    let mut oracle = OracleStack::exact(&design);
    let outcome = sat_attack(
        &protected.keyed,
        &mut oracle,
        &AttackConfig::with_timeout_secs(20),
    );
    println!(
        "\nSAT attack on the hybrid design: {:?} after {} DIPs in {:.1} s",
        outcome.status,
        outcome.iterations,
        outcome.elapsed.as_secs_f64()
    );
    println!("paper: such designs \"cannot be resolved within 240 hours\".");
}
