//! Regenerates **Fig. 6**: path-delay distributions of the IBM superblue
//! circuits — biased profiles where most paths are short and few carry the
//! dominant, critical delays (crosses in the paper).

use gshe_bench::{bar_line, HarnessArgs};
use gshe_core::logic::suites::{benchmark_scaled, spec};
use gshe_core::timing::{path_delay_histogram, DelayModel};

fn main() {
    let args = HarnessArgs::parse(&["--scale", "--seed", "--only"]);
    let model = DelayModel::cmos_45nm();
    println!(
        "FIG. 6 — PATH-DELAY DISTRIBUTIONS OF SELECTED IBM SUPERBLUE CIRCUITS (scale 1/{})",
        args.scale
    );
    for name in ["sb1", "sb5", "sb10", "sb12", "sb18"] {
        if !args.only.is_empty() && name != args.only {
            continue;
        }
        let nl = benchmark_scaled(spec(name).expect("spec"), args.scale, args.seed);
        let delays = model.node_delays(&nl);
        let h = path_delay_histogram(&nl, &delays, 60, 0.5e-9);
        let total = h.total_paths();
        println!(
            "\n{name}: {} gates, {:.3e} PI->PO paths, critical ~ {:.1} ns, median {:.1} ns",
            nl.gate_count(),
            total,
            h.max_delay() * 1e9,
            h.quantile(0.5) * 1e9
        );
        let max = h.counts.iter().cloned().fold(0.0, f64::max);
        for (delay, count) in h.series() {
            if count > 0.0 {
                let marker = if delay > 0.9 * h.max_delay() {
                    " x (critical tail)"
                } else {
                    ""
                };
                println!(
                    "{}{}",
                    bar_line(&format!("{:.1} ns", delay * 1e9), count, max, 48),
                    marker
                );
            }
        }
    }
    println!("\npaper shape: strongly biased distributions — most paths short, few");
    println!("paths carrying the dominant critical delays (marked x).");
}
