//! Regenerates **Fig. 4**: switching-delay distributions at I_S = 20, 60
//! and 100 uA from sLLGS Monte Carlo (paper: 100,000 samples; default here
//! 2,000 — pass `--samples 100000` for the paper-scale run).

use gshe_bench::{bar_line, HarnessArgs};
use gshe_core::device::{DelayHistogram, MonteCarlo, MonteCarloConfig, SwitchParams};

fn main() {
    let args = HarnessArgs::parse();
    let mc = MonteCarlo::new(MonteCarloConfig {
        params: SwitchParams::table_i(),
        samples: args.samples,
        seed: args.seed,
    });

    println!(
        "FIG. 4 — DELAY DISTRIBUTIONS AT VARIOUS SPIN CURRENTS ({} samples each)",
        args.samples
    );
    for i_s in [20e-6, 60e-6, 100e-6] {
        let samples = mc.run(i_s);
        let h = DelayHistogram::from_samples(&samples, 30, 6e-9);
        println!(
            "\nI_S = {:>3.0} uA   mean = {:.3} ns   std = {:.3} ns   p95 = {:.2} ns   timeouts = {:.2}%",
            i_s * 1e6,
            h.mean * 1e9,
            h.std_dev * 1e9,
            h.quantile(0.95) * 1e9,
            h.timeout_fraction * 100.0
        );
        let max = h.fractions.iter().cloned().fold(0.0, f64::max);
        for (edge, frac) in h.bin_edges.iter().zip(&h.fractions) {
            if *frac > 0.0005 {
                println!(
                    "{}",
                    bar_line(&format!("{:.1} ns", edge * 1e9), *frac, max, 48)
                );
            }
        }
    }
    println!("\npaper shape: mean 1.55 ns at 20 uA; spread and mean diminish as I_S");
    println!("grows (at the cost of higher write power); switching remains");
    println!("deterministic (no timeouts) at I_S >= 20 uA.");
}
