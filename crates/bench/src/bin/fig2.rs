//! Regenerates **Fig. 2**: the current-centric truth tables for the NAND
//! and NOR configurations (inputs A, B; X the tie-breaking control).

use gshe_bench::HarnessArgs;
use gshe_core::logic::Bf2;
use gshe_core::GsheConfig;

fn main() {
    HarnessArgs::parse(&[]);
    println!("FIG. 2 — CURRENT-CENTRIC TRUTH TABLES (logic 1/0 = +I/-I)");
    for f in [Bf2::NAND, Bf2::NOR] {
        let cfg = GsheConfig::for_function(f);
        println!(
            "\n{f}: wires = [{} {} {}]",
            cfg.currents[0], cfg.currents[1], cfg.currents[2]
        );
        for row in cfg.current_truth_table() {
            println!("  {row}");
        }
    }
}
