//! Regenerates **Fig. 5**: all 16 Boolean functions from one primitive —
//! each function's terminal configuration, verified both behaviorally and
//! through the device-level (sLLGS) evaluation path.

use gshe_bench::HarnessArgs;
use gshe_core::logic::Bf2;
use gshe_core::{GsheConfig, GshePrimitive};

fn main() {
    HarnessArgs::parse(&[]);
    println!("FIG. 5 — ALL 16 BOOLEAN FUNCTIONS FROM THE GSHE PRIMITIVE");
    println!(
        "{:<12} {:<22} {:<28} {:>9} {:>8}",
        "Function", "Input currents", "Read mode", "TT", "device"
    );
    println!("{:-<84}", "");
    for f in Bf2::ALL {
        let cfg = GsheConfig::for_function(f);
        // Behavioral check.
        assert_eq!(cfg.function(), f, "behavioral mismatch for {f}");
        // Device-level check across all four rows.
        let mut prim = GshePrimitive::new(cfg);
        let mut ok = true;
        for row in 0..4u8 {
            let a = row & 1 == 1;
            let b = row & 2 == 2;
            ok &= prim.evaluate_device(a, b) == f.eval(a, b);
        }
        println!(
            "{:<12} [{:<3} {:<3} {:<3}]          {:<28} {:>#06b} {:>8}",
            f.name(),
            cfg.currents[0].to_string(),
            cfg.currents[1].to_string(),
            cfg.currents[2].to_string(),
            format!("{:?}", cfg.read),
            f.truth_table(),
            if ok { "ok" } else { "MISMATCH" }
        );
    }
    println!("{:-<84}", "");
    println!("every row verified through current summation -> sLLGS write ->");
    println!("dipolar R-NM flip -> resistive read-out (see gshe-core::primitive).");
}
