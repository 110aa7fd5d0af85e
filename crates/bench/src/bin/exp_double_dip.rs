//! Regenerates the **Sec. V-A Double DIP comparison** \[12\]: the same
//! Table IV setup attacked with Double DIP takes longer across benchmarks
//! (paper: aes_core at 10% with our primitive, ~7 h with \[8\] vs ~15 h with
//! \[12\]), while needing no more oracle queries per eliminated key.

use gshe_bench::{runtime_cell, HarnessArgs};
use gshe_core::attacks::{double_dip_attack, sat_attack, AttackConfig, AttackStatus, OracleStack};
use gshe_core::camo::{camouflage, select_gates, CamoScheme};
use gshe_core::logic::suites::{benchmark_scaled, spec};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = HarnessArgs::parse();
    let config = AttackConfig {
        timeout: args.timeout,
        ..Default::default()
    };
    println!(
        "SEC. V-A — DOUBLE DIP [12] vs SAT ATTACK [8] (10% protection, ours; scale 1/{})",
        args.scale
    );
    println!(
        "{:<14} {:>12} {:>12} {:>10} {:>10}",
        "Benchmark", "[8] time", "[12] time", "[8] DIPs", "[12] DIPs"
    );
    println!("{:-<64}", "");
    for name in ["c7552", "ex1010", "b14", "aes_core"] {
        if !args.only.is_empty() && name != args.only {
            continue;
        }
        let nl = benchmark_scaled(spec(name).expect("spec"), args.scale, args.seed);
        let picks = select_gates(&nl, 0.10, args.seed ^ 100);
        let mut rng = StdRng::seed_from_u64(args.seed);
        let keyed = camouflage(&nl, &picks, CamoScheme::GsheAll16, &mut rng).expect("all-16");

        let mut o1 = OracleStack::exact(&nl);
        let sat = sat_attack(&keyed, &mut o1, &config);
        let mut o2 = OracleStack::exact(&nl);
        let dd = double_dip_attack(&keyed, &mut o2, &config);
        let cell = |s: &gshe_core::attacks::AttackOutcome| {
            let status = match s.status {
                AttackStatus::Success => "success",
                AttackStatus::Timeout => "timeout",
                _ => "fail",
            };
            runtime_cell(status, s.elapsed.as_secs_f64())
        };
        println!(
            "{:<14} {:>12} {:>12} {:>10} {:>10}",
            name,
            cell(&sat),
            cell(&dd),
            sat.iterations,
            dd.iterations
        );
    }
    println!("{:-<64}", "");
    println!("paper shape: [12] runtimes are higher on average across benchmarks;");
    println!("each Double DIP rules out at least two incorrect keys, so its");
    println!("iteration count does not exceed the plain attack's.");
}
