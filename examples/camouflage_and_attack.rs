//! The paper's core experiment in miniature: camouflage a benchmark with
//! every scheme of Table IV, attack each with the SAT attack, and watch the
//! ordering — more cloaked functions, more attack effort.
//!
//! Run with `cargo run --release --example camouflage_and_attack`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spin_hall_security::logic::suites::{benchmark_scaled, spec};
use spin_hall_security::prelude::*;
use std::sync::Arc;

fn main() {
    // A c7552-scale workload (scaled 1/20, interface proportional).
    let design = Arc::new(benchmark_scaled(
        spec("c7552").expect("known benchmark"),
        20,
        7,
    ));
    println!("workload: {design}");

    // The memorized selection protocol: the same 20% of gates for every
    // scheme.
    let picks = select_gates(&design, 0.20, 99);
    println!("protecting {} gates with each scheme\n", picks.len());
    println!(
        "{:<22} {:>6} {:>9} {:>8} {:>8}  result",
        "scheme", "#fn", "key bits", "DIPs", "time"
    );

    for scheme in CamoScheme::ALL {
        let mut rng = StdRng::seed_from_u64(99);
        let keyed = camouflage(&design, &picks, scheme, &mut rng).expect("camouflage");
        let mut oracle = OracleStack::exact(&design);
        let outcome = sat_attack(&keyed, &mut oracle, &AttackConfig::with_timeout_secs(30));
        let verdict = match outcome.status {
            AttackStatus::Success => {
                let key = outcome.key.as_ref().expect("key on success");
                let v = verify_key(&design, &keyed, key).expect("verify");
                if v.functionally_equivalent {
                    "broken (functionally correct key)"
                } else {
                    "wrong key returned"
                }
            }
            AttackStatus::Timeout => "t-o (survived the budget)",
            AttackStatus::Inconsistent => "inconsistent",
            AttackStatus::ResourceExhausted => "solver failure",
        };
        println!(
            "{:<22} {:>6} {:>9} {:>8} {:>7.2}s  {verdict}",
            scheme.to_string(),
            scheme.cloaked_functions(),
            keyed.key_len(),
            outcome.iterations,
            outcome.elapsed.as_secs_f64(),
        );
    }
    println!("\nexpected: attack effort grows with the cloaked-function count;");
    println!("the all-16 GSHE primitive is the most expensive to break.");
}
