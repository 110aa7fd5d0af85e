//! Sec. V-B as a runnable demo: tune the GSHE switch into its stochastic
//! regime and watch the SAT attack lose its footing.
//!
//! Run with `cargo run --release --example stochastic_defense`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spin_hall_security::campaign::noise_profile;
use spin_hall_security::device::miss_rate;
use spin_hall_security::logic::{GeneratorConfig, NetlistGenerator};
use spin_hall_security::prelude::*;
use std::sync::Arc;

fn main() {
    // Device level: the error rate is a *knob* — clock period vs the
    // Fig. 4 delay distribution. The delays depend on the drive, not on
    // the clock, so one Monte Carlo run serves every period.
    let samples = MonteCarlo::new(MonteCarloConfig {
        params: SwitchParams::table_i(),
        samples: 500,
        seed: 3,
    })
    .run(20e-6);
    println!("error-rate knob (I_S = 20 uA, 500 Monte Carlo samples per point):");
    for t_clk in [1.0e-9, 2.0e-9, 4.0e-9] {
        let eps = miss_rate(&samples, t_clk);
        println!(
            "  clock {:.1} ns -> per-device error rate {:.1}%",
            t_clk * 1e9,
            eps * 100.0
        );
    }

    // Logic level: one camouflaged design attacked through an exact
    // oracle and through 95%- and 90%-accurate ones. A fifth of its gates
    // are cloaked, so the exact baseline breaks well inside its budget on
    // a slow host too.
    let design = Arc::new(
        NetlistGenerator::new(GeneratorConfig::new("w", 12, 6, 150).with_seed(5))
            .expect("valid config")
            .generate(),
    );
    let picks = select_gates(&design, 0.2, 17);
    let mut rng = StdRng::seed_from_u64(17);
    let keyed = camouflage(&design, &picks, CamoScheme::GsheAll16, &mut rng).expect("camouflage");

    println!(
        "\nSAT attack vs oracle accuracy ({} camo cells, {} key bits):",
        picks.len(),
        keyed.key_len()
    );
    for accuracy in [1.0, 0.95, 0.90] {
        let eps = 1.0 - accuracy;
        let outcome = if eps == 0.0 {
            let mut oracle = OracleStack::exact(&design);
            sat_attack(&keyed, &mut oracle, &AttackConfig::with_timeout_secs(20))
        } else {
            let noise = noise_profile(&keyed, NoiseShape::Uniform, eps);
            let mut oracle = OracleStack::noisy(&keyed, noise, 11);
            sat_attack(&keyed, &mut oracle, &AttackConfig::with_timeout_secs(20))
        };
        let verdict = match outcome.status {
            AttackStatus::Success => {
                let v = verify_key(&design, &keyed, outcome.key.as_ref().expect("key"))
                    .expect("verify");
                if v.functionally_equivalent {
                    "correct key extracted".to_string()
                } else {
                    format!(
                        "WRONG key extracted (output error rate {:.1}%)",
                        v.sampled_error_rate * 100.0
                    )
                }
            }
            AttackStatus::Inconsistent => "Inconsistent — attack collapsed".to_string(),
            // Out of budget decides nothing: the attack neither broke the
            // design nor met a contradiction.
            other @ (AttackStatus::Timeout | AttackStatus::ResourceExhausted) => {
                format!("{other:?} — undecided")
            }
        };
        println!(
            "  accuracy {:>4.0}%: {} DIPs, {}",
            accuracy * 100.0,
            outcome.iterations,
            verdict
        );
    }
    println!("\npaper: \"most if not all proposed SAT attacks will fail in such");
    println!("scenarios ... distinguishing incorrect patterns from correct ones is");
    println!("difficult when only given a probabilistic black-box oracle.\"");
}
