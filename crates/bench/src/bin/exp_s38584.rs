//! Regenerates the **Sec. II in-text experiment**: the s38584 benchmark
//! protected with the cost-limited STT-LUT scheme of Winograd et al. \[25\]
//! "can be decamouflaged in less than 30 seconds on average (over 100 runs
//! of camouflaging and SAT attacks)". The weakness stems from the *limited*
//! use of the primitive to curb PPA overheads.

use gshe_bench::HarnessArgs;
use gshe_core::attacks::{sat_attack, verify_key, AttackConfig, AttackStatus, OracleStack};
use gshe_core::camo::{camouflage, select_gates, CamoScheme};
use gshe_core::logic::suites::{benchmark_scaled, S38584};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = HarnessArgs::parse();
    // Cost-limited protection: [25] replaces only a small share of gates
    // (about 1.5% here) to curb PPA overheads.
    let fraction = 0.015;
    let runs = args.samples.clamp(10, 100) as u64;
    let nl = benchmark_scaled(&S38584, args.scale, args.seed);
    let config = AttackConfig {
        timeout: args.timeout,
        ..Default::default()
    };

    println!(
        "SEC. II EXPERIMENT — s38584 under cost-limited STT-LUT [25] ({}% of {} gates, {} runs)",
        fraction * 100.0,
        nl.gate_count(),
        runs
    );
    let mut total = 0.0;
    let mut max = 0.0f64;
    let mut solved = 0u64;
    for run in 0..runs {
        let picks = select_gates(&nl, fraction, args.seed ^ run);
        let mut rng = StdRng::seed_from_u64(args.seed ^ run);
        let keyed = camouflage(&nl, &picks, CamoScheme::ThresholdSttLut, &mut rng)
            .expect("STT-LUT absorbs standard functions");
        let mut oracle = OracleStack::exact(&nl);
        let out = sat_attack(&keyed, &mut oracle, &config);
        let secs = out.elapsed.as_secs_f64();
        total += secs;
        max = max.max(secs);
        if out.status == AttackStatus::Success {
            let v = verify_key(&nl, &keyed, out.key.as_ref().expect("key on success"))
                .expect("key width");
            assert!(
                v.functionally_equivalent,
                "run {run}: recovered key is wrong"
            );
            solved += 1;
        }
    }
    println!(
        "decamouflaged {solved}/{runs} runs; mean = {:.2} s, max = {:.2} s",
        total / runs as f64,
        max
    );
    println!("paper: < 30 s on average over 100 runs — i.e. the cost-limited");
    println!("application of [25] offers no meaningful SAT resilience.");
}
