//! Quick wall-clock harness for the s38584 SAT attack (the
//! `sat_attack_s38584` criterion bench's workload, without criterion's
//! warmup overhead). Used to compare solver revisions during development.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spin_hall_security::prelude::*;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let spec = spin_hall_security::logic::suites::spec("s38584").expect("benchmark");
    let nl = Arc::new(spin_hall_security::logic::suites::benchmark_scaled(
        spec, 40, 1,
    ));
    let picks = select_gates(&nl, 0.05, 3);
    let mut rng = StdRng::seed_from_u64(3);
    let keyed = camouflage(&nl, &picks, CamoScheme::GsheAll16, &mut rng).expect("camouflage");

    let config = AttackConfig::with_timeout_secs(120);
    let reps = 3;
    let mut best = f64::MAX;
    for _ in 0..reps {
        let mut oracle = OracleStack::exact(&nl);
        let t = Instant::now();
        let out = sat_attack(&keyed, &mut oracle, &config);
        let dt = t.elapsed().as_secs_f64();
        assert_eq!(out.status, AttackStatus::Success);
        best = best.min(dt);
        println!(
            "{dt:.3}s  iters={} decisions={} conflicts={} learnts={} deleted={} restarts={}",
            out.iterations,
            out.solver_stats.decisions,
            out.solver_stats.conflicts,
            out.solver_stats.learnts,
            out.solver_stats.deleted,
            out.solver_stats.restarts,
        );
    }
    println!("best {best:.3}s");
}
