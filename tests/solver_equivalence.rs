//! The CDCL-rewrite equivalence pin on a real benchmark: the seeded SAT
//! attack on s38584 (scaled, 5% protection — the `sat_attack_s38584`
//! criterion bench's instance) must recover a functionally correct key.
//! Solver changes may move the search trajectory (query and conflict
//! counts), but never the attack's semantic outcome.
//!
//! CI runs this as the solver smoke test alongside the `gshe-sat`
//! property suite.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spin_hall_security::logic::suites::{benchmark_scaled, spec};
use spin_hall_security::prelude::*;
use std::sync::Arc;

#[test]
fn sat_attack_recovers_a_correct_key_on_s38584() {
    let suite = spec("s38584").expect("s-suite benchmark present");
    let nl = Arc::new(benchmark_scaled(suite, 40, 1));
    let picks = select_gates(&nl, 0.05, 3);
    let mut rng = StdRng::seed_from_u64(3);
    let keyed = camouflage(&nl, &picks, CamoScheme::GsheAll16, &mut rng).expect("camouflage");

    let config = AttackConfig::with_timeout_secs(120);
    let mut oracle = OracleStack::exact(&nl);
    let out = sat_attack(&keyed, &mut oracle, &config);
    assert_eq!(out.status, AttackStatus::Success);
    let key = out.key.as_ref().expect("successful attack returns a key");
    let check = verify_key(&nl, &keyed, key).expect("verification runs");
    assert!(check.functionally_equivalent, "recovered a wrong key");
}
