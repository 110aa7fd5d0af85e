//! Cross-crate integration tests: the full defend→attack→verify pipeline.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spin_hall_security::campaign::noise_profile;
use spin_hall_security::logic::bench_format::{parse_bench, write_bench, C17_BENCH};
use spin_hall_security::logic::suites::{benchmark_scaled, spec};
use spin_hall_security::prelude::*;
use spin_hall_security::{protect, protect_delay_aware, GsheConfig};
use std::sync::Arc;

#[test]
fn full_pipeline_on_c17() {
    // Parse a real ISCAS benchmark, protect every gate with the all-16
    // primitive, break it with the SAT attack, and verify the recovered
    // key by exact SAT equivalence.
    let design = parse_bench(C17_BENCH).expect("c17 parses");
    let protected = protect(&design, 1.0, 1).expect("camouflage");
    assert_eq!(protected.keyed.key_len(), 24); // 6 gates x 4 bits

    let mut oracle = OracleStack::exact(&design);
    let outcome = sat_attack(
        &protected.keyed,
        &mut oracle,
        &AttackConfig::with_timeout_secs(30),
    );
    assert_eq!(outcome.status, AttackStatus::Success);
    let key = outcome.key.expect("key on success");
    let verdict = verify_key(&design, &protected.keyed, &key).expect("verify");
    assert!(verdict.functionally_equivalent);
}

#[test]
fn scheme_ordering_on_shared_selection() {
    // The Table IV shape on one workload: solver effort (decisions) is
    // monotone-ish in the cloaked-function count; we check the endpoints.
    let design = Arc::new(benchmark_scaled(spec("c7552").expect("spec"), 40, 3));
    let picks = select_gates(&design, 0.2, 5);

    let mut effort = std::collections::HashMap::new();
    for scheme in [CamoScheme::InvBuf, CamoScheme::GsheAll16] {
        let mut rng = StdRng::seed_from_u64(5);
        let keyed = camouflage(&design, &picks, scheme, &mut rng).expect("camouflage");
        let mut oracle = OracleStack::exact(&design);
        let out = sat_attack(&keyed, &mut oracle, &AttackConfig::with_timeout_secs(60));
        assert_eq!(out.status, AttackStatus::Success, "{scheme}");
        let key = out.key.expect("key");
        assert!(
            verify_key(&design, &keyed, &key)
                .expect("verify")
                .functionally_equivalent,
            "{scheme}"
        );
        effort.insert(format!("{scheme}"), out.solver_stats.decisions);
    }
    let small = effort["[24, c], [35] (2)"];
    let big = effort["Our (16)"];
    assert!(
        big >= small,
        "all-16 must need at least as much solver effort: {big} vs {small}"
    );
}

#[test]
fn bench_round_trip_then_protect_then_attack() {
    // write_bench → parse_bench → protect → attack: formats and flows
    // compose.
    let design = benchmark_scaled(spec("ex1010").expect("spec"), 40, 9);
    let text = write_bench(&design);
    let reparsed = parse_bench(&text).expect("round trip");
    let protected = protect(&reparsed, 0.25, 11).expect("camouflage");
    let mut oracle = OracleStack::exact(&reparsed);
    let out = sat_attack(
        &protected.keyed,
        &mut oracle,
        &AttackConfig::with_timeout_secs(30),
    );
    assert_eq!(out.status, AttackStatus::Success);
    let v = verify_key(&reparsed, &protected.keyed, &out.key.expect("key")).expect("verify");
    assert!(v.functionally_equivalent);
}

#[test]
fn delay_aware_flow_end_to_end() {
    let design = benchmark_scaled(spec("sb18").expect("spec"), 400, 13);
    let model = DelayModel::cmos_45nm();
    let (protected, hybrid) = protect_delay_aware(&design, &model, 13).expect("flow");
    assert!(hybrid.hybrid_critical <= hybrid.baseline_critical + 1e-15);
    // The hybrid keyed design under its correct key equals the original.
    let resolved = protected
        .keyed
        .resolve(&protected.keyed.correct_key())
        .expect("resolve");
    let mut rng = StdRng::seed_from_u64(17);
    assert_eq!(
        spin_hall_security::logic::sim::random_equivalence_check(&design, &resolved, 4, &mut rng)
            .expect("same interface"),
        None
    );
}

#[test]
fn stochastic_oracle_breaks_attack_end_to_end() {
    let design = benchmark_scaled(spec("ex1010").expect("spec"), 80, 21);
    let protected = protect(&design, 0.4, 23).expect("camouflage");
    let mut broken = 0;
    for seed in 0..3 {
        let noise = noise_profile(&protected.keyed, NoiseShape::Uniform, 0.2);
        let mut oracle = OracleStack::noisy(&protected.keyed, noise, seed);
        let out = sat_attack(
            &protected.keyed,
            &mut oracle,
            &AttackConfig::with_timeout_secs(15),
        );
        let failed = match out.status {
            AttackStatus::Success => {
                !verify_key(&design, &protected.keyed, &out.key.expect("key"))
                    .expect("verify")
                    .functionally_equivalent
            }
            _ => true,
        };
        broken += failed as usize;
    }
    assert!(
        broken >= 2,
        "stochastic defense failed in {broken}/3 trials"
    );
}

#[test]
fn rotating_key_oracle_breaks_attack_end_to_end() {
    let design = benchmark_scaled(spec("ex1010").expect("spec"), 80, 31);
    let protected = protect(&design, 0.4, 33).expect("camouflage");
    let mut oracle = OracleStack::rotating(&protected.keyed, 2, 1);
    let out = sat_attack(
        &protected.keyed,
        &mut oracle,
        &AttackConfig::with_timeout_secs(15),
    );
    let broken = match out.status {
        AttackStatus::Success => {
            !verify_key(&design, &protected.keyed, &out.key.expect("key"))
                .expect("verify")
                .functionally_equivalent
        }
        _ => true,
    };
    assert!(broken, "key rotation failed to stop the attack");
}

#[test]
fn primitive_gallery_is_consistent_with_logic_layer() {
    // The device-level primitive and the logic-level Bf2 agree — the glue
    // that lets camouflaged netlists stand in for GSHE hardware.
    for f in Bf2::ALL {
        let mut prim = GshePrimitive::new(GsheConfig::for_function(f));
        for row in 0..4u8 {
            let a = row & 1 == 1;
            let b = row & 2 == 2;
            assert_eq!(prim.evaluate_device(a, b), f.eval(a, b), "{f}");
        }
    }
}
