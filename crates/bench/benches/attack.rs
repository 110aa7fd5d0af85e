//! Criterion benches for the attack pipeline, including the key-encoding
//! ablation DESIGN.md calls out (the scheme's candidate-set size is the
//! encoding knob: 2 candidates = 1 bit/cell ... 16 candidates = 4
//! bits/cell) and the DIP-loop comparison between the plain SAT attack and
//! Double DIP.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gshe_core::attacks::{double_dip_attack, sat_attack, AttackConfig, AttackStatus, OracleStack};
use gshe_core::camo::{camouflage, select_gates, CamoScheme};
use gshe_core::logic::{GeneratorConfig, Netlist, NetlistGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn workload() -> Netlist {
    NetlistGenerator::new(GeneratorConfig::new("bench", 12, 6, 120).with_seed(11))
        .unwrap()
        .generate()
}

fn bench_attack_by_scheme(c: &mut Criterion) {
    let nl = workload();
    let picks = select_gates(&nl, 0.2, 3);
    let mut group = c.benchmark_group("sat_attack_by_scheme");
    for scheme in [
        CamoScheme::InvBuf,
        CamoScheme::FourFn,
        CamoScheme::GsheAll16,
    ] {
        let mut rng = StdRng::seed_from_u64(3);
        let keyed = camouflage(&nl, &picks, scheme, &mut rng).unwrap();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{scheme}")),
            &keyed,
            |b, keyed| {
                b.iter(|| {
                    let mut oracle = OracleStack::exact(&nl);
                    let out = sat_attack(keyed, &mut oracle, &AttackConfig::with_timeout_secs(60));
                    assert_eq!(out.status, AttackStatus::Success);
                })
            },
        );
    }
    group.finish();
}

fn bench_double_dip_vs_sat(c: &mut Criterion) {
    let nl = workload();
    let picks = select_gates(&nl, 0.15, 5);
    let mut rng = StdRng::seed_from_u64(5);
    let keyed = camouflage(&nl, &picks, CamoScheme::GsheAll16, &mut rng).unwrap();
    let mut group = c.benchmark_group("dip_loop");
    group.bench_function("sat_attack", |b| {
        b.iter(|| {
            let mut oracle = OracleStack::exact(&nl);
            sat_attack(&keyed, &mut oracle, &AttackConfig::with_timeout_secs(60))
        })
    });
    group.bench_function("double_dip", |b| {
        b.iter(|| {
            let mut oracle = OracleStack::exact(&nl);
            double_dip_attack(&keyed, &mut oracle, &AttackConfig::with_timeout_secs(60))
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_attack_by_scheme, bench_double_dip_vs_sat
}
criterion_main!(benches);
