//! Property tests for the noise-aware evaluation engine.
//!
//! Two contracts keep the engine honest: (1) a zero-rate
//! [`FaultSimulator`] is *bit-identical* to the plain [`Simulator`] on
//! arbitrary generated netlists (so the engine can stand in for every
//! deterministic path), and (2) observed flip frequencies track the
//! configured per-node rates (so the stochastic defense measures what the
//! spec says it measures).

use gshe_logic::{
    Bf2, ErrorProfile, FaultSimulator, GeneratorConfig, NetlistBuilder, NetlistGenerator,
    PatternBlock, Simulator,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All rates = 0 ⇒ the fault engine matches the plain bit-parallel
    /// simulator bit-for-bit, block segments and scalar calls alike, on
    /// generated netlists of arbitrary shape.
    #[test]
    fn zero_rate_engine_is_bit_identical_to_simulator(
        inputs in 2usize..12,
        outputs in 1usize..6,
        gates in 8usize..150,
        netlist_seed in 0u64..10_000,
        block_seed in 0u64..10_000,
    ) {
        let nl = NetlistGenerator::new(
            GeneratorConfig::new("prop", inputs, outputs, gates).with_seed(netlist_seed),
        )
        .unwrap()
        .generate();
        let mut plain = Simulator::new(&nl);
        let mut engine = FaultSimulator::new(&nl, ErrorProfile::zero(nl.len()), block_seed);
        let mut rng = StdRng::seed_from_u64(block_seed);
        for _ in 0..4 {
            let block = PatternBlock::random(nl.inputs().len(), &mut rng);
            let expected = plain.run(&block).unwrap();
            prop_assert_eq!(&engine.run_scalar_stream(&block, 0, 64).unwrap(), &expected);
            // Per-node values agree too — the whole sweep is identical,
            // not just the outputs.
            prop_assert_eq!(engine.node_values(), plain.node_values());
            // Scalar path agrees with the scalar interpreter.
            let k = (block_seed % 64) as usize;
            let pattern = block.pattern(k);
            prop_assert_eq!(engine.run_scalar(&pattern).unwrap(), nl.evaluate(&pattern));
        }
    }
}

/// Seeded statistical check on the *engine*: a noisy node's observed flip
/// frequency at the outputs tracks its configured rate, per node, within
/// binomial tolerance.
#[test]
fn observed_flip_frequency_tracks_per_node_rates() {
    // Two independent buffer paths x→s, y→c with different rates: each
    // output flips exactly when its own node's fault fires.
    let mut b = NetlistBuilder::new("probe");
    let x = b.input("x");
    let y = b.input("y");
    let s = b.gate2("s", Bf2::BUF_A, x, y); // s = x
    let c = b.gate2("c", Bf2::BUF_B, x, y); // c = y
    b.output(s);
    b.output(c);
    let nl = b.finish().unwrap();

    let mut profile = ErrorProfile::zero(nl.len());
    profile.set(s, 0.05);
    profile.set(c, 0.3);
    let mut engine = FaultSimulator::new(&nl, profile, 42);

    let mut clean = Simulator::new(&nl);
    let mut rng = StdRng::seed_from_u64(7);
    let blocks = 1_500u64;
    let mut flips = [0u64; 2];
    for _ in 0..blocks {
        let block = PatternBlock::random(2, &mut rng);
        let noisy = engine.run_scalar_stream(&block, 0, 64).unwrap();
        let reference = clean.run(&block).unwrap();
        for (o, flip_count) in flips.iter_mut().enumerate() {
            *flip_count += (noisy[o] ^ reference[o]).count_ones() as u64;
        }
    }
    let n = (blocks * 64) as f64;
    let freq_s = flips[0] as f64 / n;
    let freq_c = flips[1] as f64 / n;
    assert!(
        (freq_s - 0.05).abs() < 0.005,
        "s: configured 0.05, got {freq_s}"
    );
    assert!(
        (freq_c - 0.3).abs() < 0.01,
        "c: configured 0.30, got {freq_c}"
    );
}

/// One-pattern calls obey the same per-node rates.
#[test]
fn scalar_flip_frequency_tracks_rate() {
    let mut b = NetlistBuilder::new("probe");
    let x = b.input("x");
    let g = b.gate1("g", gshe_logic::Bf1::Buf, x);
    b.output(g);
    let nl = b.finish().unwrap();
    let mut profile = ErrorProfile::zero(nl.len());
    profile.set(g, 0.1);
    let mut engine = FaultSimulator::new(&nl, profile, 5);
    let trials = 20_000;
    let mut flips = 0u32;
    for _ in 0..trials {
        if engine.run_scalar(&[true]).unwrap() != vec![true] {
            flips += 1;
        }
    }
    let freq = f64::from(flips) / f64::from(trials);
    assert!((freq - 0.1).abs() < 0.01, "configured 0.1, got {freq}");
}
