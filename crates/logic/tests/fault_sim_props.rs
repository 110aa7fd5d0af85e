//! Property tests for the noisy [`Simulator`].
//!
//! Two contracts keep the noise honest: (1) a simulator with a zero-rate
//! profile is *bit-identical* to the exact one on arbitrary generated
//! netlists (the flip loop computes what the exact sweep computes), and
//! (2) observed flip frequencies track the configured per-node rates (so
//! the stochastic defense measures what the spec says it measures).

use gshe_logic::{
    Bf2, ErrorProfile, GeneratorConfig, NetlistBuilder, NetlistGenerator, PatternBlock, Simulator,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All rates = 0 ⇒ the noisy simulator matches the exact one
    /// bit-for-bit, blocks and scalar calls alike, on generated netlists of
    /// arbitrary shape.
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
        let mut engine =
            Simulator::new(&nl).with_noise(ErrorProfile::zero(nl.len()), block_seed);
        let mut rng = StdRng::seed_from_u64(block_seed);
        for _ in 0..4 {
            let block = PatternBlock::random(nl.inputs().len(), &mut rng);
            let expected = plain.run(&block).unwrap();
            prop_assert_eq!(&engine.run(&block).unwrap(), &expected);
            // Per-node values agree too — the whole sweep is identical,
            // not just the outputs.
            prop_assert_eq!(engine.node_values(), plain.node_values());
            // The scalar path agrees with lane k of the exact block pass.
            let k = (block_seed % 64) as usize;
            let lane_k: Vec<bool> = expected.iter().map(|lane| (lane >> k) & 1 == 1).collect();
            prop_assert_eq!(engine.run_scalar(&block.pattern(k)).unwrap(), lane_k);
        }
    }
}

/// Seeded statistical check on the noisy simulator: a noisy node's observed flip
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
    let mut engine = Simulator::new(&nl).with_noise(profile, 42);

    let mut clean = Simulator::new(&nl);
    let mut rng = StdRng::seed_from_u64(7);
    let blocks = 1_500u64;
    let mut flips = [0u64; 2];
    for _ in 0..blocks {
        let block = PatternBlock::random(2, &mut rng);
        let noisy = engine.run(&block).unwrap();
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
    let mut engine = Simulator::new(&nl).with_noise(profile, 5);
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
