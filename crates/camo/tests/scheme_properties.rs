//! Property-style integration tests for the camouflaging transforms: key
//! semantics, wrong-key corruption rates, and cross-scheme fairness.

use gshe_camo::{camouflage, camouflage_with_report, select_gates, CamoScheme};
use gshe_logic::sim::random_equivalence_check;
use gshe_logic::{GeneratorConfig, Netlist, NetlistGenerator, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn workload(seed: u64) -> Netlist {
    NetlistGenerator::new(GeneratorConfig::new("w", 10, 5, 100).with_seed(seed))
        .unwrap()
        .generate()
}

#[test]
fn same_selection_yields_same_key_length_ratio() {
    // The paper's fairness protocol: with the same picks, key length is
    // exactly (#picks × bits-per-cell) for every scheme.
    let nl = workload(1);
    let picks = select_gates(&nl, 0.3, 2);
    for scheme in CamoScheme::ALL {
        let mut rng = StdRng::seed_from_u64(3);
        let keyed = camouflage(&nl, &picks, scheme, &mut rng).unwrap();
        assert_eq!(
            keyed.key_len(),
            picks.len() * scheme.key_bits_per_gate(),
            "{scheme}"
        );
        assert_eq!(keyed.camo_gates().len(), picks.len(), "{scheme}");
    }
}

#[test]
fn random_wrong_keys_usually_corrupt_the_function() {
    // Cloaking is pointless if random keys accidentally work: measure the
    // fraction of random keys that leave the function intact (should be
    // small for the all-16 scheme at a healthy protection level).
    let nl = workload(5);
    let picks = select_gates(&nl, 0.3, 7);
    let mut rng = StdRng::seed_from_u64(7);
    let keyed = camouflage(&nl, &picks, CamoScheme::GsheAll16, &mut rng).unwrap();
    let mut intact = 0;
    let trials = 40;
    for t in 0..trials {
        let mut krng = StdRng::seed_from_u64(t);
        let key: Vec<bool> = (0..keyed.key_len()).map(|_| krng.gen_bool(0.5)).collect();
        let resolved = keyed.resolve(&key).unwrap();
        let mut erng = StdRng::seed_from_u64(t ^ 99);
        if random_equivalence_check(&nl, &resolved, 4, &mut erng)
            .unwrap()
            .is_none()
        {
            intact += 1;
        }
    }
    assert!(
        intact <= 2,
        "{intact}/{trials} random keys left the function intact"
    );
}

#[test]
fn single_bit_flips_are_detectable() {
    // Flipping any single key bit of the correct key must change the
    // function of some cell (candidate sets have no duplicate functions),
    // though the netlist-level effect may be masked.
    let nl = workload(9);
    let picks = select_gates(&nl, 0.2, 11);
    let mut rng = StdRng::seed_from_u64(11);
    let keyed = camouflage(&nl, &picks, CamoScheme::GsheAll16, &mut rng).unwrap();
    let correct = keyed.correct_key();
    for bit in 0..keyed.key_len() {
        let mut key = correct.clone();
        key[bit] = !key[bit];
        assert!(!keyed.key_is_structurally_correct(&key), "bit {bit}");
        // All-16: every code is valid, so resolution always succeeds.
        let resolved = keyed.resolve(&key).unwrap();
        assert_eq!(resolved.gate_count(), keyed.netlist().gate_count());
    }
}

#[test]
fn report_extra_gates_bounded_by_rules() {
    // Complement rule adds ≤1 gate per cell; decomposition ≤4.
    let nl = workload(13);
    let picks = select_gates(&nl, 0.5, 13);
    for scheme in CamoScheme::ALL {
        let mut rng = StdRng::seed_from_u64(17);
        let (_, report) = camouflage_with_report(&nl, &picks, scheme, &mut rng).unwrap();
        assert!(
            report.extra_gates <= report.complemented + 4 * report.decomposed + report.protected(),
            "{scheme}: {report:?}"
        );
    }
}

#[test]
fn camo_netlists_remain_structurally_valid() {
    for (seed, scheme) in [
        (1u64, CamoScheme::LookAlike),
        (2, CamoScheme::FourFn),
        (3, CamoScheme::InvBuf),
        (4, CamoScheme::DwmPolymorphic),
    ] {
        let nl = workload(seed);
        let picks = select_gates(&nl, 0.4, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let keyed = camouflage(&nl, &picks, scheme, &mut rng).unwrap();
        keyed.netlist().check().unwrap();
        // Interface preserved.
        assert_eq!(keyed.netlist().inputs().len(), nl.inputs().len());
        assert_eq!(keyed.netlist().outputs().len(), nl.outputs().len());
    }
}

#[test]
fn reached_outputs_match_fanout_reachability() {
    // `KeyedNetlist::new` finds the outputs the cloaked cells reach with
    // one ascending taint sweep; check it against a depth-first walk
    // along fanout edges from the cloaked nodes. Inv-buf, four-fn and
    // look-alike insert cells, so their keyed netlists are renumbered.
    // These few picks reach anywhere from none to all of the outputs.
    for scheme in CamoScheme::ALL {
        for (seed, level) in (20u64..40).flat_map(|s| [(s, 0.02), (s, 0.03), (s, 0.05)]) {
            let nl = workload(seed);
            let picks = select_gates(&nl, level, seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let keyed = camouflage(&nl, &picks, scheme, &mut rng).unwrap();
            let knl = keyed.netlist();
            let fanouts = knl.fanout_csr();
            let mut reached = vec![false; knl.len()];
            let mut stack: Vec<NodeId> = keyed.camo_gates().iter().map(|g| g.node).collect();
            while let Some(id) = stack.pop() {
                if !std::mem::replace(&mut reached[id.index()], true) {
                    stack.extend_from_slice(fanouts.fanouts(id));
                }
            }
            let expected: Vec<usize> = knl
                .outputs()
                .iter()
                .enumerate()
                .filter(|(_, o)| reached[o.index()])
                .map(|(k, _)| k)
                .collect();
            assert_eq!(keyed.reached_outputs(), &expected[..], "{scheme}/{level}");
        }
    }
}
