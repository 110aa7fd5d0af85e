//! Property-based tests (proptest) on the core data structures and
//! invariants: Boolean-function algebra, solver vs. brute force, Tseitin
//! encodings, netlist generation, camouflaging key semantics, STA, and
//! the spec front ends.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spin_hall_security::attacks::{sat_equivalent_on, verify_key_scoped, CoiMode};
use spin_hall_security::camo::{camouflage, select_gates_count, CamoScheme};
use spin_hall_security::campaign::search::SEARCH_KEYS;
use spin_hall_security::campaign::{flag_key, CampaignSpec, SearchSpec, SpecValue, SPEC_KEYS};
use spin_hall_security::logic::bench_format::{parse_bench, write_bench};
use spin_hall_security::logic::sim::random_equivalence_check;
use spin_hall_security::logic::{Bf2, GeneratorConfig, NetlistGenerator, Topology};
use spin_hall_security::sat::{CircuitEncoder, Lit, SolveResult, Solver};
use spin_hall_security::timing::{DelayModel, TimingAnalysis};

/// Fragments random spec input is built from: the TOML subset's
/// punctuation, names the setters look up, and numbers at and past the
/// edges of every field's type.
const SPEC_TOKENS: [&str; 27] = [
    "=", "[", "]", ",", "\"", "#", " ", "\n", "-", "_", "all", "sat", "gshe16", "uniform", "local",
    "on", "ex1010", "0", "1", "0.5", "-1", "99999", "1e400", "nan", "inf", "\u{e9}", "x",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// De Morgan over the whole Bf2 algebra: ¬f(a,b) = f'(a,b) where f' is
    /// the complement table, under both input swaps and negations.
    #[test]
    fn bf2_algebra_closure(tt in 0u8..16, a: bool, b: bool) {
        let f = Bf2::from_truth_table(tt);
        prop_assert_eq!(f.complement().eval(a, b), !f.eval(a, b));
        prop_assert_eq!(f.swap_inputs().eval(a, b), f.eval(b, a));
        prop_assert_eq!(f.negate_a().eval(a, b), f.eval(!a, b));
        prop_assert_eq!(f.negate_b().eval(a, b), f.eval(a, !b));
        // Double complement/swap are identities.
        prop_assert_eq!(f.complement().complement(), f);
        prop_assert_eq!(f.swap_inputs().swap_inputs(), f);
    }

    /// The CDCL solver agrees with brute force on random small CNFs.
    #[test]
    fn solver_matches_brute_force(
        n in 2usize..8,
        clauses in prop::collection::vec(
            prop::collection::vec((1i64..8, any::<bool>()), 1..4),
            1..20,
        ),
    ) {
        let clamped: Vec<Vec<i64>> = clauses
            .iter()
            .map(|c| {
                c.iter()
                    .map(|&(v, neg)| {
                        let v = ((v - 1) % n as i64) + 1;
                        if neg { -v } else { v }
                    })
                    .collect()
            })
            .collect();
        // Brute force.
        let mut brute_sat = false;
        'outer: for m in 0..(1u32 << n) {
            for c in &clamped {
                let ok = c.iter().any(|&l| {
                    let val = (m >> (l.unsigned_abs() - 1)) & 1 == 1;
                    if l > 0 { val } else { !val }
                });
                if !ok {
                    continue 'outer;
                }
            }
            brute_sat = true;
            break;
        }
        // CDCL.
        let mut s = Solver::new();
        for _ in 0..n {
            s.new_var();
        }
        for c in &clamped {
            let lits: Vec<Lit> = c.iter().map(|&l| Lit::from_dimacs(l)).collect();
            s.add_clause(&lits);
        }
        let result = s.solve();
        if brute_sat {
            prop_assert_eq!(result, SolveResult::Sat);
            for c in &clamped {
                prop_assert!(c.iter().any(|&l| s.model_lit(Lit::from_dimacs(l))));
            }
        } else {
            prop_assert_eq!(result, SolveResult::Unsat);
        }
    }

    /// Tseitin-encoded gates match their truth tables under forced inputs.
    #[test]
    fn tseitin_gate_is_faithful(tt in 0u8..16, va: bool, vb: bool) {
        let mut s = Solver::new();
        let a = Lit::pos(s.new_var());
        let b = Lit::pos(s.new_var());
        let z = CircuitEncoder::new(&mut s).gate_tt(tt, a, b);
        let asm = [if va { a } else { !a }, if vb { b } else { !b }];
        prop_assert_eq!(s.solve_with(&asm), SolveResult::Sat);
        let expect = (tt >> ((va as u8) | ((vb as u8) << 1))) & 1 == 1;
        prop_assert_eq!(s.model_lit(z), expect);
    }

    /// Generated netlists always respect their configured shape and pass
    /// structural validation.
    #[test]
    fn generator_invariants(
        inputs in 2usize..20,
        outputs in 1usize..10,
        extra_gates in 0usize..150,
        seed in 0u64..1000,
    ) {
        let gates = outputs + extra_gates.max(1);
        let cfg = GeneratorConfig::new("prop", inputs, outputs, gates).with_seed(seed);
        let nl = NetlistGenerator::new(cfg).unwrap().generate();
        prop_assert!(nl.check().is_ok());
        prop_assert_eq!(nl.inputs().len(), inputs);
        prop_assert_eq!(nl.outputs().len(), outputs);
        prop_assert_eq!(nl.gate_count(), gates);
    }

    /// Locality-biased generation is still a DAG in topological order:
    /// every fanin edge points strictly backwards (so tile-local wiring
    /// and the rare cross-tile escapes can never close a cycle), and the
    /// configured shape survives the tiled construction.
    #[test]
    fn local_topology_generation_is_acyclic_and_ordered(
        inputs in 2usize..20,
        outputs in 1usize..10,
        extra_gates in 0usize..2000,
        seed in 0u64..1000,
    ) {
        let gates = outputs + extra_gates.max(1);
        let cfg = GeneratorConfig::new("loc", inputs, outputs, gates)
            .with_seed(seed)
            .with_topology(Topology::Local);
        let nl = NetlistGenerator::new(cfg).unwrap().generate();
        prop_assert!(nl.check().is_ok());
        prop_assert_eq!(nl.inputs().len(), inputs);
        prop_assert_eq!(nl.outputs().len(), outputs);
        prop_assert_eq!(nl.gate_count(), gates);
        for (i, node) in nl.nodes().enumerate() {
            for f in node.kind.fanins() {
                prop_assert!(
                    f.index() < i,
                    "fanin {} of node {} breaks topological order",
                    f.index(),
                    i
                );
            }
        }
    }

    /// `.bench` round trips preserve function on random netlists.
    #[test]
    fn bench_format_round_trip(seed in 0u64..500) {
        let nl = NetlistGenerator::new(
            GeneratorConfig::new("rt", 6, 3, 40).with_seed(seed),
        )
        .unwrap()
        .generate();
        let back = parse_bench(&write_bench(&nl)).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        prop_assert_eq!(random_equivalence_check(&nl, &back, 2, &mut rng).unwrap(), None);
    }

    /// For every scheme: the correct key restores the original function on
    /// random netlists and random cell subsets (sampled functionally).
    #[test]
    fn camouflage_correct_key_invariant(
        seed in 0u64..200,
        scheme_idx in 0usize..7,
        cells in 1usize..12,
    ) {
        let scheme = CamoScheme::ALL[scheme_idx];
        let nl = NetlistGenerator::new(
            GeneratorConfig::new("ck", 8, 4, 60).with_seed(seed),
        )
        .unwrap()
        .generate();
        let picks = select_gates_count(&nl, cells, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let keyed = camouflage(&nl, &picks, scheme, &mut rng).unwrap();
        let resolved = keyed.resolve(&keyed.correct_key()).unwrap();
        let mut rng2 = StdRng::seed_from_u64(seed ^ 1);
        prop_assert_eq!(
            random_equivalence_check(&nl, &resolved, 2, &mut rng2).unwrap(),
            None
        );
    }

    /// The structurally hashed equivalence proof agrees with exhaustive
    /// simulation over all 256 input patterns, for every scheme, the
    /// correct, a one-bit-flipped or a random key, and any non-empty
    /// output subset. Inv-buf, four-fn and look-alike insert cells, so the
    /// two sides differ structurally and the solver must decide.
    ///
    /// Key verification, which substitutes the key's functions into the
    /// keyed netlist instead of resolving it, must agree with the same
    /// simulation on all four outputs under both COI modes. Random keys
    /// hit invalid codes (look-alike has 3 candidates on 2 key bits), so
    /// the decode rule verification shares with resolution is covered.
    #[test]
    fn sat_equivalent_on_matches_exhaustive_simulation(
        seed in 0u64..200,
        scheme_idx in 0usize..7,
        cells in 1usize..12,
        key_kind in 0u8..3,
        subset in 1u32..16,
    ) {
        let scheme = CamoScheme::ALL[scheme_idx];
        let nl = NetlistGenerator::new(
            GeneratorConfig::new("eq", 8, 4, 60).with_seed(seed),
        )
        .unwrap()
        .generate();
        let picks = select_gates_count(&nl, cells, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let keyed = camouflage(&nl, &picks, scheme, &mut rng).unwrap();
        let mut key = keyed.correct_key();
        let flip = seed as usize % key.len();
        match key_kind {
            0 => {}
            1 => key[flip] ^= true,
            _ => key.iter_mut().for_each(|b| *b = rng.gen()),
        }
        let resolved = keyed.resolve(&key).unwrap();
        // Four outputs, so every mask in 1..16 picks a non-empty subset.
        prop_assert_eq!(nl.outputs().len(), 4);
        let outputs: Vec<usize> = (0..4).filter(|k| (subset >> k) & 1 == 1).collect();
        let simulated = (0..256u32).all(|p| {
            let x: Vec<bool> = (0..8).map(|i| (p >> i) & 1 == 1).collect();
            let (ya, yb) = (nl.evaluate(&x), resolved.evaluate(&x));
            outputs.iter().all(|&k| ya[k] == yb[k])
        });
        prop_assert_eq!(sat_equivalent_on(&nl, &resolved, &outputs), simulated);

        let all_equal = (0..256u32).all(|p| {
            let x: Vec<bool> = (0..8).map(|i| (p >> i) & 1 == 1).collect();
            nl.evaluate(&x) == resolved.evaluate(&x)
        });
        for mode in [CoiMode::On, CoiMode::Off] {
            let verdict = verify_key_scoped(&nl, &keyed, &key, mode).unwrap();
            prop_assert_eq!(verdict.functionally_equivalent, all_equal, "{:?}", mode);
        }
    }

    /// Malformed spec input is an error, never a panic: random
    /// `key = value` lines through both `parse_toml`s, and the same keys
    /// and values as `--flag value` pairs through both setters.
    #[test]
    fn spec_front_ends_never_panic(
        lines in prop::collection::vec(
            (0usize..64, prop::collection::vec(0usize..SPEC_TOKENS.len(), 0..8)),
            1..6,
        ),
    ) {
        let keys: Vec<&str> = SPEC_KEYS.iter().chain(&SEARCH_KEYS).copied().chain(["bogus"]).collect();
        let mut text = String::new();
        for (key, tokens) in &lines {
            let key = keys[key % keys.len()];
            let value: String = tokens.iter().map(|&t| SPEC_TOKENS[t]).collect();
            let line = format!("{key} = {value}");
            let _ = CampaignSpec::parse_toml(&line);
            let _ = SearchSpec::parse_toml(&line);
            text.push_str(&line);
            text.push('\n');
            let flag = format!("--{}", key.replace('_', "-"));
            for flag in [flag.as_str(), value.as_str()] {
                if let Some(key) = flag_key(flag) {
                    let _ = CampaignSpec::default().set(&key, SpecValue::Flag(&value));
                    let _ = SearchSpec::default().set(&key, SpecValue::Flag(&value));
                }
            }
        }
        let _ = CampaignSpec::parse_toml(&text);
        let _ = SearchSpec::parse_toml(&text);
    }

    /// STA invariants: arrival monotone along edges, slack non-negative off
    /// dead logic, critical equals max output arrival.
    #[test]
    fn sta_invariants(seed in 0u64..300, bias in 0.0f64..0.5) {
        let nl = NetlistGenerator::new(
            GeneratorConfig::new("sta", 8, 4, 80).with_seed(seed).with_chain_bias(bias),
        )
        .unwrap()
        .generate();
        let model = DelayModel::cmos_45nm();
        let delays = model.node_delays(&nl);
        let sta = TimingAnalysis::analyze(&nl, &delays);
        for (i, node) in nl.nodes().enumerate() {
            for f in node.kind.fanins() {
                prop_assert!(sta.arrivals()[i] >= sta.arrivals()[f.index()]);
            }
            if sta.required()[i].is_finite() {
                prop_assert!(sta.slack(i) >= -1e-12, "negative slack at {i}");
            }
        }
        let max_out = nl
            .outputs()
            .iter()
            .map(|o| sta.arrivals()[o.index()])
            .fold(0.0f64, f64::max);
        prop_assert!((sta.critical_delay() - max_out).abs() < 1e-15);
    }
}
