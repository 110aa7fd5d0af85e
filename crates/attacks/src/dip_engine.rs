//! The unified **DIP-refinement engine** behind all three oracle-guided
//! attacks.
//!
//! [`sat_attack`](crate::sat_attack::sat_attack),
//! [`double_dip_attack`](crate::double_dip::double_dip_attack), and
//! [`appsat_attack`](crate::appsat::appsat_attack) are one algorithm with
//! three policies: encode key-copy miters, repeatedly solve for a
//! discriminating input pattern (DIP), resolve it through the oracle, and
//! constrain every key copy to reproduce the observation until the miter
//! goes UNSAT. This module hosts that loop exactly once; the policy decides
//! the miter shape (two copies vs. Double DIP's four-copy double miter with
//! a single-DIP mop-up phase) and the per-round extras (AppSAT's random
//! reinforcement and approximate early exit).
//!
//! ## One encoding at every design size
//!
//! Under the default [`CoiMode::On`](crate::coi::CoiMode) the loop runs on
//! the cloaked cells' cone of influence whenever they reach a strict
//! subset of the outputs ([`CoiProjection`]), whatever the design's size.
//! Every difference literal — the phase miters, Double DIP's double
//! miter and its key-distinctness ORs — is only ever assumed true, so it
//! is encoded Plaisted–Greenbaum single-sided ([`Polarity::Pos`]); the
//! circuit copies stay two-sided because their outputs are pinned to
//! oracle observations of either value. Solver simplification is a
//! separate switch ([`AttackConfig::simplify`], off by default) that
//! changes solver work, not the clauses encoded.
//!
//! ## One DIP per round
//!
//! Each SAT answer is one round of the classic oracle-guided loop: read
//! the discriminating input pattern from the model, answer it through one
//! single-pattern [`Oracle::query_block`] call, then encode every key
//! copy's outputs on that fixed input ([`encode_keyed_fixed`]) and pin
//! them to the observation ([`assert_outputs_equal`]). The pin rules out
//! every key that disagrees with the observation before the next solve,
//! so the same pattern can never be a DIP twice.

use crate::coi::{CoiMode, CoiOracle, CoiProjection};
use crate::encode::{
    assert_outputs_equal, assert_valid_key_codes, encode_keyed, encode_keyed_fixed,
};
use crate::oracle::Oracle;
use crate::sat_attack::{AttackConfig, AttackOutcome, AttackStatus};
use gshe_camo::KeyedNetlist;
use gshe_logic::{PatternBlock, Simulator};
use gshe_sat::solver::Budget;
use gshe_sat::{CircuitEncoder, Lit, Polarity, SolveResult, Solver};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// How the shared refinement loop specializes into a concrete attack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RefinePolicy {
    /// The plain SAT attack (Subramanyan et al.): one miter over two key
    /// copies, every DIP rules out at least one wrong key class.
    Single,
    /// Double DIP (Shen & Zhou): a double miter over four key copies with
    /// pairwise key distinctness rules out at least two wrong keys per
    /// query, then a single-DIP mop-up phase finishes the key classes the
    /// double miter can no longer distinguish.
    DoubleDip,
    /// AppSAT (Shamsi et al.): the single-DIP loop interleaved with
    /// random-query error estimation, early-exiting with a
    /// probably-approximately-correct key.
    AppSat {
        /// Run a reinforcement round every this many DIPs (0 = never).
        reinforce_every: u64,
        /// Random patterns per reinforcement round.
        samples_per_round: usize,
        /// Exit early once the sampled error of the candidate key drops to
        /// or below this threshold.
        error_threshold: f64,
        /// RNG seed for the random reinforcement queries.
        seed: u64,
    },
}

/// Conflict budget per solver call: the attack checks the wall clock
/// between slices of this many conflicts.
const CONFLICTS_PER_SLICE: u64 = 20_000;

/// Solves with the wall clock checked between slices of
/// [`CONFLICTS_PER_SLICE`] conflicts. Returns `None` once the deadline
/// passes, and [`SolveResult::Unknown`] without solving when the formula
/// has more variables than [`AttackConfig::max_vars`].
pub(crate) fn solve_sliced(
    solver: &mut Solver,
    assumptions: &[Lit],
    deadline: Instant,
    config: &AttackConfig,
) -> Option<SolveResult> {
    if config.max_vars.is_some_and(|max| solver.num_vars() > max) {
        return Some(SolveResult::Unknown);
    }
    let _span = gshe_obs::span("attack.solve");
    let before = solver.stats();
    solver.set_budget(Budget {
        max_conflicts: Some(CONFLICTS_PER_SLICE),
    });
    loop {
        match solver.solve_with(assumptions) {
            SolveResult::Unknown => {
                if Instant::now() >= deadline {
                    return None;
                }
            }
            done => {
                // Per-solve effort distributions (log2-bucket histograms,
                // in `campaign --metrics-out`); pure reads, so enabling
                // instrumentation cannot perturb the search.
                if gshe_obs::enabled() {
                    let after = solver.stats();
                    gshe_obs::record("sat.solve.conflicts", after.conflicts - before.conflicts);
                    gshe_obs::record("sat.solve.decisions", after.decisions - before.decisions);
                    gshe_obs::record(
                        "sat.solve.propagations",
                        after.propagations - before.propagations,
                    );
                }
                return Some(done);
            }
        }
    }
}

/// Mutable AppSAT bookkeeping across rounds.
struct AppSatState {
    rng: StdRng,
    reinforce_every: u64,
    samples_per_round: usize,
    error_threshold: f64,
}

/// A terminal decision reached inside the loop: status plus extracted key.
type Terminal = (AttackStatus, Option<Vec<bool>>);

/// Runs the DIP-refinement loop for `policy` against `keyed`, resolving
/// discriminating inputs through `oracle`, under `config`'s budgets. This
/// is the single implementation all three public attack entry points
/// delegate to.
pub fn refine(
    keyed: &KeyedNetlist,
    oracle: &mut dyn Oracle,
    config: &AttackConfig,
    policy: &RefinePolicy,
) -> AttackOutcome {
    // Cone-of-influence reduction: when the cloaked cells reach only a
    // strict subset of the outputs (and the config does not opt out), run
    // the identical loop on the compact cone instance against a projected
    // oracle, then expand the recovered cone key to the full design.
    let projection = {
        let _span = gshe_obs::span("attack.coi_build");
        CoiProjection::build(keyed, config.coi)
    };
    if let Some(proj) = projection {
        gshe_obs::count("attack.coi_reductions", 1);
        gshe_obs::record("attack.coi_cone_nodes", proj.cone_len() as u64);
        let mut cone_oracle = CoiOracle::new(oracle, &proj);
        let inner = config.with_coi_mode(CoiMode::Off);
        let mut out = refine(proj.keyed(), &mut cone_oracle, &inner, policy);
        if let Some(cone_key) = out.key.take() {
            out.key = Some(proj.expand_key(&cone_key));
        }
        return out;
    }
    let start = Instant::now();
    let deadline = start + config.timeout;
    let mut appsat = match *policy {
        RefinePolicy::AppSat {
            reinforce_every,
            samples_per_round,
            error_threshold,
            seed,
        } => Some(AppSatState {
            rng: StdRng::seed_from_u64(seed),
            reinforce_every,
            samples_per_round,
            error_threshold,
        }),
        _ => None,
    };
    let mut solver = Solver::new();
    solver.set_simplify(config.simplify);

    // Key copies first (their variable indices anchor the search), then the
    // circuit copies sharing one set of primary inputs, then the miter(s).
    let encode_span = gshe_obs::span("attack.encode");
    let n_copies = if *policy == RefinePolicy::DoubleDip {
        4
    } else {
        2
    };
    let keys: Vec<Vec<Lit>> = (0..n_copies)
        .map(|_| {
            (0..keyed.key_len())
                .map(|_| Lit::pos(solver.new_var()))
                .collect()
        })
        .collect();
    let copies: Vec<_> = {
        let mut enc = CircuitEncoder::new(&mut solver);
        for k in &keys {
            assert_valid_key_codes(&mut enc, keyed, k);
        }
        let copies: Vec<_> = keys
            .iter()
            .map(|k| encode_keyed(&mut enc, keyed, k))
            .collect();
        for c in &copies[1..] {
            for (a, b) in copies[0].inputs.iter().zip(&c.inputs) {
                enc.equal(*a, *b);
            }
        }
        copies
    };
    // The miter structure is encoded Plaisted–Greenbaum single-sided: the
    // difference literals are only ever *assumed true*, never fixed false
    // or read from a model, so the `d → outputs differ` direction alone is
    // sound. The circuit copies themselves stay two-sided: their output
    // literals are later pinned to oracle observations in either
    // polarity.
    let pol = Polarity::Pos;
    let (phases, input_lits) = {
        let mut enc = CircuitEncoder::new(&mut solver);
        let d01 = enc.miter_pol(&copies[0].outputs, &copies[1].outputs, pol);
        let phases: Vec<Vec<Lit>> = if n_copies == 4 {
            let d23 = enc.miter_pol(&copies[2].outputs, &copies[3].outputs, pol);
            // Pairwise key distinctness across the pairs: K1≠K3, K1≠K4,
            // K2≠K3, K2≠K4 — guarantees ≥ 2 distinct wrong keys eliminated
            // per double DIP. Gated on an activation literal so the
            // single-DIP mop-up and the final extraction are not
            // over-constrained. Under `act`, only the `ne → some diff` and
            // `diff → keys differ` directions are needed, so the xor/or
            // definitions are single-sided too.
            let act = enc.fresh();
            if keyed.key_len() > 0 {
                for (i, j) in [(0usize, 2usize), (0, 3), (1, 2), (1, 3)] {
                    let diffs: Vec<Lit> = keys[i]
                        .iter()
                        .zip(&keys[j])
                        .map(|(&a, &b)| enc.gate_tt_pol(0b0110, a, b, pol))
                        .collect();
                    let ne = enc.or_many_pol(&diffs, pol);
                    enc.clause(&[!act, ne]);
                }
            }
            let both = enc.and_many_pol(&[d01, d23], pol);
            vec![vec![both, act], vec![d01]]
        } else {
            vec![vec![d01]]
        };
        (phases, copies[0].inputs.clone())
    };
    drop(encode_span);
    // Freezing contract (see `Solver::freeze`): preprocessing may run on
    // the first solve, so every literal this loop later reads from a model
    // (key bits, primary inputs) or reuses across solves (the phase
    // assumption literals) must be protected from variable elimination.
    // Variables created after preprocessing (fixed-copy encodings, AppSAT
    // reinforcement) are automatically safe.
    for k in &keys {
        for &l in k {
            solver.freeze(l.var());
        }
    }
    for &l in &input_lits {
        solver.freeze(l.var());
    }
    for phase in &phases {
        for &l in phase {
            solver.freeze(l.var());
        }
    }

    let mut iterations = 0u64;
    let queries_before = oracle.queries();

    let finish = |status: AttackStatus,
                  key: Option<Vec<bool>>,
                  iterations: u64,
                  solver: &Solver,
                  oracle: &dyn Oracle| {
        let stats = solver.stats();
        gshe_obs::count("sat.decisions", stats.decisions);
        gshe_obs::count("sat.propagations", stats.propagations);
        gshe_obs::count("sat.conflicts", stats.conflicts);
        gshe_obs::count("sat.learnts", stats.learnts);
        gshe_obs::count("sat.restarts", stats.restarts);
        gshe_obs::count("sat.db_gc", stats.db_gcs);
        if stats.db_gcs > 0 {
            gshe_obs::record("attack.solver_gc_ns", stats.gc_ns);
        }
        gshe_obs::count("sat.elim_vars", stats.elim_vars);
        gshe_obs::count("sat.subsumed", stats.subsumed);
        gshe_obs::count("sat.strengthened", stats.strengthened);
        if stats.simplify_ns > 0 {
            gshe_obs::record("sat.simplify_ns", stats.simplify_ns);
        }
        if gshe_obs::enabled() {
            // Final learnt-DB LBD distribution, for `campaign --metrics-out`.
            for lbd in solver.learnt_lbds() {
                gshe_obs::record("sat.lbd", u64::from(lbd));
            }
        }
        AttackOutcome {
            status,
            key,
            iterations,
            queries: oracle.queries() - queries_before,
            elapsed: start.elapsed(),
            solver_stats: stats,
        }
    };

    for assumptions in &phases {
        loop {
            if Instant::now() >= deadline {
                return finish(AttackStatus::Timeout, None, iterations, &solver, oracle);
            }
            if let Some(max) = config.max_iterations {
                if iterations >= max {
                    return finish(AttackStatus::Timeout, None, iterations, &solver, oracle);
                }
            }
            match solve_sliced(&mut solver, assumptions, deadline, config) {
                None => return finish(AttackStatus::Timeout, None, iterations, &solver, oracle),
                Some(SolveResult::Unknown) => {
                    return finish(
                        AttackStatus::ResourceExhausted,
                        None,
                        iterations,
                        &solver,
                        oracle,
                    )
                }
                Some(SolveResult::Unsat) => break, // phase converged
                Some(SolveResult::Sat) => {
                    iterations += 1;
                    gshe_obs::count("attack.rounds", 1);
                    let dip: Vec<bool> = input_lits.iter().map(|&l| solver.model_lit(l)).collect();
                    let lanes = {
                        let _span = gshe_obs::span("attack.oracle");
                        oracle.query_block(&PatternBlock::from_patterns(std::slice::from_ref(&dip)))
                    };
                    let y: Vec<bool> = lanes.iter().map(|lane| lane & 1 == 1).collect();
                    {
                        let _span = gshe_obs::span("attack.encode");
                        let mut enc = CircuitEncoder::new(&mut solver);
                        for key in &keys {
                            let outs = encode_keyed_fixed(&mut enc, keyed, key, &dip);
                            assert_outputs_equal(&mut enc, &outs, &y);
                        }
                    }
                    if let Some(state) = appsat.as_mut() {
                        if let Some((status, key)) = appsat_round(
                            state,
                            &mut solver,
                            keyed,
                            &keys,
                            &input_lits,
                            oracle,
                            deadline,
                            config,
                            iterations,
                        ) {
                            return finish(status, key, iterations, &solver, oracle);
                        }
                    }
                }
            }
        }
    }

    // All phases converged: extract any key consistent with the
    // accumulated I/O constraints (without the miter assumptions).
    match solve_sliced(&mut solver, &[], deadline, config) {
        None => finish(AttackStatus::Timeout, None, iterations, &solver, oracle),
        Some(SolveResult::Sat) => {
            let key: Vec<bool> = keys[0].iter().map(|&l| solver.model_lit(l)).collect();
            finish(
                AttackStatus::Success,
                Some(key),
                iterations,
                &solver,
                oracle,
            )
        }
        Some(SolveResult::Unsat) => finish(
            AttackStatus::Inconsistent,
            None,
            iterations,
            &solver,
            oracle,
        ),
        Some(SolveResult::Unknown) => finish(
            AttackStatus::ResourceExhausted,
            None,
            iterations,
            &solver,
            oracle,
        ),
    }
}

/// One AppSAT reinforcement round, run whenever the DIP count reaches a
/// multiple of `reinforce_every`: extract a candidate key, estimate its error
/// on random block queries, exit early below the threshold, otherwise
/// reinforce the solver with the mismatching observations. Returns a
/// terminal decision ([`AttackStatus::Success`] early exit or
/// [`AttackStatus::Inconsistent`]) or `None` to continue refining.
#[allow(clippy::too_many_arguments)] // borrows of the engine's loop state
fn appsat_round(
    state: &mut AppSatState,
    solver: &mut Solver,
    keyed: &KeyedNetlist,
    keys: &[Vec<Lit>],
    input_lits: &[Lit],
    oracle: &mut dyn Oracle,
    deadline: Instant,
    config: &AttackConfig,
    iterations: u64,
) -> Option<Terminal> {
    if state.reinforce_every == 0 || !iterations.is_multiple_of(state.reinforce_every) {
        return None;
    }

    // Candidate key: any key consistent so far.
    let candidate = match solve_sliced(solver, &[], deadline, config) {
        Some(SolveResult::Sat) => {
            let k: Vec<bool> = keys[0].iter().map(|&l| solver.model_lit(l)).collect();
            Some(k)
        }
        Some(SolveResult::Unsat) => return Some((AttackStatus::Inconsistent, None)),
        _ => None,
    };
    let cand = candidate?;
    let resolved = keyed
        .resolve(&cand)
        .expect("candidate key has correct width");
    // Block-query reinforcement: the sample patterns are drawn exactly as
    // the scalar loop drew them (sample-major, bit-minor), then answered 64
    // at a time — the chip through `query_block` (still one query per
    // pattern), the candidate through the bit-parallel simulator.
    let n_inputs = input_lits.len();
    let mut cand_sim = Simulator::new(&resolved);
    let mut mismatches = 0usize;
    let mut mismatching: Vec<(Vec<bool>, Vec<bool>)> = Vec::new();
    let mut remaining = state.samples_per_round;
    while remaining > 0 {
        let take = remaining.min(64);
        remaining -= take;
        let patterns: Vec<Vec<bool>> = (0..take)
            .map(|_| (0..n_inputs).map(|_| state.rng.gen_bool(0.5)).collect())
            .collect();
        let block = PatternBlock::from_patterns(&patterns);
        let y_chip = {
            let _span = gshe_obs::span("attack.oracle");
            oracle.query_block(&block)
        };
        let y_cand = cand_sim.run(&block).expect("interface matches");
        let mut diff = 0u64;
        for (chip, cand_lane) in y_chip.iter().zip(&y_cand) {
            diff |= chip ^ cand_lane;
        }
        diff &= block.valid_mask();
        mismatches += diff.count_ones() as usize;
        while diff != 0 {
            let k = diff.trailing_zeros() as usize;
            diff &= diff - 1;
            let y_k: Vec<bool> = y_chip.iter().map(|lane| (lane >> k) & 1 == 1).collect();
            mismatching.push((block.pattern(k), y_k));
        }
    }
    let err = mismatches as f64 / state.samples_per_round as f64;
    if err <= state.error_threshold {
        return Some((AttackStatus::Success, Some(cand)));
    }
    // Reinforce with the mismatching observations.
    let _span = gshe_obs::span("attack.encode");
    let mut enc = CircuitEncoder::new(solver);
    for (x, y_chip) in mismatching {
        for key in &keys[..2] {
            let outs = encode_keyed_fixed(&mut enc, keyed, key, &x);
            assert_outputs_equal(&mut enc, &outs, &y_chip);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::verify_key;
    use crate::sat_attack::sat_attack;
    use crate::stack::tests::cloaked_noise;
    use crate::stack::OracleStack;
    use gshe_camo::{camouflage, select_gates, CamoScheme};
    use gshe_logic::{GeneratorConfig, Netlist, NetlistGenerator};
    use std::sync::Arc;

    fn keyed_instance(seed: u64) -> (Arc<Netlist>, gshe_camo::KeyedNetlist) {
        // 12 inputs / moderate key: tractable in well under a second, hard
        // enough that refinement actually loops.
        let nl = Arc::new(
            NetlistGenerator::new(GeneratorConfig::new("t", 12, 6, 120).with_seed(seed))
                .unwrap()
                .generate(),
        );
        let picks = select_gates(&nl, 0.12, 55);
        let mut rng = StdRng::seed_from_u64(55);
        let keyed = camouflage(&nl, &picks, CamoScheme::GsheAll16, &mut rng).unwrap();
        (nl, keyed)
    }

    /// Runs the plain SAT attack on `keyed` against an exact `nl` and
    /// asserts it recovers a functionally correct key.
    fn assert_recovers_key(nl: &Netlist, keyed: &gshe_camo::KeyedNetlist) -> AttackOutcome {
        let config = AttackConfig::with_timeout_secs(30);
        let mut oracle = OracleStack::exact(nl);
        let out = refine(keyed, &mut oracle, &config, &RefinePolicy::Single);
        assert_eq!(out.status, AttackStatus::Success);
        let v = verify_key(nl, keyed, out.key.as_ref().unwrap()).unwrap();
        assert!(v.functionally_equivalent);
        out
    }

    /// Finishes `b` and cloaks its AND gate `g` with all 16 two-input
    /// functions as candidates.
    fn cloaked_and(
        b: gshe_logic::NetlistBuilder,
        g: gshe_logic::NodeId,
    ) -> (Netlist, gshe_camo::KeyedNetlist) {
        use gshe_camo::{CamoGate, Candidates, KeyedNetlist};
        use gshe_logic::Bf2;
        let nl = b.finish().unwrap();
        let gate = CamoGate {
            node: g,
            candidates: Candidates::TwoInput(Bf2::ALL.to_vec()),
            key_offset: 0,
            correct_index: Bf2::AND.truth_table() as usize,
        };
        let keyed = KeyedNetlist::new(nl.clone(), vec![gate], 4);
        (nl, keyed)
    }

    #[test]
    fn sat_attack_recovers_a_correct_key_with_one_query_per_dip() {
        let (nl, keyed) = keyed_instance(2);
        let out = assert_recovers_key(&nl, &keyed);
        assert!(out.iterations > 0);
        assert_eq!(out.queries, out.iterations);
    }

    #[test]
    fn width_one_is_the_historical_sat_attack() {
        // The `sat_attack` delegation and a direct engine call must be
        // indistinguishable on a deterministic instance.
        let (nl, keyed) = keyed_instance(3);
        let config = AttackConfig::with_timeout_secs(30);
        let mut o1 = OracleStack::exact(&nl);
        let via_entry = sat_attack(&keyed, &mut o1, &config);
        let mut o2 = OracleStack::exact(&nl);
        let via_engine = refine(&keyed, &mut o2, &config, &RefinePolicy::Single);
        assert_eq!(via_entry.status, via_engine.status);
        assert_eq!(via_entry.key, via_engine.key);
        assert_eq!(via_entry.iterations, via_engine.iterations);
        assert_eq!(via_entry.queries, via_engine.queries);
    }

    #[test]
    fn double_dip_recovers_a_correct_key() {
        let (nl, keyed) = keyed_instance(4);
        let config = AttackConfig::with_timeout_secs(30);
        let mut oracle = OracleStack::exact(&nl);
        let out = refine(&keyed, &mut oracle, &config, &RefinePolicy::DoubleDip);
        assert_eq!(out.status, AttackStatus::Success);
        let v = verify_key(&nl, &keyed, out.key.as_ref().unwrap()).unwrap();
        assert!(v.functionally_equivalent);
    }

    #[test]
    fn rounds_collapse_against_noise() {
        // The stochastic defense must beat the engine on (nearly) every
        // noisy chip.
        let (nl, keyed) = keyed_instance(6);
        let mut broken = 0;
        let trials = 3;
        for seed in 0..trials {
            let mut oracle = OracleStack::noisy(&keyed, cloaked_noise(&keyed, 0.25), seed);
            let config = AttackConfig::with_timeout_secs(20);
            let out = refine(&keyed, &mut oracle, &config, &RefinePolicy::Single);
            let failed = match out.status {
                AttackStatus::Inconsistent => true,
                AttackStatus::Success => {
                    !verify_key(&nl, &keyed, out.key.as_ref().unwrap())
                        .unwrap()
                        .functionally_equivalent
                }
                _ => true,
            };
            broken += failed as usize;
        }
        assert!(broken >= trials as usize - 1, "attack beat noise");
    }

    #[test]
    fn zero_input_circuit_recovers_the_key() {
        // A key-only circuit has no primary inputs: its one DIP is the
        // empty pattern, and nothing in the loop may degenerate over zero
        // input literals.
        use gshe_logic::{Bf2, NetlistBuilder};
        let mut b = NetlistBuilder::new("t");
        let c0 = b.constant(false);
        let c1 = b.constant(true);
        let g = b.gate2("g", Bf2::AND, c0, c1);
        b.output(g);
        let (nl, keyed) = cloaked_and(b, g);
        assert_recovers_key(&nl, &keyed);
    }

    #[test]
    fn tiny_input_space_survives_enumeration() {
        // Regression: a 2-input circuit whose DIPs enumerate every input
        // pattern must not poison key extraction (the assumption-free
        // extraction solve must stay SAT, not a false Inconsistent).
        use gshe_logic::{Bf2, NetlistBuilder};
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let c = b.input("b");
        let g = b.gate2("g", Bf2::AND, a, c);
        b.output(g);
        let (nl, keyed) = cloaked_and(b, g);
        assert_recovers_key(&nl, &keyed);
    }

    #[test]
    fn max_iterations_caps_discovery() {
        let (nl, keyed) = keyed_instance(2);
        let config = AttackConfig {
            max_iterations: Some(3),
            ..AttackConfig::with_timeout_secs(30)
        };
        let mut oracle = OracleStack::exact(&nl);
        let out = refine(&keyed, &mut oracle, &config, &RefinePolicy::Single);
        assert_eq!(out.iterations, 3);
        assert_eq!(out.status, AttackStatus::Timeout);
    }

    #[test]
    fn variable_budget_ends_the_attack_as_resource_exhausted() {
        // c17 with all six gates cloaked by the 16-function cell: two
        // 24-bit key copies, two 11-variable circuit copies and a
        // 3-variable miter make 73 variables before the first solve, and
        // every DIP adds at least one variable per cloaked cell and copy.
        use gshe_logic::bench_format::{parse_bench, C17_BENCH};
        let nl = Arc::new(parse_bench(C17_BENCH).unwrap());
        let picks = select_gates(&nl, 1.0, 3);
        let mut rng = StdRng::seed_from_u64(8);
        let keyed = camouflage(&nl, &picks, CamoScheme::GsheAll16, &mut rng).unwrap();
        let run = |max_vars| {
            let config = AttackConfig {
                max_vars,
                ..AttackConfig::with_timeout_secs(30)
            };
            let mut oracle = OracleStack::exact(&nl);
            refine(&keyed, &mut oracle, &config, &RefinePolicy::Single)
        };

        let under = run(Some(72));
        assert_eq!(under.status, AttackStatus::ResourceExhausted);
        assert_eq!(under.key, None);
        assert_eq!(under.iterations, 0);

        // The initial encoding fits, so the first solve runs; the budget
        // still holds for the DIP rounds' encodings after it.
        let at = run(Some(73));
        assert_eq!(at.status, AttackStatus::ResourceExhausted);
        assert_eq!(at.key, None);
        assert!(at.iterations >= 1, "the first solve must run");

        let default = run(AttackConfig::default().max_vars);
        assert_eq!(default.status, AttackStatus::Success);
        let v = verify_key(&nl, &keyed, default.key.as_ref().unwrap()).unwrap();
        assert!(v.functionally_equivalent);
    }
}
