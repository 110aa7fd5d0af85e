//! Oracle query-path benchmarks: the bit-parallel block path vs. 64
//! pattern-at-a-time scalar queries, for the deterministic chip and the
//! stochastic (noisy-simulator) chip of Sec. V-B — plus the full SAT attack
//! on an ISCAS-89 s-suite benchmark (s38584, scaled) through the unified
//! DIP engine.
//!
//! Block and scalar paths draw the same per-query noise stream, so the
//! stochastic block-vs-scalar gap is what batching the gate evaluation
//! buys.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use gshe_core::attacks::OracleStack;
use gshe_core::campaign::search::{ProfileSearch, SearchSpec};
use gshe_core::campaign::EvalSession;
use gshe_core::logic::{suites, ErrorProfile, Netlist, PatternBlock, Simulator};
use gshe_core::prelude::{
    camouflage, sat_attack, select_gates, AttackConfig, AttackKind, AttackStatus, CamoScheme,
    KeyedNetlist, Oracle,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn s38584_keyed_at(level: f64) -> (Netlist, KeyedNetlist) {
    let spec = suites::spec("s38584").expect("s-suite benchmark present");
    let nl = suites::benchmark_scaled(spec, 40, 1);
    let picks = select_gates(&nl, level, 3);
    let mut rng = StdRng::seed_from_u64(3);
    let keyed = camouflage(&nl, &picks, CamoScheme::GsheAll16, &mut rng).expect("camouflage");
    (nl, keyed)
}

fn s38584_keyed() -> (Netlist, KeyedNetlist) {
    s38584_keyed_at(0.1)
}

/// 5% uniform noise over the cloaked cells.
fn cloaked_noise(keyed: &KeyedNetlist) -> ErrorProfile {
    let nodes: Vec<_> = keyed.camo_gates().iter().map(|g| g.node).collect();
    ErrorProfile::uniform_at(keyed.netlist().len(), &nodes, 0.05)
}

fn bench_oracle_paths(c: &mut Criterion) {
    let (nl, keyed) = s38584_keyed();
    let n_inputs = nl.inputs().len();
    let mut rng = StdRng::seed_from_u64(7);
    let block = PatternBlock::random(n_inputs, &mut rng);
    let patterns: Vec<Vec<bool>> = (0..64).map(|k| block.pattern(k)).collect();

    let mut group = c.benchmark_group("oracle_s38584");

    let mut stochastic = OracleStack::noisy(&keyed, cloaked_noise(&keyed), 11);
    group.bench_function("stochastic_query_block_64", |b| {
        b.iter(|| black_box(stochastic.query_block(black_box(&block))))
    });

    let mut stochastic_scalar = OracleStack::noisy(&keyed, cloaked_noise(&keyed), 11);
    group.bench_function("stochastic_query_scalar_x64", |b| {
        b.iter(|| {
            for p in &patterns {
                black_box(stochastic_scalar.query(black_box(p)));
            }
        })
    });

    let mut netlist_oracle = OracleStack::exact(&nl);
    group.bench_function("netlist_query_block_64", |b| {
        b.iter(|| black_box(netlist_oracle.query_block(black_box(&block))))
    });

    let mut netlist_scalar = OracleStack::exact(&nl);
    group.bench_function("netlist_query_scalar_x64", |b| {
        b.iter(|| {
            for p in &patterns {
                black_box(netlist_scalar.query(black_box(p)));
            }
        })
    });

    group.finish();
}

/// The layered oracle stack's `query_block` against the bare noisy
/// [`Simulator`] it drives: the noise-only stack (layer overhead
/// only), the rotating noisy stack at a period long enough that
/// no boundary falls inside a block (pure layer overhead plus the
/// pattern-major noise draw), and at period 20 (three epoch splits per
/// block — the worst realistic segmentation). This is the measured form
/// of "each layer is a thin combinator".
fn bench_stacked_oracle(c: &mut Criterion) {
    let (_, keyed) = s38584_keyed();
    let profile = cloaked_noise(&keyed);
    let n_inputs = keyed.netlist().inputs().len();
    let mut rng = StdRng::seed_from_u64(7);
    let block = PatternBlock::random(n_inputs, &mut rng);

    let mut group = c.benchmark_group("stacked_oracle_s38584");

    let mut bare = Simulator::new(keyed.netlist()).with_noise(profile.clone(), 11);
    group.bench_function("bare_noisy_simulator_64", |b| {
        b.iter(|| black_box(bare.run(black_box(&block)).unwrap()))
    });

    let mut noisy = OracleStack::noisy(&keyed, profile.clone(), 11);
    group.bench_function("stack_noisy_query_block_64", |b| {
        b.iter(|| black_box(noisy.query_block(black_box(&block))))
    });

    let mut combined_long = OracleStack::rotating_noisy(&keyed, profile.clone(), 1 << 40, 11);
    group.bench_function("stack_rotating_noisy_period_huge", |b| {
        b.iter(|| black_box(combined_long.query_block(black_box(&block))))
    });

    let mut combined_20 = OracleStack::rotating_noisy(&keyed, profile, 20, 11);
    group.bench_function("stack_rotating_noisy_period_20", |b| {
        b.iter(|| black_box(combined_20.query_block(black_box(&block))))
    });

    group.finish();
}

/// The `gshe_obs` disabled-path overhead pin: the stochastic (noisy
/// stack) oracle's `query_block` on s38584 with instrumentation compiled
/// in but **off** (one relaxed atomic load per instrumentation point —
/// the state every ordinary run executes in) vs. fully **enabled**
/// metrics. The disabled-path target is < 2% over the bare stack; the
/// enabled row shows what flipping the switch actually costs.
fn bench_obs_overhead(c: &mut Criterion) {
    let (_, keyed) = s38584_keyed();
    let profile = cloaked_noise(&keyed);
    let n_inputs = keyed.netlist().inputs().len();
    let mut rng = StdRng::seed_from_u64(7);
    let block = PatternBlock::random(n_inputs, &mut rng);

    let mut group = c.benchmark_group("obs_overhead_s38584");

    gshe_core::obs::disable();
    let mut disabled = OracleStack::noisy(&keyed, profile.clone(), 11);
    group.bench_function("stochastic_query_block_64_obs_disabled", |b| {
        b.iter(|| black_box(disabled.query_block(black_box(&block))))
    });

    gshe_core::obs::enable();
    let mut enabled = OracleStack::noisy(&keyed, profile, 11);
    group.bench_function("stochastic_query_block_64_obs_enabled", |b| {
        b.iter(|| black_box(enabled.query_block(black_box(&block))))
    });
    gshe_core::obs::disable();

    group.finish();
}

/// The unified DIP-refinement engine end to end: the full SAT attack on
/// s38584 (scaled 1/40, 5% protection), one oracle query per DIP.
fn bench_sat_attack(c: &mut Criterion) {
    let (nl, keyed) = s38584_keyed_at(0.05);
    let mut group = c.benchmark_group("sat_attack_s38584");
    let config = AttackConfig::with_timeout_secs(120);
    group.bench_function("sat_attack", |b| {
        b.iter(|| {
            let mut oracle = OracleStack::exact(&nl);
            let out = sat_attack(black_box(&keyed), &mut oracle, &config);
            assert_eq!(out.status, AttackStatus::Success);
            black_box(out.iterations)
        })
    });
    group.finish();
}

/// One profile-search candidate evaluation (1 trial × SAT against the
/// noisy stack) through a **warm** [`EvalSession`] — pool
/// up, benchmark and scheme materializations memoized — vs. a **cold**
/// one rebuilt per evaluation. The gap is what the evaluation-service
/// refactor buys every candidate after the first; the warm path is the
/// cost a search actually pays per candidate.
fn bench_profile_candidate_score(c: &mut Criterion) {
    let spec = SearchSpec {
        name: "bench".into(),
        benchmark: "ex1010".into(),
        scale: 400,
        level: 0.15,
        scheme: CamoScheme::GsheAll16,
        attacks: vec![AttackKind::Sat],
        clock_periods_ns: vec![2.0],
        trials: 1,
        timeout: Duration::from_secs(30),
        threads: 1,
        ..SearchSpec::default()
    };
    let mut group = c.benchmark_group("profile_candidate_score");

    let warm_session = EvalSession::new(1);
    let warm = ProfileSearch::new(&warm_session, spec.clone()).expect("search setup");
    let mut seeds = warm.seed_candidates();
    let candidate = seeds.remove(1); // clock:2ns:uniform — a real operating point
    group.bench_function("warm_session", |b| {
        b.iter(|| black_box(warm.score(0, vec![candidate.clone()])))
    });

    group.bench_function("cold_session", |b| {
        b.iter(|| {
            let session = EvalSession::new(1);
            let search = ProfileSearch::new(&session, spec.clone()).expect("search setup");
            let mut seeds = search.seed_candidates();
            let candidate = seeds.remove(1);
            black_box(search.score(0, vec![candidate]))
        })
    });

    group.finish();
}

/// Raw arena-sweep throughput on the **unscaled** s38584 (19k gates,
/// the shape the superblue path stresses): one bit-parallel
/// `query_block` evaluates `gate_count × 64` gate-pattern pairs, so
/// gates/sec = `gate_count × 64 / time`. This is the gate-evaluation
/// rate the `logic.nodes_evaluated` counter meters and the figure the
/// README's scaling section quotes.
fn bench_gates_per_sec(c: &mut Criterion) {
    let spec = suites::spec("s38584").expect("s-suite benchmark present");
    let nl = suites::benchmark(spec, 1, 1);
    let gates = nl.gate_count();
    let mut rng = StdRng::seed_from_u64(7);
    let block = PatternBlock::random(nl.inputs().len(), &mut rng);

    let mut group = c.benchmark_group("gates_per_sec_s38584");
    let mut oracle = OracleStack::exact(&nl);
    group.bench_function(format!("query_block_64x{gates}_gates"), |b| {
        b.iter(|| black_box(oracle.query_block(black_box(&block))))
    });
    group.finish();
}

/// The cone-of-influence miter reduction end to end: the SAT attack on
/// s38584 (scale 4, full 304-output interface, 6
/// camouflaged gates) with `CoiMode::On` vs. `CoiMode::Off`. With few
/// cloaked cells the affected-output cone is a small slice of the
/// netlist, so the On row encodes and propagates a fraction of the
/// gates per DIP round; the acceptance target is a ≥1.5× wall-clock
/// reduction of the On row over the Off (full-miter, PR 7 baseline)
/// row.
fn bench_coi_miter(c: &mut Criterion) {
    use gshe_core::attacks::CoiMode;
    use gshe_core::camo::select_gates_count;

    let spec = suites::spec("s38584").expect("s-suite benchmark present");
    let nl = suites::benchmark(spec, 4, 1);
    let picks = select_gates_count(&nl, 6, 3);
    let mut rng = StdRng::seed_from_u64(3);
    let keyed = camouflage(&nl, &picks, CamoScheme::GsheAll16, &mut rng).expect("camouflage");

    let mut group = c.benchmark_group("coi_miter_s38584");
    for (label, coi) in [("coi_on", CoiMode::On), ("coi_off", CoiMode::Off)] {
        let config = AttackConfig::with_timeout_secs(120).with_coi_mode(coi);
        group.bench_function(format!("sat_attack_{label}"), |b| {
            b.iter(|| {
                let mut oracle = OracleStack::exact(&nl);
                let out = sat_attack(black_box(&keyed), &mut oracle, &config);
                assert_eq!(out.status, AttackStatus::Success, "{label}");
                black_box(out.iterations)
            })
        });
    }
    group.finish();
}

/// SAT simplification end to end: the SAT attack on the standard s38584
/// instance (scale 40, 10% protection) with `SimplifyMode::On` —
/// SatELite-style preprocessing of the key-search miter (subsumption,
/// self-subsumption, bounded variable elimination; ≥30% clause
/// reduction, pinned by the `simplify_smoke` root test) — vs.
/// `SimplifyMode::Off`, the search on the raw clause set. Both rows
/// encode the same single-sided miter.
fn bench_simplify_miter(c: &mut Criterion) {
    use gshe_core::attacks::SimplifyMode;

    let (nl, keyed) = s38584_keyed();

    let mut group = c.benchmark_group("simplify_miter_s38584");
    for (label, mode) in [
        ("simplify_on", SimplifyMode::On),
        ("simplify_off", SimplifyMode::Off),
    ] {
        let config = AttackConfig::with_timeout_secs(120).with_simplify_mode(mode);
        group.bench_function(format!("sat_attack_{label}"), |b| {
            b.iter(|| {
                let mut oracle = OracleStack::exact(&nl);
                let out = sat_attack(black_box(&keyed), &mut oracle, &config);
                assert_eq!(out.status, AttackStatus::Success, "{label}");
                black_box(out.iterations)
            })
        });
    }
    group.finish();
}

/// The cone-keyed campaign cache on a superblue-shaped instance (sb1 at
/// scale 16, locality-biased topology, ~60k nodes): `query_block`
/// through [`CachedOracle::over_cone`] cold (every block simulated,
/// then inserted under its packed cone-input sub-key) vs. warm (pure
/// hash probes on cone-width keys). `superblue_stream` asserts a ≥5×
/// warm-over-cold win; in practice the gap is orders of magnitude,
/// since a cold query sweeps the full arena per block. A third row asks
/// the same cold blocks for one output through `query_outputs`, as a
/// cone-projected attack does: the exact chip extracts that output's
/// fanin cone once per oracle and simulates only the cone per block.
fn bench_coi_cached_oracle(c: &mut Criterion) {
    use gshe_core::campaign::{CachedOracle, OracleCache};
    use gshe_core::logic::Topology;

    let spec = suites::spec("sb1").expect("superblue suite present");
    let nl = suites::benchmark_scaled_with(spec, 16, 1, Topology::Local);
    let cone: Vec<usize> = (0..64).collect();
    let mut rng = StdRng::seed_from_u64(17);
    // Random cone lanes scattered into zero-filled full-width blocks, as
    // `CoiOracle` does: the cone-keyed cache keys on the cone lanes
    // alone and rejects blocks that set any other input.
    let blocks: Vec<PatternBlock> = (0..16)
        .map(|_| {
            let cone_block = PatternBlock::random(cone.len(), &mut rng);
            let mut lanes = vec![0u64; nl.inputs().len()];
            for (&full, &lane) in cone.iter().zip(&cone_block.lanes) {
                lanes[full] = lane;
            }
            PatternBlock { lanes, count: 64 }
        })
        .collect();

    let mut group = c.benchmark_group("coi_cached_oracle_sb1");

    group.bench_function("cold_query_block_x16", |b| {
        b.iter(|| {
            // A fresh cache per iteration: every block misses and
            // simulates the full 60k-node arena.
            let cache = OracleCache::shared();
            let mut oracle = CachedOracle::over_cone(&nl, cache, cone.clone());
            for block in &blocks {
                black_box(oracle.query_block(black_box(block)));
            }
        })
    });

    group.bench_function("cold_query_outputs_x16", |b| {
        b.iter(|| {
            // A fresh cache and chip per iteration: the first block pays
            // the cone extraction, and every block simulates the cone.
            let cache = OracleCache::shared();
            let mut oracle = CachedOracle::over_cone(&nl, cache, cone.clone());
            for block in &blocks {
                black_box(oracle.query_outputs(black_box(block), &[0]));
            }
        })
    });

    let warm_cache = OracleCache::shared();
    let mut warm = CachedOracle::over_cone(&nl, warm_cache, cone.clone());
    for block in &blocks {
        warm.query_block(block);
    }
    group.bench_function("warm_query_block_x16", |b| {
        b.iter(|| {
            for block in &blocks {
                black_box(warm.query_block(black_box(block)));
            }
        })
    });

    group.finish();
}

criterion_group! {
    name = oracle;
    config = Criterion::default().sample_size(30);
    targets = bench_oracle_paths, bench_stacked_oracle, bench_gates_per_sec
}
criterion_group! {
    name = coi_cached_oracle;
    config = Criterion::default().sample_size(10);
    targets = bench_coi_cached_oracle
}
criterion_group! {
    name = candidate_score;
    config = Criterion::default().sample_size(10);
    targets = bench_profile_candidate_score
}
criterion_group! {
    name = sat_attack_s38584;
    config = Criterion::default().sample_size(5);
    targets = bench_sat_attack
}
criterion_group! {
    name = coi_miter;
    config = Criterion::default().sample_size(5);
    targets = bench_coi_miter
}
criterion_group! {
    name = simplify_miter;
    config = Criterion::default().sample_size(5);
    targets = bench_simplify_miter
}
criterion_group! {
    name = obs_overhead;
    config = Criterion::default().sample_size(30);
    targets = bench_obs_overhead
}
criterion_main!(
    oracle,
    obs_overhead,
    sat_attack_s38584,
    coi_miter,
    simplify_miter,
    candidate_score,
    coi_cached_oracle
);
