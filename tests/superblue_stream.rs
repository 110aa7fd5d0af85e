//! Superblue as an ordinary grid cell: a ≥3-cell campaign over scaled
//! IBM superblue instances must stream through a memory-bounded memo
//! (peak resident netlist arenas under the byte budget, everything
//! evicted afterwards), engage the cone-keyed oracle cache, and still
//! serialize byte-identically to the same campaign run without a budget.
//! A direct warm-vs-cold measurement on the cone-keyed cache pins the
//! ≥5× replay win the cone-keyed cache exists for.
//!
//! Ignored by default; CI runs it explicitly in release:
//!
//! ```text
//! cargo test -q --release -- --ignored superblue_stream
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use spin_hall_security::attacks::{CoiMode, SimplifyMode};
use spin_hall_security::campaign::{
    CachedOracle, Campaign, CampaignSpec, EvalSession, JobStatus, NoiseShape, OracleCache,
};
use spin_hall_security::logic::{suites, PatternBlock, Topology};
use spin_hall_security::prelude::{AttackKind, CamoScheme, Oracle};
use std::time::{Duration, Instant};

const BENCHES: [&str; 3] = ["sb1", "sb10", "sb18"];
const SCALE: usize = 64;
const SEED: u64 = 1;

fn superblue_spec(memo_budget_mb: f64) -> CampaignSpec {
    CampaignSpec {
        name: "superblue-stream".to_string(),
        benchmarks: BENCHES.iter().map(|n| n.to_string()).collect(),
        scale: SCALE,
        topology: Topology::Local,
        // A handful of cloaked gates per instance: with tile-local
        // wiring their affected-output cones stay a thin slice, so the
        // COI projection engages cone-keyed caching.
        levels: vec![0.0005],
        schemes: vec![CamoScheme::GsheAll16],
        attacks: vec![AttackKind::Sat],
        coi_mode: CoiMode::On,
        sat_simplify: SimplifyMode::Off,
        error_rates: vec![0.0],
        clock_periods_ns: Vec::new(),
        profiles: vec![NoiseShape::Uniform],
        rotation_periods: vec![0],
        trials: 1,
        seed: SEED,
        timeout: Duration::from_secs(300),
        threads: 2,
        memo_budget_mb,
    }
}

#[test]
#[ignore = "superblue-scale; CI runs `cargo test -q --release -- --ignored superblue_stream`"]
fn superblue_stream() {
    let started = Instant::now();
    let wall_budget = Duration::from_secs(600);

    // Size the byte budget from the actual arenas (the same
    // materializations the campaign performs): a quarter above the
    // largest single instance, well under the whole suite — the
    // scheduler must chunk.
    let arenas: Vec<u64> = BENCHES
        .iter()
        .map(|name| {
            let spec = suites::spec(name).expect("superblue suite present");
            suites::benchmark_scaled_with(spec, SCALE, SEED, Topology::Local).arena_bytes() as u64
        })
        .collect();
    let largest = *arenas.iter().max().unwrap();
    let total: u64 = arenas.iter().sum();
    let budget_bytes = largest + largest / 4;
    assert!(
        budget_bytes < total,
        "budget must force chunking: {arenas:?}"
    );
    let spec = superblue_spec(budget_bytes as f64 / (1024.0 * 1024.0));

    // Cold streamed run: all three cells complete and break (tiny key
    // space; the work is the superblue-wide oracle simulations).
    let session = EvalSession::new(2);
    let cold = session.run(&spec).expect("cold streamed run");
    assert_eq!(cold.rows.len(), 3, "one row per superblue instance");
    for result in &cold.results {
        assert_eq!(result.status, JobStatus::Completed, "{result:?}");
        assert!(result.key_recovered);
    }

    // Memory bound: the peak resident netlist-memo footprint never
    // exceeded the budget, and everything was evicted afterwards.
    let effective_budget = (spec.memo_budget_mb * 1024.0 * 1024.0) as u64;
    let peak = session.peak_memo_bytes();
    assert!(peak > 0);
    assert!(
        peak <= effective_budget,
        "peak {peak} bytes over budget {effective_budget}"
    );
    assert!(peak < total, "whole suite was resident at once");
    assert_eq!(session.cached_netlists(), 0, "chunks must be evicted");
    assert_eq!(session.cached_keyed(), 0, "keyed memo must be evicted");

    // Warm streamed run on the same session: the oracle cache survives
    // eviction (entries key on netlist fingerprint + cone sub-pattern,
    // not on the Arc), so the deterministic replay answers entirely
    // from cone-keyed entries.
    let warm = session.run(&spec).expect("warm streamed run");
    assert_eq!(warm.deterministic_json(), cold.deterministic_json());
    assert_eq!(warm.cache_misses, 0, "warm replay must not re-simulate");
    assert!(
        warm.cone_hits > 0,
        "cone-keyed caching never engaged: {warm:?}"
    );

    // Budget independence: the same campaign without a budget (fresh
    // session, budget 0) produces byte-identical deterministic output.
    let mut unbounded_spec = spec.clone();
    unbounded_spec.memo_budget_mb = 0.0;
    let unbounded = Campaign::run(&unbounded_spec).expect("unbounded run");
    assert_eq!(unbounded.deterministic_json(), cold.deterministic_json());

    // The cone-keyed cache's reason to exist, measured directly: warm
    // replay of superblue-wide blocks must beat cold simulation by ≥5×
    // (in practice orders of magnitude — a hash probe on cone-width
    // keys vs a 13k-node bit-parallel sweep per block).
    let sb1 =
        suites::benchmark_scaled_with(suites::spec("sb1").unwrap(), SCALE, SEED, Topology::Local);
    let cone: Vec<usize> = (0..64).collect();
    let mut rng = StdRng::seed_from_u64(17);
    // Random cone lanes scattered into zero-filled full-width blocks, as
    // `CoiOracle` does: the cone-keyed cache keys on the cone lanes
    // alone and rejects blocks that set any other input.
    let blocks: Vec<PatternBlock> = (0..32)
        .map(|_| {
            let cone_block = PatternBlock::random(cone.len(), &mut rng);
            let mut lanes = vec![0u64; sb1.inputs().len()];
            for (&full, &lane) in cone.iter().zip(&cone_block.lanes) {
                lanes[full] = lane;
            }
            PatternBlock { lanes, count: 64 }
        })
        .collect();
    let cache = OracleCache::shared();
    let mut oracle = CachedOracle::over_cone(&sb1, cache, cone);
    let cold_t = Instant::now();
    for block in &blocks {
        oracle.query_block(block);
    }
    let cold_elapsed = cold_t.elapsed();
    let warm_t = Instant::now();
    for block in &blocks {
        oracle.query_block(block);
    }
    let warm_elapsed = warm_t.elapsed();
    assert!(
        cold_elapsed >= warm_elapsed * 5,
        "cone-keyed replay won only {cold_elapsed:?} vs {warm_elapsed:?}"
    );

    let elapsed = started.elapsed();
    assert!(
        elapsed < wall_budget,
        "superblue stream took {elapsed:?} (budget {wall_budget:?})"
    );
}
