//! Superblue as an ordinary grid cell: a ≥3-cell campaign over scaled
//! IBM superblue instances must stream through a memory-bounded memo
//! (peak resident netlist arenas under the byte budget, everything
//! evicted afterwards), rerun byte-identically on the warm session, and
//! serialize byte-identically to the same campaign run without a budget.
//!
//! Ignored by default; CI runs it explicitly in release:
//!
//! ```text
//! cargo test -q --release -- --ignored superblue_stream
//! ```

use spin_hall_security::attacks::{CoiMode, SimplifyMode};
use spin_hall_security::campaign::{Campaign, CampaignSpec, EvalSession, JobStatus, NoiseShape};
use spin_hall_security::logic::{suites, Topology};
use spin_hall_security::prelude::{AttackKind, CamoScheme};
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
        // COI projection engages and the exact chip answers from the cone.
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

    // Warm streamed run on the same session, whose chunks were all
    // evicted: the rerun rebuilds them and reports byte-identically.
    let warm = session.run(&spec).expect("warm streamed run");
    assert_eq!(warm.deterministic_json(), cold.deterministic_json());

    // Budget independence: the same campaign without a budget (fresh
    // session, budget 0) produces byte-identical deterministic output.
    let mut unbounded_spec = spec.clone();
    unbounded_spec.memo_budget_mb = 0.0;
    let unbounded = Campaign::run(&unbounded_spec).expect("unbounded run");
    assert_eq!(unbounded.deterministic_json(), cold.deterministic_json());

    let elapsed = started.elapsed();
    assert!(
        elapsed < wall_budget,
        "superblue stream took {elapsed:?} (budget {wall_budget:?})"
    );
}
