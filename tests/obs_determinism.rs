//! Observability must be a pure observer: enabling the full
//! instrumentation stack (metrics *and* trace buffering) cannot move a
//! single byte of the deterministic campaign report. Spans only read
//! clocks and counters only increment atomics — if instrumentation ever
//! perturbed an RNG stream, an oracle query count, or serialization,
//! this test catches it.

use spin_hall_security::campaign::{Campaign, CampaignSpec, NoiseShape};
use spin_hall_security::obs;
use spin_hall_security::prelude::{AttackKind, CamoScheme};
use std::time::Duration;

/// A small grid that still crosses the instrumented layers: cached exact
/// oracle (rotation 0, rate 0), noisy stack, and a rotating stack.
fn small_spec() -> CampaignSpec {
    CampaignSpec {
        name: "obs-golden".to_string(),
        benchmarks: vec!["ex1010".to_string()],
        scale: 400,
        levels: vec![0.15],
        schemes: vec![CamoScheme::GsheAll16],
        attacks: vec![AttackKind::Sat],
        error_rates: vec![0.0, 0.25],
        clock_periods_ns: Vec::new(),
        profiles: vec![NoiseShape::Uniform],
        rotation_periods: vec![0, 4],
        trials: 1,
        seed: 9,
        timeout: Duration::from_secs(60),
        threads: 2,
        topology: spin_hall_security::logic::Topology::Uniform,
        coi_mode: spin_hall_security::attacks::CoiMode::On,
        sat_simplify: spin_hall_security::attacks::SimplifyMode::Off,
        memo_budget_mb: 0.0,
    }
}

#[test]
fn deterministic_json_is_byte_identical_with_obs_enabled_and_disabled() {
    let spec = small_spec();

    obs::disable();
    let baseline = Campaign::run(&spec)
        .expect("campaign with obs disabled")
        .deterministic_json();

    obs::enable_tracing();
    obs::reset();
    let instrumented = Campaign::run(&spec)
        .expect("campaign with obs enabled")
        .deterministic_json();

    // Grab the artifacts before flipping the switch back off.
    let trace = obs::trace_json();
    let metrics = obs::metrics_json();
    obs::disable();

    assert_eq!(
        baseline, instrumented,
        "instrumentation changed the deterministic report"
    );

    // The instrumented run actually observed the hot layers.
    for span in ["pool.task", "job.attack", "attack.solve", "attack.oracle"] {
        assert!(
            trace.contains(&format!("\"name\":\"{span}\"")),
            "trace is missing `{span}` events"
        );
    }
    // (`cache.hits` registers only on a hit; a single-trial SAT attack
    // never re-queries a block, so the guaranteed cache signal is misses.)
    for metric in [
        "\"cache.misses\"",
        "\"sat.decisions\"",
        "\"sat.solve.conflicts\"",
    ] {
        assert!(metrics.contains(metric), "metrics missing {metric}");
    }
}
