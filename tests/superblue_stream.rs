//! Superblue as an ordinary grid cell: a three-cell campaign over scaled
//! IBM superblue instances builds its three designs in one batch, breaks
//! every cell, keeps the designs memoized on the session, and reruns on
//! the warm session byte-identically without building anything.
//!
//! Ignored by default; CI runs it explicitly in release:
//!
//! ```text
//! cargo test -q --release -- --ignored superblue_stream
//! ```

use spin_hall_security::attacks::{CoiMode, SimplifyMode};
use spin_hall_security::campaign::{CampaignSpec, EvalSession, JobStatus, NoiseShape};
use spin_hall_security::logic::Topology;
use spin_hall_security::prelude::{AttackKind, CamoScheme};
use std::time::{Duration, Instant};

fn superblue_spec() -> CampaignSpec {
    CampaignSpec {
        name: "superblue-stream".to_string(),
        benchmarks: ["sb1", "sb10", "sb18"].map(String::from).to_vec(),
        scale: 64,
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
        seed: 1,
        timeout: Duration::from_secs(300),
        threads: 2,
    }
}

#[test]
#[ignore = "superblue-scale; CI runs `cargo test -q --release -- --ignored superblue_stream`"]
fn superblue_stream() {
    let started = Instant::now();
    let wall_budget = Duration::from_secs(600);
    let spec = superblue_spec();

    // Cold run: all three cells complete and break (tiny key space; the
    // work is generation and the superblue-wide oracle simulations).
    let session = EvalSession::new(2);
    let cold = session.run(&spec).expect("cold run");
    assert_eq!(cold.rows.len(), 3, "one row per superblue instance");
    for result in &cold.results {
        assert_eq!(result.status, JobStatus::Completed, "{result:?}");
        assert!(result.key_recovered);
    }
    assert_eq!(session.cached_netlists(), 3, "every design stays memoized");

    // Warm run on the same session: it builds nothing and reports
    // byte-identically.
    let warm = session.run(&spec).expect("warm run");
    assert_eq!(session.cached_netlists(), 3, "the warm run built a design");
    assert_eq!(warm.deterministic_json(), cold.deterministic_json());

    let elapsed = started.elapsed();
    assert!(
        elapsed < wall_budget,
        "superblue stream took {elapsed:?} (budget {wall_budget:?})"
    );
}
