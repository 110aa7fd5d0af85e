//! Golden-report regression: the deterministic JSON of a fixed campaign
//! grid is pinned byte-for-byte to a committed artifact,
//! `tests/golden/small_grid.json`, so refactors of the attacks, oracles,
//! expansion, aggregation, or serialization cannot silently shift
//! campaign output. The grid deliberately crosses every
//! deterministic-report feature: two schemes, deterministic + stochastic
//! cells, a heterogeneous noise profile, a dynamic-camouflaging rotation
//! period, and combined rotating + stochastic defense cells.
//!
//! If a change *intentionally* alters report output, regenerate the
//! artifact with the ignored `regenerate_golden_file` test below — and
//! say so in the commit.

use spin_hall_security::campaign::{Campaign, CampaignSpec, NoiseShape};
use spin_hall_security::prelude::{AttackKind, CamoScheme};
use std::time::Duration;

const GOLDEN: &str = include_str!("golden/small_grid.json");

fn golden_spec() -> CampaignSpec {
    CampaignSpec {
        name: "golden".to_string(),
        benchmarks: vec!["ex1010".to_string()],
        scale: 400,
        levels: vec![0.15],
        schemes: vec![CamoScheme::InvBuf, CamoScheme::GsheAll16],
        attacks: vec![AttackKind::Sat],
        error_rates: vec![0.0, 0.25],
        clock_periods_ns: Vec::new(),
        profiles: vec![NoiseShape::Uniform, NoiseShape::OutputCone],
        rotation_periods: vec![0, 4],
        trials: 2,
        seed: 9,
        timeout: Duration::from_secs(60),
        threads: 2,
        topology: spin_hall_security::logic::Topology::Uniform,
        coi_mode: spin_hall_security::attacks::CoiMode::Auto,
        sat_simplify: spin_hall_security::attacks::SimplifyMode::Auto,
        memo_budget_mb: 0.0,
    }
}

/// Splits a deterministic report's `rows` array into its `{...}` row
/// objects, textually (the serializer emits no nested braces in rows).
fn row_objects(json: &str) -> Vec<&str> {
    let rows = json
        .split_once("\"rows\":[")
        .expect("rows array")
        .1
        .split_once("],\"device\":")
        .expect("device array")
        .0;
    rows.split_inclusive('}')
        .map(|r| r.trim_start_matches(',').trim())
        .filter(|r| !r.is_empty())
        .collect()
}

#[test]
fn deterministic_json_matches_committed_golden_file() {
    let report = Campaign::run(&golden_spec()).expect("golden campaign");
    assert_eq!(
        report.deterministic_json(),
        GOLDEN,
        "deterministic report drifted from tests/golden/small_grid.json; \
         if the change is intentional, regenerate the golden file"
    );
}

#[test]
fn auto_simplify_is_transparent_on_the_golden_grid() {
    // The default `sat_simplify = auto` only engages above the 100k
    // problem-clause threshold; every instance in this grid sits far
    // below it, so the default-settings run must be byte-identical to an
    // explicit `off` run — i.e. to the pre-simplification (PR 9) solver
    // trace the golden file pins.
    let mut spec = golden_spec();
    spec.sat_simplify = spin_hall_security::attacks::SimplifyMode::Off;
    let report = Campaign::run(&spec).expect("golden campaign, simplify off");
    assert_eq!(
        report.deterministic_json(),
        GOLDEN,
        "the auto threshold engaged on a golden-grid instance: defaults \
         no longer reproduce the historical solver trace"
    );
}

#[test]
fn golden_file_carries_the_new_grid_dimensions() {
    // Self-check that the pinned artifact actually covers the features it
    // exists to guard (otherwise a regeneration could quietly drop them).
    assert!(GOLDEN.contains("\"profile\":\"output-cone\""));
    assert!(GOLDEN.contains("\"rotation_period\":4"));
    assert!(GOLDEN.contains("\"error_rate\":0.25"));
    // The combined rotating + stochastic cell: a row carrying both a
    // nonzero rate and a rotation period.
    assert!(
        row_objects(GOLDEN)
            .iter()
            .any(|r| r.contains("\"error_rate\":0.25") && r.contains("\"rotation_period\":4")),
        "no combined-defense cell in the golden grid"
    );
}

/// Regenerates `tests/golden/small_grid.json` from the current code.
/// Run explicitly when a change intentionally alters report output:
///
/// ```text
/// cargo test --test golden_report -- --ignored
/// ```
#[test]
#[ignore = "writes tests/golden/small_grid.json; run explicitly to regenerate"]
fn regenerate_golden_file() {
    let report = Campaign::run(&golden_spec()).expect("golden campaign");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/small_grid.json");
    std::fs::write(path, report.deterministic_json()).expect("write golden");
}
