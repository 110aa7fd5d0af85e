//! Golden-report regression: the verdicts of a fixed campaign grid are
//! pinned to a committed artifact, `tests/golden/small_grid.json` (the
//! grid's deterministic JSON). Only verdict fields are compared — each
//! row's cell identity, status counts and `key_recovery_rate` — so a
//! change to the encoding or the search may move query counts and the
//! output error of wrong keys, but not a verdict. The grid deliberately
//! crosses every deterministic-report feature: two schemes,
//! deterministic + stochastic cells, a heterogeneous noise profile, a
//! dynamic-camouflaging rotation period, and combined rotating +
//! stochastic defense cells.
//!
//! If a change *intentionally* alters a verdict, regenerate the artifact
//! with the ignored `regenerate_golden_file` test below — and say so in
//! the commit.

use spin_hall_security::campaign::{Campaign, CampaignSpec, NoiseShape};
use spin_hall_security::prelude::{AttackKind, CamoScheme};
use std::time::Duration;

const GOLDEN: &str = include_str!("golden/small_grid.json");

/// Row fields that name a cell or state its verdict. The rest of a row
/// (query and iteration means, the output error of wrong keys) records
/// how the attack got there.
const VERDICT_FIELDS: [&str; 16] = [
    "benchmark",
    "scheme",
    "attack",
    "level",
    "error_rate",
    "profile",
    "rotation_period",
    "clock_ns",
    "topology",
    "trials",
    "completed",
    "timed_out",
    "exhausted",
    "inconsistent",
    "failed",
    "key_recovery_rate",
];

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
        coi_mode: spin_hall_security::attacks::CoiMode::On,
        sat_simplify: spin_hall_security::attacks::SimplifyMode::Off,
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

/// Each row of a deterministic report reduced to its verdict fields, as
/// `"key":value` text in serialization order.
fn verdict_rows(json: &str) -> Vec<String> {
    row_objects(json)
        .iter()
        .map(|row| {
            row.trim_start_matches('{')
                .trim_end_matches('}')
                .split(',')
                .filter(|field| {
                    VERDICT_FIELDS
                        .iter()
                        .any(|name| field.starts_with(&format!("\"{name}\":")))
                })
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect()
}

#[test]
fn deterministic_json_matches_committed_golden_file() {
    let report = Campaign::run(&golden_spec()).expect("golden campaign");
    let (now, golden) = (
        verdict_rows(&report.deterministic_json()),
        verdict_rows(GOLDEN),
    );
    assert_eq!(now.len(), golden.len(), "row count drifted");
    for (i, (a, b)) in now.iter().zip(&golden).enumerate() {
        assert_eq!(
            a, b,
            "row {i} verdict drifted from tests/golden/small_grid.json; \
             if the change is intentional, regenerate the golden file"
        );
    }
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
