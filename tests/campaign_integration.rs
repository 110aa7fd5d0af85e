//! End-to-end campaign-engine tests: a two-scheme × two-attack campaign
//! must (a) produce byte-identical deterministic reports across
//! `threads = 1` and `threads = 4` for the same seed, and (b) mark jobs
//! that exhaust their wall-clock budget `TimedOut` instead of hanging the
//! pool.

use spin_hall_security::attacks::{CoiMode, SimplifyMode};
use spin_hall_security::campaign::{Campaign, CampaignSpec, JobStatus, NoiseShape};
use spin_hall_security::logic::Topology;
use spin_hall_security::prelude::{AttackKind, CamoScheme};
use std::time::{Duration, Instant};

fn two_by_two_spec(threads: usize) -> CampaignSpec {
    CampaignSpec {
        name: "integration".to_string(),
        benchmarks: vec!["ex1010".to_string()],
        scale: 400, // floors to 64 gates / 32 inputs — tractable in seconds
        levels: vec![0.15],
        schemes: vec![CamoScheme::InvBuf, CamoScheme::FourFn],
        attacks: vec![AttackKind::Sat, AttackKind::DoubleDip],
        error_rates: vec![0.0],
        clock_periods_ns: Vec::new(),
        profiles: vec![NoiseShape::Uniform],
        rotation_periods: vec![0],
        trials: 2,
        seed: 11,
        timeout: Duration::from_secs(60),
        threads,
        topology: Topology::Uniform,
        coi_mode: CoiMode::On,
        sat_simplify: SimplifyMode::Off,
    }
}

#[test]
fn results_are_identical_across_thread_counts() {
    let single = Campaign::run(&two_by_two_spec(1)).expect("1-thread campaign");
    let quad = Campaign::run(&two_by_two_spec(4)).expect("4-thread campaign");

    // 1 benchmark × 1 level × 2 schemes × 2 attacks × 2 trials.
    assert_eq!(single.results.len(), 8);
    assert_eq!(single.rows.len(), 4, "one row per (scheme, attack) cell");

    // The deterministic serialization must match byte-for-byte.
    assert_eq!(
        single.deterministic_json(),
        quad.deterministic_json(),
        "campaign results depend on thread count"
    );

    // These tiny instances must actually break: recovery everywhere.
    for row in &single.rows {
        assert_eq!(row.trials, 2);
        assert_eq!(
            row.key_recovery_rate, 1.0,
            "expected full recovery for {:?}",
            row.key
        );
    }

    // When real parallel hardware is available, more workers must not be
    // slower than one by more than scheduling noise; on a multi-core box
    // the suite-scale speedup claim is exercised by the `campaign` binary.
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    if cores >= 4 {
        assert!(
            quad.wall_time.as_secs_f64() < single.wall_time.as_secs_f64() * 1.10,
            "4 threads ({:?}) should not lose to 1 thread ({:?}) on {cores} cores",
            quad.wall_time,
            single.wall_time,
        );
    }
}

#[test]
fn exhausted_budgets_mark_jobs_timed_out_without_hanging_the_pool() {
    // A near-zero budget on a hard instance: the attack must give up
    // quickly and report TimedOut — the pool keeps draining.
    let spec = CampaignSpec {
        name: "timeout".to_string(),
        benchmarks: vec!["c7552".to_string()],
        scale: 20,
        levels: vec![0.4],
        schemes: vec![CamoScheme::GsheAll16],
        attacks: vec![AttackKind::Sat, AttackKind::DoubleDip],
        error_rates: vec![0.0],
        clock_periods_ns: Vec::new(),
        profiles: vec![NoiseShape::Uniform],
        rotation_periods: vec![0],
        trials: 1,
        seed: 2,
        timeout: Duration::from_millis(0),
        threads: 4,
        topology: Topology::Uniform,
        coi_mode: CoiMode::On,
        sat_simplify: SimplifyMode::Off,
    };
    let start = Instant::now();
    let report = Campaign::run(&spec).expect("timeout campaign");
    assert_eq!(report.results.len(), 2);
    for result in &report.results {
        assert_eq!(
            result.status,
            JobStatus::TimedOut,
            "zero budget must time out: {result:?}"
        );
        assert!(!result.key_recovered);
    }
    // A wedged pool would sit at the 60 s default; generous bound for slow CI.
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "pool appears wedged"
    );

    // The aggregate row records the timeouts.
    assert_eq!(report.rows.len(), 2);
    for row in &report.rows {
        assert_eq!(row.status_counts[1], 1, "TimedOut count: {row:?}");
        assert_eq!(row.key_recovery_rate, 0.0);
    }
}

#[test]
fn rotation_period_sweep_shows_attack_collapse_end_to_end() {
    // The dynamic-camouflaging dimension (Sec. V-C / the rotation-period
    // follow-up): short periods starve the SAT attack of a consistent
    // solution space, while a period beyond the attack's total query need
    // behaves like the static chip.
    let spec = CampaignSpec {
        name: "rotation".to_string(),
        benchmarks: vec!["ex1010".to_string()],
        scale: 400,
        levels: vec![0.15],
        schemes: vec![CamoScheme::GsheAll16],
        attacks: vec![AttackKind::Sat],
        error_rates: vec![0.0],
        clock_periods_ns: Vec::new(),
        profiles: vec![NoiseShape::Uniform],
        rotation_periods: vec![0, 1, 4, 1_000_000],
        trials: 2,
        seed: 7,
        timeout: Duration::from_secs(30),
        threads: 2,
        topology: Topology::Uniform,
        coi_mode: CoiMode::On,
        sat_simplify: SimplifyMode::Off,
    };
    let report = Campaign::run(&spec).expect("rotation campaign");
    // One row per period, in sweep order, each carrying its period.
    assert_eq!(report.rows.len(), 4);
    let periods: Vec<u64> = report.rows.iter().map(|r| r.key.rotation_period).collect();
    assert_eq!(periods, [0, 1, 4, 1_000_000]);

    let recovery: Vec<f64> = report.rows.iter().map(|r| r.key_recovery_rate).collect();
    assert_eq!(recovery[0], 1.0, "static oracle must break");
    assert_eq!(recovery[1], 0.0, "period 1 must defeat the attack");
    assert_eq!(recovery[2], 0.0, "period 4 must defeat the attack");
    assert_eq!(
        recovery[3], 1.0,
        "a period beyond the query budget is effectively static"
    );

    // The deterministic JSON carries the period for rotating rows only.
    let json = report.deterministic_json();
    assert!(json.contains("\"rotation_period\":1"));
    assert!(json.contains("\"rotation_period\":1000000"));
}

#[test]
fn combined_defense_grid_is_no_easier_than_either_defense_alone() {
    // The oracle-stack refactor's acceptance experiment: run the full
    // `rotation_periods × error_rates × profiles` cross product end to
    // end and pin the combined-defense trend — a rotating *and* noisy
    // chip must be no easier for the attacker than either defense alone
    // at matched budgets. Period 1_000_000 sits beyond the attack's
    // query budget (rotation effectively off), so its combined cell
    // isolates the noise layer inside the stacked oracle.
    let spec = CampaignSpec {
        name: "combined".to_string(),
        benchmarks: vec!["ex1010".to_string()],
        scale: 400,
        levels: vec![0.15],
        schemes: vec![CamoScheme::GsheAll16],
        attacks: vec![AttackKind::Sat],
        error_rates: vec![0.0, 0.25],
        clock_periods_ns: Vec::new(),
        profiles: vec![NoiseShape::Uniform, NoiseShape::OutputCone],
        rotation_periods: vec![0, 4, 1_000_000],
        trials: 2,
        seed: 7,
        timeout: Duration::from_secs(30),
        threads: 2,
        topology: Topology::Uniform,
        coi_mode: CoiMode::On,
        sat_simplify: SimplifyMode::Off,
    };
    let report = Campaign::run(&spec).expect("combined campaign");
    // 3 periods × (rate-0 collapses profiles → 1 cell, rate 0.25 → 2
    // profile cells) = 9 rows: the rotation dimension no longer collapses
    // the noise dimensions.
    assert_eq!(report.rows.len(), 9);

    let recovery = |period: u64, rate: f64, profile: NoiseShape| -> f64 {
        report
            .rows
            .iter()
            .find(|r| {
                r.key.rotation_period == period
                    && (r.key.error_rate - rate).abs() < 1e-12
                    && r.key.profile == profile
            })
            .unwrap_or_else(|| panic!("missing cell ({period}, {rate}, {profile})"))
            .key_recovery_rate
    };

    // Baselines: the undefended cell breaks; fast rotation alone defeats.
    assert_eq!(recovery(0, 0.0, NoiseShape::Uniform), 1.0);
    assert_eq!(recovery(4, 0.0, NoiseShape::Uniform), 0.0);
    // An over-long period alone is no defense.
    assert_eq!(recovery(1_000_000, 0.0, NoiseShape::Uniform), 1.0);

    // The combined trend, per profile shape and per period.
    for profile in [NoiseShape::Uniform, NoiseShape::OutputCone] {
        let noise_only = recovery(0, 0.25, profile);
        for period in [4u64, 1_000_000] {
            let rotation_only = recovery(period, 0.0, NoiseShape::Uniform);
            let combined = recovery(period, 0.25, profile);
            assert!(
                combined <= noise_only && combined <= rotation_only,
                "combined cell easier than a single defense: period {period} \
                 profile {profile} combined {combined} vs noise {noise_only} / \
                 rotation {rotation_only}"
            );
        }
    }

    // The deterministic JSON names the combined cells.
    let json = report.deterministic_json();
    assert!(json.contains("\"error_rate\":0.25,") && json.contains("\"rotation_period\":4"));
}

#[test]
fn clock_period_sweep_derives_physical_rates_end_to_end() {
    // Sec. V-B from the device Monte Carlo to the campaign table: clock
    // periods as rate sources. An aggressive 0.8 ns clock pushes every
    // cloaked switch deep into the stochastic regime (the attack must
    // collapse); a relaxed 6 ns clock is near-deterministic.
    let spec = CampaignSpec {
        name: "clocks".to_string(),
        benchmarks: vec!["ex1010".to_string()],
        scale: 400,
        levels: vec![0.15],
        schemes: vec![CamoScheme::GsheAll16],
        attacks: vec![AttackKind::Sat],
        error_rates: vec![],
        clock_periods_ns: vec![0.8, 6.0],
        profiles: vec![NoiseShape::Uniform],
        rotation_periods: vec![0],
        trials: 2,
        seed: 4,
        timeout: Duration::from_secs(30),
        threads: 2,
        topology: Topology::Uniform,
        coi_mode: CoiMode::On,
        sat_simplify: SimplifyMode::Off,
    };
    let report = Campaign::run(&spec).expect("clock campaign");
    assert_eq!(report.rows.len(), 2);
    let row_for = |clock_ns: f64| {
        report
            .rows
            .iter()
            .find(|r| (r.key.clock_ns - clock_ns).abs() < 1e-12)
            .unwrap_or_else(|| panic!("missing clock cell {clock_ns}"))
    };
    let aggressive = row_for(0.8);
    let relaxed = row_for(6.0);
    assert!(
        aggressive.key.error_rate > 0.2,
        "0.8 ns derived rate: {}",
        aggressive.key.error_rate
    );
    assert!(
        relaxed.key.error_rate < 0.05,
        "6 ns derived rate: {}",
        relaxed.key.error_rate
    );
    assert_eq!(
        aggressive.key_recovery_rate, 0.0,
        "a deep-stochastic chip must defeat the attack"
    );
    assert!(relaxed.key_recovery_rate >= aggressive.key_recovery_rate);

    // The deterministic JSON tags physical cells with their clock period.
    let json = report.deterministic_json();
    assert!(json.contains("\"clock_ns\":0.8") && json.contains("\"clock_ns\":6"));
}

#[test]
fn aag_suite_runs_through_the_campaign_engine() {
    // The AIGER frontend as an ordinary benchmark source: `.aag` paths in
    // `benchmarks` pass straight through selector resolution, materialize
    // via `parse_aag` (the sequential file exercises latch cutting), and
    // attack like any generated netlist — deterministically across
    // thread counts.
    let data = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/");
    let spec_for = |threads: usize| CampaignSpec {
        name: "aag-suite".to_string(),
        benchmarks: vec![
            format!("{data}epfl_ctrl.aag"),
            format!("{data}epfl_mem_ctrl.aag"),
        ],
        scale: 20, // ignored by file-backed benchmarks
        levels: vec![0.5],
        schemes: vec![CamoScheme::InvBuf],
        attacks: vec![AttackKind::Sat],
        error_rates: vec![0.0],
        clock_periods_ns: Vec::new(),
        profiles: vec![NoiseShape::Uniform],
        rotation_periods: vec![0],
        trials: 1,
        seed: 3,
        timeout: Duration::from_secs(30),
        threads,
        topology: Topology::Uniform,
        coi_mode: CoiMode::On,
        sat_simplify: SimplifyMode::Off,
    };
    let report = Campaign::run(&spec_for(2)).expect("aag campaign");
    assert_eq!(report.results.len(), 2);
    for result in &report.results {
        assert_eq!(
            result.status,
            JobStatus::Completed,
            "aag job failed: {result:?}"
        );
        assert!(result.key_recovered, "tiny instances must break");
    }
    assert_eq!(
        report.deterministic_json(),
        Campaign::run(&spec_for(1)).unwrap().deterministic_json(),
        "aag-backed campaigns must stay thread-count deterministic"
    );

    // The sequential file's latches were cut: 3 inputs + 2 states in,
    // 2 outputs + 2 next-state functions out.
    let session = spin_hall_security::campaign::EvalSession::new(1);
    let nl = session
        .netlist(&format!("{data}epfl_mem_ctrl.aag"), 20, 3)
        .expect("mem_ctrl loads");
    assert_eq!(nl.inputs().len(), 5);
    assert_eq!(nl.outputs().len(), 4);
}

#[test]
fn stochastic_cells_defeat_the_attack_in_campaign_form() {
    // Sec. V-B through the engine: a noisy oracle must not yield the key.
    let spec = CampaignSpec {
        name: "stochastic".to_string(),
        benchmarks: vec!["ex1010".to_string()],
        scale: 400,
        levels: vec![0.3],
        schemes: vec![CamoScheme::GsheAll16],
        attacks: vec![AttackKind::Sat],
        error_rates: vec![0.25],
        clock_periods_ns: Vec::new(),
        profiles: vec![NoiseShape::Uniform],
        rotation_periods: vec![0],
        trials: 3,
        seed: 4,
        timeout: Duration::from_secs(30),
        threads: 2,
        topology: Topology::Uniform,
        coi_mode: CoiMode::On,
        sat_simplify: SimplifyMode::Off,
    };
    let report = Campaign::run(&spec).expect("stochastic campaign");
    let row = &report.rows[0];
    assert_eq!(row.trials, 3);
    assert!(
        row.key_recovery_rate < 0.5,
        "noisy oracle should defeat the attack: {row:?}"
    );
}
