//! End-to-end profile-search tests: the search must be replayable from
//! one seed at any thread count, its Pareto front must consist of
//! profiles that actually defeat the attack while a cheaper rejected
//! neighbor does not, and the `EvalSession` it runs on must leave
//! campaign output untouched: a campaign run on a *shared warm* session
//! must serialize exactly like a fresh one (whose verdicts
//! `tests/golden_report.rs` pins to `tests/golden/small_grid.json`).

use spin_hall_security::campaign::search::{ProfileSearch, SearchSpec};
use spin_hall_security::campaign::{Campaign, CampaignSpec, EvalSession, NoiseShape};
use spin_hall_security::prelude::{AttackKind, CamoScheme};
use std::time::Duration;

fn smoke_search_spec(threads: usize) -> SearchSpec {
    SearchSpec {
        name: "search-int".to_string(),
        benchmark: "ex1010".to_string(),
        scale: 400, // floors to 64 gates / 32 inputs — tractable in seconds
        level: 0.15,
        scheme: CamoScheme::GsheAll16,
        attacks: vec![AttackKind::Sat],
        rotation_period: 0,
        clock_periods_ns: vec![0.8, 6.0],
        trials: 2,
        generations: 2,
        lambda: 3,
        target_success: 0.0,
        seed: 5,
        timeout: Duration::from_secs(20),
        threads,
    }
}

fn run_search(threads: usize) -> spin_hall_security::campaign::SearchReport {
    let spec = smoke_search_spec(threads);
    let session = EvalSession::new(spec.threads);
    ProfileSearch::new(&session, spec)
        .expect("search setup")
        .run()
}

#[test]
fn search_is_byte_identical_across_thread_counts() {
    let single = run_search(1);
    let quad = run_search(4);
    assert_eq!(
        single.deterministic_json(),
        quad.deterministic_json(),
        "profile search depends on thread count"
    );
}

#[test]
fn front_profiles_win_while_a_cheaper_rejected_neighbor_loses() {
    // The acceptance experiment: every reported front profile defeats the
    // attack at the target confidence, and the search also scored (and
    // rejected) at least one strictly cheaper candidate that does NOT —
    // the front is genuinely the cheapest *winning* frontier, not just
    // the cheapest anything.
    let report = run_search(2);
    let front = report.front_rows();
    assert!(!front.is_empty(), "no winning profile found");
    for row in &front {
        assert!(row.wins, "front profile does not win: {row:?}");
        assert!(
            row.success_rate <= report.spec.target_success + 1e-12,
            "front profile misses the target confidence: {row:?}"
        );
        assert!(row.noisy_switches > 0, "a quiet chip cannot win");
    }
    // The cheapest front member must dominate some rejected candidate:
    // cheaper on both axes (the quiet baseline anchors this — it is
    // always scored and must lose on a sound instance).
    let cheapest = front[0];
    let cheaper_loser = report.evaluated.iter().find(|row| {
        !row.wins
            && row.noisy_switches <= cheapest.noisy_switches
            && row.mean_rate < cheapest.mean_rate
    });
    assert!(
        cheaper_loser.is_some(),
        "no cheaper rejected neighbor: front {cheapest:?}"
    );
    // The quiet baseline in particular must have been scored and rejected.
    let baseline = report
        .evaluated
        .iter()
        .find(|row| row.candidate.origin == "baseline:quiet")
        .expect("quiet baseline always scored");
    assert!(
        !baseline.wins,
        "a deterministic chip must lose: {baseline:?}"
    );

    // Mutations only ever explore cheaper neighbors of winners, so the
    // front must be at least as cheap as every physics seed that won.
    let cheapest_seed_mean = report
        .evaluated
        .iter()
        .filter(|row| row.generation == 0 && row.wins)
        .map(|row| row.mean_rate)
        .fold(f64::INFINITY, f64::min);
    assert!(
        cheapest.mean_rate <= cheapest_seed_mean,
        "search did not improve on its physics seeds"
    );
}

#[test]
fn combined_frontier_search_runs_under_a_rotation_budget() {
    // rotation_period > 0 scores every candidate against the combined
    // rotating + noisy stack. A fast rotation defeats the attack even for
    // the quiet profile, so the front collapses to zero noisy switches —
    // rotation alone is the cheapest winning defense under that budget.
    let spec = SearchSpec {
        rotation_period: 4,
        generations: 1,
        clock_periods_ns: vec![6.0],
        ..smoke_search_spec(2)
    };
    let session = EvalSession::new(spec.threads);
    let report = ProfileSearch::new(&session, spec)
        .expect("search setup")
        .run();
    let front = report.front_rows();
    assert!(!front.is_empty());
    assert_eq!(
        front[0].noisy_switches, 0,
        "under a strong rotation budget the quiet profile should win: {front:?}"
    );
}

#[test]
fn warm_session_campaign_output_stays_byte_identical() {
    // The EvalSession equality pin: the same campaign spec run twice on
    // one warm session — with a profile search in between, growing the
    // session's memos — must serialize byte-identically to a
    // fresh one-shot `Campaign::run` (whose verdicts the golden test pins
    // to `tests/golden/small_grid.json`).
    let campaign_spec = CampaignSpec {
        name: "warm".to_string(),
        benchmarks: vec!["ex1010".to_string()],
        scale: 400,
        levels: vec![0.15],
        schemes: vec![CamoScheme::GsheAll16],
        attacks: vec![AttackKind::Sat],
        error_rates: vec![0.0, 0.25],
        clock_periods_ns: Vec::new(),
        profiles: vec![NoiseShape::Uniform],
        rotation_periods: vec![0, 4],
        trials: 2,
        seed: 9,
        timeout: Duration::from_secs(30),
        threads: 2,
        topology: spin_hall_security::logic::Topology::Uniform,
        coi_mode: spin_hall_security::attacks::CoiMode::On,
        sat_simplify: spin_hall_security::attacks::SimplifyMode::Off,
    };
    let fresh = Campaign::run(&campaign_spec).expect("fresh campaign");

    let session = EvalSession::new(2);
    let first = session.run(&campaign_spec).expect("first warm run");
    let _search = ProfileSearch::new(&session, smoke_search_spec(2))
        .expect("search setup")
        .run();
    let second = session.run(&campaign_spec).expect("second warm run");

    assert_eq!(fresh.deterministic_json(), first.deterministic_json());
    assert_eq!(fresh.deterministic_json(), second.deterministic_json());
}
