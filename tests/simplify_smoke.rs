//! The two remaining attack switches change solver work, never answers:
//! running the CI smoke campaign's exact-oracle cells with the
//! cone-of-influence projection on and off, and with solver
//! simplification on and off, must produce the same verdict (status and
//! key recovered) for every job. Query and iteration counts may differ —
//! the cone instance and preprocessing reshape the search and therefore
//! the DIP sequence — but an attack that breaks a cell under one setting
//! must break it under every other, and vice versa.
//!
//! Only exact-oracle cells are comparable this way: a noisy or rotating
//! oracle answers as a function of the query *sequence*, so two attacks
//! asking different (equally valid) DIP streams can legitimately reach
//! different outcomes. The exact cells are the equivalence check; the
//! noisy cells of the same spec are covered by the verdict-independent
//! assertions in the campaign integration tests.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spin_hall_security::attacks::{assert_valid_key_codes, encode_keyed, CoiMode, SimplifyMode};
use spin_hall_security::campaign::{Campaign, CampaignSpec, JobStatus};
use spin_hall_security::logic::suites;
use spin_hall_security::prelude::{camouflage, select_gates, CamoScheme};
use spin_hall_security::sat::{CircuitEncoder, Lit, Polarity, Solver};
use std::sync::Arc;

#[test]
fn smoke_verdicts_match_with_and_without_simplification() {
    let toml = std::fs::read_to_string("specs/smoke.toml").expect("smoke spec present");
    let mut spec = CampaignSpec::parse_toml(&toml).expect("smoke spec parses");
    // Exact oracles only (see module docs): drop the noise, clock-rate,
    // and rotation sweeps; keep the full trial grid. Inv-buf and four-fn
    // insert cells while camouflaging, so their keyed netlists number
    // nodes differently from the original design.
    spec.error_rates = vec![0.0];
    spec.clock_periods_ns = Vec::new();
    spec.profiles.truncate(1);
    spec.rotation_periods = vec![0];
    spec.schemes = vec![
        CamoScheme::InvBuf,
        CamoScheme::FourFn,
        CamoScheme::GsheAll16,
    ];

    let mut runs = Vec::new();
    for coi in [CoiMode::On, CoiMode::Off] {
        for simplify in [SimplifyMode::Off, SimplifyMode::On] {
            let run = CampaignSpec {
                coi_mode: coi,
                sat_simplify: simplify,
                ..spec.clone()
            };
            let report = Campaign::run(&run)
                .unwrap_or_else(|e| panic!("smoke with coi {coi:?}, simplify {simplify:?}: {e}"));
            runs.push(((coi, simplify), report));
        }
    }

    let (base_mode, base) = &runs[0];
    assert!(!base.results.is_empty());
    for r in &base.results {
        assert!(
            r.status == JobStatus::Completed && r.key_recovered,
            "an exact cell must recover a verified key: {r:?}"
        );
    }
    for (mode, run) in &runs[1..] {
        assert_eq!(base.results.len(), run.results.len());
        for (a, b) in base.results.iter().zip(&run.results) {
            assert_eq!(a.spec.kind, b.spec.kind, "job grids diverged");
            assert_eq!(
                (a.status, a.key_recovered),
                (b.status, b.key_recovered),
                "verdict differs between {base_mode:?} and {mode:?}: {:?}",
                a.spec.kind
            );
        }
        for (a, b) in base.rows.iter().zip(&run.rows) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.status_counts, b.status_counts);
            assert_eq!(a.key_recovery_rate, b.key_recovery_rate);
        }
    }
}

/// The preprocessing payoff on the attack's real workload, pinned: on
/// the s38584 two-copy key-search miter (the instance the
/// `simplify_miter_s38584` bench attacks), subsumption + bounded variable
/// elimination must shave at least 30% of the problem clauses or 30% of
/// the variables. The construction mirrors `dip_engine::refine` exactly —
/// key codes, two circuit copies over shared inputs, output miter — with
/// the same interface freezing (key and input literals).
#[test]
fn preprocessing_reduces_the_s38584_miter_by_30_percent() {
    let spec = suites::spec("s38584").expect("s-suite benchmark present");
    let nl = Arc::new(suites::benchmark_scaled(spec, 40, 1));
    let picks = select_gates(&nl, 0.1, 3);
    let mut rng = StdRng::seed_from_u64(3);
    let keyed = camouflage(&nl, &picks, CamoScheme::GsheAll16, &mut rng).expect("camouflage");

    let mut solver = Solver::new();
    let keys: Vec<Vec<Lit>> = (0..2)
        .map(|_| {
            (0..keyed.key_len())
                .map(|_| Lit::pos(solver.new_var()))
                .collect()
        })
        .collect();
    let input_lits = {
        let mut enc = CircuitEncoder::new(&mut solver);
        for k in &keys {
            assert_valid_key_codes(&mut enc, &keyed, k);
        }
        let copies: Vec<_> = keys
            .iter()
            .map(|k| encode_keyed(&mut enc, &keyed, k))
            .collect();
        for (a, b) in copies[0].inputs.iter().zip(&copies[1].inputs) {
            enc.equal(*a, *b);
        }
        let d = enc.miter_pol(&copies[0].outputs, &copies[1].outputs, Polarity::Pos);
        enc.clause(&[d]);
        copies[0].inputs.clone()
    };
    for l in keys.iter().flatten().chain(&input_lits) {
        solver.freeze(l.var());
    }

    let vars_before = solver.num_vars();
    let clauses_before = solver.num_problem_clauses();
    assert!(solver.preprocess(), "the miter alone must stay satisfiable");
    let clauses_after = solver.num_problem_clauses();
    let elim = solver.stats().elim_vars as usize;

    let clause_cut = 1.0 - clauses_after as f64 / clauses_before as f64;
    let var_cut = elim as f64 / vars_before as f64;
    println!(
        "s38584 miter: {clauses_before} -> {clauses_after} clauses ({:.1}%), \
         {elim}/{vars_before} vars eliminated ({:.1}%)",
        clause_cut * 100.0,
        var_cut * 100.0
    );
    assert!(
        clause_cut >= 0.30 || var_cut >= 0.30,
        "preprocessing shaved only {:.1}% clauses / {:.1}% vars",
        clause_cut * 100.0,
        var_cut * 100.0
    );
}
