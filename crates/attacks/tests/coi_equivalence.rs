//! End-to-end contract of the cone-of-influence miter reduction on a
//! real campaign cell: attacking s38584 with [`CoiMode::On`] and
//! [`CoiMode::Off`] must both recover *functionally correct* keys (exact
//! SAT equivalence of the resolved netlists against the original), and
//! the COI encoding must never be larger than the full-netlist encoding
//! (clause count of one symbolic keyed copy, measured in fresh solvers).
//!
//! The recovered key bits need not be syntactically identical — camo
//! gates outside every affected output's cone are unconstrained by the
//! oracle, and the COI path resolves them to code 0 — so the test
//! asserts functional equivalence, which is the property the campaign
//! scores.

use gshe_attacks::{
    encode_keyed, sat_attack, verify_key, AttackConfig, AttackStatus, CoiMode, CoiProjection,
    OracleStack,
};
use gshe_camo::{camouflage, select_gates_count, CamoScheme, KeyedNetlist};
use gshe_logic::{suites, Netlist};
use gshe_sat::{CircuitEncoder, Lit, Solver};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// s38584 (the ISCAS-89 cell the paper's Table IV rows use) at scale 8:
/// the full 304-output interface is kept, so most outputs lie outside
/// the camouflaged gates' cones and the COI path does real work, while
/// both attack variants stay debug-build fast.
fn s38584_keyed() -> (Netlist, KeyedNetlist) {
    let spec = suites::spec("s38584").expect("s-suite benchmark present");
    let nl = suites::benchmark(spec, 8, 1);
    let picks = select_gates_count(&nl, 4, 3);
    let mut rng = StdRng::seed_from_u64(3);
    let keyed = camouflage(&nl, &picks, CamoScheme::GsheAll16, &mut rng).expect("camouflage");
    (nl, keyed)
}

/// Clause count of one symbolic keyed copy in a fresh solver.
fn encoding_clauses(keyed: &KeyedNetlist) -> usize {
    let mut s = Solver::new();
    let key_lits: Vec<Lit> = (0..keyed.key_len())
        .map(|_| Lit::pos(s.new_var()))
        .collect();
    let mut enc = CircuitEncoder::new(&mut s);
    encode_keyed(&mut enc, keyed, &key_lits);
    s.num_clauses()
}

#[test]
fn coi_and_full_attacks_agree_on_s38584() {
    let (nl, keyed) = s38584_keyed();

    // The default cone path and the full-design reference path.
    let mut keys = Vec::new();
    for coi in [CoiMode::On, CoiMode::Off] {
        let mut oracle = OracleStack::exact(&nl);
        let config = AttackConfig::default().with_coi_mode(coi);
        let outcome = sat_attack(&keyed, &mut oracle, &config);
        assert_eq!(
            outcome.status,
            AttackStatus::Success,
            "attack with {coi:?} must converge"
        );
        let key = outcome.key.expect("successful attack returns a key");
        let verdict = verify_key(&nl, &keyed, &key).expect("key has the declared width");
        assert!(
            verdict.functionally_equivalent,
            "key recovered with {coi:?} must be functionally correct"
        );
        keys.push(key);
    }

    // Both paths exercised real work: the COI projection exists for this
    // cell (some outputs are unaffected by the 4 camo gates).
    let proj = CoiProjection::build(&keyed, CoiMode::On)
        .expect("s38584 with 4 camo gates has a nontrivial cone");
    assert!(proj.cone_len() < keyed.netlist().len());

    // The reduced miter is never larger than the full one.
    let full_clauses = encoding_clauses(&keyed);
    let coi_clauses = encoding_clauses(proj.keyed());
    assert!(
        coi_clauses <= full_clauses,
        "COI encoding ({coi_clauses} clauses) must not exceed full ({full_clauses})"
    );
}
