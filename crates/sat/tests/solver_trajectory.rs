//! Pins the solver's search, not only its verdicts: exact search
//! statistics and a hash of every model, on three fixed instances that
//! between them fire restarts, the reduction reprieve, DB reduction,
//! arena GC, bounded variable elimination, reintroduction and model
//! extension.
//!
//! A kernel change meant to be search-neutral (a faster propagation
//! loop, a cheaper heap, a different value store) must leave every
//! number here unchanged. A change meant to alter the search (a new
//! heuristic, a different minimization, another restart rule) re-records
//! the numbers and says so in CHANGES.md.

use gshe_sat::{Lit, SearchConfig, SimplifyMode, SolveResult, Solver, SolverStats, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The search counters that do not depend on the clock.
fn counts(s: &SolverStats) -> [u64; 10] {
    [
        s.decisions,
        s.propagations,
        s.conflicts,
        s.restarts,
        s.learnts,
        s.deleted,
        s.db_gcs,
        s.elim_vars,
        s.subsumed,
        s.strengthened,
    ]
}

/// FNV-1a, spelled out so the hash cannot change with the toolchain.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
    }
}

/// Folds one solve's result, and after `Sat` its model over `vars`,
/// into `h`.
fn record(h: &mut Fnv, s: &Solver, r: SolveResult, vars: &[Var]) {
    h.byte(match r {
        SolveResult::Sat => 1,
        SolveResult::Unsat => 2,
        SolveResult::Unknown => 3,
    });
    if r == SolveResult::Sat {
        for &v in vars {
            h.byte(u8::from(s.model_value(v)));
        }
    }
}

#[allow(clippy::needless_range_loop)] // hole index `j` ties pigeon rows together
fn pigeonhole(s: &mut Solver, pigeons: usize, holes: usize) -> Vec<Var> {
    let p: Vec<Vec<Var>> = (0..pigeons)
        .map(|_| (0..holes).map(|_| s.new_var()).collect())
        .collect();
    for row in &p {
        let clause: Vec<Lit> = row.iter().map(|&v| Lit::pos(v)).collect();
        s.add_clause(&clause);
    }
    for j in 0..holes {
        for i1 in 0..pigeons {
            for i2 in (i1 + 1)..pigeons {
                s.add_clause(&[Lit::neg(p[i1][j]), Lit::neg(p[i2][j])]);
            }
        }
    }
    p.into_iter().flatten().collect()
}

fn random_clause(rng: &mut StdRng, vars: &[Var]) -> Vec<Lit> {
    (0..3)
        .map(|_| Lit::with_polarity(vars[rng.gen_range(0..vars.len())], rng.gen_bool(0.5)))
        .collect()
}

/// A DIP-shaped incremental loop: a seeded random 3-CNF, then rounds of
/// solve under an activation assumption, block the model over a fixed
/// subset of the variables, and add a few fresh clauses (some gated on
/// the activation literal, the way the miter gates its distinctness
/// clauses). A small reduce/GC schedule makes reduction and GC fire
/// between incremental solves. Returns the final stats, the hash of every
/// round, and how many variables are still eliminated at the end.
fn dip_loop(mode: SimplifyMode) -> ([u64; 10], u64, usize) {
    const VARS: usize = 150;
    const CLAUSES: usize = 480;
    const ROUNDS: usize = 50;
    let mut rng = StdRng::seed_from_u64(0x5EED_D1B5);
    let mut s = Solver::new();
    s.set_simplify(mode);
    s.set_search_config(SearchConfig {
        reduce_base: 64,
        reduce_growth_pct: 10,
        gc_wasted_pct: 10,
    });
    let vars: Vec<Var> = (0..VARS).map(|_| s.new_var()).collect();
    let act = Lit::pos(s.new_var());
    for _ in 0..CLAUSES {
        let c = random_clause(&mut rng, &vars);
        s.add_clause(&c);
    }
    let subset: Vec<Lit> = vars[..16].iter().map(|&v| Lit::pos(v)).collect();
    let mut h = Fnv::new();
    for _ in 0..ROUNDS {
        let r = s.solve_with(&[act]);
        record(&mut h, &s, r, &vars);
        if r != SolveResult::Sat {
            let r = s.solve();
            record(&mut h, &s, r, &vars);
            if r != SolveResult::Sat {
                break;
            }
        }
        s.block_model(&subset);
        for k in 0..2 {
            let mut c = random_clause(&mut rng, &vars);
            if k == 0 {
                c.push(!act);
            }
            s.add_clause(&c);
        }
    }
    let still = vars.iter().filter(|&&v| s.is_eliminated(v)).count();
    (counts(&s.stats()), h.0, still)
}

#[test]
fn pigeonhole_under_the_tiny_schedule() {
    // Restarts, the reduction reprieve, reduction and GC all fire.
    let mut s = Solver::new();
    s.set_search_config(SearchConfig {
        reduce_base: 8,
        reduce_growth_pct: 10,
        gc_wasted_pct: 10,
    });
    let vars = pigeonhole(&mut s, 8, 7);
    let mut h = Fnv::new();
    let r = s.solve();
    record(&mut h, &s, r, &vars);
    assert_eq!(r, SolveResult::Unsat);
    assert_eq!(
        (counts(&s.stats()), h.0),
        (
            [30665, 337699, 23197, 127, 525, 22660, 1211, 0, 0, 0],
            12638155314718423877
        )
    );
}

#[test]
fn dip_loop_without_simplification() {
    assert_eq!(
        dip_loop(SimplifyMode::Off),
        (
            [5216, 104413, 3014, 0, 775, 2238, 29, 0, 0, 0],
            6896073578842227699,
            0
        )
    );
}

#[test]
fn dip_loop_with_simplification() {
    // 16 variables are eliminated and 15 of them come back through added
    // clauses; the one still eliminated is read through model extension
    // in every round.
    assert_eq!(
        dip_loop(SimplifyMode::On),
        (
            [4979, 102109, 2953, 0, 845, 2107, 28, 16, 0, 0],
            12133969178916421211,
            1
        )
    );
}
