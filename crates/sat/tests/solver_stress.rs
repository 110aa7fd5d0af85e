#![allow(clippy::needless_range_loop)] // index vars tie multiple slices together in these instances
//! Stress and semantic tests for the CDCL solver beyond the unit suite:
//! incremental-vs-monolithic agreement, assumption semantics, model
//! validity on structured instances, and budget behavior.

use gshe_sat::solver::Budget;
use gshe_sat::{Lit, SolveResult, Solver};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_cnf(rng: &mut StdRng, n: usize, m: usize, k: usize) -> Vec<Vec<i64>> {
    (0..m)
        .map(|_| {
            (0..k)
                .map(|_| {
                    let v = rng.gen_range(1..=n as i64);
                    if rng.gen_bool(0.5) {
                        v
                    } else {
                        -v
                    }
                })
                .collect()
        })
        .collect()
}

fn load(clauses: &[Vec<i64>], n: usize) -> Solver {
    let mut s = Solver::new();
    for _ in 0..n {
        s.new_var();
    }
    for c in clauses {
        let lits: Vec<Lit> = c.iter().map(|&l| Lit::from_dimacs(l)).collect();
        s.add_clause(&lits);
    }
    s
}

#[test]
fn incremental_equals_monolithic() {
    // Adding clauses in two batches with an intermediate solve must agree
    // with loading everything upfront.
    let mut rng = StdRng::seed_from_u64(0xFEED);
    for trial in 0..40 {
        let n = rng.gen_range(5..30);
        let m = rng.gen_range(5..(4 * n));
        let clauses = random_cnf(&mut rng, n, m, 3);
        let split = m / 2;

        let mut mono = load(&clauses, n);
        let expected = mono.solve();

        let mut inc = load(&clauses[..split], n);
        let _ = inc.solve(); // intermediate solve
        for c in &clauses[split..] {
            let lits: Vec<Lit> = c.iter().map(|&l| Lit::from_dimacs(l)).collect();
            inc.add_clause(&lits);
        }
        assert_eq!(inc.solve(), expected, "trial {trial}");
    }
}

#[test]
fn assumptions_do_not_pollute_later_solves() {
    let mut rng = StdRng::seed_from_u64(0xABCD);
    for trial in 0..30 {
        let n = rng.gen_range(4..16);
        let clauses = random_cnf(&mut rng, n, 2 * n, 3);
        let mut s = load(&clauses, n);
        let unconditioned = s.solve();
        // Random assumption set.
        let assumptions: Vec<Lit> = (0..rng.gen_range(1..n))
            .map(|i| Lit::with_polarity(gshe_sat::Var(i as u32), rng.gen_bool(0.5)))
            .collect();
        let _ = s.solve_with(&assumptions);
        // The unconditioned answer must be unchanged afterwards.
        assert_eq!(s.solve(), unconditioned, "trial {trial}");
    }
}

#[test]
fn assumption_of_both_polarities_is_unsat() {
    let mut s = Solver::new();
    let a = Lit::pos(s.new_var());
    let b = Lit::pos(s.new_var());
    s.add_clause(&[a, b]);
    assert_eq!(s.solve_with(&[a, !a]), SolveResult::Unsat);
    assert_eq!(s.solve(), SolveResult::Sat);
}

#[test]
fn models_satisfy_graph_coloring() {
    // 3-coloring of a ring: SAT iff the ring length is not odd... a ring
    // is 2-colorable iff even, but always 3-colorable. Verify the model.
    for len in [4usize, 5, 9, 12] {
        let mut s = Solver::new();
        let colors: Vec<[Lit; 3]> = (0..len)
            .map(|_| {
                [
                    Lit::pos(s.new_var()),
                    Lit::pos(s.new_var()),
                    Lit::pos(s.new_var()),
                ]
            })
            .collect();
        for c in &colors {
            s.add_clause(c);
            for i in 0..3 {
                for j in (i + 1)..3 {
                    s.add_clause(&[!c[i], !c[j]]);
                }
            }
        }
        for v in 0..len {
            let w = (v + 1) % len;
            for k in 0..3 {
                s.add_clause(&[!colors[v][k], !colors[w][k]]);
            }
        }
        assert_eq!(s.solve(), SolveResult::Sat, "ring {len}");
        for v in 0..len {
            let cv: Vec<usize> = (0..3).filter(|&k| s.model_lit(colors[v][k])).collect();
            assert_eq!(cv.len(), 1, "vertex {v} has {cv:?}");
            let w = (v + 1) % len;
            let cw: Vec<usize> = (0..3).filter(|&k| s.model_lit(colors[w][k])).collect();
            assert_ne!(cv, cw, "edge {v}-{w} monochromatic");
        }
    }
}

#[test]
fn two_coloring_of_odd_ring_is_unsat() {
    for len in [3usize, 5, 7, 11] {
        let mut s = Solver::new();
        let x: Vec<Lit> = (0..len).map(|_| Lit::pos(s.new_var())).collect();
        for v in 0..len {
            let w = (v + 1) % len;
            // adjacent vertices differ: x_v XOR x_w
            s.add_clause(&[x[v], x[w]]);
            s.add_clause(&[!x[v], !x[w]]);
        }
        assert_eq!(s.solve(), SolveResult::Unsat, "odd ring {len}");
    }
}

#[test]
fn budget_unknown_then_resolution() {
    // A moderately hard UNSAT instance: php(8,7).
    let mut s = Solver::new();
    let n = 8;
    let p: Vec<Vec<Lit>> = (0..n)
        .map(|_| (0..n - 1).map(|_| Lit::pos(s.new_var())).collect())
        .collect();
    for row in &p {
        s.add_clause(row);
    }
    for j in 0..n - 1 {
        for i1 in 0..n {
            for i2 in (i1 + 1)..n {
                s.add_clause(&[!p[i1][j], !p[i2][j]]);
            }
        }
    }
    s.set_budget(Budget {
        max_conflicts: Some(10),
    });
    assert_eq!(s.solve(), SolveResult::Unknown);
    s.set_budget(Budget::default());
    assert_eq!(s.solve(), SolveResult::Unsat);
    // Stats accumulated across both calls.
    assert!(s.stats().conflicts > 10);
}

#[test]
fn large_random_satisfiable_instance() {
    // Under-constrained random 3-SAT (ratio 2.0): almost surely SAT; the
    // solver must find a model and the model must check.
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let n = 400;
    let clauses = random_cnf(&mut rng, n, 2 * n, 3);
    let mut s = load(&clauses, n);
    assert_eq!(s.solve(), SolveResult::Sat);
    for c in &clauses {
        assert!(c.iter().any(|&l| s.model_lit(Lit::from_dimacs(l))));
    }
}

#[test]
fn xor_bank_has_unique_solution() {
    // x_i = parity chain; forces a unique model the solver must find.
    let mut s = Solver::new();
    let n = 24;
    let x: Vec<Lit> = (0..n).map(|_| Lit::pos(s.new_var())).collect();
    // x0 = 1; x_{i+1} = !x_i
    s.add_clause(&[x[0]]);
    for i in 0..n - 1 {
        s.add_clause(&[x[i], x[i + 1]]);
        s.add_clause(&[!x[i], !x[i + 1]]);
    }
    assert_eq!(s.solve(), SolveResult::Sat);
    for (i, &l) in x.iter().enumerate() {
        assert_eq!(s.model_lit(l), i % 2 == 0, "bit {i}");
    }
}
