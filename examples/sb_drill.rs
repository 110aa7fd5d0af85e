//! Superblue drill-down: runs one superblue grid cell (camouflage → SAT
//! attack) with instrumentation on and dumps the full metrics snapshot —
//! per-solve conflict/decision/propagation distributions, learnt-clause
//! LBD histogram, COI cone diagnostics, and simplification stats — as
//! JSON on stdout. Human-readable progress goes to stderr, so
//!
//! ```text
//! cargo run --release --example sb_drill -- sb5 64 on > drill.json
//! ```
//!
//! leaves a clean machine-readable file. Arguments (all optional):
//! benchmark name (default `sb5`), scale divisor (default `64`), and a
//! `sat_simplify` mode — `on` or `off` (default `off`) — for
//! before/after comparisons of the solver's preprocessing pipeline on
//! the same instance. The attack runs on the cloaked cells' cone of
//! influence, as every campaign cell does.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spin_hall_security::attacks::SimplifyMode;
use spin_hall_security::logic::{suites, Topology};
use spin_hall_security::prelude::*;
use std::time::Instant;

fn main() {
    let mut args = std::env::args().skip(1);
    let bench = args.next().unwrap_or_else(|| "sb5".to_string());
    let scale: usize = args
        .next()
        .map(|s| s.parse().expect("scale must be an integer"))
        .unwrap_or(64);
    let simplify = args
        .next()
        .map(|s| SimplifyMode::parse(&s).expect("simplify mode: on | off"))
        .unwrap_or_default();

    let spec = suites::spec(&bench).expect("unknown benchmark");
    let nl = suites::benchmark_scaled_with(spec, scale, 1, Topology::Local);
    eprintln!(
        "{bench}/{scale}: {} nodes, {} inputs, {} outputs",
        nl.len(),
        nl.inputs().len(),
        nl.outputs().len()
    );

    // A thin slice of cloaked cells, as in the superblue streaming
    // campaign: local wiring keeps their cones narrow, so the COI
    // projection carves out a small instance and the per-solve metrics
    // describe cone-sized miters.
    let picks = select_gates(&nl, 0.0005, 3);
    let mut rng = StdRng::seed_from_u64(3);
    let keyed = camouflage(&nl, &picks, CamoScheme::GsheAll16, &mut rng).expect("camouflage");
    eprintln!(
        "cloaked {} cells ({} key bits), simplify={}",
        keyed.camo_gates().len(),
        keyed.key_len(),
        simplify.name()
    );

    spin_hall_security::obs::enable();
    let config = AttackConfig::with_timeout_secs(300).with_simplify_mode(simplify);
    let mut oracle = OracleStack::exact(&nl);
    let t = Instant::now();
    let out = sat_attack(&keyed, &mut oracle, &config);
    let dt = t.elapsed().as_secs_f64();

    eprintln!(
        "{:?} in {dt:.3}s: iters={} queries={} decisions={} conflicts={} \
         restarts={} elim_vars={} subsumed={} strengthened={} simplify_ms={:.1}",
        out.status,
        out.iterations,
        out.queries,
        out.solver_stats.decisions,
        out.solver_stats.conflicts,
        out.solver_stats.restarts,
        out.solver_stats.elim_vars,
        out.solver_stats.subsumed,
        out.solver_stats.strengthened,
        out.solver_stats.simplify_ns as f64 / 1e6,
    );
    assert_eq!(out.status, AttackStatus::Success, "drill cell must break");

    // Counters plus log2-bucket histograms (`sat.solve.*` per-solve
    // deltas, `sat.lbd`, `sat.simplify_ns`, `attack.coi_*`).
    println!("{}", spin_hall_security::obs::metrics_json());
}
