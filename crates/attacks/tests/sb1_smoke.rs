//! Superblue-scale smoke test: one full campaign-style attack cell on
//! the **unscaled** `sb1` instance (8,320 inputs / 13,025 outputs /
//! 856,403 gates) must complete inside a wall-clock budget with the
//! netlist arena's footprint bounded. This is the acceptance gate for
//! the flat-arena IR + cone-of-influence miter path: before them, the
//! `Vec`-of-`String` representation and whole-circuit miter made this
//! size untouchable.
//!
//! Camouflage placement is **cone-aware**, like a defender provisioning
//! a cloaked cell with a bounded attack surface: a cheap taint/cone
//! scan (two linear passes per candidate, no materialization) ranks
//! candidate gates by the size of their affected-output fanin cone, and
//! the cell with the smallest cone is cloaked. On this netlist that
//! still leaves a ~27k-node cone, and the SAT miter over it carries
//! thousands of free primary inputs, so the attack does real solver work
//! while staying inside the budget. A uniformly random
//! placement taints 90%+ of the netlist (measured), which is exactly
//! the full-miter wall this test exists to prove we no longer hit.
//!
//! Ignored by default; CI runs it explicitly (release — a debug build
//! does the same work but the sweeps take ~10× longer):
//!
//! ```text
//! cargo test -q --release -- --ignored sb1_smoke
//! ```

use gshe_attacks::{sat_attack, AttackConfig, AttackStatus, CoiMode, CoiProjection, OracleStack};
use gshe_camo::{camouflage, select_gates_count, CamoScheme};
use gshe_logic::{suites, Netlist, NodeId, PatternBlock};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Size of the fanin cone of the outputs affected by `picks`, or `None`
/// when the picks influence no output or every output (the cases where
/// the COI projection declines to engage). Two O(n) passes over the
/// arena — cheap enough to scan many candidates.
fn cone_size(nl: &Netlist, picks: &[NodeId]) -> Option<usize> {
    let mut tainted = vec![false; nl.len()];
    for &p in picks {
        tainted[p.index()] = true;
    }
    for i in 0..nl.len() {
        if !tainted[i] && nl.fanins(NodeId(i as u32)).any(|f| tainted[f.index()]) {
            tainted[i] = true;
        }
    }
    let affected: Vec<NodeId> = nl
        .outputs()
        .iter()
        .copied()
        .filter(|o| tainted[o.index()])
        .collect();
    if affected.is_empty() || affected.len() == nl.outputs().len() {
        return None;
    }
    let mut need = vec![false; nl.len()];
    for &o in &affected {
        need[o.index()] = true;
    }
    for i in (0..nl.len()).rev() {
        if need[i] {
            for f in nl.fanins(NodeId(i as u32)) {
                need[f.index()] = true;
            }
        }
    }
    Some(need.iter().filter(|&&x| x).count())
}

#[test]
#[ignore = "superblue-scale; CI runs `cargo test -q --release -- --ignored sb1_smoke`"]
fn sb1_smoke() {
    let started = Instant::now();
    let budget = Duration::from_secs(600);

    // Full-scale sb1 — no scale-down factor.
    let spec = suites::spec("sb1").expect("superblue suite present");
    let nl = suites::benchmark(spec, 1, 1);
    assert!(nl.gate_count() >= 856_000, "unscaled: {}", nl.gate_count());

    // The flat arena stays within ~tens of bytes per node (meta byte,
    // two u32 fanins, interned name, io lists); measured ~17 MiB here.
    // 128 MiB is generous headroom for the assert while still an order
    // of magnitude below what per-node `String`/`Vec` storage cost.
    let bytes = nl.arena_bytes();
    assert!(
        bytes < 128 << 20,
        "arena for {} nodes took {bytes} bytes",
        nl.len()
    );

    // Cone-aware placement: cloak the candidate gate with the smallest
    // affected-output fanin cone (deterministic — the scan is seeded).
    let (_, best_picks) = (0..96u64)
        .filter_map(|seed| {
            let picks = select_gates_count(&nl, 1, seed);
            cone_size(&nl, &picks).map(|c| (c, picks))
        })
        .min_by_key(|&(c, _)| c)
        .expect("some candidate has a proper cone");
    let mut rng = StdRng::seed_from_u64(3);
    let keyed = camouflage(&nl, &best_picks, CamoScheme::GsheAll16, &mut rng).expect("camouflage");

    // The default COI mode engages, and with this placement the cone is
    // a small slice.
    let proj = CoiProjection::build(&keyed, CoiMode::default()).expect("a strict output subset");
    assert!(
        proj.cone_len() * 4 < nl.len(),
        "cone {} of {} nodes",
        proj.cone_len(),
        nl.len()
    );

    // One campaign-style cell: the SAT attack against the exact working
    // chip. The miter solves over a ~27k-node cone with
    // thousands of free inputs (~3 min of real CDCL work measured).
    let mut oracle = OracleStack::exact(&nl);
    let config = AttackConfig::with_timeout_secs(480);
    let outcome = sat_attack(&keyed, &mut oracle, &config);
    assert_eq!(outcome.status, AttackStatus::Success, "{outcome:?}");
    let key = outcome.key.expect("successful attack returns a key");

    // Spot-check functional correctness on live patterns (full SAT
    // equivalence at 856k gates is a benchmark, not a smoke test).
    let resolved = keyed.resolve(&key).expect("key has the declared width");
    let mut pat_rng = StdRng::seed_from_u64(11);
    for _ in 0..2 {
        let block = PatternBlock::random(nl.inputs().len(), &mut pat_rng);
        let pattern = block.pattern(0);
        assert_eq!(resolved.evaluate(&pattern), nl.evaluate(&pattern));
    }

    let elapsed = started.elapsed();
    assert!(
        elapsed < budget,
        "sb1 smoke took {elapsed:?} (budget {budget:?})"
    );
}
