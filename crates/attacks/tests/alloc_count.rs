//! Pins the oracle stack's steady-state allocation behaviour: after
//! warm-up, a block query performs exactly **one** heap allocation — the
//! returned lane vector — on both a static and a rotating stack. The
//! per-epoch segment buffers and the evaluation scratch are hoisted onto
//! the stack, so they must not re-allocate per call (the regression this
//! test pins: the rotating path once collected a fresh `Vec` per epoch
//! segment). The exact stack's cone answer on an unchanged output set
//! holds to the same: its cone, cone input lanes and simulation scratch
//! live on the stack, and only the answer is allocated.
//!
//! It also pins that camouflaging a one-cell gshe16 draw copies the
//! design and patches the cell in place: a few dozen allocations in
//! total, where rebuilding every node through the netlist builder costs
//! more than two per node.
//!
//! Allocations are counted per thread: `cargo test` runs these tests on
//! parallel threads, and a process-global counter would pick up a
//! sibling test's allocations inside another test's window.

use gshe_attacks::{Oracle, OracleStack};
use gshe_camo::{camouflage, select_gates, select_gates_count, CamoScheme};
use gshe_logic::bench_format::{parse_bench, C17_BENCH};
use gshe_logic::{GeneratorConfig, NetlistGenerator, PatternBlock};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts every allocation (and growing reallocation) through the global
/// allocator, per thread.
struct CountingAlloc;

thread_local! {
    // Const-initialized and drop-free, so touching it from inside the
    // allocator never allocates or registers a destructor.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// Bumps the calling thread's counter. `try_with` rather than `with`: the
/// allocator must never panic, including during thread teardown.
fn count_alloc() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Allocations the calling thread performs while running `f`.
fn allocs_during(f: impl FnOnce()) -> usize {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn static_block_query_allocates_only_the_return_vector() {
    let nl = parse_bench(C17_BENCH).unwrap();
    let mut oracle = OracleStack::exact(&nl);
    let mut rng = StdRng::seed_from_u64(1);
    let blocks: Vec<PatternBlock> = (0..12).map(|_| PatternBlock::random(5, &mut rng)).collect();

    // Warm-up: sizes the hoisted evaluation scratch.
    for block in &blocks[..2] {
        let _ = oracle.query_block(block);
    }

    let rounds = 10;
    let n = allocs_during(|| {
        for block in &blocks[2..] {
            let lanes = oracle.query_block(block);
            assert_eq!(lanes.len(), 2);
        }
    });
    assert_eq!(
        n, rounds,
        "static query_block must allocate exactly the returned lane vector"
    );
}

#[test]
fn rotating_block_query_allocates_only_the_return_vector() {
    let nl = parse_bench(C17_BENCH).unwrap();
    let picks = select_gates(&nl, 1.0, 3);
    let mut camo_rng = StdRng::seed_from_u64(0);
    let keyed = camouflage(&nl, &picks, CamoScheme::GsheAll16, &mut camo_rng).unwrap();

    // Period 7 splits every 64-pattern block into ten epoch segments —
    // but no key rotation fires inside the measured window if we measure
    // between boundaries. Rotations themselves legitimately allocate (a
    // fresh resolved netlist), so pick a period larger than the measured
    // query volume after warm-up.
    let mut stack = OracleStack::rotating(&keyed, 100_000, 4);
    let mut rng = StdRng::seed_from_u64(2);
    let blocks: Vec<PatternBlock> = (0..12).map(|_| PatternBlock::random(5, &mut rng)).collect();
    for block in &blocks[..2] {
        let _ = stack.query_block(block);
    }

    let rounds = 10;
    let n = allocs_during(|| {
        for block in &blocks[2..] {
            let lanes = stack.query_block(block);
            assert_eq!(lanes.len(), 2);
        }
    });
    assert_eq!(
        n, rounds,
        "rotating query_block must reuse the hoisted segment buffer"
    );
}

#[test]
fn warm_cone_answer_allocates_only_the_return_vector() {
    let nl = NetlistGenerator::new(GeneratorConfig::new("cone", 32, 16, 2_000).with_seed(3))
        .unwrap()
        .generate();
    let mut oracle = OracleStack::exact(&nl);
    let outputs = [5usize, 0, 5];
    let mut rng = StdRng::seed_from_u64(3);
    let blocks: Vec<PatternBlock> = (0..12)
        .map(|k| PatternBlock::random_n(32, 64 - k, &mut rng))
        .collect();

    // Warm-up: extracts the cone and sizes its scratch.
    for block in &blocks[..2] {
        let _ = oracle.query_outputs(block, &outputs);
    }

    let rounds = 10;
    let n = allocs_during(|| {
        for block in &blocks[2..] {
            let lanes = oracle.query_outputs(block, &outputs);
            assert_eq!(lanes.len(), 3);
        }
    });
    assert_eq!(
        n, rounds,
        "a warm cone answer must allocate exactly the returned lane vector"
    );
}

#[test]
fn scalar_queries_allocate_only_the_return_vector() {
    let nl = parse_bench(C17_BENCH).unwrap();
    let mut oracle = OracleStack::exact(&nl);
    let inputs = [true, false, true, false, true];
    for _ in 0..2 {
        let _ = oracle.query(&inputs);
    }
    let rounds = 10;
    let n = allocs_during(|| {
        for _ in 0..rounds {
            let y = oracle.query(&inputs);
            assert_eq!(y.len(), 2);
        }
    });
    assert_eq!(
        n, rounds,
        "scalar query must allocate exactly the returned output vector"
    );
}

#[test]
fn one_cell_gshe16_camouflage_patches_a_copy_instead_of_rebuilding() {
    let nl = NetlistGenerator::new(GeneratorConfig::new("big", 64, 32, 20_000).with_seed(5))
        .unwrap()
        .generate();
    let picks = select_gates_count(&nl, 1, 9);
    let mut rng = StdRng::seed_from_u64(0);
    let mut keyed = None;
    let n = allocs_during(|| {
        keyed = Some(camouflage(&nl, &picks, CamoScheme::GsheAll16, &mut rng).unwrap());
    });
    let keyed = keyed.unwrap();
    assert_eq!(keyed.netlist().len(), nl.len());
    assert_eq!(keyed.camo_gates()[0].node, picks[0]);
    assert!(
        n < 64,
        "camouflaging one cell of a {}-node design allocated {n} times",
        nl.len()
    );
}
