//! Robustness properties of the two text frontends: whatever a few byte
//! edits do to a valid `.bench` or `.aag` document, [`parse_bench`] and
//! [`parse_aag`] return (a netlist or an error) instead of panicking.
//!
//! Each case applies 1–5 seeded edits to a known-good document: delete a
//! byte, insert one, replace one, or duplicate a span. Inserted and
//! replacement bytes come half from the document itself (so edits tend to
//! build plausible tokens: a second `(`, a repeated name, a longer number)
//! and half from the full byte range; invalid UTF-8 is decoded lossily.

use gshe_logic::aiger::parse_aag;
use gshe_logic::bench_format::{parse_bench, C17_BENCH};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

const EPFL_CTRL_AAG: &str = include_str!("../../../tests/data/epfl_ctrl.aag");
const EPFL_MEM_CTRL_AAG: &str = include_str!("../../../tests/data/epfl_mem_ctrl.aag");

/// `doc` with `edits` seeded byte edits applied.
fn mutate(doc: &str, edits: usize, seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut bytes = doc.as_bytes().to_vec();
    for _ in 0..edits {
        let at = rng.gen_range(0..bytes.len().max(1));
        let byte = if rng.gen_bool(0.5) {
            doc.as_bytes()[rng.gen_range(0..doc.len())]
        } else {
            rng.gen::<u32>() as u8
        };
        match rng.gen_range(0u32..4) {
            0 if !bytes.is_empty() => {
                bytes.remove(at);
            }
            1 => bytes.insert(at.min(bytes.len()), byte),
            2 if !bytes.is_empty() => bytes[at] = byte,
            _ => {
                let end = (at + rng.gen_range(1usize..16)).min(bytes.len());
                let span = bytes[at.min(end)..end].to_vec();
                bytes.splice(end..end, span);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Runs `parse` on `text`, turning a panic into a failure that shows the
/// text.
fn returns<T, E>(parse: fn(&str) -> Result<T, E>, text: &str) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(|| {
        let _ = parse(text);
    }))
    .map_err(|_| format!("parser panicked on {text:?}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    #[test]
    fn bench_parser_never_panics_on_edited_c17(edits in 1usize..6, seed: u64) {
        returns(parse_bench, &mutate(C17_BENCH, edits, seed))?;
    }

    #[test]
    fn aag_parser_never_panics_on_edited_epfl_designs(edits in 1usize..6, seed: u64) {
        returns(parse_aag, &mutate(EPFL_CTRL_AAG, edits, seed))?;
        returns(parse_aag, &mutate(EPFL_MEM_CTRL_AAG, edits, seed))?;
    }
}
