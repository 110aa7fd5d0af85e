//! ASCII AIGER (`.aag`) frontend.
//!
//! Parses the and-inverter-graph interchange format of Biere's AIGER
//! suite into a [`Netlist`], lowering inverter edges into the gate
//! library: an AND whose operands carry inversion bits becomes the one
//! [`Bf2`] whose truth table matches (`AND`, `a ∧ ¬b`, `¬a ∧ b`, or
//! `NOR` for both edges inverted), so no explicit inverter nodes are
//! materialized inside the graph. Output (and latch next-state) literals
//! with an inversion bit get a single [`Bf1::Inv`] node.
//!
//! Latches are **cut** exactly like the `.bench` frontend cuts DFFs into
//! a combinational core: each latch's current-state variable becomes a
//! primary input, and its next-state function is appended as a primary
//! output (after the declared outputs, in latch order).
//!
//! [`write_aag`] emits the parse-producible subset back out: inputs,
//! constants, `Buf`/`Inv` chains (folded into inverter edges), and the
//! four AND-with-inverted-edges [`Bf2`] functions. Gates outside that
//! set (OR, XOR, …) are rejected — lower them first if round-tripping
//! arbitrary netlists.

use crate::bf2::{Bf1, Bf2};
use crate::builder::NetlistBuilder;
use crate::error::LogicError;
use crate::netlist::{Netlist, NodeId, NodeKind};
use std::collections::{HashMap, HashSet};

fn parse_err(line: usize, message: impl Into<String>) -> LogicError {
    LogicError::Parse {
        line,
        message: message.into(),
    }
}

fn parse_lits(s: &str, n: usize, line: usize, what: &str) -> Result<Vec<u32>, LogicError> {
    let lits: Vec<u32> = s
        .split_whitespace()
        .map(|t| t.parse::<u32>())
        .collect::<Result<_, _>>()
        .map_err(|e| parse_err(line, format!("bad {what} literal: {e}")))?;
    if lits.len() != n {
        return Err(parse_err(
            line,
            format!("expected {n} {what} literals, got {}", lits.len()),
        ));
    }
    Ok(lits)
}

/// Parses an ASCII AIGER (`aag`) document into a combinational
/// [`Netlist`]. See the [module docs](self) for the lowering and the
/// latch-cutting contract.
///
/// # Errors
///
/// Returns [`LogicError::Parse`] for malformed headers or lines and for a
/// symbol name used twice, [`LogicError::DuplicateSignal`] for re-defined
/// variables,
/// [`LogicError::UnknownSignal`] for references to undefined variables,
/// and [`LogicError::CombinationalLoop`] for cyclic AND definitions.
pub fn parse_aag(text: &str) -> Result<Netlist, LogicError> {
    let mut lines = text.lines().enumerate();
    let (hline, header) = lines.next().ok_or_else(|| parse_err(1, "empty document"))?;
    let fields: Vec<&str> = header.split_whitespace().collect();
    if fields.len() != 6 || fields[0] != "aag" {
        return Err(parse_err(hline + 1, "header must be `aag M I L O A`"));
    }
    let nums: Vec<u32> = fields[1..]
        .iter()
        .map(|t| t.parse::<u32>())
        .collect::<Result<_, _>>()
        .map_err(|e| parse_err(hline + 1, format!("bad header field: {e}")))?;
    let (max_var, n_in, n_latch, n_out, n_and) = (
        nums[0],
        nums[1] as usize,
        nums[2] as usize,
        nums[3] as usize,
        nums[4] as usize,
    );

    // Every entry takes a line, so no section outgrows the text, whatever
    // the header claims.
    let cap = |n: usize| n.min(text.len());
    let mut input_vars: Vec<u32> = Vec::with_capacity(cap(n_in));
    let mut latches: Vec<(u32, u32)> = Vec::with_capacity(cap(n_latch)); // (current var, next lit)
    let mut output_lits: Vec<u32> = Vec::with_capacity(cap(n_out));
    let mut and_defs: HashMap<u32, (u32, u32)> = HashMap::with_capacity(cap(n_and));
    let mut and_order: Vec<u32> = Vec::with_capacity(cap(n_and));
    let mut defined: HashSet<u32> = HashSet::new();

    let mut next = |what: &str| {
        lines
            .next()
            .ok_or_else(|| parse_err(0, format!("unexpected end of file in {what} section")))
    };
    for _ in 0..n_in {
        let (i, l) = next("input")?;
        let lit = parse_lits(l, 1, i + 1, "input")?[0];
        if lit < 2 || !lit.is_multiple_of(2) {
            return Err(parse_err(i + 1, "input literal must be even and nonzero"));
        }
        if !defined.insert(lit >> 1) {
            return Err(LogicError::DuplicateSignal(format!(
                "variable {}",
                lit >> 1
            )));
        }
        input_vars.push(lit >> 1);
    }
    for _ in 0..n_latch {
        let (i, l) = next("latch")?;
        // Optional third field (reset value) is tolerated and ignored.
        let lits: Vec<u32> = l
            .split_whitespace()
            .map(|t| t.parse::<u32>())
            .collect::<Result<_, _>>()
            .map_err(|e| parse_err(i + 1, format!("bad latch literal: {e}")))?;
        if lits.len() < 2 || lits.len() > 3 {
            return Err(parse_err(i + 1, "latch line must be `current next [init]`"));
        }
        if lits[0] < 2 || !lits[0].is_multiple_of(2) {
            return Err(parse_err(i + 1, "latch literal must be even and nonzero"));
        }
        if !defined.insert(lits[0] >> 1) {
            return Err(LogicError::DuplicateSignal(format!(
                "variable {}",
                lits[0] >> 1
            )));
        }
        latches.push((lits[0] >> 1, lits[1]));
    }
    for _ in 0..n_out {
        let (i, l) = next("output")?;
        output_lits.push(parse_lits(l, 1, i + 1, "output")?[0]);
    }
    for _ in 0..n_and {
        let (i, l) = next("and")?;
        let lits = parse_lits(l, 3, i + 1, "and")?;
        if lits[0] < 2 || !lits[0].is_multiple_of(2) {
            return Err(parse_err(i + 1, "and literal must be even and nonzero"));
        }
        let var = lits[0] >> 1;
        if !defined.insert(var) {
            return Err(LogicError::DuplicateSignal(format!("variable {var}")));
        }
        and_defs.insert(var, (lits[1], lits[2]));
        and_order.push(var);
    }
    for (var, (r0, r1)) in &and_defs {
        for r in [r0, r1] {
            let v = r >> 1;
            if v != 0 && !defined.contains(&v) {
                return Err(LogicError::UnknownSignal(format!(
                    "variable {v} (used by and {var})"
                )));
            }
        }
    }
    // Latch next states become the outputs after the declared ones.
    let next_states = latches.iter().map(|&(_, lit)| lit);
    for (k, lit) in output_lits.iter().copied().chain(next_states).enumerate() {
        let v = lit >> 1;
        if v != 0 && !defined.contains(&v) {
            return Err(LogicError::UnknownSignal(format!(
                "variable {v} (output {k})"
            )));
        }
    }
    if let Some(&v) = defined.iter().find(|&&v| v > max_var) {
        return Err(LogicError::Validation(format!(
            "variable {v} exceeds declared maximum {max_var}"
        )));
    }

    // Symbol table: `i<k> name`, `l<k> name`, `o<k> name` until `c`/EOF.
    // Each name names one signal, and the builder keeps it for that
    // signal: a generated name (`i<k>`, `l<k>`, `g<v>`, `o<k>`,
    // `l<k>_next`) that a symbol took becomes a free variant instead.
    let mut b = NetlistBuilder::new("aag");
    let mut symbol_line: HashMap<String, usize> = HashMap::new();
    let mut in_names: HashMap<usize, String> = HashMap::new();
    let mut latch_names: HashMap<usize, String> = HashMap::new();
    let mut out_names: HashMap<usize, String> = HashMap::new();
    for (i, l) in lines {
        let l = l.trim();
        if l == "c" {
            break;
        }
        if l.is_empty() {
            continue;
        }
        let mut rest = l.chars();
        let tag = rest.next();
        let (idx, name) = rest
            .as_str()
            .split_once(' ')
            .ok_or_else(|| parse_err(i + 1, "symbol line must be `<pos> <name>`"))?;
        let idx: usize = idx
            .parse()
            .map_err(|e| parse_err(i + 1, format!("bad symbol position: {e}")))?;
        let names = match tag {
            Some('i') => &mut in_names,
            Some('l') => &mut latch_names,
            Some('o') => &mut out_names,
            _ => return Err(parse_err(i + 1, "symbol tag must be i/l/o")),
        };
        if let Some(prev) = symbol_line.insert(name.to_string(), i + 1) {
            return Err(parse_err(
                i + 1,
                format!("symbol `{name}` is already used on line {prev}"),
            ));
        }
        b.reserve(name);
        names.insert(idx, name.to_string());
    }

    // Lower into the gate library.
    let mut node_of: HashMap<u32, NodeId> = HashMap::new();
    for (k, &v) in input_vars.iter().enumerate() {
        let name = in_names
            .get(&k)
            .cloned()
            .unwrap_or_else(|| b.free_name(&format!("i{k}")));
        node_of.insert(v, b.input(name));
    }
    for (k, &(v, _)) in latches.iter().enumerate() {
        let name = latch_names
            .get(&k)
            .cloned()
            .unwrap_or_else(|| b.free_name(&format!("l{k}")));
        node_of.insert(v, b.input(name));
    }
    let mut consts: [Option<NodeId>; 2] = [None, None];
    let mut constant = |b: &mut NetlistBuilder, value: bool| {
        *consts[value as usize].get_or_insert_with(|| b.constant(value))
    };

    // Build AND nodes in dependency order (the format does not promise
    // definitions precede uses), detecting cycles on the way.
    let mut on_stack: HashSet<u32> = HashSet::new();
    for &root in &and_order {
        if node_of.contains_key(&root) {
            continue;
        }
        let mut stack = vec![root];
        on_stack.insert(root);
        while let Some(&v) = stack.last() {
            if node_of.contains_key(&v) {
                on_stack.remove(&v);
                stack.pop();
                continue;
            }
            // Descend into one unbuilt operand at a time (the second one
            // first), so the stack is exactly the path from `root`, and an
            // operand already on it closes a loop.
            let &(r0, r1) = and_defs.get(&v).expect("checked above");
            if let Some(dep) = [r1 >> 1, r0 >> 1]
                .into_iter()
                .find(|&dep| dep != 0 && !node_of.contains_key(&dep))
            {
                if !on_stack.insert(dep) {
                    return Err(LogicError::CombinationalLoop(format!("variable {dep}")));
                }
                stack.push(dep);
                continue;
            }
            let fanin = |b: &mut NetlistBuilder,
                         node_of: &HashMap<u32, NodeId>,
                         consts: &mut dyn FnMut(&mut NetlistBuilder, bool) -> NodeId,
                         r: u32| {
                if r >> 1 == 0 {
                    // Literal 0/1: the inversion is folded into the
                    // constant itself, leaving the edge plain.
                    (consts(b, r & 1 == 1), false)
                } else {
                    (node_of[&(r >> 1)], r & 1 == 1)
                }
            };
            let (a, inv_a) = fanin(&mut b, &node_of, &mut constant, r0);
            let (bb, inv_b) = fanin(&mut b, &node_of, &mut constant, r1);
            let mut tt = 0u8;
            for row in 0..4u8 {
                let va = (row & 1 == 1) ^ inv_a;
                let vb = (row & 2 == 2) ^ inv_b;
                if va && vb {
                    tt |= 1 << row;
                }
            }
            let f = Bf2::from_truth_table(tt);
            let id = b.gate2(b.free_name(&format!("g{v}")), f, a, bb);
            node_of.insert(v, id);
            on_stack.remove(&v);
            stack.pop();
        }
    }

    // Outputs: declared outputs first, latch next-state functions after.
    let mut emit_output = |b: &mut NetlistBuilder, lit: u32, name: String| {
        let id = if lit >> 1 == 0 {
            constant(b, lit & 1 == 1)
        } else {
            let base = node_of[&(lit >> 1)];
            if lit & 1 == 1 {
                b.gate1(name, Bf1::Inv, base)
            } else {
                base
            }
        };
        b.output(id);
    };
    for (k, &lit) in output_lits.iter().enumerate() {
        let name = out_names
            .get(&k)
            .cloned()
            .unwrap_or_else(|| b.free_name(&format!("o{k}")));
        emit_output(&mut b, lit, name);
    }
    for (k, &(_, next_lit)) in latches.iter().enumerate() {
        let name = b.free_name(&format!("l{k}_next"));
        emit_output(&mut b, next_lit, name);
    }

    b.finish()
}

/// Serializes `netlist` as an ASCII AIGER (`aag`) document. Only the
/// parse-producible gate set is supported: see the [module docs](self).
///
/// # Errors
///
/// Returns [`LogicError::Validation`] naming the first gate whose
/// function is not expressible as an AND with inverted edges.
pub fn write_aag(netlist: &Netlist) -> Result<String, LogicError> {
    // Pass 1: assign AIGER variables (inputs first, then AND gates in
    // topological node order) and resolve every node to a literal —
    // Buf/Inv/Const nodes fold into edges rather than consuming vars.
    let mut lit_of: Vec<u32> = vec![u32::MAX; netlist.len()];
    let mut n_ands = 0usize;
    let mut var = 0u32;
    for &i in netlist.inputs() {
        var += 1;
        lit_of[i.index()] = var << 1;
    }
    for i in 0..netlist.len() {
        match netlist.kind(NodeId(i as u32)) {
            NodeKind::Input => {}
            NodeKind::Const(v) => lit_of[i] = v as u32,
            NodeKind::Gate1 { f, a } => {
                lit_of[i] = match f {
                    Bf1::Buf => lit_of[a.index()],
                    Bf1::Inv => lit_of[a.index()] ^ 1,
                    Bf1::Const0 => 0,
                    Bf1::Const1 => 1,
                }
            }
            NodeKind::Gate2 { f, .. } => {
                if !matches!(f.truth_table(), 1 | 2 | 4 | 8) {
                    return Err(LogicError::Validation(format!(
                        "gate `{}` computes {f}, not an AND with inverted edges",
                        netlist.node(NodeId(i as u32)).name
                    )));
                }
                var += 1;
                n_ands += 1;
                lit_of[i] = var << 1;
            }
        }
    }

    let mut out = String::new();
    out.push_str(&format!(
        "aag {var} {} 0 {} {n_ands}\n",
        netlist.inputs().len(),
        netlist.outputs().len()
    ));
    for &i in netlist.inputs() {
        out.push_str(&format!("{}\n", lit_of[i.index()]));
    }
    for &o in netlist.outputs() {
        out.push_str(&format!("{}\n", lit_of[o.index()]));
    }
    for i in 0..netlist.len() {
        if let NodeKind::Gate2 { f, a, b } = netlist.kind(NodeId(i as u32)) {
            // tt 8 = a∧b, 2 = a∧¬b, 4 = ¬a∧b, 1 = ¬a∧¬b.
            let (ia, ib) = match f.truth_table() {
                8 => (0u32, 0u32),
                2 => (0, 1),
                4 => (1, 0),
                _ => (1, 1),
            };
            out.push_str(&format!(
                "{} {} {}\n",
                lit_of[i],
                lit_of[a.index()] ^ ia,
                lit_of[b.index()] ^ ib
            ));
        }
    }
    for (k, &i) in netlist.inputs().iter().enumerate() {
        out.push_str(&format!("i{k} {}\n", netlist.node(i).name));
    }
    for (k, &o) in netlist.outputs().iter().enumerate() {
        out.push_str(&format!("o{k} {}\n", netlist.node(o).name));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The canonical AIGER half adder: sum and carry of two inputs.
    const HALF_ADDER: &str = "aag 7 2 0 2 3\n\
         2\n4\n6\n12\n\
         6 13 15\n\
         12 2 4\n\
         14 3 5\n\
         i0 x\ni1 y\no0 s\no1 c\n";

    #[test]
    fn half_adder_parses_and_evaluates() {
        let nl = parse_aag(HALF_ADDER).unwrap();
        assert_eq!(nl.inputs().len(), 2);
        assert_eq!(nl.outputs().len(), 2);
        for (x, y) in [(false, false), (true, false), (false, true), (true, true)] {
            let out = nl.evaluate(&[x, y]);
            assert_eq!(out[0], x ^ y, "sum({x},{y})");
            assert_eq!(out[1], x && y, "carry({x},{y})");
        }
    }

    #[test]
    fn inverter_edges_lower_into_bf2_functions() {
        // 6 = AND(¬2, 5=¬4): both edges inverted → NOR.
        let text = "aag 3 2 0 1 1\n2\n4\n6\n6 3 5\n";
        let nl = parse_aag(text).unwrap();
        for (a, b) in [(false, false), (true, false), (false, true), (true, true)] {
            assert_eq!(nl.evaluate(&[a, b])[0], !a && !b, "nor({a},{b})");
        }
        // No explicit inverter nodes: two inputs + one gate.
        assert_eq!(nl.len(), 3);
        assert_eq!(nl.gate_count(), 1);
    }

    #[test]
    fn inverted_output_gets_one_inv_node() {
        // Output literal 7 = ¬(AND(2,4)) → NAND via one Inv node.
        let text = "aag 3 2 0 1 1\n2\n4\n7\n6 2 4\n";
        let nl = parse_aag(text).unwrap();
        for (a, b) in [(false, false), (true, true)] {
            assert_eq!(nl.evaluate(&[a, b])[0], !(a && b));
        }
        assert_eq!(nl.gate_count(), 2);
    }

    #[test]
    fn constant_literals_work() {
        // Output 1 is constant true; AND with literal 0 is constant false.
        let text = "aag 2 1 0 2 1\n2\n1\n4\n4 2 0\n";
        let nl = parse_aag(text).unwrap();
        assert_eq!(nl.evaluate(&[true]), vec![true, false]);
        assert_eq!(nl.evaluate(&[false]), vec![true, false]);
    }

    #[test]
    fn latches_are_cut_into_inputs_and_outputs() {
        // A toggle: latch 2 feeds back its own inversion; one output reads
        // the latch. Cut: the latch state becomes input l0, its
        // next-state function an extra output l0_next = ¬l0.
        let text = "aag 1 0 1 1 0\n2 3\n2\nl0 state\n";
        let nl = parse_aag(text).unwrap();
        assert_eq!(nl.inputs().len(), 1);
        assert_eq!(nl.outputs().len(), 2, "declared output + latch next");
        assert_eq!(nl.node(nl.inputs()[0]).name, "state");
        assert_eq!(nl.evaluate(&[false]), vec![false, true]);
        assert_eq!(nl.evaluate(&[true]), vec![true, false]);
    }

    #[test]
    fn out_of_order_definitions_resolve() {
        // 6 is defined before its operand 8.
        let text = "aag 4 2 0 1 2\n2\n4\n6\n6 8 2\n8 2 4\n";
        let nl = parse_aag(text).unwrap();
        for (a, b) in [(true, true), (true, false)] {
            assert_eq!(nl.evaluate(&[a, b])[0], a && b);
        }
    }

    #[test]
    fn out_of_order_shared_operands_are_not_loops() {
        // 6 = AND(8, 10) with 10 = AND(8, ¬2): operand 8 is reached twice
        // before it is defined, once through 10. And 12 = AND(8, 8).
        let text = "aag 6 2 0 2 4\n2\n4\n6\n12\n6 8 10\n10 8 3\n8 2 4\n12 8 8\n";
        let nl = parse_aag(text).unwrap();
        for (a, b) in [(false, false), (true, false), (false, true), (true, true)] {
            assert_eq!(nl.evaluate(&[a, b]), vec![false, a && b], "({a}, {b})");
        }
    }

    #[test]
    fn cyclic_definitions_are_rejected() {
        let text = "aag 4 1 0 1 2\n2\n6\n6 8 2\n8 6 2\n";
        assert!(matches!(
            parse_aag(text),
            Err(LogicError::CombinationalLoop(_))
        ));
    }

    #[test]
    fn undefined_variables_are_rejected() {
        let text = "aag 4 1 0 1 1\n2\n6\n6 8 2\n";
        assert!(matches!(parse_aag(text), Err(LogicError::UnknownSignal(_))));
    }

    #[test]
    fn malformed_headers_are_rejected() {
        for text in ["", "aig 1 1 0 1 0\n", "aag 1 1 0\n"] {
            assert!(matches!(parse_aag(text), Err(LogicError::Parse { .. })));
        }
    }

    #[test]
    fn repeated_symbol_names_are_a_parse_error() {
        for (text, at) in [
            ("aag 3 2 0 1 1\n2\n4\n6\n6 2 4\ni0 x\ni1 x\n", 7),
            (
                "aag 3 2 0 2 1\n2\n4\n7\n7\n6 2 4\ni0 a\ni1 b\no0 y\no1 y\n",
                10,
            ),
        ] {
            match parse_aag(text) {
                Err(LogicError::Parse { line, message }) => {
                    assert_eq!(line, at, "{text:?}");
                    assert!(message.contains("already used on line"), "{message}");
                }
                other => panic!("expected a parse error for {text:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn generated_names_give_way_to_symbols() {
        for (text, names) in [
            (
                "aag 3 2 0 1 1\n2\n4\n6\n6 2 4\ni0 g3\n",
                &["g3", "i1", "g3_1"][..],
            ),
            (
                "aag 3 2 0 1 1\n2\n4\n7\n6 2 4\ni1 i0\no0 g3\n",
                &["i0_1", "i0", "g3_1", "g3"],
            ),
            ("aag 1 0 1 1 0\n2 3\n3\nl0 o0\n", &["o0", "o0_1", "l0_next"]),
            (
                "aag 1 0 1 1 0\n2 3\n3\nl0 l0_next\n",
                &["l0_next", "o0", "l0_next_1"],
            ),
        ] {
            let nl = parse_aag(text).unwrap();
            let got: Vec<&str> = nl.nodes().map(|n| n.name).collect();
            assert_eq!(got, names, "{text:?}");
        }
    }

    #[test]
    fn bad_latch_targets_and_symbol_tags_are_errors() {
        // The latch's next state reads variable 4, which nothing defines.
        assert!(matches!(
            parse_aag("aag 1 0 1 0 0\n2 9\n"),
            Err(LogicError::UnknownSignal(_))
        ));
        // A symbol tag wider than one byte.
        assert!(matches!(
            parse_aag("aag 1 1 0 0 0\n2\né0 x\n"),
            Err(LogicError::Parse { line: 3, .. })
        ));
    }

    #[test]
    fn round_trip_preserves_function() {
        for text in [
            HALF_ADDER,
            "aag 3 2 0 1 1\n2\n4\n6 3 5\n6\n",
            "aag 3 2 0 1 1\n2\n4\n7\n6 2 4\n",
        ] {
            // Normalize section order: outputs precede ands in one case
            // above? Keep only well-formed inputs.
            let Ok(nl) = parse_aag(text) else { continue };
            let emitted = write_aag(&nl).unwrap();
            let back = parse_aag(&emitted).unwrap();
            let n = nl.inputs().len();
            for p in 0..(1u32 << n) {
                let v: Vec<bool> = (0..n).map(|k| (p >> k) & 1 == 1).collect();
                assert_eq!(nl.evaluate(&v), back.evaluate(&v), "pattern {p}");
            }
        }
    }

    #[test]
    fn write_rejects_non_aig_gates() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let c = b.input("b");
        let g = b.gate2("g", Bf2::XOR, a, c);
        b.output(g);
        let nl = b.finish().unwrap();
        assert!(matches!(write_aag(&nl), Err(LogicError::Validation(_))));
    }

    #[test]
    fn write_emits_symbols_and_parses_back_names() {
        let nl = parse_aag(HALF_ADDER).unwrap();
        let emitted = write_aag(&nl).unwrap();
        assert!(emitted.contains("i0 x"));
        let back = parse_aag(&emitted).unwrap();
        assert_eq!(back.node(back.inputs()[0]).name, "x");
    }
}
