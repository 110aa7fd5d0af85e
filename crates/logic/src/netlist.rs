//! The gate-level netlist intermediate representation.
//!
//! A [`Netlist`] is a DAG of nodes stored **in topological order**: every
//! gate's fanin indices are strictly smaller than the gate's own index. The
//! builder and parser enforce the invariant; [`Netlist::check`] re-validates
//! it, and all downstream passes (simulation, SAT encoding, timing) rely on
//! a single forward sweep being sufficient.
//!
//! # Arena storage
//!
//! Nodes live in parallel flat arrays (struct-of-arrays), not a
//! `Vec<Node>`:
//!
//! * `meta: Vec<u8>` — one packed byte per node. Bits 0–1 are the kind tag
//!   (input / constant / one-input gate / two-input gate); bits 2–5 carry
//!   the payload (constant value, [`Bf1`] code, or the [`Bf2`] truth-table
//!   nibble).
//! * `fanin_a`, `fanin_b: Vec<u32>` — fanin node indices. For an `Input`
//!   node, `fanin_a` stores the node's *input ordinal* (its position in
//!   [`Netlist::inputs`]), so evaluation sweeps index the pattern lanes
//!   directly instead of threading a counter.
//! * an interned `NameTable` — all signal names in one `String` with a
//!   span per node, out of the hot path entirely.
//!
//! The evaluation sweep is therefore a cache-linear walk over ~9 bytes per
//! node instead of pointer-chasing `String`-carrying structs — per-node
//! memory drops roughly an order of magnitude, which is what lets the
//! 856k-gate superblue `sb1` benchmark run unscaled (≈20 MB of arena
//! instead of ≈80 MB of node structs plus a heap allocation per name).
//!
//! The public accessors keep the old shape: [`Netlist::node`] returns a
//! by-value [`NodeRef`] (`.kind`, `.name`), [`Netlist::nodes`] iterates
//! them, and [`Node`] (kind + owned name) remains the construction type
//! consumed by [`Netlist::from_parts`].
//!
//! # Cone extraction
//!
//! [`Netlist::cone_of`] extracts the transitive fanin cone of a set of
//! roots as a standalone netlist plus an [`IdMap`] between the two id
//! spaces. The cone preserves relative topological order, keeps the
//! original primary-input order (restricted to the cone), and is
//! re-validated structurally: its names are a subset of the checked
//! design's, so only [`Netlist::check`]'s structural pass runs (the name
//! pass under `debug_assert!`). The SAT attack uses this to encode
//! cone-of-influence-restricted miters at superblue scale.
//!
//! [`Netlist::fanin_set`] is the walk underneath: it marks the cone in a
//! [`NodeSet`] (one bit per node plus a rank index) and visits only the
//! cone, so a pass that needs a table per cone node indexes it by cone
//! position instead of allocating one entry per design node.

use crate::bf2::{Bf1, Bf2};
use crate::error::LogicError;
use std::collections::HashMap;
use std::fmt;

/// Index of a node within its netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The index as a `usize`.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The functional kind of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// Primary input.
    Input,
    /// Constant driver.
    Const(bool),
    /// One-input gate.
    Gate1 {
        /// Function.
        f: Bf1,
        /// Fanin.
        a: NodeId,
    },
    /// Two-input gate.
    Gate2 {
        /// Function.
        f: Bf2,
        /// First fanin.
        a: NodeId,
        /// Second fanin.
        b: NodeId,
    },
}

impl NodeKind {
    /// Fanin node ids (0, 1 or 2 of them).
    pub fn fanins(&self) -> impl Iterator<Item = NodeId> + '_ {
        let (a, b) = match *self {
            NodeKind::Input | NodeKind::Const(_) => (None, None),
            NodeKind::Gate1 { a, .. } => (Some(a), None),
            NodeKind::Gate2 { a, b, .. } => (Some(a), Some(b)),
        };
        a.into_iter().chain(b)
    }

    /// `true` for `Gate1` and `Gate2`.
    pub const fn is_gate(&self) -> bool {
        matches!(self, NodeKind::Gate1 { .. } | NodeKind::Gate2 { .. })
    }
}

/// A single node: its kind plus a (unique) signal name. This is the
/// *construction* type consumed by [`Netlist::from_parts`]; inside a
/// [`Netlist`] nodes are packed into the flat arena and read back out as
/// [`NodeRef`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// Functional kind.
    pub kind: NodeKind,
    /// Signal name (unique within the netlist).
    pub name: String,
}

/// A node viewed out of the arena: its kind (by value — `NodeKind` is
/// `Copy`) and its interned name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeRef<'a> {
    /// Functional kind.
    pub kind: NodeKind,
    /// Signal name (unique within the netlist).
    pub name: &'a str,
}

/// All signal names of a netlist interned into one buffer: name `i` is
/// `bytes[spans[i]..spans[i + 1]]`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct NameTable {
    bytes: String,
    /// `n + 1` offsets into `bytes` (starts with 0).
    spans: Vec<u32>,
}

impl NameTable {
    fn with_capacity(n: usize) -> Self {
        let mut spans = Vec::with_capacity(n + 1);
        spans.push(0);
        NameTable {
            bytes: String::new(),
            spans,
        }
    }

    fn push(&mut self, name: &str) {
        self.bytes.push_str(name);
        self.spans.push(self.bytes.len() as u32);
    }

    /// Appends a name formatted straight into the buffer.
    fn push_fmt(&mut self, name: fmt::Arguments<'_>) {
        fmt::Write::write_fmt(&mut self.bytes, name).expect("a String takes any write");
        self.spans.push(self.bytes.len() as u32);
    }

    fn get(&self, i: usize) -> &str {
        &self.bytes[self.spans[i] as usize..self.spans[i + 1] as usize]
    }
}

/// Kind tag in bits 0–1 of a node's `meta` byte.
const TAG_INPUT: u8 = 0b00;
const TAG_CONST: u8 = 0b01;
const TAG_GATE1: u8 = 0b10;
const TAG_GATE2: u8 = 0b11;
const TAG_MASK: u8 = 0b11;

/// The arena slots of a node of `kind`: its `meta` byte and its two fanin
/// words. `ordinal` is stored in `fanin_a` for an `Input` node.
fn pack(kind: NodeKind, ordinal: u32) -> (u8, u32, u32) {
    match kind {
        NodeKind::Input => (TAG_INPUT, ordinal, 0),
        NodeKind::Const(c) => (TAG_CONST | (c as u8) << 2, 0, 0),
        NodeKind::Gate1 { f, a } => (TAG_GATE1 | f.code() << 2, a.0, 0),
        NodeKind::Gate2 { f, a, b } => (TAG_GATE2 | f.truth_table() << 2, a.0, b.0),
    }
}

/// A combinational gate-level netlist in topological order, stored as a
/// flat arena (see the module docs for the layout).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Netlist {
    name: String,
    /// Packed kind/function byte per node.
    meta: Vec<u8>,
    /// First fanin index per node; input ordinal for `Input` nodes.
    fanin_a: Vec<u32>,
    /// Second fanin index per node (`Gate2` only; 0 otherwise).
    fanin_b: Vec<u32>,
    names: NameTable,
    inputs: Vec<NodeId>,
    outputs: Vec<NodeId>,
}

impl Netlist {
    /// Assembles a netlist from raw parts, validating all invariants.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::Validation`] if node order is not topological,
    /// names collide, outputs dangle, or the inputs list is not exactly the
    /// `Input` nodes in ascending id order.
    pub fn from_parts(
        name: impl Into<String>,
        nodes: Vec<Node>,
        inputs: Vec<NodeId>,
        outputs: Vec<NodeId>,
    ) -> Result<Self, LogicError> {
        let n = nodes.len();
        let mut meta = Vec::with_capacity(n);
        let mut fanin_a = Vec::with_capacity(n);
        let mut fanin_b = Vec::with_capacity(n);
        let mut names = NameTable::with_capacity(n);
        let mut ordinal = 0u32;
        for node in &nodes {
            let (m, a, b) = pack(node.kind, ordinal);
            ordinal += (node.kind == NodeKind::Input) as u32;
            meta.push(m);
            fanin_a.push(a);
            fanin_b.push(b);
            names.push(&node.name);
        }
        let nl = Netlist {
            name: name.into(),
            meta,
            fanin_a,
            fanin_b,
            names,
            inputs,
            outputs,
        };
        nl.check()?;
        Ok(nl)
    }

    /// Re-validates every structural invariant.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::Validation`] describing the first violation.
    pub fn check(&self) -> Result<(), LogicError> {
        self.check_names()?;
        self.check_structure()
    }

    /// Validates a netlist this crate assembled from names that are
    /// distinct by construction (generated or copied from a checked
    /// netlist): [`Netlist::check`]'s structural pass, with its name pass
    /// left to `debug_assert!`.
    pub(crate) fn assembled(self) -> Result<Self, LogicError> {
        debug_assert_eq!(self.check_names(), Ok(()), "assembled names collide");
        self.check_structure()?;
        Ok(self)
    }

    /// [`Netlist::check`]'s name pass: every name is distinct.
    fn check_names(&self) -> Result<(), LogicError> {
        let n = self.len();
        let mut seen_names: HashMap<&str, usize> = HashMap::with_capacity(n);
        for i in 0..n {
            let name = self.names.get(i);
            if let Some(prev) = seen_names.insert(name, i) {
                return Err(LogicError::Validation(format!(
                    "name `{name}` used by nodes {prev} and {i}"
                )));
            }
        }
        Ok(())
    }

    /// [`Netlist::check`]'s structural pass: topological fanins, the input
    /// list, the output range.
    fn check_structure(&self) -> Result<(), LogicError> {
        let n = self.len();
        for i in 0..n {
            for fanin in self.fanins(NodeId(i as u32)) {
                if fanin.index() >= i {
                    return Err(LogicError::Validation(format!(
                        "node {i} (`{}`) has non-topological fanin {fanin}",
                        self.names.get(i)
                    )));
                }
            }
        }
        // The inputs list must be exactly the Input nodes in ascending id
        // order — the order every evaluation path feeds pattern values in.
        let mut pos = 0usize;
        for i in 0..n {
            if self.meta[i] & TAG_MASK == TAG_INPUT {
                match self.inputs.get(pos) {
                    Some(&id) if id.index() == i => {}
                    _ => {
                        return Err(LogicError::Validation(format!(
                            "Input node `{}` (node {i}) is not primary input {pos}; the \
                             inputs list must be the Input nodes in ascending id order",
                            self.names.get(i)
                        )))
                    }
                }
                if self.fanin_a[i] as usize != pos {
                    return Err(LogicError::Validation(format!(
                        "input ordinal corrupted at node {i}"
                    )));
                }
                pos += 1;
            }
        }
        if pos != self.inputs.len() {
            return Err(LogicError::Validation(format!(
                "{pos} Input nodes but {} listed as primary inputs",
                self.inputs.len()
            )));
        }
        for &id in &self.outputs {
            if id.index() >= n {
                return Err(LogicError::Validation(format!("output {id} out of range")));
            }
        }
        Ok(())
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All nodes, in topological order.
    pub fn nodes(&self) -> Nodes<'_> {
        Nodes {
            nl: self,
            range: 0..self.len(),
        }
    }

    /// Node by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> NodeRef<'_> {
        NodeRef {
            kind: self.kind(id),
            name: self.names.get(id.index()),
        }
    }

    /// Functional kind of `id` (reconstructed from the packed arena).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn kind(&self, id: NodeId) -> NodeKind {
        let i = id.index();
        let m = self.meta[i];
        match m & TAG_MASK {
            TAG_INPUT => NodeKind::Input,
            TAG_CONST => NodeKind::Const(m >> 2 != 0),
            TAG_GATE1 => NodeKind::Gate1 {
                f: Bf1::from_code(m >> 2),
                a: NodeId(self.fanin_a[i]),
            },
            _ => NodeKind::Gate2 {
                f: Bf2::from_truth_table(m >> 2),
                a: NodeId(self.fanin_a[i]),
                b: NodeId(self.fanin_b[i]),
            },
        }
    }

    /// Fanin node ids of `id` (0, 1 or 2 of them), straight off the arena.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn fanins(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let i = id.index();
        let (a, b) = match self.meta[i] & TAG_MASK {
            TAG_GATE1 => (Some(NodeId(self.fanin_a[i])), None),
            TAG_GATE2 => (Some(NodeId(self.fanin_a[i])), Some(NodeId(self.fanin_b[i]))),
            _ => (None, None),
        };
        a.into_iter().chain(b)
    }

    /// Evaluates node `i` over 64 bit-packed lanes directly from the packed
    /// arena — the cache-linear core every simulator sweep runs on.
    /// `values` holds the lanes of earlier nodes; `input` maps an input
    /// *ordinal* (position in [`Netlist::inputs`]) to its lane word.
    #[inline]
    pub fn eval_node_lanes(
        &self,
        i: usize,
        values: &[u64],
        input: impl FnOnce(usize) -> u64,
    ) -> u64 {
        let m = self.meta[i];
        match m & TAG_MASK {
            TAG_INPUT => input(self.fanin_a[i] as usize),
            TAG_CONST => {
                if m & 0b100 != 0 {
                    !0
                } else {
                    0
                }
            }
            TAG_GATE1 => Bf1::from_code(m >> 2).eval_u64(values[self.fanin_a[i] as usize]),
            _ => Bf2::from_truth_table(m >> 2).eval_u64(
                values[self.fanin_a[i] as usize],
                values[self.fanin_b[i] as usize],
            ),
        }
    }

    /// One full bit-parallel pass over the arena: fills `values[i]` with
    /// node `i`'s 64 lanes, feeding primary input `k` from
    /// `input_lanes[k]`. `values` must hold at least [`Netlist::len`]
    /// words; `input_lanes` one word per primary input.
    pub fn sweep_lanes(&self, values: &mut [u64], input_lanes: &[u64]) {
        debug_assert!(values.len() >= self.len());
        debug_assert_eq!(input_lanes.len(), self.inputs.len());
        for i in 0..self.len() {
            let v = self.eval_node_lanes(i, values, |k| input_lanes[k]);
            values[i] = v;
        }
    }

    /// Primary inputs, in declaration order.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Primary outputs, in declaration order.
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// Number of nodes (inputs + constants + gates).
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    /// `true` if the netlist has no nodes.
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }

    /// Number of gate nodes (excludes inputs and constants).
    pub fn gate_count(&self) -> usize {
        self.meta.iter().filter(|&&m| m & 0b10 != 0).count()
    }

    /// Ids of all gate nodes, in topological order.
    pub fn gate_ids(&self) -> Vec<NodeId> {
        self.meta
            .iter()
            .enumerate()
            .filter(|(_, &m)| m & 0b10 != 0)
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }

    /// Bytes held by the flat node arena (meta + fanin slots + interned
    /// names + port lists) — the number the sb1 smoke test bounds.
    pub fn arena_bytes(&self) -> usize {
        self.meta.len()
            + 4 * (self.fanin_a.len() + self.fanin_b.len())
            + self.names.bytes.len()
            + 4 * self.names.spans.len()
            + 4 * (self.inputs.len() + self.outputs.len())
    }

    /// Id of the node with signal name `name`, if any (linear scan; build a
    /// map via [`Netlist::name_map`] for repeated lookups).
    pub fn find(&self, name: &str) -> Option<NodeId> {
        (0..self.len())
            .position(|i| self.names.get(i) == name)
            .map(|i| NodeId(i as u32))
    }

    /// Name → id map for all signals.
    pub fn name_map(&self) -> HashMap<&str, NodeId> {
        (0..self.len())
            .map(|i| (self.names.get(i), NodeId(i as u32)))
            .collect()
    }

    /// Fanout adjacency: for each node, the ids of nodes it feeds.
    pub fn fanouts(&self) -> Vec<Vec<NodeId>> {
        let mut out = vec![Vec::new(); self.len()];
        for i in 0..self.len() {
            for fanin in self.fanins(NodeId(i as u32)) {
                out[fanin.index()].push(NodeId(i as u32));
            }
        }
        out
    }

    /// Fanout adjacency in compressed-sparse-row form — two flat arrays
    /// instead of a `Vec` per node, built in two counting passes. This is
    /// the form reachability passes (cone-of-influence, fanout statistics)
    /// walk at superblue scale.
    pub fn fanout_csr(&self) -> FanoutCsr {
        let n = self.len();
        let mut offsets = vec![0u32; n + 1];
        for i in 0..n {
            for fanin in self.fanins(NodeId(i as u32)) {
                offsets[fanin.index() + 1] += 1;
            }
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![NodeId(0); offsets[n] as usize];
        for i in 0..n {
            for fanin in self.fanins(NodeId(i as u32)) {
                let c = &mut cursor[fanin.index()];
                targets[*c as usize] = NodeId(i as u32);
                *c += 1;
            }
        }
        FanoutCsr { offsets, targets }
    }

    /// Logic level of every node (inputs/constants at level 0).
    pub fn levels(&self) -> Vec<usize> {
        let mut level = vec![0usize; self.len()];
        for i in 0..self.len() {
            level[i] = self
                .fanins(NodeId(i as u32))
                .map(|f| level[f.index()] + 1)
                .max()
                .unwrap_or(0);
        }
        level
    }

    /// Logic depth: the maximum level over all outputs.
    pub fn depth(&self) -> usize {
        let levels = self.levels();
        self.outputs
            .iter()
            .map(|o| levels[o.index()])
            .max()
            .unwrap_or(0)
    }

    /// Evaluates the netlist on one input assignment (values in
    /// `inputs()` order) and returns the output values in `outputs()` order.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != self.inputs().len()`; use
    /// [`Netlist::try_evaluate`] for fallible evaluation.
    pub fn evaluate(&self, values: &[bool]) -> Vec<bool> {
        self.try_evaluate(values).expect("input count mismatch")
    }

    /// Fallible single-pattern evaluation: one exact
    /// [`Simulator::run_scalar`](crate::sim::Simulator::run_scalar) pass.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::InputCountMismatch`] on arity mismatch.
    pub fn try_evaluate(&self, values: &[bool]) -> Result<Vec<bool>, LogicError> {
        crate::sim::Simulator::new(self).run_scalar(values)
    }

    /// Replaces gate `id` with the gate `kind` in place: function, arity
    /// and fanins may all change, while the id, the name and every port
    /// stay. Each fanin of `kind` must precede `id`, so the arena stays in
    /// topological order and needs no [`Netlist::check`].
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::Validation`] if `id` is not a gate of this
    /// netlist, `kind` is not a gate, or a fanin of `kind` does not
    /// precede `id`.
    pub fn set_gate(&mut self, id: NodeId, kind: NodeKind) -> Result<(), LogicError> {
        let i = id.index();
        if i >= self.len() || !self.kind(id).is_gate() {
            return Err(LogicError::Validation(format!("node {id} is not a gate")));
        }
        if !kind.is_gate() {
            return Err(LogicError::Validation(format!(
                "cannot install {kind:?} at gate {id}"
            )));
        }
        if let Some(fanin) = kind.fanins().find(|f| f.index() >= i) {
            return Err(LogicError::Validation(format!(
                "gate {id} cannot take non-topological fanin {fanin}"
            )));
        }
        (self.meta[i], self.fanin_a[i], self.fanin_b[i]) = pack(kind, 0);
        Ok(())
    }

    /// Replaces the function of the two-input gate `id`.
    ///
    /// This is the primitive operation behind runtime polymorphism
    /// (Sec. V-C) and behind installing decoy functions during
    /// camouflaging.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::Validation`] if `id` is not a `Gate2`.
    pub fn set_gate2_function(&mut self, id: NodeId, f: Bf2) -> Result<(), LogicError> {
        match self.kind(id) {
            NodeKind::Gate2 { a, b, .. } => self.set_gate(id, NodeKind::Gate2 { f, a, b }),
            other => Err(LogicError::Validation(format!(
                "node {id} is {other:?}, not a two-input gate"
            ))),
        }
    }

    /// Replaces the function of the one-input gate `id` (keeping fanin `a`,
    /// which must match the existing fanin).
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::Validation`] if `id` is not a `Gate1` or the
    /// fanin does not match.
    pub fn set_gate1_function(&mut self, id: NodeId, f: Bf1, a: NodeId) -> Result<(), LogicError> {
        match self.kind(id) {
            NodeKind::Gate1 { a: fanin, .. } if fanin == a => {
                self.set_gate(id, NodeKind::Gate1 { f, a })
            }
            other => Err(LogicError::Validation(format!(
                "node {id} is {other:?}, not a one-input gate fed by {a}"
            ))),
        }
    }

    /// A histogram of gate functions: `(function name, count)` sorted by
    /// descending count.
    pub fn function_histogram(&self) -> Vec<(&'static str, usize)> {
        let mut counts: HashMap<&'static str, usize> = HashMap::new();
        for &m in &self.meta {
            match m & TAG_MASK {
                TAG_GATE1 => *counts.entry(Bf1::from_code(m >> 2).name()).or_default() += 1,
                TAG_GATE2 => {
                    *counts
                        .entry(Bf2::from_truth_table(m >> 2).name())
                        .or_default() += 1
                }
                _ => {}
            }
        }
        let mut v: Vec<_> = counts.into_iter().collect();
        v.sort_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(y.0)));
        v
    }

    /// Ids of nodes in the transitive fanin cone of `root` (including
    /// `root`), ascending.
    pub fn fanin_cone(&self, root: NodeId) -> Vec<NodeId> {
        self.fanin_set(&[root]).iter().collect()
    }

    /// The transitive fanin cone of `roots` (roots included) as a
    /// [`NodeSet`]. A backward walk from the roots: it visits only the
    /// cone, plus one bit per design node for the membership set.
    ///
    /// # Panics
    ///
    /// Panics if any root id is out of range.
    pub fn fanin_set(&self, roots: &[NodeId]) -> NodeSet {
        let mut words = vec![0u64; self.len().div_ceil(64)];
        let mut stack: Vec<NodeId> = roots.to_vec();
        while let Some(id) = stack.pop() {
            let (w, bit) = (id.index() / 64, 1u64 << (id.index() % 64));
            if words[w] & bit == 0 {
                words[w] |= bit;
                stack.extend(self.fanins(id));
            }
        }
        NodeSet::from_words(words, self.len())
    }

    /// Extracts the transitive fanin cone of `roots` as a standalone
    /// netlist, plus the [`IdMap`] between the two id spaces.
    ///
    /// The cone keeps the full netlist's relative topological order, its
    /// primary inputs are the original inputs that lie in the cone (in
    /// original order), and its outputs are `roots` in the given order.
    /// The result is re-validated by [`Netlist::check`]'s structural pass;
    /// its names are the checked design's.
    ///
    /// # Panics
    ///
    /// Panics if any root id is out of range.
    pub fn cone_of(&self, roots: &[NodeId]) -> (Netlist, IdMap) {
        let set = self.fanin_set(roots);
        let cone_n = set.len();
        // Cone id of a member: its position in the ascending member order.
        let forward = |full: u32| set.position(NodeId(full)).expect("fanin in cone") as u32;
        let mut back = Vec::with_capacity(cone_n);
        let mut meta = Vec::with_capacity(cone_n);
        let mut fanin_a = Vec::with_capacity(cone_n);
        let mut fanin_b = Vec::with_capacity(cone_n);
        let mut names = NameTable::with_capacity(cone_n);
        let mut inputs = Vec::new();
        for id in set.iter() {
            let i = id.index();
            let new_id = back.len() as u32;
            back.push(id);
            let m = self.meta[i];
            let (a, b) = match m & TAG_MASK {
                TAG_INPUT => {
                    inputs.push(NodeId(new_id));
                    (inputs.len() as u32 - 1, 0)
                }
                TAG_CONST => (0, 0),
                TAG_GATE1 => (forward(self.fanin_a[i]), 0),
                _ => (forward(self.fanin_a[i]), forward(self.fanin_b[i])),
            };
            meta.push(m);
            fanin_a.push(a);
            fanin_b.push(b);
            names.push(self.names.get(i));
        }
        let outputs = roots.iter().map(|r| NodeId(forward(r.0))).collect();
        let cone = Netlist {
            name: format!("{}_cone", self.name),
            meta,
            fanin_a,
            fanin_b,
            names,
            inputs,
            outputs,
        };
        let cone = cone
            .assembled()
            .expect("cone extraction preserves netlist invariants");
        (cone, IdMap { set, back })
    }
}

/// Node-by-node assembly of a netlist whose names are distinct by
/// construction, such as the generator's `pi{i}` and `g{g}`: each name is
/// formatted straight into the name table, no name set is kept, and
/// [`NetlistAssembly::finish`] validates through [`Netlist::assembled`].
/// Names from outside the crate go through [`crate::NetlistBuilder`] or
/// [`Netlist::from_parts`], which check them.
#[derive(Debug)]
pub(crate) struct NetlistAssembly {
    nl: Netlist,
}

impl NetlistAssembly {
    /// Starts a netlist called `name` with room for `nodes` nodes.
    pub(crate) fn new(name: String, nodes: usize) -> Self {
        NetlistAssembly {
            nl: Netlist {
                name,
                meta: Vec::with_capacity(nodes),
                fanin_a: Vec::with_capacity(nodes),
                fanin_b: Vec::with_capacity(nodes),
                names: NameTable::with_capacity(nodes),
                inputs: Vec::new(),
                outputs: Vec::new(),
            },
        }
    }

    fn push(&mut self, kind: NodeKind, name: fmt::Arguments<'_>) -> NodeId {
        let nl = &mut self.nl;
        let id = NodeId(nl.meta.len() as u32);
        let (m, a, b) = pack(kind, nl.inputs.len() as u32);
        if kind == NodeKind::Input {
            nl.inputs.push(id);
        }
        nl.meta.push(m);
        nl.fanin_a.push(a);
        nl.fanin_b.push(b);
        nl.names.push_fmt(name);
        id
    }

    /// Declares a primary input.
    pub(crate) fn input(&mut self, name: fmt::Arguments<'_>) -> NodeId {
        self.push(NodeKind::Input, name)
    }

    /// Adds a two-input gate.
    pub(crate) fn gate2(
        &mut self,
        name: fmt::Arguments<'_>,
        f: Bf2,
        a: NodeId,
        b: NodeId,
    ) -> NodeId {
        self.push(NodeKind::Gate2 { f, a, b }, name)
    }

    /// Marks `id` as a primary output.
    pub(crate) fn output(&mut self, id: NodeId) {
        self.nl.outputs.push(id);
    }

    /// The netlist, validated by [`Netlist::assembled`].
    pub(crate) fn finish(self) -> Result<Netlist, LogicError> {
        self.nl.assembled()
    }
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} inputs, {} outputs, {} gates, depth {}",
            self.name,
            self.inputs.len(),
            self.outputs.len(),
            self.gate_count(),
            self.depth()
        )
    }
}

/// Iterator over a netlist's nodes as [`NodeRef`]s, in topological order.
#[derive(Debug, Clone)]
pub struct Nodes<'a> {
    nl: &'a Netlist,
    range: std::ops::Range<usize>,
}

impl<'a> Iterator for Nodes<'a> {
    type Item = NodeRef<'a>;

    fn next(&mut self) -> Option<NodeRef<'a>> {
        self.range.next().map(|i| self.nl.node(NodeId(i as u32)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.range.size_hint()
    }
}

impl ExactSizeIterator for Nodes<'_> {}

impl DoubleEndedIterator for Nodes<'_> {
    fn next_back(&mut self) -> Option<Self::Item> {
        self.range
            .next_back()
            .map(|i| self.nl.node(NodeId(i as u32)))
    }
}

/// Fanout adjacency in compressed-sparse-row form: the fanouts of node `i`
/// are `targets[offsets[i]..offsets[i + 1]]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FanoutCsr {
    offsets: Vec<u32>,
    targets: Vec<NodeId>,
}

impl FanoutCsr {
    /// The ids of the nodes `id` feeds.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn fanouts(&self, id: NodeId) -> &[NodeId] {
        let i = id.index();
        &self.targets[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `true` if no nodes are covered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of fanout edges.
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }
}

/// A set of node ids of one netlist: a bitset over the ids plus a rank
/// index, so membership and a member's *position* (its index among the
/// members in ascending id order) are O(1), and iteration is ascending.
/// Tables indexed by position are as long as the set, not the design —
/// which is how cone-sized passes over a superblue-scale design avoid
/// design-sized tables. Built by [`Netlist::fanin_set`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSet {
    words: Vec<u64>,
    /// Members in the words before word `w`.
    rank: Vec<u32>,
    /// Number of ids the set ranges over (the netlist's node count).
    universe: usize,
}

impl NodeSet {
    fn from_words(words: Vec<u64>, universe: usize) -> Self {
        let mut rank = Vec::with_capacity(words.len() + 1);
        let mut total = 0u32;
        for w in &words {
            rank.push(total);
            total += w.count_ones();
        }
        rank.push(total);
        NodeSet {
            words,
            rank,
            universe,
        }
    }

    /// `true` if `id` is a member.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of the set's range.
    pub fn contains(&self, id: NodeId) -> bool {
        self.words[id.index() / 64] >> (id.index() % 64) & 1 == 1
    }

    /// The index of `id` among the members in ascending id order, or
    /// `None` if `id` is not a member.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of the set's range.
    #[inline]
    pub fn position(&self, id: NodeId) -> Option<usize> {
        let (w, b) = (id.index() / 64, id.index() % 64);
        let word = self.words[w];
        (word >> b & 1 == 1)
            .then(|| self.rank[w] as usize + (word & ((1u64 << b) - 1)).count_ones() as usize)
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        *self.rank.last().expect("rank has a final total") as usize
    }

    /// `true` if the set has no members.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of ids the set ranges over.
    pub(crate) fn universe(&self) -> usize {
        self.universe
    }

    /// The members, ascending.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let b = rest.trailing_zeros();
                    rest &= rest - 1;
                    NodeId((w * 64) as u32 + b)
                })
            })
        })
    }
}

/// Old-id ↔ new-id correspondence produced by [`Netlist::cone_of`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdMap {
    /// The cone's members in the full netlist; a member's position is
    /// its cone id.
    set: NodeSet,
    /// Cone id → full-netlist id.
    back: Vec<NodeId>,
}

impl IdMap {
    /// The cone id of full-netlist node `full`, if it lies in the cone.
    ///
    /// # Panics
    ///
    /// Panics if `full` is out of range for the full netlist.
    pub fn to_cone(&self, full: NodeId) -> Option<NodeId> {
        self.set.position(full).map(|i| NodeId(i as u32))
    }

    /// The full-netlist id of cone node `cone`.
    ///
    /// # Panics
    ///
    /// Panics if `cone` is out of range for the cone.
    pub fn to_full(&self, cone: NodeId) -> NodeId {
        self.back[cone.index()]
    }

    /// `true` if `full` lies in the cone.
    pub fn contains(&self, full: NodeId) -> bool {
        self.set.contains(full)
    }

    /// Number of nodes in the cone.
    pub fn cone_len(&self) -> usize {
        self.back.len()
    }

    /// Number of nodes in the full netlist.
    pub fn full_len(&self) -> usize {
        self.set.universe()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;

    fn full_adder() -> Netlist {
        let mut b = NetlistBuilder::new("full_adder");
        let a = b.input("a");
        let c = b.input("b");
        let cin = b.input("cin");
        let s1 = b.gate2("s1", Bf2::XOR, a, c);
        let sum = b.gate2("sum", Bf2::XOR, s1, cin);
        let c1 = b.gate2("c1", Bf2::AND, a, c);
        let c2 = b.gate2("c2", Bf2::AND, s1, cin);
        let cout = b.gate2("cout", Bf2::OR, c1, c2);
        b.output(sum);
        b.output(cout);
        b.finish().unwrap()
    }

    #[test]
    fn full_adder_truth_table() {
        let nl = full_adder();
        for a in [false, true] {
            for b in [false, true] {
                for cin in [false, true] {
                    let out = nl.evaluate(&[a, b, cin]);
                    let total = a as u8 + b as u8 + cin as u8;
                    assert_eq!(out[0], total & 1 == 1, "sum for {a}{b}{cin}");
                    assert_eq!(out[1], total >= 2, "cout for {a}{b}{cin}");
                }
            }
        }
    }

    #[test]
    fn counts_and_depth() {
        let nl = full_adder();
        assert_eq!(nl.inputs().len(), 3);
        assert_eq!(nl.outputs().len(), 2);
        assert_eq!(nl.gate_count(), 5);
        assert_eq!(nl.depth(), 3); // a → s1 → c2 → cout
        assert_eq!(nl.gate_ids().len(), 5);
    }

    #[test]
    fn packed_kinds_round_trip() {
        let mut b = NetlistBuilder::new("kinds");
        let x = b.input("x");
        let k0 = b.constant(false);
        let k1 = b.constant(true);
        let inv = b.gate1("inv", Bf1::Inv, x);
        let g = b.gate2("g", Bf2::NOR, inv, k0);
        b.output(g);
        b.output(k1);
        let nl = b.finish().unwrap();
        assert_eq!(nl.kind(x), NodeKind::Input);
        assert_eq!(nl.kind(k0), NodeKind::Const(false));
        assert_eq!(nl.kind(k1), NodeKind::Const(true));
        assert_eq!(nl.kind(inv), NodeKind::Gate1 { f: Bf1::Inv, a: x });
        assert_eq!(
            nl.kind(g),
            NodeKind::Gate2 {
                f: Bf2::NOR,
                a: inv,
                b: k0
            }
        );
        assert_eq!(nl.node(inv).name, "inv");
    }

    #[test]
    fn fanouts_are_consistent_with_fanins() {
        let nl = full_adder();
        let fo = nl.fanouts();
        let mut edges_from_fanouts = 0usize;
        for list in &fo {
            edges_from_fanouts += list.len();
        }
        let edges_from_fanins: usize = nl.nodes().map(|n| n.kind.fanins().count()).sum();
        assert_eq!(edges_from_fanouts, edges_from_fanins);
    }

    #[test]
    fn fanout_csr_matches_vec_form() {
        let nl = full_adder();
        let fo = nl.fanouts();
        let csr = nl.fanout_csr();
        assert_eq!(csr.len(), nl.len());
        for (i, list) in fo.iter().enumerate() {
            assert_eq!(csr.fanouts(NodeId(i as u32)), &list[..], "node {i}");
        }
        assert_eq!(csr.edge_count(), fo.iter().map(|l| l.len()).sum::<usize>());
    }

    #[test]
    fn find_and_name_map_agree() {
        let nl = full_adder();
        let map = nl.name_map();
        for name in ["a", "b", "cin", "sum", "cout"] {
            assert_eq!(nl.find(name), map.get(name).copied(), "{name}");
        }
        assert_eq!(nl.find("nope"), None);
    }

    #[test]
    fn try_evaluate_rejects_wrong_arity() {
        let nl = full_adder();
        assert!(matches!(
            nl.try_evaluate(&[true]),
            Err(LogicError::InputCountMismatch {
                expected: 3,
                got: 1
            })
        ));
    }

    #[test]
    fn set_gate2_function_changes_semantics() {
        let mut nl = full_adder();
        let sum = nl.find("sum").unwrap();
        nl.set_gate2_function(sum, Bf2::XNOR).unwrap();
        let out = nl.evaluate(&[false, false, false]);
        assert!(out[0]); // XNOR(0,0) = 1 where XOR gave 0.
    }

    #[test]
    fn set_gate2_function_rejects_inputs() {
        let mut nl = full_adder();
        let a = nl.find("a").unwrap();
        assert!(nl.set_gate2_function(a, Bf2::AND).is_err());
    }

    #[test]
    fn set_gate_rejects_non_gates_and_forward_fanins() {
        let mut b = NetlistBuilder::new("t");
        let x = b.input("x");
        let one = b.constant(true);
        let g = b.gate2("g", Bf2::AND, x, one);
        let h = b.gate1("h", Bf1::Inv, g);
        b.output(h);
        let mut nl = b.finish().unwrap();
        let before = nl.clone();
        let and = |a, b| NodeKind::Gate2 { f: Bf2::AND, a, b };
        for target in [x, one, NodeId(nl.len() as u32)] {
            assert!(nl.set_gate(target, and(x, x)).is_err(), "{target}");
        }
        for kind in [NodeKind::Input, NodeKind::Const(false)] {
            assert!(nl.set_gate(g, kind).is_err(), "{kind:?}");
        }
        assert!(nl.set_gate(g, and(x, g)).is_err(), "self loop");
        assert!(nl.set_gate(g, and(x, h)).is_err(), "forward fanin");
        assert_eq!(nl, before, "a rejected edit changes nothing");
    }

    #[test]
    fn set_gate_turns_a_gate1_into_a_degenerate_gate2() {
        let mut b = NetlistBuilder::new("t");
        let x = b.input("x");
        let y = b.input("y");
        let g = b.gate2("g", Bf2::XOR, x, y);
        let h = b.gate1("h", Bf1::Inv, g);
        b.output(h);
        let mut nl = b.finish().unwrap();
        let cell = NodeKind::Gate2 {
            f: Bf2::NAND,
            a: g,
            b: g,
        };
        nl.set_gate(h, cell).unwrap();
        assert_eq!(nl.kind(h), cell);
        assert_eq!(nl.node(h).name, "h");
        nl.check().unwrap();
        for p in 0..4u32 {
            let v = [p & 1 == 1, p & 2 == 2];
            assert_eq!(nl.evaluate(&v), vec![v[0] == v[1]], "NAND(g, g) = INV(g)");
        }
        // The arena matches a netlist built with the cell from the start.
        let mut b = NetlistBuilder::new("t");
        let x = b.input("x");
        let y = b.input("y");
        let g = b.gate2("g", Bf2::XOR, x, y);
        let h = b.gate2("h", Bf2::NAND, g, g);
        b.output(h);
        assert_eq!(nl, b.finish().unwrap());
    }

    #[test]
    fn check_rejects_duplicate_names() {
        let nodes = vec![
            Node {
                kind: NodeKind::Input,
                name: "x".into(),
            },
            Node {
                kind: NodeKind::Input,
                name: "x".into(),
            },
        ];
        let err =
            Netlist::from_parts("bad", nodes, vec![NodeId(0), NodeId(1)], vec![]).unwrap_err();
        assert!(matches!(err, LogicError::Validation(_)));
    }

    #[test]
    fn check_rejects_non_topological_order() {
        let nodes = vec![
            Node {
                kind: NodeKind::Gate1 {
                    f: Bf1::Inv,
                    a: NodeId(1),
                },
                name: "g".into(),
            },
            Node {
                kind: NodeKind::Input,
                name: "x".into(),
            },
        ];
        let err = Netlist::from_parts("bad", nodes, vec![NodeId(1)], vec![]).unwrap_err();
        assert!(matches!(err, LogicError::Validation(_)));
    }

    #[test]
    fn check_rejects_out_of_order_input_list() {
        let nodes = vec![
            Node {
                kind: NodeKind::Input,
                name: "x".into(),
            },
            Node {
                kind: NodeKind::Input,
                name: "y".into(),
            },
        ];
        let err =
            Netlist::from_parts("bad", nodes, vec![NodeId(1), NodeId(0)], vec![]).unwrap_err();
        assert!(matches!(err, LogicError::Validation(_)));
    }

    #[test]
    fn fanin_cone_of_output_contains_inputs_it_depends_on() {
        let nl = full_adder();
        let cone = nl.fanin_cone(nl.find("cout").unwrap());
        let names: Vec<&str> = cone.iter().map(|&id| nl.node(id).name).collect();
        for needed in ["a", "b", "cin", "c1", "c2", "s1"] {
            assert!(names.contains(&needed), "missing {needed}");
        }
        assert!(!names.contains(&"sum"));
    }

    #[test]
    fn cone_of_extracts_a_working_subcircuit() {
        let nl = full_adder();
        let cout = nl.find("cout").unwrap();
        let (cone, map) = nl.cone_of(&[cout]);
        // `sum` is outside cout's cone; everything else is in it.
        assert_eq!(cone.len(), nl.len() - 1);
        assert_eq!(map.cone_len(), cone.len());
        assert_eq!(map.full_len(), nl.len());
        assert!(!map.contains(nl.find("sum").unwrap()));
        assert_eq!(cone.inputs().len(), 3);
        assert_eq!(cone.outputs().len(), 1);
        // Same function on the shared outputs.
        for a in [false, true] {
            for b in [false, true] {
                for cin in [false, true] {
                    let full = nl.evaluate(&[a, b, cin]);
                    let sub = cone.evaluate(&[a, b, cin]);
                    assert_eq!(sub[0], full[1], "cout for {a}{b}{cin}");
                }
            }
        }
        // Ids map back to the same signals.
        for i in 0..cone.len() {
            let cid = NodeId(i as u32);
            let fid = map.to_full(cid);
            assert_eq!(cone.node(cid).name, nl.node(fid).name);
            assert_eq!(map.to_cone(fid), Some(cid));
        }
    }

    #[test]
    fn cone_of_drops_unreachable_inputs() {
        let mut b = NetlistBuilder::new("two_halves");
        let x = b.input("x");
        let y = b.input("y");
        let gx = b.gate1("gx", Bf1::Inv, x);
        let gy = b.gate1("gy", Bf1::Inv, y);
        b.output(gx);
        b.output(gy);
        let nl = b.finish().unwrap();
        let (cone, map) = nl.cone_of(&[gy]);
        assert_eq!(cone.inputs().len(), 1);
        assert_eq!(cone.node(cone.inputs()[0]).name, "y");
        assert!(!map.contains(x));
        assert_eq!(cone.evaluate(&[true]), vec![false]);
    }

    #[test]
    fn function_histogram_counts() {
        let nl = full_adder();
        let h = nl.function_histogram();
        let and = h.iter().find(|(n, _)| *n == "AND").unwrap();
        assert_eq!(and.1, 2);
        let xor = h.iter().find(|(n, _)| *n == "XOR").unwrap();
        assert_eq!(xor.1, 2);
    }

    #[test]
    fn display_mentions_counts() {
        let nl = full_adder();
        let s = nl.to_string();
        assert!(s.contains("full_adder") && s.contains("3 inputs"));
    }

    #[test]
    fn arena_bytes_is_small_and_tracks_size() {
        let nl = full_adder();
        // 8 nodes: 1 meta byte + 8 fanin bytes + spans + short names.
        assert!(nl.arena_bytes() < 8 * 64, "{}", nl.arena_bytes());
        let (cone, _) = nl.cone_of(&[nl.find("cout").unwrap()]);
        assert!(cone.arena_bytes() < nl.arena_bytes());
    }

    #[test]
    fn fanin_set_ranks_members_in_id_order() {
        // Two interleaved inverter chains over 200 nodes: the cone of one
        // chain's end is every other node, spread across four bit words.
        let mut b = NetlistBuilder::new("chains");
        let mut ends = [b.input("x"), b.input("y")];
        for i in 0..99 {
            for (c, end) in ends.iter_mut().enumerate() {
                *end = b.gate1(format!("g{c}_{i}"), Bf1::Inv, *end);
            }
        }
        b.output(ends[0]);
        b.output(ends[1]);
        let nl = b.finish().unwrap();
        let set = nl.fanin_set(&[ends[1]]);
        let members: Vec<NodeId> = set.iter().collect();
        assert_eq!(members.len(), 100);
        assert_eq!(set.len(), 100);
        assert_eq!(set.universe(), nl.len());
        assert!(members.windows(2).all(|w| w[0] < w[1]), "ascending");
        for (pos, &id) in members.iter().enumerate() {
            assert!(set.contains(id));
            assert_eq!(set.position(id), Some(pos));
        }
        assert_eq!(set.position(ends[0]), None);
        assert!(!set.contains(ends[0]));
        assert!(nl.fanin_set(&[]).is_empty());
    }

    #[test]
    fn constants_evaluate() {
        let mut b = NetlistBuilder::new("consts");
        let one = b.constant(true);
        let zero = b.constant(false);
        let g = b.gate2("g", Bf2::AND, one, zero);
        b.output(g);
        b.output(one);
        let nl = b.finish().unwrap();
        assert_eq!(nl.evaluate(&[]), vec![false, true]);
    }
}
