//! Incremental netlist construction.

use crate::bf2::{Bf1, Bf2};
use crate::error::LogicError;
use crate::netlist::{Netlist, Node, NodeId, NodeKind};
use std::collections::HashSet;

/// Builds a [`Netlist`] node by node, maintaining topological order by
/// construction (a gate can only reference already-created nodes).
///
/// ```
/// use gshe_logic::{Bf2, NetlistBuilder};
///
/// let mut b = NetlistBuilder::new("mux");
/// let s = b.input("s");
/// let d0 = b.input("d0");
/// let d1 = b.input("d1");
/// let n0 = b.gate2("n0", Bf2::A_AND_NOT_B, d0, s);
/// let n1 = b.gate2("n1", Bf2::AND, d1, s);
/// let y = b.gate2("y", Bf2::OR, n0, n1);
/// b.output(y);
/// let mux = b.finish().unwrap();
/// assert_eq!(mux.evaluate(&[false, true, false]), vec![true]);
/// assert_eq!(mux.evaluate(&[true, true, false]), vec![false]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct NetlistBuilder {
    name: String,
    nodes: Vec<Node>,
    inputs: Vec<NodeId>,
    outputs: Vec<NodeId>,
    names: HashSet<String>,
    reserved: HashSet<String>,
    anon_counter: usize,
}

impl NetlistBuilder {
    /// Starts a new design called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        NetlistBuilder {
            name: name.into(),
            ..Default::default()
        }
    }

    fn push(&mut self, kind: NodeKind, name: String) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.names.insert(name.clone());
        self.nodes.push(Node { kind, name });
        id
    }

    fn is_free(&self, name: &str) -> bool {
        !self.names.contains(name) && !self.reserved.contains(name)
    }

    fn fresh_name(&mut self, prefix: &str) -> String {
        loop {
            let candidate = format!("{prefix}{}", self.anon_counter);
            self.anon_counter += 1;
            if self.is_free(&candidate) {
                return candidate;
            }
        }
    }

    /// Keeps `name` for a node the caller creates later: auto-named gates,
    /// constants and [`NetlistBuilder::free_name`] never take it.
    pub(crate) fn reserve(&mut self, name: impl Into<String>) {
        self.reserved.insert(name.into());
    }

    /// `base` if no node has it and nobody reserved it, otherwise the
    /// first such `base_<n>` (`n = 1, 2, …`).
    pub(crate) fn free_name(&self, base: &str) -> String {
        if self.is_free(base) {
            return base.to_string();
        }
        (1..)
            .map(|n| format!("{base}_{n}"))
            .find(|name| self.is_free(name))
            .expect("a finite name set leaves a free variant")
    }

    /// Number of nodes created so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if nothing has been created yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Declares a primary input.
    ///
    /// # Panics
    ///
    /// Panics if the name is already taken.
    pub fn input(&mut self, name: impl Into<String>) -> NodeId {
        let name = name.into();
        assert!(!self.names.contains(&name), "duplicate signal `{name}`");
        let id = self.push(NodeKind::Input, name);
        self.inputs.push(id);
        id
    }

    /// Adds a constant driver.
    pub fn constant(&mut self, value: bool) -> NodeId {
        let name = self.fresh_name(if value { "const1_" } else { "const0_" });
        self.push(NodeKind::Const(value), name)
    }

    /// Adds a named two-input gate.
    ///
    /// # Panics
    ///
    /// Panics on duplicate names or forward references.
    pub fn gate2(&mut self, name: impl Into<String>, f: Bf2, a: NodeId, b: NodeId) -> NodeId {
        let name = name.into();
        assert!(!self.names.contains(&name), "duplicate signal `{name}`");
        assert!(
            a.index() < self.nodes.len() && b.index() < self.nodes.len(),
            "gate `{name}` references a node that does not exist yet"
        );
        self.push(NodeKind::Gate2 { f, a, b }, name)
    }

    /// Adds a named one-input gate.
    ///
    /// # Panics
    ///
    /// Panics on duplicate names or forward references.
    pub fn gate1(&mut self, name: impl Into<String>, f: Bf1, a: NodeId) -> NodeId {
        let name = name.into();
        assert!(!self.names.contains(&name), "duplicate signal `{name}`");
        assert!(
            a.index() < self.nodes.len(),
            "gate `{name}` references a missing node"
        );
        self.push(NodeKind::Gate1 { f, a }, name)
    }

    /// Adds an anonymous two-input gate (auto-named).
    pub fn gate2_auto(&mut self, f: Bf2, a: NodeId, b: NodeId) -> NodeId {
        let name = self.fresh_name("g");
        self.gate2(name, f, a, b)
    }

    /// Adds an anonymous one-input gate (auto-named).
    pub fn gate1_auto(&mut self, f: Bf1, a: NodeId) -> NodeId {
        let name = self.fresh_name("g");
        self.gate1(name, f, a)
    }

    /// Convenience inverter.
    pub fn not(&mut self, a: NodeId) -> NodeId {
        self.gate1_auto(Bf1::Inv, a)
    }

    /// Reduces `ids` with the associative function `f` as a balanced binary
    /// tree (used to decompose n-ary `.bench` gates into two-input gates).
    ///
    /// # Panics
    ///
    /// Panics if `ids` is empty.
    pub fn reduce_tree(&mut self, f: Bf2, ids: &[NodeId]) -> NodeId {
        assert!(!ids.is_empty(), "cannot reduce an empty fanin list");
        let mut layer: Vec<NodeId> = ids.to_vec();
        while layer.len() > 1 {
            let mut next = Vec::with_capacity(layer.len().div_ceil(2));
            for pair in layer.chunks(2) {
                if pair.len() == 2 {
                    next.push(self.gate2_auto(f, pair[0], pair[1]));
                } else {
                    next.push(pair[0]);
                }
            }
            layer = next;
        }
        layer[0]
    }

    /// Marks `id` as a primary output.
    pub fn output(&mut self, id: NodeId) {
        self.outputs.push(id);
    }

    /// Finalizes and validates the netlist.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::Validation`] if an invariant was violated (this
    /// indicates a builder bug; the builder enforces invariants as it goes).
    pub fn finish(self) -> Result<Netlist, LogicError> {
        Netlist::from_parts(self.name, self.nodes, self.inputs, self.outputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduce_tree_matches_nary_and() {
        let mut b = NetlistBuilder::new("and8");
        let ins: Vec<NodeId> = (0..8).map(|i| b.input(format!("x{i}"))).collect();
        let root = b.reduce_tree(Bf2::AND, &ins);
        b.output(root);
        let nl = b.finish().unwrap();
        for pattern in 0..256u32 {
            let vals: Vec<bool> = (0..8).map(|i| (pattern >> i) & 1 == 1).collect();
            let expect = vals.iter().all(|&v| v);
            assert_eq!(nl.evaluate(&vals), vec![expect], "pattern {pattern:08b}");
        }
        // 8-input tree needs exactly 7 two-input gates.
        assert_eq!(nl.gate_count(), 7);
    }

    #[test]
    fn reduce_tree_single_node_is_identity() {
        let mut b = NetlistBuilder::new("t");
        let x = b.input("x");
        assert_eq!(b.reduce_tree(Bf2::OR, &[x]), x);
    }

    #[test]
    fn auto_names_do_not_collide_with_user_names() {
        let mut b = NetlistBuilder::new("t");
        let x = b.input("g0"); // claim the first auto name
        let g = b.gate1_auto(Bf1::Inv, x);
        b.output(g);
        let nl = b.finish().unwrap();
        assert_eq!(nl.evaluate(&[true]), vec![false]);
    }

    #[test]
    fn reserved_names_are_skipped_until_claimed() {
        let mut b = NetlistBuilder::new("t");
        b.reserve("g0");
        b.reserve("const1_1");
        b.reserve("x_1");
        let x = b.input("x");
        assert_eq!(b.free_name("x"), "x_2");
        assert_eq!(b.free_name("y"), "y");
        let g = b.gate1_auto(Bf1::Inv, x);
        let one = b.constant(true);
        let named = b.gate2("g0", Bf2::AND, g, one);
        b.output(named);
        let nl = b.finish().unwrap();
        let names: Vec<_> = nl.nodes().map(|n| n.name.to_string()).collect();
        assert_eq!(names, ["x", "g1", "const1_2", "g0"]);
    }

    #[test]
    #[should_panic(expected = "duplicate signal")]
    fn duplicate_input_name_panics() {
        let mut b = NetlistBuilder::new("t");
        b.input("x");
        b.input("x");
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn forward_reference_panics() {
        let mut b = NetlistBuilder::new("t");
        let x = b.input("x");
        b.gate2("g", Bf2::AND, x, NodeId(99));
    }

    #[test]
    fn not_inverts() {
        let mut b = NetlistBuilder::new("t");
        let x = b.input("x");
        let y = b.not(x);
        b.output(y);
        let nl = b.finish().unwrap();
        assert_eq!(nl.evaluate(&[false]), vec![true]);
    }
}
