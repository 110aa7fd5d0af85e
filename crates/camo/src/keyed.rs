//! The keyed (locked/camouflaged) netlist model.

use crate::error::CamoError;
use gshe_logic::{Bf1, Bf2, Netlist, NodeId, NodeKind};
use std::sync::Arc;

/// Candidate function set of one cloaked cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Candidates {
    /// Two-input candidates (most schemes).
    TwoInput(Vec<Bf2>),
    /// One-input candidates (the INV/BUF scheme).
    OneInput(Vec<Bf1>),
}

impl Candidates {
    /// Number of candidate functions.
    pub fn len(&self) -> usize {
        match self {
            Candidates::TwoInput(v) => v.len(),
            Candidates::OneInput(v) => v.len(),
        }
    }

    /// `true` if the set is empty (never produced by the transforms).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Key bits needed: ⌈log₂ len⌉ (minimum 1).
    pub fn key_bits(&self) -> usize {
        let n = self.len().max(2);
        usize::BITS as usize - (n - 1).leading_zeros() as usize
    }
}

/// One cloaked cell inside a [`KeyedNetlist`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CamoGate {
    /// The netlist node occupied by the cell.
    pub node: NodeId,
    /// The functions the cell hides among.
    pub candidates: Candidates,
    /// Index of the first key bit controlling this cell.
    pub key_offset: usize,
    /// Index (within `candidates`) of the true function — the secret.
    pub correct_index: usize,
}

impl CamoGate {
    /// Key bits consumed by this cell.
    pub fn key_bits(&self) -> usize {
        self.candidates.key_bits()
    }

    /// This cell's raw key code: its key bits, least significant first.
    fn code(&self, key: &[bool]) -> usize {
        (0..self.key_bits())
            .filter(|&b| key[self.key_offset + b])
            .fold(0, |code, b| code | 1 << b)
    }

    /// Decodes this cell's candidate index from a full key.
    ///
    /// Returns `None` when the key bits encode an invalid (≥ len) index.
    pub fn decode(&self, key: &[bool]) -> Option<usize> {
        let code = self.code(key);
        (code < self.candidates.len()).then_some(code)
    }

    /// The candidate a full key selects on the chip: the decoded index,
    /// and for an invalid code (possible when the candidate count is not
    /// a power of two) candidate `code mod len`, mirroring a chip whose
    /// undocumented configurations alias onto documented ones. This is
    /// the one decode rule resolution and key verification share.
    pub fn select(&self, key: &[bool]) -> usize {
        self.code(key) % self.candidates.len()
    }

    /// Encodes candidate `index` into `key` at this cell's offset.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn encode(&self, index: usize, key: &mut [bool]) {
        assert!(
            index < self.candidates.len(),
            "candidate index out of range"
        );
        for b in 0..self.key_bits() {
            key[self.key_offset + b] = (index >> b) & 1 == 1;
        }
    }
}

/// A camouflaged netlist with key-controlled cloaked cells.
///
/// The embedded [`Netlist`] holds the *correct* functions at the cloaked
/// nodes (so the defender can simulate the real chip); an attacker is given
/// only the structure plus each cell's candidate set — which is what the
/// SAT encoding in `gshe-attacks` consumes.
///
/// The netlist is held by [`Arc`]. A draw whose every cell is its gate
/// unchanged holds the source design's own `Arc` (see
/// [`KeyedNetlist::shares_netlist`]), so many draws of one design cost one
/// arena.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyedNetlist {
    netlist: Arc<Netlist>,
    camo_gates: Vec<CamoGate>,
    key_len: usize,
    /// Ordinals of the outputs some cloaked cell reaches, ascending.
    reached_outputs: Vec<usize>,
}

impl KeyedNetlist {
    /// Assembles a keyed netlist (used by [`crate::transform::camouflage`]).
    ///
    /// Also computes [`KeyedNetlist::reached_outputs`]: one forward taint
    /// sweep from the lowest cloaked id to the end of the arena, so every
    /// later cone-of-influence step on this draw (the exact chip's cone
    /// answer, the attack's projection, the key proof) starts from the cone
    /// instead of sweeping the design again.
    ///
    /// # Panics
    ///
    /// Panics if key offsets are inconsistent with `key_len`.
    pub fn new(
        netlist: impl Into<Arc<Netlist>>,
        camo_gates: Vec<CamoGate>,
        key_len: usize,
    ) -> Self {
        let netlist = netlist.into();
        let total: usize = camo_gates.iter().map(|g| g.key_bits()).sum();
        assert_eq!(total, key_len, "key offsets inconsistent with key length");
        let reached_outputs = reached_outputs(&netlist, &camo_gates);
        KeyedNetlist {
            netlist,
            camo_gates,
            key_len,
            reached_outputs,
        }
    }

    /// Ordinals (positions in `outputs()`) of the primary outputs some
    /// cloaked cell reaches, ascending. Every other output computes the
    /// same function under every key.
    pub fn reached_outputs(&self) -> &[usize] {
        &self.reached_outputs
    }

    /// The underlying structure **with correct functions installed**
    /// (defender's view).
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// `true` when this draw holds `design`'s own arena (the same [`Arc`]
    /// allocation) rather than a copy.
    pub fn shares_netlist(&self, design: &Arc<Netlist>) -> bool {
        Arc::ptr_eq(&self.netlist, design)
    }

    /// The cloaked cells.
    pub fn camo_gates(&self) -> &[CamoGate] {
        &self.camo_gates
    }

    /// Total key bits.
    pub fn key_len(&self) -> usize {
        self.key_len
    }

    /// The correct key (defender's secret).
    pub fn correct_key(&self) -> Vec<bool> {
        let mut key = vec![false; self.key_len];
        for g in &self.camo_gates {
            g.encode(g.correct_index, &mut key);
        }
        key
    }

    /// The kind every cloaked cell takes under `key`, as `(node, kind)`
    /// pairs in ascending node order: the cell's gate with the
    /// [selected](CamoGate::select) candidate installed, fanins unchanged.
    /// This is [`KeyedNetlist::resolve`] without copying the design —
    /// resolution installs exactly these kinds.
    ///
    /// # Errors
    ///
    /// Returns [`CamoError::KeyLengthMismatch`] on key-length mismatch, or
    /// [`CamoError::NotAGate`] when a cell's node is not a gate of its
    /// candidates' arity.
    pub fn cell_kinds(&self, key: &[bool]) -> Result<Vec<(NodeId, NodeKind)>, CamoError> {
        if key.len() != self.key_len {
            return Err(CamoError::KeyLengthMismatch {
                expected: self.key_len,
                got: key.len(),
            });
        }
        let mut cells = self
            .camo_gates
            .iter()
            .map(|g| {
                let idx = g.select(key);
                let kind = match (&g.candidates, self.netlist.kind(g.node)) {
                    (Candidates::TwoInput(fs), NodeKind::Gate2 { a, b, .. }) => {
                        NodeKind::Gate2 { f: fs[idx], a, b }
                    }
                    (Candidates::OneInput(fs), NodeKind::Gate1 { a, .. }) => {
                        NodeKind::Gate1 { f: fs[idx], a }
                    }
                    _ => return Err(CamoError::NotAGate(g.node)),
                };
                Ok((g.node, kind))
            })
            .collect::<Result<Vec<_>, _>>()?;
        cells.sort_unstable_by_key(|&(id, _)| id);
        Ok(cells)
    }

    /// Resolves the design under `key` into a plain netlist by installing
    /// [`KeyedNetlist::cell_kinds`] (invalid codes alias `code mod len`,
    /// see [`CamoGate::select`]).
    ///
    /// # Errors
    ///
    /// Returns the errors of [`KeyedNetlist::cell_kinds`].
    pub fn resolve(&self, key: &[bool]) -> Result<Netlist, CamoError> {
        let cells = self.cell_kinds(key)?;
        let mut nl = Netlist::clone(&self.netlist);
        for (id, kind) in cells {
            nl.set_gate(id, kind)
                .expect("cell_kinds keeps each cell's gate and fanins");
        }
        Ok(nl)
    }

    /// Evaluates the design on `inputs` under `key`.
    ///
    /// # Errors
    ///
    /// Returns [`CamoError::KeyLengthMismatch`] or
    /// [`CamoError::InputCountMismatch`].
    pub fn evaluate_with_key(&self, inputs: &[bool], key: &[bool]) -> Result<Vec<bool>, CamoError> {
        let resolved = self.resolve(key)?;
        resolved
            .try_evaluate(inputs)
            .map_err(|_| CamoError::InputCountMismatch {
                expected: self.netlist.inputs().len(),
                got: inputs.len(),
            })
    }

    /// `true` if `key` selects the correct function at every cell
    /// (*structurally* correct; functionally equivalent wrong keys can
    /// exist and are exactly what SAT attacks may legitimately return).
    pub fn key_is_structurally_correct(&self, key: &[bool]) -> bool {
        key.len() == self.key_len
            && self
                .camo_gates
                .iter()
                .all(|g| g.decode(key) == Some(g.correct_index))
    }
}

/// Ordinals of the outputs `gates` reach in `nl`. A node is tainted when
/// it is a cloaked cell or any fanin is tainted; ids are topological, so
/// one ascending pass suffices, and it starts at the lowest cloaked id —
/// nothing below it can be tainted.
fn reached_outputs(nl: &Netlist, gates: &[CamoGate]) -> Vec<usize> {
    let Some(lo) = gates.iter().map(|g| g.node.index()).min() else {
        return Vec::new();
    };
    let mut tainted = vec![false; nl.len() - lo];
    for g in gates {
        tainted[g.node.index() - lo] = true;
    }
    for i in lo..nl.len() {
        if !tainted[i - lo]
            && nl
                .fanins(NodeId(i as u32))
                .any(|f| f.index() >= lo && tainted[f.index() - lo])
        {
            tainted[i - lo] = true;
        }
    }
    nl.outputs()
        .iter()
        .enumerate()
        .filter(|(_, o)| o.index() >= lo && tainted[o.index() - lo])
        .map(|(k, _)| k)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gshe_logic::{Bf2, NetlistBuilder};

    fn tiny_keyed() -> KeyedNetlist {
        // y = AND(a, b), camouflaged among all 16.
        let mut b = NetlistBuilder::new("tiny");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.gate2("y", Bf2::AND, a, c);
        b.output(y);
        let nl = b.finish().unwrap();
        let gate = CamoGate {
            node: y,
            candidates: Candidates::TwoInput(Bf2::ALL.to_vec()),
            key_offset: 0,
            correct_index: Bf2::AND.truth_table() as usize,
        };
        KeyedNetlist::new(nl, vec![gate], 4)
    }

    #[test]
    fn correct_key_round_trips() {
        let k = tiny_keyed();
        let key = k.correct_key();
        assert!(k.key_is_structurally_correct(&key));
        assert_eq!(
            k.evaluate_with_key(&[true, true], &key).unwrap(),
            vec![true]
        );
        assert_eq!(
            k.evaluate_with_key(&[true, false], &key).unwrap(),
            vec![false]
        );
    }

    #[test]
    fn wrong_key_changes_function() {
        let k = tiny_keyed();
        let mut key = k.correct_key();
        // Select OR instead of AND.
        key.copy_from_slice(&[false, true, true, true]);
        assert_eq!(
            k.evaluate_with_key(&[true, false], &key).unwrap(),
            vec![true]
        );
        assert!(!k.key_is_structurally_correct(&key));
    }

    #[test]
    fn key_length_is_enforced() {
        let k = tiny_keyed();
        assert!(matches!(
            k.evaluate_with_key(&[true, true], &[true]),
            Err(CamoError::KeyLengthMismatch {
                expected: 4,
                got: 1
            })
        ));
    }

    #[test]
    fn decode_encode_round_trip() {
        let k = tiny_keyed();
        let g = &k.camo_gates()[0];
        let mut key = vec![false; 4];
        for idx in 0..16 {
            g.encode(idx, &mut key);
            assert_eq!(g.decode(&key), Some(idx));
        }
    }

    #[test]
    fn invalid_code_aliases_modulo() {
        // 3 candidates on 2 key bits: code 3 aliases onto candidate 0.
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.gate2("y", Bf2::NAND, a, c);
        b.output(y);
        let nl = b.finish().unwrap();
        let gate = CamoGate {
            node: y,
            candidates: Candidates::TwoInput(vec![Bf2::NAND, Bf2::NOR, Bf2::XOR]),
            key_offset: 0,
            correct_index: 0,
        };
        let k = KeyedNetlist::new(nl, vec![gate], 2);
        let out = k.evaluate_with_key(&[true, true], &[true, true]).unwrap();
        // code 3 % 3 = 0 → NAND(1,1) = 0.
        assert_eq!(out, vec![false]);
    }
}
