//! Flat clause arena: the solver's clause database as one `u32` buffer.
//!
//! Every clause is a contiguous run of words — one header packing
//! learnt/deleted/protected flags, the LBD, and the size, followed by the
//! literal codes inline:
//!
//! ```text
//! word:   [ header ][ lit0 ][ lit1 ] ... [ lit(size-1) ]
//! header: bit 0      learnt
//!         bit 1      deleted (space is reclaimed by the next compaction)
//!         bit 2      protected (one-round reduction reprieve; see solver)
//!         bits 3-13  LBD, saturating at 2047
//!         bits 14-31 size (number of literals)
//! ```
//!
//! Clauses are identified by their word offset ([`ClauseRef`]), so the
//! whole database is two pointer dereferences away from any watcher and a
//! clause's header and first literals share a cache line — the layout the
//! propagation loop is tuned for. Deleting a clause only sets the header
//! bit and counts the words as wasted; [`ClauseArena::compact`] is the
//! **garbage collector**: it rewrites the buffer without the dead runs and
//! returns an old→new offset table so the solver can remap its clause
//! lists, watch lists, and `reason` references.

use crate::lit::Lit;

const LEARNT: u32 = 1;
const DELETED: u32 = 1 << 1;
const PROTECTED: u32 = 1 << 2;
const LBD_SHIFT: u32 = 3;
const LBD_MAX: u32 = (1 << 11) - 1;
const LBD_MASK: u32 = LBD_MAX << LBD_SHIFT;
const SIZE_SHIFT: u32 = 14;
/// Largest clause the header can describe (2^18 - 1 literals).
pub const MAX_CLAUSE_LEN: usize = (1 << (32 - SIZE_SHIFT)) - 1;

/// A clause handle: the word offset of the clause header in the arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClauseRef(u32);

impl ClauseRef {
    /// The "no clause" sentinel (decision / unset `reason` marker).
    pub const NONE: ClauseRef = ClauseRef(u32::MAX);

    /// `true` for the [`ClauseRef::NONE`] sentinel.
    pub const fn is_none(self) -> bool {
        self.0 == u32::MAX
    }

    /// The raw word offset.
    pub const fn offset(self) -> u32 {
        self.0
    }
}

/// The clause database: a flat word buffer plus a wasted-space counter.
#[derive(Debug, Clone, Default)]
pub struct ClauseArena {
    words: Vec<u32>,
    wasted: usize,
}

impl ClauseArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        ClauseArena::default()
    }

    /// Appends a clause and returns its handle.
    ///
    /// # Panics
    ///
    /// Panics if `lits` exceeds [`MAX_CLAUSE_LEN`] or the arena would
    /// outgrow the 32-bit offset space.
    pub fn alloc(&mut self, lits: &[Lit], learnt: bool, lbd: u32) -> ClauseRef {
        assert!(lits.len() <= MAX_CLAUSE_LEN, "clause too long for header");
        let off = self.words.len();
        assert!(
            off + 1 + lits.len() < u32::MAX as usize,
            "clause arena exceeds 32-bit offsets"
        );
        let header =
            (lits.len() as u32) << SIZE_SHIFT | lbd.min(LBD_MAX) << LBD_SHIFT | u32::from(learnt);
        self.words.push(header);
        self.words.extend(lits.iter().map(|l| l.code() as u32));
        ClauseRef(off as u32)
    }

    /// Number of literals in `c`.
    pub fn len(&self, c: ClauseRef) -> usize {
        (self.words[c.0 as usize] >> SIZE_SHIFT) as usize
    }

    /// `true` if the arena holds no clauses.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The `i`-th literal of `c`.
    pub fn lit(&self, c: ClauseRef, i: usize) -> Lit {
        Lit::from_code(self.words[c.0 as usize + 1 + i] as usize)
    }

    /// The literal words (codes, see [`Lit::code`]) of `c`, or `None` if
    /// `c` is deleted. One bounds check covers the whole clause, so the
    /// propagation loop reads a clause, and reorders it for watch
    /// maintenance, through this slice rather than literal by literal.
    pub fn live_lits_mut(&mut self, c: ClauseRef) -> Option<&mut [u32]> {
        let start = c.0 as usize;
        let header = self.words[start];
        if header & DELETED != 0 {
            return None;
        }
        Some(&mut self.words[start + 1..start + 1 + (header >> SIZE_SHIFT) as usize])
    }

    /// `true` if `c` was learnt (vs. a problem clause).
    pub fn is_learnt(&self, c: ClauseRef) -> bool {
        self.words[c.0 as usize] & LEARNT != 0
    }

    /// `true` if `c` has been deleted (space not yet reclaimed).
    pub fn is_deleted(&self, c: ClauseRef) -> bool {
        self.words[c.0 as usize] & DELETED != 0
    }

    /// Marks `c` deleted and accounts its words as wasted.
    pub fn delete(&mut self, c: ClauseRef) {
        debug_assert!(!self.is_deleted(c));
        self.words[c.0 as usize] |= DELETED;
        self.wasted += 1 + self.len(c);
    }

    /// The stored LBD ("glue") of `c`.
    pub fn lbd(&self, c: ClauseRef) -> u32 {
        (self.words[c.0 as usize] & LBD_MASK) >> LBD_SHIFT
    }

    /// Overwrites the stored LBD (on-the-fly improvement), saturating.
    pub fn set_lbd(&mut self, c: ClauseRef, lbd: u32) {
        let h = &mut self.words[c.0 as usize];
        *h = (*h & !LBD_MASK) | lbd.min(LBD_MAX) << LBD_SHIFT;
    }

    /// `true` if `c` carries the one-round reduction reprieve.
    pub fn protected(&self, c: ClauseRef) -> bool {
        self.words[c.0 as usize] & PROTECTED != 0
    }

    /// Sets or clears the reduction reprieve.
    pub fn set_protected(&mut self, c: ClauseRef, on: bool) {
        if on {
            self.words[c.0 as usize] |= PROTECTED;
        } else {
            self.words[c.0 as usize] &= !PROTECTED;
        }
    }

    /// Words currently in the buffer (live + dead).
    pub fn used_words(&self) -> usize {
        self.words.len()
    }

    /// Words occupied by deleted clauses, reclaimable by [`Self::compact`].
    pub fn wasted_words(&self) -> usize {
        self.wasted
    }

    /// Garbage-collects the arena: drops every deleted clause and slides
    /// the survivors down, preserving their relative order (allocation
    /// order, so rebuilt watch lists stay deterministic). Returns the
    /// parallel `(old_offsets, new_offsets)` tables — both sorted
    /// ascending — for [`Self::remap`].
    pub fn compact(&mut self) -> (Vec<u32>, Vec<u32>) {
        let mut kept: Vec<u32> = Vec::with_capacity(self.words.len() - self.wasted);
        let mut old = Vec::new();
        let mut new = Vec::new();
        let mut off = 0usize;
        while off < self.words.len() {
            let header = self.words[off];
            let run = 1 + (header >> SIZE_SHIFT) as usize;
            if header & DELETED == 0 {
                old.push(off as u32);
                new.push(kept.len() as u32);
                kept.extend_from_slice(&self.words[off..off + run]);
            }
            off += run;
        }
        self.words = kept;
        self.wasted = 0;
        (old, new)
    }

    /// Translates a pre-compaction handle through the tables
    /// [`Self::compact`] returned.
    ///
    /// # Panics
    ///
    /// Panics if `c` referred to a deleted clause — the solver must never
    /// hold a deleted clause as a `reason` or in its live lists.
    pub fn remap(tables: &(Vec<u32>, Vec<u32>), c: ClauseRef) -> ClauseRef {
        let i = tables
            .0
            .binary_search(&c.0)
            .expect("remapped clause must have survived compaction");
        ClauseRef(tables.1[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::Var;

    fn lits(codes: &[u32]) -> Vec<Lit> {
        codes.iter().map(|&c| Lit::from_code(c as usize)).collect()
    }

    #[test]
    fn alloc_and_read_back() {
        let mut a = ClauseArena::new();
        let c = a.alloc(&lits(&[0, 3, 5]), true, 7);
        assert_eq!(a.len(c), 3);
        assert_eq!(a.lit(c, 1), Lit::from_code(3));
        assert!(a.is_learnt(c));
        assert!(!a.is_deleted(c));
        assert_eq!(a.lbd(c), 7);
        let d = a.alloc(&lits(&[2, 4]), false, 0);
        assert!(!a.is_learnt(d));
        assert_eq!(a.len(d), 2);
    }

    #[test]
    fn live_lits_are_one_slice_and_deleted_clauses_have_none() {
        let mut a = ClauseArena::new();
        let c = a.alloc(&lits(&[0, 3, 5]), true, 7);
        let d = a.alloc(&lits(&[2, 4]), false, 0);
        let words = a.live_lits_mut(c).expect("live");
        assert_eq!(words, &[0, 3, 5]);
        words.swap(0, 2);
        assert_eq!(a.lit(c, 0), Lit::from_code(5));
        assert_eq!(a.lit(c, 2), Lit::from_code(0));
        assert_eq!(a.live_lits_mut(d).map(|w| w.to_vec()), Some(vec![2, 4]));
        a.delete(c);
        assert!(a.live_lits_mut(c).is_none());
        assert_eq!(a.len(d), 2, "deleting c leaves d alone");
    }

    #[test]
    fn lbd_saturates_and_updates() {
        let mut a = ClauseArena::new();
        let c = a.alloc(&lits(&[0, 2]), true, 1 << 20);
        assert_eq!(a.lbd(c), 2047);
        a.set_lbd(c, 3);
        assert_eq!(a.lbd(c), 3);
        // Flags survive LBD rewrites.
        assert!(a.is_learnt(c));
        assert_eq!(a.len(c), 2);
    }

    #[test]
    fn protected_flag_toggles() {
        let mut a = ClauseArena::new();
        let c = a.alloc(&lits(&[0, 2, 4]), true, 4);
        assert!(!a.protected(c));
        a.set_protected(c, true);
        assert!(a.protected(c));
        a.set_protected(c, false);
        assert!(!a.protected(c));
        assert_eq!(a.lbd(c), 4);
    }

    #[test]
    fn compact_drops_deleted_and_remaps() {
        let mut a = ClauseArena::new();
        let c0 = a.alloc(&lits(&[0, 2, 4]), false, 0);
        let c1 = a.alloc(&lits(&[1, 3]), true, 2);
        let c2 = a.alloc(&lits(&[5, 7, 9, 11]), true, 4);
        a.delete(c1);
        assert_eq!(a.wasted_words(), 3);
        let before = a.used_words();
        let tables = a.compact();
        assert_eq!(a.used_words(), before - 3);
        assert_eq!(a.wasted_words(), 0);
        let n0 = ClauseArena::remap(&tables, c0);
        let n2 = ClauseArena::remap(&tables, c2);
        assert_eq!(n0, c0, "first clause does not move");
        assert_eq!(a.len(n2), 4);
        assert_eq!(a.lit(n2, 3), Lit::from_code(11));
        assert!(a.is_learnt(n2));
        assert_eq!(a.lbd(n2), 4);
    }

    #[test]
    #[should_panic(expected = "survived compaction")]
    fn remapping_a_deleted_clause_panics() {
        let mut a = ClauseArena::new();
        let c0 = a.alloc(&lits(&[0, 2]), false, 0);
        a.alloc(&lits(&[1, 3]), false, 0);
        a.delete(c0);
        let tables = a.compact();
        let _ = ClauseArena::remap(&tables, c0);
    }

    #[test]
    fn sentinel_is_none() {
        assert!(ClauseRef::NONE.is_none());
        let mut a = ClauseArena::new();
        let c = a.alloc(&lits(&[0, 2]), false, 0);
        assert!(!c.is_none());
        let _ = Var(0); // keep the import honest
    }
}
