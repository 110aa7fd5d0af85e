//! SAT preprocessing: bounded variable elimination, backward subsumption
//! and self-subsumption strengthening.
//!
//! The preprocessing pass ([`Solver::preprocess`]) is SatELite-style. It
//! extracts the problem clauses into a side database with per-literal
//! occurrence lists and 64-bit signatures, then interleaves to fixpoint:
//!
//! - **Backward subsumption**: a clause deletes every superset of itself.
//!   Candidates come from the occurrence list of the clause's
//!   least-occurring literal; the signature test (`sig(C) & !sig(D) != 0`
//!   proves C ⊄ D) filters most of them without touching literals.
//! - **Self-subsumption strengthening**: if C \ {l} ⊆ D and ¬l ∈ D, then
//!   resolving C and D on l proves D without ¬l — the literal is removed.
//!   Scanning both polarities of the pivot literal's occurrence lists makes
//!   the check complete for single-literal strengthenings.
//! - **Bounded variable elimination (BVE)**: a variable whose
//!   non-tautological resolvent count does not exceed the number of clauses
//!   it occurs in (and whose resolvents stay short) is eliminated by clause
//!   distribution: all its clauses are replaced by their pairwise
//!   resolvents. Pure literals are the degenerate zero-resolvent case.
//!
//! # Soundness under incremental use
//!
//! BVE preserves satisfiability, not logical equivalence, so three
//! invariants keep the incremental API honest:
//!
//! 1. **Freezing** ([`Solver::freeze`]): frozen variables are never
//!    eliminated. Callers freeze every variable they later read from
//!    models *across solves*, pass as an assumption, or name in future
//!    clauses. Assumption variables of the engaging solve are treated as
//!    frozen automatically, and model values are reconstructed for every
//!    variable (invariant 2), so one-shot use needs no freezing at all.
//! 2. **Model reconstruction**: each elimination pushes its variable and
//!    removed clauses onto a stack; after `Sat` the stack is replayed in
//!    reverse ([`Solver::solve_with`]), assigning each eliminated variable
//!    the polarity its removed clauses demand. `model()` therefore stays
//!    total and satisfies every clause ever added. Reverse order resolves
//!    dependencies: a record can only mention variables eliminated
//!    *earlier*, which are reconstructed *later*.
//! 3. **Reintroduction**: `add_clause`, `solve_with` assumptions, and
//!    `freeze` on an eliminated variable transparently restore its removed
//!    clauses (transitively — stored clauses may name other eliminated
//!    variables) and pop the records, so elimination is never observable.
//!
//! The removed clauses are stored as literal vectors, not arena
//! references, so records survive arena garbage collection.

use std::time::Instant;

use crate::arena::ClauseRef;
use crate::lit::{LBool, Lit, Var};
use crate::solver::Solver;

/// Skip BVE candidates whose occurrence-list product exceeds this (the
/// quadratic resolvent scan would dominate preprocessing time).
const ELIM_PRODUCT_CAP: usize = 1024;
/// Resolvents longer than this veto the elimination.
const ELIM_RESOLVENT_CAP: usize = 20;
/// Preprocessing runs elimination rounds to fixpoint, capped here.
const ELIM_MAX_ROUNDS: usize = 10;

/// Whether the solver runs the preprocessing pass at its first solve (set
/// via [`Solver::set_simplify`]; threaded from the campaign
/// `sat_simplify` knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimplifyMode {
    /// Preprocess at the first solve.
    On,
    /// Never preprocess (the default).
    #[default]
    Off,
}

impl SimplifyMode {
    /// `true` if preprocessing engages for a problem of `clauses`
    /// clauses: always under [`SimplifyMode::On`], never under
    /// [`SimplifyMode::Off`], whatever the size.
    pub fn engages(self, _clauses: usize) -> bool {
        self == SimplifyMode::On
    }

    /// Parses `"on"` or `"off"`.
    pub fn parse(s: &str) -> Option<SimplifyMode> {
        match s {
            "on" => Some(SimplifyMode::On),
            "off" => Some(SimplifyMode::Off),
            _ => None,
        }
    }

    /// The spelling accepted by [`SimplifyMode::parse`].
    pub fn name(self) -> &'static str {
        match self {
            SimplifyMode::On => "on",
            SimplifyMode::Off => "off",
        }
    }
}

/// One elimination: the variable and the clauses distribution removed,
/// stored as literal vectors so the record survives arena GC. Replayed in
/// reverse for model reconstruction; re-added verbatim on reintroduction.
#[derive(Debug, Clone)]
pub(crate) struct ElimRecord {
    pub(crate) var: Var,
    pub(crate) clauses: Vec<Vec<Lit>>,
}

/// Per-solver simplification state.
#[derive(Debug, Clone, Default)]
pub(crate) struct SimpState {
    pub(crate) mode: SimplifyMode,
    /// Variables the caller will reuse across solves — never eliminated.
    pub(crate) frozen: Vec<bool>,
    /// Variables currently removed by BVE.
    pub(crate) eliminated: Vec<bool>,
    /// Elimination history, oldest first.
    pub(crate) elim_stack: Vec<ElimRecord>,
    /// Preprocessing runs once per solver lifetime (variables created
    /// afterwards are trivially safe).
    pub(crate) preprocessed: bool,
}

/// 64-bit clause signature: one bit per variable bucket. `sig(c) & !sig(d)
/// != 0` proves some variable of `c` is missing from `d`, so `c ⊄ d`.
fn signature(lits: &[Lit]) -> u64 {
    lits.iter().fold(0u64, |s, l| s | 1u64 << (l.var().0 & 63))
}

/// A clause in the preprocessing side database.
#[derive(Debug)]
struct SClause {
    /// Sorted by literal code; dedup'd; never tautological.
    lits: Vec<Lit>,
    sig: u64,
    dead: bool,
}

/// The preprocessing side database: clauses + lazy per-literal occurrence
/// lists (dead entries are skipped on scan) + a local unit queue.
struct SimpDb {
    clauses: Vec<SClause>,
    /// Occurrence lists by literal code. Entries go stale when a clause
    /// dies or is strengthened; scans re-check membership.
    occ: Vec<Vec<usize>>,
    /// Live occurrence counts by literal code (kept exact).
    occ_count: Vec<usize>,
    /// Local level-0 assignment from units discovered while simplifying.
    assign: Vec<LBool>,
    /// Units to replay onto the solver trail at rebuild.
    units: Vec<Lit>,
    /// Subsumption work queue of clause indices.
    queue: Vec<usize>,
    in_queue: Vec<bool>,
    /// An empty clause (or contradictory units) was derived.
    contradiction: bool,
    subsumed: u64,
    strengthened: u64,
}

impl SimpDb {
    fn new(num_vars: usize) -> Self {
        SimpDb {
            clauses: Vec::new(),
            occ: vec![Vec::new(); num_vars * 2],
            occ_count: vec![0; num_vars * 2],
            assign: vec![LBool::Undef; num_vars],
            units: Vec::new(),
            queue: Vec::new(),
            in_queue: Vec::new(),
            contradiction: false,
            subsumed: 0,
            strengthened: 0,
        }
    }

    fn value(&self, l: Lit) -> LBool {
        let v = self.assign[l.var().index()];
        if l.is_positive() {
            v
        } else {
            v.negate()
        }
    }

    /// Adds a clause (sorted/dedup'd/non-tautological by the caller except
    /// for sorting, which is redone here because arena literal order is
    /// scrambled by watch swaps). Length-1 clauses go to the unit queue.
    fn add(&mut self, mut lits: Vec<Lit>) {
        debug_assert!(!self.contradiction);
        lits.sort_unstable();
        match lits.len() {
            0 => {
                self.contradiction = true;
                return;
            }
            1 => {
                self.assign_unit(lits[0]);
                return;
            }
            _ => {}
        }
        let idx = self.clauses.len();
        let sig = signature(&lits);
        for &l in &lits {
            self.occ[l.code()].push(idx);
            self.occ_count[l.code()] += 1;
        }
        self.clauses.push(SClause {
            lits,
            sig,
            dead: false,
        });
        self.in_queue.push(true);
        self.queue.push(idx);
    }

    /// Marks `idx` dead and drops its occurrence counts (lists stay lazy).
    fn kill(&mut self, idx: usize) {
        let c = &mut self.clauses[idx];
        if c.dead {
            return;
        }
        c.dead = true;
        for i in 0..self.clauses[idx].lits.len() {
            let l = self.clauses[idx].lits[i];
            self.occ_count[l.code()] -= 1;
        }
    }

    /// Removes `lit` from clause `idx` (which must contain it), updating
    /// signature and occurrence counts; re-queues the clause. Shrinking to
    /// one literal converts the clause into a unit.
    fn remove_lit(&mut self, idx: usize, lit: Lit) {
        debug_assert!(!self.clauses[idx].dead);
        let c = &mut self.clauses[idx];
        let pos = c.lits.iter().position(|&l| l == lit).expect("lit present");
        c.lits.remove(pos);
        c.sig = signature(&c.lits);
        self.occ_count[lit.code()] -= 1;
        if self.clauses[idx].lits.len() == 1 {
            let u = self.clauses[idx].lits[0];
            self.kill(idx);
            self.assign_unit(u);
        } else if !self.in_queue[idx] {
            self.in_queue[idx] = true;
            self.queue.push(idx);
        }
    }

    /// Applies a unit locally: satisfied clauses die, falsified literals
    /// are stripped (worklist-driven, so cascades terminate).
    fn assign_unit(&mut self, l: Lit) {
        let mut work = vec![l];
        while let Some(l) = work.pop() {
            if self.contradiction {
                return;
            }
            match self.value(l) {
                LBool::True => continue,
                LBool::False => {
                    self.contradiction = true;
                    return;
                }
                LBool::Undef => {}
            }
            self.assign[l.var().index()] = LBool::from_bool(l.is_positive());
            self.units.push(l);
            let sat: Vec<usize> = self.occ[l.code()].clone();
            for idx in sat {
                if !self.clauses[idx].dead {
                    self.kill(idx);
                }
            }
            let falsified: Vec<usize> = self.occ[(!l).code()].clone();
            for idx in falsified {
                if self.clauses[idx].dead || !self.clauses[idx].lits.contains(&!l) {
                    continue;
                }
                // remove_lit may itself queue units; let the recursion in
                // assign_unit's worklist below handle them by re-entering
                // through the same path.
                self.remove_lit(idx, !l);
                if self.contradiction {
                    return;
                }
            }
        }
    }

    /// Drains the subsumption queue: each queued clause deletes its
    /// supersets and strengthens near-supersets (self-subsumption).
    fn subsume_fixpoint(&mut self) {
        while let Some(i) = self.queue.pop() {
            self.in_queue[i] = false;
            if self.contradiction {
                return;
            }
            if self.clauses[i].dead {
                continue;
            }
            self.backward_subsume(i);
        }
    }

    /// Subsumption/strengthening candidates for clause `i`, scanned via
    /// both polarities of its least-occurring literal: `D ⊇ C` requires
    /// `l ∈ D` (positive list); strengthening `D` on pivot `l` itself
    /// requires `¬l ∈ D` (negative list). Any other pivot's strengthening
    /// still has `l ∈ D`. So the two lists cover every case.
    fn backward_subsume(&mut self, i: usize) {
        let best = *self.clauses[i]
            .lits
            .iter()
            .min_by_key(|&&l| self.occ_count[l.code()] + self.occ_count[(!l).code()])
            .expect("clauses are non-empty");
        let mut cands: Vec<usize> = Vec::new();
        cands.extend_from_slice(&self.occ[best.code()]);
        cands.extend_from_slice(&self.occ[(!best).code()]);
        for j in cands {
            if j == i || self.clauses[j].dead || self.clauses[i].dead {
                continue;
            }
            let (ci, cj) = (&self.clauses[i], &self.clauses[j]);
            if cj.lits.len() < ci.lits.len() || ci.sig & !cj.sig != 0 {
                continue;
            }
            match subset_or_strengthen(&ci.lits, &cj.lits) {
                Subset::No => {}
                Subset::Yes => {
                    self.kill(j);
                    self.subsumed += 1;
                }
                Subset::Strengthen(l) => {
                    self.strengthened += 1;
                    self.remove_lit(j, l);
                    if self.contradiction {
                        return;
                    }
                }
            }
        }
    }

    /// Live occurrence indices of `l`, compacting the lazy list in place.
    fn live_occ(&mut self, l: Lit) -> Vec<usize> {
        let clauses = &self.clauses;
        self.occ[l.code()].retain(|&idx| !clauses[idx].dead && clauses[idx].lits.contains(&l));
        self.occ[l.code()].clone()
    }

    /// One bounded-elimination attempt for `v`. On success the removed
    /// clauses are recorded, resolvents added, and `true` returned.
    fn try_eliminate(&mut self, v: Var, stack: &mut Vec<ElimRecord>) -> bool {
        let pos = self.live_occ(Lit::pos(v));
        let neg = self.live_occ(Lit::neg(v));
        if pos.is_empty() && neg.is_empty() {
            return false; // free variable: nothing to distribute
        }
        if pos.len() * neg.len() > ELIM_PRODUCT_CAP {
            return false;
        }
        let limit = pos.len() + neg.len();
        let mut resolvents: Vec<Vec<Lit>> = Vec::new();
        for &pi in &pos {
            for &ni in &neg {
                if let Some(r) = resolve(&self.clauses[pi].lits, &self.clauses[ni].lits, v) {
                    if r.len() > ELIM_RESOLVENT_CAP {
                        return false;
                    }
                    resolvents.push(r);
                    if resolvents.len() > limit {
                        return false;
                    }
                }
            }
        }
        let mut record = ElimRecord {
            var: v,
            clauses: Vec::with_capacity(limit),
        };
        for &idx in pos.iter().chain(neg.iter()) {
            record.clauses.push(self.clauses[idx].lits.clone());
            self.kill(idx);
        }
        stack.push(record);
        for r in resolvents {
            self.add(r);
            if self.contradiction {
                break;
            }
        }
        true
    }
}

/// Subset test with one flipped literal allowed: is every literal of
/// `small` in `big`, except at most one whose *negation* is? Both inputs
/// sorted by code.
enum Subset {
    No,
    Yes,
    /// `small` strengthens `big` by removing this literal of `big`.
    Strengthen(Lit),
}

fn subset_or_strengthen(small: &[Lit], big: &[Lit]) -> Subset {
    let mut flipped: Option<Lit> = None;
    for &l in small {
        if big.binary_search(&l).is_ok() {
            continue;
        }
        if big.binary_search(&!l).is_ok() {
            if flipped.is_some() {
                return Subset::No;
            }
            flipped = Some(!l);
            continue;
        }
        return Subset::No;
    }
    match flipped {
        None => Subset::Yes,
        Some(l) => Subset::Strengthen(l),
    }
}

/// Resolvent of `a` (containing `v`) and `b` (containing `¬v`) on `v`, or
/// `None` if tautological. Sorted and dedup'd.
fn resolve(a: &[Lit], b: &[Lit], v: Var) -> Option<Vec<Lit>> {
    let mut out: Vec<Lit> = Vec::with_capacity(a.len() + b.len() - 2);
    out.extend(a.iter().copied().filter(|l| l.var() != v));
    out.extend(b.iter().copied().filter(|l| l.var() != v));
    out.sort_unstable();
    out.dedup();
    for w in out.windows(2) {
        if w[1] == !w[0] {
            return None;
        }
    }
    Some(out)
}

impl Solver {
    /// Sets whether preprocessing engages (default [`SimplifyMode::Off`]).
    /// Takes effect at the next solve; has no effect once preprocessing
    /// has already run.
    pub fn set_simplify(&mut self, mode: SimplifyMode) {
        self.simp.mode = mode;
    }

    /// Protects `v` from variable elimination. Call for every variable
    /// whose model value is read across later `add_clause` calls, passed
    /// as an assumption in *later* solves, or named in future clauses —
    /// i.e. the incremental interface of the formula. Freezing an already
    /// eliminated variable reintroduces it.
    pub fn freeze(&mut self, v: Var) {
        if self.is_eliminated(v) {
            self.reintroduce(v);
        }
        self.simp.frozen[v.index()] = true;
    }

    /// `true` if `v` is currently removed by variable elimination.
    pub fn is_eliminated(&self, v: Var) -> bool {
        self.simp
            .eliminated
            .get(v.index())
            .copied()
            .unwrap_or(false)
    }

    /// LBDs of the currently retained learnt clauses (diagnostics; the
    /// drill harness dumps their distribution).
    pub fn learnt_lbds(&self) -> Vec<u32> {
        self.learnts.iter().map(|&c| self.arena.lbd(c)).collect()
    }

    /// Runs the preprocessing pass now, regardless of the configured
    /// mode. Returns `false` if the formula was proven
    /// unsatisfiable. Idempotent in effect (rerunning simplifies the
    /// already simplified formula).
    pub fn preprocess(&mut self) -> bool {
        self.simp.preprocessed = false;
        self.preprocess_with(&[])
    }

    /// The preprocessing pass: extract → simplify → rebuild. Variables in
    /// `extra_frozen` (the engaging solve's assumptions) are protected for
    /// this pass only.
    pub(crate) fn preprocess_with(&mut self, extra_frozen: &[Lit]) -> bool {
        if !self.ok {
            return false;
        }
        assert_eq!(
            self.decision_level(),
            0,
            "preprocessing runs at decision level 0"
        );
        self.simp.preprocessed = true;
        let t = Instant::now();
        if !self.propagate().is_none() {
            self.ok = false;
            return false;
        }

        let n = self.num_vars();
        // Untouchable set: caller-frozen, this solve's assumptions,
        // level-0 assigned, and anything a learnt clause mentions (learnts
        // keep their arena form, so their variables must survive).
        let mut frozen = self.simp.frozen.clone();
        for &l in extra_frozen {
            frozen[l.var().index()] = true;
        }
        // Positive literals have the even codes.
        for (f, a) in frozen.iter_mut().zip(self.vals.iter().step_by(2)) {
            *f |= *a != LBool::Undef;
        }
        for &c in &self.learnts {
            for k in 0..self.arena.len(c) {
                frozen[self.arena.lit(c, k).var().index()] = true;
            }
        }

        // Extract the problem clauses under the level-0 assignment.
        let mut db = SimpDb::new(n);
        for ci in 0..self.clauses.len() {
            let c = self.clauses[ci];
            let len = self.arena.len(c);
            let mut lits: Vec<Lit> = Vec::with_capacity(len);
            let mut satisfied = false;
            for k in 0..len {
                let l = self.arena.lit(c, k);
                match self.value_lit(l) {
                    LBool::True => {
                        satisfied = true;
                        break;
                    }
                    LBool::False => {}
                    LBool::Undef => lits.push(l),
                }
            }
            if !satisfied {
                debug_assert!(
                    lits.len() >= 2,
                    "post-propagation clauses have ≥2 free lits"
                );
                db.add(lits);
            }
        }

        // Simplify: subsumption fixpoint, then elimination rounds (each
        // queues its resolvents back into the subsumption queue).
        db.subsume_fixpoint();
        let mut eliminated = 0u64;
        for _round in 0..ELIM_MAX_ROUNDS {
            if db.contradiction {
                break;
            }
            // Cheapest candidates first: occurrence product approximates
            // the resolvent work and resolvent count.
            let mut cands: Vec<(usize, u32)> = (0..n as u32)
                .filter(|&v| {
                    let vi = v as usize;
                    !frozen[vi] && !self.simp.eliminated[vi]
                })
                .map(|v| {
                    let p = db.occ_count[Lit::pos(Var(v)).code()];
                    let q = db.occ_count[Lit::neg(Var(v)).code()];
                    (p * q, v)
                })
                .filter(|&(_, v)| {
                    let vv = Var(v);
                    db.occ_count[Lit::pos(vv).code()] + db.occ_count[Lit::neg(vv).code()] > 0
                })
                .collect();
            cands.sort_unstable();
            let mut this_round = 0u64;
            for (_, v) in cands {
                if db.contradiction {
                    break;
                }
                let vv = Var(v);
                if self.simp.eliminated[v as usize] {
                    continue;
                }
                if db.try_eliminate(vv, &mut self.simp.elim_stack) {
                    self.simp.eliminated[v as usize] = true;
                    this_round += 1;
                }
            }
            eliminated += this_round;
            db.subsume_fixpoint();
            if this_round == 0 {
                break;
            }
        }

        self.stats.elim_vars += eliminated;
        self.stats.subsumed += db.subsumed;
        self.stats.strengthened += db.strengthened;

        if db.contradiction {
            self.ok = false;
            self.stats.simplify_ns += t.elapsed().as_nanos() as u64;
            return false;
        }

        // Rebuild: drop every old problem clause from the arena, re-alloc
        // the survivors and resolvents, and rebuild all watch lists from
        // scratch (learnts keep their arena slots), mirroring the GC.
        //
        // Every current assignment is a level-0 fact whose reason may be
        // one of the clauses about to be deleted. Level-0 reasons are
        // never consulted again (conflict analysis stops above level 0),
        // but a dangling reference would break the next arena compaction —
        // clear them all.
        for r in self.reason.iter_mut() {
            *r = ClauseRef::NONE;
        }
        for ci in 0..self.clauses.len() {
            let c = self.clauses[ci];
            self.arena.delete(c);
        }
        self.clauses.clear();
        self.clear_watches();
        for sc in db.clauses.iter().filter(|sc| !sc.dead) {
            debug_assert!(sc.lits.len() >= 2);
            let lits = sc.lits.clone();
            self.attach_clause(&lits, false, 0);
        }
        for li in 0..self.learnts.len() {
            let c = self.learnts[li];
            self.attach_watches(c);
        }
        // Replay locally discovered units onto the real trail.
        for &u in &db.units {
            match self.value_lit(u) {
                LBool::True => {}
                LBool::False => {
                    self.ok = false;
                    break;
                }
                LBool::Undef => {
                    self.enqueue(u, ClauseRef::NONE);
                }
            }
        }
        if self.ok && !self.propagate().is_none() {
            self.ok = false;
        }
        if self.ok {
            self.maybe_gc();
        }
        self.stats.simplify_ns += t.elapsed().as_nanos() as u64;
        self.ok
    }

    /// Restores `v` (and, transitively, any eliminated variable its stored
    /// clauses mention) by re-adding the clauses removed at elimination.
    /// Called from `add_clause` / `solve_with` / `freeze`; level 0 only.
    pub(crate) fn reintroduce(&mut self, v: Var) {
        debug_assert_eq!(self.decision_level(), 0);
        let mut pending: Vec<Vec<Lit>> = Vec::new();
        let mut work = vec![v];
        while let Some(v) = work.pop() {
            if !self.simp.eliminated[v.index()] {
                continue;
            }
            self.simp.eliminated[v.index()] = false;
            let pos = self
                .simp
                .elim_stack
                .iter()
                .position(|r| r.var == v)
                .expect("eliminated variable has a record");
            let rec = self.simp.elim_stack.remove(pos);
            for cl in rec.clauses {
                for &l in &cl {
                    if self.simp.eliminated[l.var().index()] {
                        work.push(l.var());
                    }
                }
                pending.push(cl);
            }
            self.heap.insert(v, &self.activity);
        }
        for cl in pending {
            if !self.add_clause_inner(&cl) {
                return;
            }
        }
    }

    /// Extends the current model over eliminated variables by replaying
    /// the elimination stack in reverse: each variable defaults to false
    /// and flips to the polarity demanded by the first of its removed
    /// clauses that the model does not already satisfy. (The resolvents
    /// guarantee no two removed clauses demand opposite polarities.)
    pub(crate) fn extend_model(&mut self) {
        for rec in self.simp.elim_stack.iter().rev() {
            let mut value = false;
            'clauses: for cl in &rec.clauses {
                let mut own: Option<Lit> = None;
                for &l in cl {
                    if l.var() == rec.var {
                        own = Some(l);
                        continue;
                    }
                    if self.model[l.var().index()] == l.is_positive() {
                        continue 'clauses; // satisfied without rec.var
                    }
                }
                let l = own.expect("record clauses contain their variable");
                value = l.is_positive();
                break;
            }
            self.model[rec.var.index()] = value;
        }
        #[cfg(debug_assertions)]
        for rec in &self.simp.elim_stack {
            for cl in &rec.clauses {
                debug_assert!(
                    cl.iter()
                        .any(|&l| self.model[l.var().index()] == l.is_positive()),
                    "reconstructed model violates a removed clause"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SolveResult;

    fn lits(s: &mut Solver, n: usize) -> Vec<Lit> {
        (0..n).map(|_| Lit::pos(s.new_var())).collect()
    }

    #[test]
    fn mode_parse_round_trips() {
        for mode in [SimplifyMode::On, SimplifyMode::Off] {
            assert_eq!(SimplifyMode::parse(mode.name()), Some(mode));
        }
        assert_eq!(SimplifyMode::parse("sometimes"), None);
        assert_eq!(SimplifyMode::parse("auto"), None);
        assert!(SimplifyMode::On.engages(0));
        assert!(!SimplifyMode::Off.engages(usize::MAX));
        assert_eq!(SimplifyMode::default(), SimplifyMode::Off);
    }

    #[test]
    fn subsumption_removes_supersets() {
        let mut s = Solver::new();
        let v = lits(&mut s, 4);
        s.add_clause(&[v[0], v[1]]);
        s.add_clause(&[v[0], v[1], v[2]]);
        s.add_clause(&[v[0], v[1], v[3]]);
        assert!(s.preprocess());
        assert!(s.stats().subsumed >= 2);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.model_lit(v[0]) || s.model_lit(v[1]));
    }

    #[test]
    fn self_subsumption_strengthens() {
        // (a ∨ b) and (¬a ∨ b ∨ c): resolving on a gives (b ∨ c)… the
        // first clause strengthens the second to (b ∨ c).
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause(&[v[0], v[1]]);
        s.add_clause(&[!v[0], v[1], v[2]]);
        // Freeze everything so elimination doesn't collapse the instance
        // before strengthening is observable.
        for &l in &v {
            s.freeze(l.var());
        }
        assert!(s.preprocess());
        assert!(s.stats().strengthened >= 1);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn pure_literal_is_eliminated() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause(&[v[0], v[1]]);
        s.add_clause(&[v[0], v[2]]);
        assert!(s.preprocess());
        assert!(s.stats().elim_vars >= 1);
        assert_eq!(s.solve(), SolveResult::Sat);
        // The reconstructed model must satisfy the original clauses.
        assert!(s.model_lit(v[0]) || s.model_lit(v[1]));
        assert!(s.model_lit(v[0]) || s.model_lit(v[2]));
    }

    #[test]
    fn elimination_preserves_unsat() {
        // Chain a→b→c plus a and ¬c: UNSAT; b is an elimination candidate.
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause(&[!v[0], v[1]]);
        s.add_clause(&[!v[1], v[2]]);
        s.add_clause(&[v[0]]);
        s.add_clause(&[!v[2]]);
        s.preprocess();
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn model_reconstruction_covers_eliminated_chain() {
        // x0 ↔ x1 ↔ x2 ↔ x3 equality chain with only x0 frozen: the rest
        // may be eliminated, yet the model must keep the chain equal.
        let mut s = Solver::new();
        let v = lits(&mut s, 4);
        for w in v.windows(2) {
            s.add_clause(&[!w[0], w[1]]);
            s.add_clause(&[w[0], !w[1]]);
        }
        s.freeze(v[0].var());
        assert!(s.preprocess());
        s.add_clause(&[v[0]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        for &l in &v {
            assert!(s.model_lit(l), "chain must follow the frozen head");
        }
    }

    #[test]
    fn add_clause_reintroduces_eliminated_vars() {
        let mut s = Solver::new();
        let v = lits(&mut s, 4);
        for w in v.windows(2) {
            s.add_clause(&[!w[0], w[1]]);
            s.add_clause(&[w[0], !w[1]]);
        }
        s.freeze(v[0].var());
        assert!(s.preprocess());
        let was_eliminated = v.iter().any(|&l| s.is_eliminated(l.var()));
        // Constrain an interior variable after preprocessing.
        s.add_clause(&[!v[2]]);
        assert!(!s.is_eliminated(v[2].var()), "add_clause must reintroduce");
        assert_eq!(s.solve(), SolveResult::Sat);
        for &l in &v {
            assert!(!s.model_lit(l), "¬x2 forces the whole chain false");
        }
        // Sanity: the test only bites if elimination actually happened.
        assert!(was_eliminated, "expected BVE to fire on the chain");
    }

    #[test]
    fn assumptions_on_eliminated_vars_reintroduce() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        for w in v.windows(2) {
            s.add_clause(&[!w[0], w[1]]);
            s.add_clause(&[w[0], !w[1]]);
        }
        s.freeze(v[0].var());
        assert!(s.preprocess());
        assert_eq!(s.solve_with(&[v[2]]), SolveResult::Sat);
        assert!(s.model_lit(v[0]) && s.model_lit(v[1]) && s.model_lit(v[2]));
        assert_eq!(s.solve_with(&[!v[2], v[0]]), SolveResult::Unsat);
    }

    #[test]
    fn frozen_vars_survive() {
        let mut s = Solver::new();
        let v = lits(&mut s, 6);
        for w in v.windows(2) {
            s.add_clause(&[!w[0], w[1]]);
        }
        for &l in &v {
            s.freeze(l.var());
        }
        assert!(s.preprocess());
        for &l in &v {
            assert!(!s.is_eliminated(l.var()));
        }
        assert_eq!(s.stats().elim_vars, 0);
    }

    #[test]
    fn preprocess_handles_unsat_formula() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[v[0], v[1]]);
        s.add_clause(&[v[0], !v[1]]);
        s.add_clause(&[!v[0], v[1]]);
        s.add_clause(&[!v[0], !v[1]]);
        assert!(!s.preprocess() || s.solve() == SolveResult::Unsat);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn auto_mode_engages_on_first_solve_only_above_threshold() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause(&[v[0], v[1]]);
        s.add_clause(&[v[0], v[2]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.stats().elim_vars, 0, "off by default: untouched");
        let mut s2 = Solver::new();
        s2.set_simplify(SimplifyMode::On);
        let w = lits(&mut s2, 3);
        s2.add_clause(&[w[0], w[1]]);
        s2.add_clause(&[w[0], w[2]]);
        assert_eq!(s2.solve(), SolveResult::Sat);
        assert!(s2.stats().elim_vars > 0, "On engages regardless of size");
    }

    #[test]
    fn resolve_detects_tautologies() {
        let a = Var(0);
        let b = Var(1);
        let c = Var(2);
        let p = vec![Lit::pos(a), Lit::pos(b)];
        let q = vec![Lit::neg(a), Lit::neg(b), Lit::pos(c)];
        assert_eq!(resolve(&p, &q, a), None, "b vs ¬b is tautological");
        let r = vec![Lit::neg(a), Lit::pos(c)];
        assert_eq!(
            resolve(&p, &r, a),
            Some(vec![Lit::pos(b), Lit::pos(c)]),
            "clean resolvent"
        );
    }
}
