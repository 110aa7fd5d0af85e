//! The CDCL solver.
//!
//! The engine room is a modern CDCL core:
//!
//! - **Clause storage** is the flat [`ClauseArena`] (see [`crate::arena`]):
//!   clauses are contiguous `u32` runs addressed by [`ClauseRef`] offsets,
//!   and a real garbage collector (`Solver::garbage_collect`) compacts
//!   the arena, rebuilds every watch list, and remaps `reason` references
//!   once deleted clauses waste enough space.
//! - **Binary clauses** live in dedicated watcher lists that carry the
//!   implied literal inline, so binary propagation never touches the
//!   arena; longer clauses use two watched literals with a blocker-literal
//!   fast path.
//! - **Restarts** use Glucose-style adaptive pacing: restart when the
//!   recent-LBD average runs hot against the lifetime average, blocked
//!   while the trail is much deeper than usual (the solver is probably
//!   closing in on a model).
//! - **Learnt-DB reduction** follows a geometric schedule with LBD-tiered
//!   retention: core clauses (LBD ≤ 2) and binaries are permanent, mid
//!   clauses recently improved during conflict analysis get a one-round
//!   reprieve, and the worse half of the rest is deleted. A clause that is
//!   the reason for a current assignment is detected with an O(1) lookup.
//!
//! All knobs live in [`SearchConfig`]; the public solving API is
//! incremental and assumption-based.

use crate::arena::{ClauseArena, ClauseRef};
use crate::heap::OrderHeap;
use crate::lit::{LBool, Lit, Var};

/// Result of a [`Solver::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveResult {
    /// A model was found; read it with [`Solver::model_value`].
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable.
    Unsat,
    /// The conflict budget was exhausted before an answer was reached —
    /// the solver-scale failure mode the paper reports for its 48-hour
    /// attacks.
    Unknown,
}

/// Cumulative search statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolverStats {
    /// Number of decisions.
    pub decisions: u64,
    /// Number of unit propagations.
    pub propagations: u64,
    /// Number of conflicts analyzed.
    pub conflicts: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Learnt clauses currently retained.
    pub learnts: u64,
    /// Learnt clauses deleted by DB reduction.
    pub deleted: u64,
    /// Arena garbage collections performed.
    pub db_gcs: u64,
    /// Total nanoseconds spent compacting the arena.
    pub gc_ns: u64,
    /// Variables removed by bounded variable elimination (preprocessing).
    pub elim_vars: u64,
    /// Clauses removed by backward subsumption (preprocessing).
    pub subsumed: u64,
    /// Literals removed by self-subsumption strengthening
    /// (preprocessing).
    pub strengthened: u64,
    /// Total nanoseconds spent in preprocessing.
    pub simplify_ns: u64,
}

/// Component-wise accumulation, used by the campaign layer to roll many
/// per-attack stats up into per-cell and per-run aggregates.
impl std::ops::AddAssign for SolverStats {
    fn add_assign(&mut self, rhs: SolverStats) {
        self.decisions += rhs.decisions;
        self.propagations += rhs.propagations;
        self.conflicts += rhs.conflicts;
        self.restarts += rhs.restarts;
        self.learnts += rhs.learnts;
        self.deleted += rhs.deleted;
        self.db_gcs += rhs.db_gcs;
        self.gc_ns += rhs.gc_ns;
        self.elim_vars += rhs.elim_vars;
        self.subsumed += rhs.subsumed;
        self.strengthened += rhs.strengthened;
        self.simplify_ns += rhs.simplify_ns;
    }
}

/// Search limit of one solve; `None` means unlimited. Callers that cap
/// the formula's size check [`Solver::num_vars`] between solves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Budget {
    /// Abort the solve with [`SolveResult::Unknown`] after this many
    /// conflicts.
    pub max_conflicts: Option<u64>,
}

/// Search-heuristic knobs; [`SearchConfig::default`] is the tuned setting
/// every attack runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchConfig {
    /// Learnt clauses triggering the first DB reduction.
    pub reduce_base: usize,
    /// Percent growth of the reduction trigger after each reduction
    /// (geometric schedule).
    pub reduce_growth_pct: u32,
    /// Garbage-collect the arena when at least this percentage of it is
    /// wasted by deleted clauses.
    pub gc_wasted_pct: u32,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            reduce_base: 8192,
            reduce_growth_pct: 10,
            gc_wasted_pct: 25,
        }
    }
}

/// Watcher for a clause of three or more literals. `blocker` is some other
/// literal of the clause; if it is already true the clause is satisfied
/// and the arena is never touched.
#[derive(Debug, Clone, Copy)]
struct Watch {
    clause: ClauseRef,
    blocker: Lit,
}

/// Watcher for a binary clause: `other` is the remaining literal, so
/// propagation resolves entirely from the watcher itself.
#[derive(Debug, Clone, Copy)]
struct BinWatch {
    other: Lit,
    clause: ClauseRef,
}

/// Fixed-capacity ring of recent values with a running sum (the Glucose
/// `bqueue`), driving the adaptive-restart and restart-blocking tests.
#[derive(Debug, Clone)]
struct BoundedQueue {
    buf: Vec<u64>,
    cap: usize,
    head: usize,
    sum: u64,
}

impl BoundedQueue {
    fn new(cap: usize) -> Self {
        BoundedQueue {
            buf: Vec::with_capacity(cap),
            cap,
            head: 0,
            sum: 0,
        }
    }

    fn push(&mut self, v: u64) {
        if self.buf.len() == self.cap {
            self.sum -= self.buf[self.head];
            self.buf[self.head] = v;
            self.head = (self.head + 1) % self.cap;
        } else {
            self.buf.push(v);
        }
        self.sum += v;
    }

    fn full(&self) -> bool {
        self.buf.len() == self.cap
    }

    fn len(&self) -> usize {
        self.buf.len()
    }

    fn sum(&self) -> u64 {
        self.sum
    }

    fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.sum = 0;
    }
}

/// A CDCL SAT solver (see the crate docs for the feature list).
#[derive(Debug, Clone)]
pub struct Solver {
    pub(crate) arena: ClauseArena,
    /// Live problem clauses (length ≥ 2), in allocation order.
    pub(crate) clauses: Vec<ClauseRef>,
    /// Live learnt clauses, in allocation order.
    pub(crate) learnts: Vec<ClauseRef>,
    /// Per-literal watchers for clauses of length ≥ 3.
    watches: Vec<Vec<Watch>>,
    /// Per-literal watchers for binary clauses.
    bwatches: Vec<Vec<BinWatch>>,
    pub(crate) assign: Vec<LBool>,
    pub(crate) level: Vec<u32>,
    pub(crate) reason: Vec<ClauseRef>,
    pub(crate) trail: Vec<Lit>,
    pub(crate) trail_lim: Vec<usize>,
    qhead: usize,
    pub(crate) activity: Vec<f64>,
    var_inc: f64,
    pub(crate) heap: OrderHeap,
    phase: Vec<bool>,
    seen: Vec<bool>,
    /// Level-stamp scratch for O(clause) LBD recomputation, indexed by
    /// decision level (entry 0 is unused padding).
    lbd_stamp: Vec<u64>,
    lbd_stamp_gen: u64,
    pub(crate) ok: bool,
    pub(crate) model: Vec<bool>,
    pub(crate) stats: SolverStats,
    budget: Budget,
    config: SearchConfig,
    /// Simplification state: mode knob, frozen/eliminated marks, and the
    /// elimination stack for model reconstruction (see [`crate::simplify`]).
    pub(crate) simp: crate::simplify::SimpState,
    /// Learnt clauses triggering the next DB reduction (grows
    /// geometrically from `config.reduce_base`).
    reduce_limit: usize,
    /// Recent learnt-clause LBDs (cleared on restart / restart blocking).
    lbd_queue: BoundedQueue,
    /// Recent trail depths at conflict time (restart blocking).
    trail_queue: BoundedQueue,
    /// Lifetime sum of learnt-clause LBDs (the "slow" average numerator).
    global_lbd_sum: u64,
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

const VAR_DECAY: f64 = 1.0 / 0.95;
const RESCALE_LIMIT: f64 = 1e100;
/// Window of recent LBDs for the "fast" restart average.
const LBD_QUEUE_LEN: usize = 50;
/// Window of recent trail depths for restart blocking.
const TRAIL_QUEUE_LEN: usize = 5000;
/// Restart blocking only kicks in after this many lifetime conflicts.
const RESTART_BLOCK_MIN_CONFLICTS: u64 = 10_000;
/// Core tier: learnt clauses at or below this LBD are never deleted.
const CORE_LBD: u32 = 2;
/// Mid tier: clauses at or below this LBD whose LBD just improved get a
/// one-round reduction reprieve.
const MID_LBD: u32 = 6;

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        let config = SearchConfig::default();
        Solver {
            arena: ClauseArena::new(),
            clauses: Vec::new(),
            learnts: Vec::new(),
            watches: Vec::new(),
            bwatches: Vec::new(),
            assign: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            heap: OrderHeap::new(),
            phase: Vec::new(),
            seen: Vec::new(),
            lbd_stamp: vec![0],
            lbd_stamp_gen: 0,
            ok: true,
            model: Vec::new(),
            stats: SolverStats::default(),
            budget: Budget::default(),
            config,
            simp: crate::simplify::SimpState::default(),
            reduce_limit: config.reduce_base,
            lbd_queue: BoundedQueue::new(LBD_QUEUE_LEN),
            trail_queue: BoundedQueue::new(TRAIL_QUEUE_LEN),
            global_lbd_sum: 0,
        }
    }

    /// Sets the resource budget.
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// Sets the search-heuristic knobs. Resets the reduction trigger to
    /// the new base; safe to call between `solve` calls.
    pub fn set_search_config(&mut self, config: SearchConfig) {
        self.config = config;
        self.reduce_limit = config.reduce_base;
    }

    /// Search statistics so far.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Bytes currently held by the clause arena (live + not-yet-collected
    /// deleted clauses).
    pub fn db_bytes(&self) -> usize {
        self.arena.used_words() * std::mem::size_of::<u32>()
    }

    /// Bytes of the arena wasted by deleted clauses awaiting collection.
    pub fn db_wasted_bytes(&self) -> usize {
        self.arena.wasted_words() * std::mem::size_of::<u32>()
    }

    /// Number of variables allocated.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Number of clauses (problem + retained learnts, minus deleted).
    pub fn num_clauses(&self) -> usize {
        self.clauses.len() + self.learnts.len()
    }

    /// Number of problem (non-learnt) clauses of length ≥ 2. Level-0 units
    /// are consumed into the trail and not counted. This is the base
    /// number for measured clause reductions.
    pub fn num_problem_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assign.len() as u32);
        self.assign.push(LBool::Undef);
        self.level.push(0);
        self.reason.push(ClauseRef::NONE);
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        self.lbd_stamp.push(0);
        self.simp.frozen.push(false);
        self.simp.eliminated.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.bwatches.push(Vec::new());
        self.bwatches.push(Vec::new());
        self.heap.insert(v, &self.activity);
        v
    }

    pub(crate) fn value_lit(&self, l: Lit) -> LBool {
        let v = self.assign[l.var().index()];
        if l.is_positive() {
            v
        } else {
            v.negate()
        }
    }

    /// The value of `v` in the most recent model.
    ///
    /// # Panics
    ///
    /// Panics if the last [`Solver::solve`] did not return
    /// [`SolveResult::Sat`] or `v` is out of range.
    pub fn model_value(&self, v: Var) -> bool {
        self.model[v.index()]
    }

    /// The value of literal `l` in the most recent model.
    pub fn model_lit(&self, l: Lit) -> bool {
        self.model_value(l.var()) == l.is_positive()
    }

    pub(crate) fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    pub(crate) fn enqueue(&mut self, l: Lit, reason: ClauseRef) -> bool {
        match self.value_lit(l) {
            LBool::True => true,
            LBool::False => false,
            LBool::Undef => {
                let v = l.var();
                self.assign[v.index()] = LBool::from_bool(l.is_positive());
                self.level[v.index()] = self.decision_level();
                self.reason[v.index()] = reason;
                self.phase[v.index()] = l.is_positive();
                self.trail.push(l);
                true
            }
        }
    }

    /// Adds a clause. Returns `false` if the solver became trivially
    /// unsatisfiable. Clauses may be added at any time between `solve`
    /// calls (incremental use). A clause naming a variable removed by
    /// bounded variable elimination transparently reintroduces it first
    /// (see [`crate::simplify`]), so callers never observe elimination.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        debug_assert_eq!(self.decision_level(), 0, "clauses are added at level 0");
        if !self.ok {
            return false;
        }
        for &l in lits {
            if self.is_eliminated(l.var()) {
                self.reintroduce(l.var());
            }
        }
        self.add_clause_inner(lits)
    }

    /// The [`Solver::add_clause`] body past the eliminated-variable check;
    /// reintroduction re-adds stored clauses through here directly (every
    /// involved variable is un-eliminated by then).
    pub(crate) fn add_clause_inner(&mut self, lits: &[Lit]) -> bool {
        if !self.ok {
            return false;
        }
        // Normalize: sort, dedupe, drop false literals, detect tautology.
        // After the sort+dedup, the two polarities of a variable are
        // adjacent (the literal code is var<<1|sign), so the adjacent
        // complementary-literal check below catches every tautology no
        // matter how the input interleaved duplicates and complements —
        // pinned by `tautology_detection_survives_interleaving`.
        let mut c: Vec<Lit> = lits.to_vec();
        c.sort_unstable();
        c.dedup();
        let mut out: Vec<Lit> = Vec::with_capacity(c.len());
        for (i, &l) in c.iter().enumerate() {
            if i + 1 < c.len() && c[i + 1] == !l {
                return true; // tautology: x ∨ ¬x
            }
            match self.value_lit(l) {
                LBool::True => return true, // already satisfied at level 0
                LBool::False => {}          // drop falsified literal
                LBool::Undef => out.push(l),
            }
        }
        match out.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                if !self.enqueue(out[0], ClauseRef::NONE) {
                    self.ok = false;
                    return false;
                }
                if !self.propagate().is_none() {
                    self.ok = false;
                    return false;
                }
                true
            }
            _ => {
                self.attach_clause(&out, false, 0);
                true
            }
        }
    }

    /// Adds a **blocking clause** forbidding the most recent model's
    /// assignment to `lits`: at least one of them must flip in any future
    /// model. This is the enumeration primitive — solve, read the model,
    /// block it, re-solve for the next distinct one. Returns `false` if
    /// the solver became trivially unsatisfiable (e.g. `lits` is empty: a
    /// model over zero literals can only be blocked by the empty clause).
    ///
    /// # Panics
    ///
    /// Panics if the last [`Solver::solve`] did not return
    /// [`SolveResult::Sat`].
    pub fn block_model(&mut self, lits: &[Lit]) -> bool {
        let clause: Vec<Lit> = lits
            .iter()
            .map(|&l| if self.model_lit(l) { !l } else { l })
            .collect();
        self.add_clause(&clause)
    }

    pub(crate) fn attach_clause(&mut self, lits: &[Lit], learnt: bool, lbd: u32) -> ClauseRef {
        debug_assert!(lits.len() >= 2);
        let c = self.arena.alloc(lits, learnt, lbd);
        self.attach_watches(c);
        if learnt {
            self.learnts.push(c);
            self.stats.learnts = self.learnts.len() as u64;
        } else {
            self.clauses.push(c);
        }
        c
    }

    /// Installs the watchers for `c` on its first two literals — the
    /// dedicated binary lists for two-literal clauses, the blocker-carrying
    /// long lists otherwise.
    pub(crate) fn attach_watches(&mut self, c: ClauseRef) {
        let l0 = self.arena.lit(c, 0);
        let l1 = self.arena.lit(c, 1);
        if self.arena.len(c) == 2 {
            self.bwatches[(!l0).code()].push(BinWatch {
                other: l1,
                clause: c,
            });
            self.bwatches[(!l1).code()].push(BinWatch {
                other: l0,
                clause: c,
            });
        } else {
            self.watches[(!l0).code()].push(Watch {
                clause: c,
                blocker: l1,
            });
            self.watches[(!l1).code()].push(Watch {
                clause: c,
                blocker: l0,
            });
        }
    }

    /// Clears every watch list; the caller must re-attach all live clauses
    /// (the preprocessing rebuild does, mirroring the GC).
    pub(crate) fn clear_watches(&mut self) {
        for w in &mut self.watches {
            w.clear();
        }
        for w in &mut self.bwatches {
            w.clear();
        }
    }

    /// Boolean constraint propagation. Returns the conflicting clause or
    /// [`ClauseRef::NONE`].
    pub(crate) fn propagate(&mut self) -> ClauseRef {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = !p;

            // Binary clauses watching ¬p: the watcher itself carries the
            // implied literal, so this loop never touches the arena.
            let n_bin = self.bwatches[p.code()].len();
            for i in 0..n_bin {
                let w = self.bwatches[p.code()][i];
                match self.value_lit(w.other) {
                    LBool::True => {}
                    LBool::False => {
                        self.qhead = self.trail.len();
                        return w.clause;
                    }
                    LBool::Undef => {
                        let _ = self.enqueue(w.other, w.clause);
                    }
                }
            }

            // Longer clauses: two watched literals with in-place watcher
            // compaction (kept watchers slide down over dropped ones).
            let mut list = std::mem::take(&mut self.watches[p.code()]);
            let mut i = 0usize;
            let mut j = 0usize;
            let mut conflict = ClauseRef::NONE;
            while i < list.len() {
                let w = list[i];
                // Quick satisfied check via the blocker literal.
                if self.value_lit(w.blocker) == LBool::True {
                    list[j] = w;
                    i += 1;
                    j += 1;
                    continue;
                }
                let c = w.clause;
                if self.arena.is_deleted(c) {
                    i += 1; // drop the watcher of a deleted clause
                    continue;
                }
                // Make sure the false literal is at position 1.
                if self.arena.lit(c, 0) == false_lit {
                    self.arena.swap_lits(c, 0, 1);
                }
                debug_assert_eq!(self.arena.lit(c, 1), false_lit);
                let first = self.arena.lit(c, 0);
                if first != w.blocker && self.value_lit(first) == LBool::True {
                    list[j] = Watch {
                        clause: c,
                        blocker: first,
                    };
                    i += 1;
                    j += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let len = self.arena.len(c);
                let mut found = false;
                for k in 2..len {
                    let l = self.arena.lit(c, k);
                    if self.value_lit(l) != LBool::False {
                        self.arena.swap_lits(c, 1, k);
                        // l ≠ false_lit (it is not false), so this never
                        // pushes onto the list taken above.
                        self.watches[(!l).code()].push(Watch {
                            clause: c,
                            blocker: first,
                        });
                        found = true;
                        break;
                    }
                }
                if found {
                    i += 1; // watcher moved to another literal
                    continue;
                }
                // Clause is unit or conflicting; the watcher stays.
                list[j] = w;
                i += 1;
                j += 1;
                if self.value_lit(first) == LBool::False {
                    conflict = c;
                    self.qhead = self.trail.len();
                    // Keep the remaining watchers intact.
                    while i < list.len() {
                        list[j] = list[i];
                        i += 1;
                        j += 1;
                    }
                    break;
                }
                let _ = self.enqueue(first, c);
            }
            list.truncate(j);
            debug_assert!(self.watches[p.code()].is_empty());
            self.watches[p.code()] = list;
            if !conflict.is_none() {
                return conflict;
            }
        }
        ClauseRef::NONE
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > RESCALE_LIMIT {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
            self.heap.rebuild(&self.activity);
        }
        self.heap.decrease_key(v, &self.activity);
    }

    /// Recomputes the LBD of `c` under the current assignment, via a
    /// generation-stamped level scratch (O(|c|), no allocation).
    fn clause_lbd(&mut self, c: ClauseRef) -> u32 {
        self.lbd_stamp_gen += 1;
        let gen = self.lbd_stamp_gen;
        let mut n = 0u32;
        for k in 0..self.arena.len(c) {
            let lvl = self.level[self.arena.lit(c, k).var().index()] as usize;
            if lvl != 0 && self.lbd_stamp[lvl] != gen {
                self.lbd_stamp[lvl] = gen;
                n += 1;
            }
        }
        n
    }

    /// 1UIP conflict analysis; returns (learnt clause, backtrack level, lbd).
    fn analyze(&mut self, conflict: ClauseRef) -> (Vec<Lit>, u32, u32) {
        let mut learnt: Vec<Lit> = vec![Lit::pos(Var(0))]; // placeholder slot 0
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut confl = conflict;
        let mut index = self.trail.len();
        let current = self.decision_level();

        loop {
            debug_assert!(!confl.is_none(), "reason must exist below the UIP");
            // On-the-fly LBD: a learnt clause pulled into analysis gets its
            // glue refreshed; an improvement into the mid tier earns a
            // one-round reduction reprieve.
            if self.arena.is_learnt(confl) && self.arena.len(confl) > 2 {
                let lbd = self.clause_lbd(confl);
                if lbd < self.arena.lbd(confl) {
                    self.arena.set_lbd(confl, lbd);
                    if lbd <= MID_LBD {
                        self.arena.set_protected(confl, true);
                    }
                }
            }
            // Iterate literals of the reason clause (skipping the
            // propagated literal itself).
            for k in 0..self.arena.len(confl) {
                let q = self.arena.lit(confl, k);
                if let Some(p) = p {
                    if q.var() == p.var() {
                        continue;
                    }
                }
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    self.bump_var(v);
                    if self.level[v.index()] >= current {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select the next literal to resolve on.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let lit = self.trail[index];
            let v = lit.var();
            self.seen[v.index()] = false;
            counter -= 1;
            p = Some(lit);
            confl = self.reason[v.index()];
            if counter == 0 {
                break;
            }
        }
        let uip = p.expect("at least one resolution");
        learnt[0] = !uip;

        // Clause minimization: drop literals implied by the rest.
        let keep: Vec<bool> = learnt
            .iter()
            .enumerate()
            .map(|(i, &l)| i == 0 || !self.literal_is_redundant(l))
            .collect();
        let mut minimized: Vec<Lit> = learnt
            .iter()
            .zip(&keep)
            .filter(|(_, &k)| k)
            .map(|(&l, _)| l)
            .collect();

        // Clear seen flags for the literals we marked.
        for &l in &learnt {
            self.seen[l.var().index()] = false;
        }

        // Backtrack level = max level among minimized[1..].
        let (bt, lbd) = if minimized.len() == 1 {
            (0, 1)
        } else {
            let mut max_i = 1;
            for i in 2..minimized.len() {
                if self.level[minimized[i].var().index()]
                    > self.level[minimized[max_i].var().index()]
                {
                    max_i = i;
                }
            }
            minimized.swap(1, max_i);
            let bt = self.level[minimized[1].var().index()];
            let mut levels: Vec<u32> = minimized
                .iter()
                .map(|l| self.level[l.var().index()])
                .collect();
            levels.sort_unstable();
            levels.dedup();
            (bt, levels.len() as u32)
        };
        (minimized, bt, lbd)
    }

    /// A literal is redundant if its reason clause's other literals are all
    /// already marked (seen) or at level 0 — one-step self-subsumption.
    fn literal_is_redundant(&self, l: Lit) -> bool {
        let v = l.var();
        let r = self.reason[v.index()];
        if r.is_none() {
            return false;
        }
        (0..self.arena.len(r)).all(|k| {
            let q = self.arena.lit(r, k);
            q.var() == v || self.seen[q.var().index()] || self.level[q.var().index()] == 0
        })
    }

    pub(crate) fn cancel_until(&mut self, target: u32) {
        if self.decision_level() <= target {
            return;
        }
        let bound = self.trail_lim[target as usize];
        for i in (bound..self.trail.len()).rev() {
            let v = self.trail[i].var();
            self.assign[v.index()] = LBool::Undef;
            self.reason[v.index()] = ClauseRef::NONE;
            self.heap.insert(v, &self.activity);
        }
        self.trail.truncate(bound);
        self.trail_lim.truncate(target as usize);
        self.qhead = bound;
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(v) = self.heap.pop(&self.activity) {
            // Eliminated variables occur in no clause; branching on them
            // would only pad the trail. They re-enter the heap on
            // reintroduction.
            if self.assign[v.index()] == LBool::Undef && !self.simp.eliminated[v.index()] {
                return Some(v);
            }
        }
        None
    }

    /// `true` if `c` is the reason for a current assignment — an O(1)
    /// check: a reason clause always carries its implied literal at
    /// position 0, so it suffices to look that variable's reason up.
    pub(crate) fn locked(&self, c: ClauseRef) -> bool {
        let first = self.arena.lit(c, 0);
        self.value_lit(first) == LBool::True && self.reason[first.var().index()] == c
    }

    /// Learnt-DB reduction with LBD-tiered retention: binaries and core
    /// clauses (LBD ≤ [`CORE_LBD`]) are permanent; mid-tier clauses
    /// (LBD ≤ [`MID_LBD`]) whose glue just improved survive one round;
    /// the worse half of the remaining candidates (by LBD, ties by
    /// length, then age) is deleted. Reason-locked clauses are skipped via
    /// the O(1) [`Solver::locked`] lookup and counted only when actually
    /// deleted, so no double counting across passes.
    fn reduce_db(&mut self) {
        let mut candidates: Vec<(u32, u32, ClauseRef)> = Vec::new();
        for idx in 0..self.learnts.len() {
            let c = self.learnts[idx];
            debug_assert!(!self.arena.is_deleted(c));
            let len = self.arena.len(c);
            let lbd = self.arena.lbd(c);
            if len <= 2 || lbd <= CORE_LBD {
                continue;
            }
            if self.arena.protected(c) {
                // The reprieve is spent either way; it only saves the
                // clause while its glue still sits in the mid tier.
                self.arena.set_protected(c, false);
                if lbd <= MID_LBD {
                    continue;
                }
            }
            if self.locked(c) {
                continue;
            }
            candidates.push((lbd, len as u32, c));
        }
        candidates.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(b.1.cmp(&a.1)).then(a.2.cmp(&b.2)));
        let doomed = candidates.len() / 2;
        for &(_, _, c) in candidates.iter().take(doomed) {
            self.arena.delete(c);
        }
        let arena = &self.arena;
        self.learnts.retain(|&c| !arena.is_deleted(c));
        self.stats.deleted += doomed as u64;
        self.stats.learnts = self.learnts.len() as u64;
        // Geometric schedule: each reduction raises the next trigger.
        self.reduce_limit += self.reduce_limit * self.config.reduce_growth_pct as usize / 100;
        self.maybe_gc();
    }

    pub(crate) fn maybe_gc(&mut self) {
        let used = self.arena.used_words();
        if used > 0 && self.arena.wasted_words() * 100 >= used * self.config.gc_wasted_pct as usize
        {
            self.garbage_collect();
        }
    }

    /// The arena garbage collector: compacts the clause buffer, remaps the
    /// live clause lists and every `reason` reference, and rebuilds all
    /// watch lists from scratch. Deleted clauses are never reasons (reason
    /// clauses are `locked` and skipped by reduction), so every held
    /// reference survives the compaction by construction.
    fn garbage_collect(&mut self) {
        let t = std::time::Instant::now();
        let tables = self.arena.compact();
        for c in self.clauses.iter_mut().chain(self.learnts.iter_mut()) {
            *c = ClauseArena::remap(&tables, *c);
        }
        for r in self.reason.iter_mut() {
            if !r.is_none() {
                *r = ClauseArena::remap(&tables, *r);
            }
        }
        for w in &mut self.watches {
            w.clear();
        }
        for w in &mut self.bwatches {
            w.clear();
        }
        for idx in 0..self.clauses.len() {
            let c = self.clauses[idx];
            self.attach_watches(c);
        }
        for idx in 0..self.learnts.len() {
            let c = self.learnts[idx];
            self.attach_watches(c);
        }
        self.stats.db_gcs += 1;
        self.stats.gc_ns += t.elapsed().as_nanos() as u64;
        debug_assert!(self.watches_are_consistent());
    }

    /// Debug-only watch-list integrity check: every live clause is watched
    /// exactly on the negations of its first two literals, in the list
    /// matching its length class, and live clauses hold exactly two
    /// watcher entries. (Watchers of deleted clauses may linger until
    /// propagation or GC drops them — they are not counted.)
    #[allow(dead_code)] // referenced from debug_assert! only
    fn watches_are_consistent(&self) -> bool {
        let mut expected = 0usize;
        for &c in self.clauses.iter().chain(self.learnts.iter()) {
            if self.arena.is_deleted(c) {
                return false;
            }
            expected += 2;
            let l0 = self.arena.lit(c, 0);
            let l1 = self.arena.lit(c, 1);
            let watched = |lit: Lit| {
                if self.arena.len(c) == 2 {
                    self.bwatches[(!lit).code()].iter().any(|w| w.clause == c)
                } else {
                    self.watches[(!lit).code()].iter().any(|w| w.clause == c)
                }
            };
            if !watched(l0) || !watched(l1) {
                return false;
            }
        }
        let arena = &self.arena;
        let live = |c: ClauseRef| !arena.is_deleted(c);
        let actual: usize = self
            .watches
            .iter()
            .map(|l| l.iter().filter(|w| live(w.clause)).count())
            .sum::<usize>()
            + self
                .bwatches
                .iter()
                .map(|l| l.iter().filter(|w| live(w.clause)).count())
                .sum::<usize>();
        expected == actual
    }

    /// Solves the formula with no assumptions.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with(&[])
    }

    /// Solves under `assumptions` (each forced as a pseudo-decision).
    ///
    /// After `Sat`, the model is available; after any result the solver is
    /// back at decision level 0 and more clauses may be added.
    ///
    /// The first engaged solve (see [`Solver::set_simplify`]) runs the
    /// preprocessing pass of [`crate::simplify`] before search; assumption
    /// variables are treated as frozen for that pass, and assumptions on
    /// previously eliminated variables transparently reintroduce them.
    /// After `Sat` the model is extended over eliminated variables by
    /// replaying the elimination stack, so [`Solver::model_value`] stays
    /// total and the model satisfies every clause ever added.
    pub fn solve_with(&mut self, assumptions: &[Lit]) -> SolveResult {
        if !self.ok {
            return SolveResult::Unsat;
        }
        for &a in assumptions {
            if self.is_eliminated(a.var()) {
                self.reintroduce(a.var());
            }
        }
        if !self.simp.preprocessed
            && self.simp.mode.engages(self.clauses.len())
            && !self.preprocess_with(assumptions)
        {
            return SolveResult::Unsat;
        }
        let result = self.search(assumptions);
        self.cancel_until(0);
        if result == SolveResult::Sat {
            self.extend_model();
        }
        result
    }

    fn search(&mut self, assumptions: &[Lit]) -> SolveResult {
        if !self.propagate().is_none() {
            self.ok = false;
            return SolveResult::Unsat;
        }
        let start_conflicts = self.stats.conflicts;

        loop {
            let conflict = self.propagate();
            if !conflict.is_none() {
                self.stats.conflicts += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SolveResult::Unsat;
                }
                // Restart blocking (Glucose): an unusually deep trail means
                // the solver may be closing in on a model — hold restarts
                // by draining the fast-average window.
                self.trail_queue.push(self.trail.len() as u64);
                if self.stats.conflicts > RESTART_BLOCK_MIN_CONFLICTS
                    && self.trail_queue.full()
                    && (self.trail.len() as u64) * (self.trail_queue.len() as u64) * 5
                        > self.trail_queue.sum() * 7
                {
                    self.lbd_queue.clear();
                }
                // Conflicts under assumption levels make the assumption set
                // unsatisfiable once analysis would backtrack above them —
                // handled below by clamping.
                let (learnt, bt, lbd) = self.analyze(conflict);
                self.lbd_queue.push(lbd as u64);
                self.global_lbd_sum += lbd as u64;
                let assumed = (assumptions.len() as u32).min(self.decision_level());
                if bt < assumed {
                    // The learnt clause flips something at/above an
                    // assumption level: re-propagate from the assumption
                    // boundary; if the learnt clause is violated there, the
                    // assumptions are inconsistent.
                    self.cancel_until(bt);
                } else {
                    self.cancel_until(bt);
                }
                if learnt.len() == 1 {
                    if !self.enqueue(learnt[0], ClauseRef::NONE) {
                        self.ok = false;
                        return SolveResult::Unsat;
                    }
                } else {
                    let c = self.attach_clause(&learnt, true, lbd);
                    let _ = self.enqueue(learnt[0], c);
                }
                self.var_inc *= VAR_DECAY;
                if let Some(max) = self.budget.max_conflicts {
                    if self.stats.conflicts - start_conflicts >= max {
                        return SolveResult::Unknown;
                    }
                }
                if self.learnts.len() >= self.reduce_limit {
                    self.reduce_db();
                }
                // Fast (windowed) LBD average running 25% hot against the
                // lifetime average: the search degraded, restart.
                if self.lbd_queue.full()
                    && self.lbd_queue.sum() * 4 * self.stats.conflicts
                        > self.global_lbd_sum * 5 * self.lbd_queue.len() as u64
                {
                    // Restart: keep assumptions by only backtracking to the
                    // assumption boundary.
                    self.stats.restarts += 1;
                    self.lbd_queue.clear();
                    let keep = (assumptions.len() as u32).min(self.decision_level());
                    self.cancel_until(keep);
                }
                continue;
            }

            // No conflict: decide.
            let dl = self.decision_level() as usize;
            if dl < assumptions.len() {
                let a = assumptions[dl];
                match self.value_lit(a) {
                    LBool::True => {
                        // Already satisfied: open an empty decision level so
                        // assumption indexing stays aligned.
                        self.trail_lim.push(self.trail.len());
                    }
                    LBool::False => return SolveResult::Unsat,
                    LBool::Undef => {
                        self.trail_lim.push(self.trail.len());
                        let _ = self.enqueue(a, ClauseRef::NONE);
                    }
                }
                continue;
            }
            match self.pick_branch_var() {
                None => {
                    // Complete assignment: extract the model.
                    self.model = self
                        .assign
                        .iter()
                        .map(|&v| matches!(v, LBool::True))
                        .collect();
                    return SolveResult::Sat;
                }
                Some(v) => {
                    self.stats.decisions += 1;
                    self.trail_lim.push(self.trail.len());
                    let lit = Lit::with_polarity(v, self.phase[v.index()]);
                    let _ = self.enqueue(lit, ClauseRef::NONE);
                }
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // hole index `j` ties pigeon rows together
mod tests {
    use super::*;

    fn lits(s: &mut Solver, n: usize) -> Vec<Lit> {
        (0..n).map(|_| Lit::pos(s.new_var())).collect()
    }

    /// A tiny schedule that forces reduction and GC on small instances.
    fn tight_config() -> SearchConfig {
        SearchConfig {
            reduce_base: 8,
            reduce_growth_pct: 10,
            gc_wasted_pct: 10,
        }
    }

    fn pigeonhole(s: &mut Solver, pigeons: usize, holes: usize) {
        let p: Vec<Vec<Lit>> = (0..pigeons)
            .map(|_| (0..holes).map(|_| Lit::pos(s.new_var())).collect())
            .collect();
        for row in &p {
            s.add_clause(row);
        }
        for j in 0..holes {
            for i1 in 0..pigeons {
                for i2 in (i1 + 1)..pigeons {
                    s.add_clause(&[!p[i1][j], !p[i2][j]]);
                }
            }
        }
    }

    #[test]
    fn trivially_sat() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[v[0], v[1]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.model_lit(v[0]) || s.model_lit(v[1]));
    }

    #[test]
    fn trivially_unsat() {
        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        s.add_clause(&[v[0]]);
        s.add_clause(&[!v[0]]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        let _ = lits(&mut s, 1);
        assert!(!s.add_clause(&[]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn block_model_enumerates_distinct_models() {
        // Over 3 free variables, repeated solve→block must walk all 8
        // assignments exactly once before going UNSAT.
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        let mut seen = std::collections::HashSet::new();
        loop {
            match s.solve() {
                SolveResult::Sat => {
                    let model: Vec<bool> = v.iter().map(|&l| s.model_lit(l)).collect();
                    assert!(seen.insert(model), "blocking must forbid repeats");
                    s.block_model(&v);
                }
                SolveResult::Unsat => break,
                SolveResult::Unknown => panic!("no budget set"),
            }
        }
        assert_eq!(seen.len(), 8);
    }

    #[test]
    fn gated_blocking_applies_only_under_its_assumption() {
        // The model's blocking clause gated on an activation literal, the
        // way the Double DIP miter gates its key-distinctness clauses.
        fn block_under(s: &mut Solver, act: Lit, v: &[Lit]) {
            let mut clause: Vec<Lit> = v
                .iter()
                .map(|&l| if s.model_lit(l) { !l } else { l })
                .collect();
            clause.push(!act);
            s.add_clause(&clause);
        }
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        let act = Lit::pos(s.new_var());
        assert_eq!(s.solve(), SolveResult::Sat);
        let model: Vec<bool> = v.iter().map(|&l| s.model_lit(l)).collect();
        block_under(&mut s, act, &v);
        // Under the activation assumption the model is forbidden…
        assert_eq!(s.solve_with(&[act]), SolveResult::Sat);
        let next: Vec<bool> = v.iter().map(|&l| s.model_lit(l)).collect();
        assert_ne!(model, next, "gated blocking must forbid the model");
        // …and blocking all four assignments exhausts the gated space…
        for _ in 0..3 {
            block_under(&mut s, act, &v);
            if s.solve_with(&[act]) != SolveResult::Sat {
                break;
            }
        }
        assert_eq!(s.solve_with(&[act]), SolveResult::Unsat);
        // …while the ungated formula stays satisfiable.
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn blocking_over_no_literals_is_the_empty_clause() {
        let mut s = Solver::new();
        let _ = lits(&mut s, 1);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(!s.block_model(&[]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn unit_propagation_chain() {
        let mut s = Solver::new();
        let v = lits(&mut s, 5);
        // v0 and a chain of implications v0→v1→v2→v3→v4.
        s.add_clause(&[v[0]]);
        for i in 0..4 {
            s.add_clause(&[!v[i], v[i + 1]]);
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        for l in v {
            assert!(s.model_lit(l));
        }
    }

    #[test]
    fn tautology_is_ignored() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[v[0], !v[0]]);
        s.add_clause(&[!v[1]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(!s.model_lit(v[1]));
    }

    #[test]
    fn tautology_detection_survives_interleaving() {
        // The tautology check runs post-sort, where the two polarities of
        // a variable land adjacent — so arbitrarily interleaved duplicates
        // and complements must still be caught and add no clause.
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        let before = s.num_clauses();
        assert!(s.add_clause(&[v[0], v[1], v[0], !v[0], v[2]]));
        assert!(s.add_clause(&[v[2], v[1], !v[1], v[2], v[1]]));
        assert!(s.add_clause(&[!v[2], v[0], v[1], v[2]]));
        assert_eq!(s.num_clauses(), before, "tautologies must not attach");
        // A mere duplicate is not a tautology: it dedupes and attaches.
        assert!(s.add_clause(&[v[0], v[1], v[0]]));
        assert_eq!(s.num_clauses(), before + 1);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.model_lit(v[0]) || s.model_lit(v[1]));
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // PHP(3,2): classic small UNSAT instance requiring real search.
        let mut s = Solver::new();
        pigeonhole(&mut s, 3, 2);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn pigeonhole_5_into_5_is_sat() {
        let mut s = Solver::new();
        let n = 5;
        let p: Vec<Vec<Lit>> = (0..n)
            .map(|_| (0..n).map(|_| Lit::pos(s.new_var())).collect())
            .collect();
        for row in &p {
            s.add_clause(row);
        }
        for j in 0..n {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    s.add_clause(&[!p[i1][j], !p[i2][j]]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        // Verify the model is a valid assignment.
        for j in 0..n {
            let count = (0..n).filter(|&i| s.model_lit(p[i][j])).count();
            assert!(count <= 1, "hole {j} used {count} times");
        }
        for (i, row) in p.iter().enumerate() {
            assert!(row.iter().any(|&l| s.model_lit(l)), "pigeon {i} unplaced");
        }
    }

    #[test]
    fn assumptions_flip_satisfiability() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[v[0], v[1]]);
        assert_eq!(s.solve_with(&[!v[0], !v[1]]), SolveResult::Unsat);
        assert_eq!(s.solve_with(&[!v[0]]), SolveResult::Sat);
        assert!(s.model_lit(v[1]));
        // Solver stays usable for unconditional solving.
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn incremental_clause_addition() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause(&[v[0], v[1], v[2]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        s.add_clause(&[!v[0]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(!s.model_lit(v[0]));
        s.add_clause(&[!v[1]]);
        s.add_clause(&[!v[2]]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn conflict_budget_returns_unknown() {
        // A hard instance (PHP 7 into 6) with a 1-conflict budget.
        let mut s = Solver::new();
        pigeonhole(&mut s, 7, 6);
        s.set_budget(Budget {
            max_conflicts: Some(1),
        });
        assert_eq!(s.solve(), SolveResult::Unknown);
        // Raising the budget resolves it.
        s.set_budget(Budget::default());
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn xor_chain_forces_unique_model() {
        // x0 ⊕ x1 = 1, x1 ⊕ x2 = 1, x0 = 0 → x1 = 1, x2 = 0.
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        let xor1 = |s: &mut Solver, a: Lit, b: Lit| {
            s.add_clause(&[a, b]);
            s.add_clause(&[!a, !b]);
        };
        xor1(&mut s, v[0], v[1]);
        xor1(&mut s, v[1], v[2]);
        s.add_clause(&[!v[0]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(!s.model_lit(v[0]));
        assert!(s.model_lit(v[1]));
        assert!(!s.model_lit(v[2]));
    }

    #[test]
    fn stats_accumulate() {
        let mut s = Solver::new();
        let v = lits(&mut s, 4);
        s.add_clause(&[v[0], v[1]]);
        s.add_clause(&[v[2], v[3]]);
        let _ = s.solve();
        assert!(s.stats().decisions > 0 || s.stats().propagations > 0);
    }

    #[test]
    fn stats_invariants_hold_through_reduction_and_gc() {
        // A hard instance on a tiny schedule so reduction, the reprieve
        // path, and GC all fire repeatedly — then the counters must still
        // describe reality: `learnts` is the live list, every live learnt
        // is live in the arena, and `deleted` matches the GC-visible
        // history (each deletion counted exactly once even when locked
        // clauses were skipped on earlier passes).
        let mut s = Solver::new();
        s.set_search_config(tight_config());
        pigeonhole(&mut s, 8, 7);
        assert_eq!(s.solve(), SolveResult::Unsat);
        let st = s.stats();
        assert_eq!(st.learnts, s.learnts.len() as u64);
        assert!(
            s.learnts.iter().all(|&c| !s.arena.is_deleted(c)),
            "live list holds a deleted clause"
        );
        assert!(st.deleted > 0, "reduction never fired");
        assert!(st.restarts > 0, "restarts never fired");
        assert!(st.db_gcs > 0, "GC never fired");
        assert!(
            s.db_wasted_bytes() * 100
                < s.db_bytes().max(1) * (s.config.gc_wasted_pct as usize + 100),
            "wasted space runs past the GC trigger"
        );
        assert!(s.watches_are_consistent());
    }

    #[test]
    fn pigeonhole_verdicts_are_correct() {
        for (pigeons, holes, expect) in [(3, 2, SolveResult::Unsat), (6, 6, SolveResult::Sat)] {
            let mut s = Solver::new();
            pigeonhole(&mut s, pigeons, holes);
            assert_eq!(s.solve(), expect, "PHP({pigeons},{holes})");
        }
    }

    #[test]
    fn random_3sat_matches_brute_force() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        for trial in 0..60 {
            let n = rng.gen_range(3..10usize);
            let m = rng.gen_range(2..(4 * n));
            let clauses: Vec<Vec<i64>> = (0..m)
                .map(|_| {
                    (0..3)
                        .map(|_| {
                            let v = rng.gen_range(1..=n as i64);
                            if rng.gen_bool(0.5) {
                                v
                            } else {
                                -v
                            }
                        })
                        .collect()
                })
                .collect();
            // Brute force.
            let mut brute_sat = false;
            'outer: for m_bits in 0..(1u32 << n) {
                for c in &clauses {
                    let ok = c.iter().any(|&l| {
                        let val = (m_bits >> (l.unsigned_abs() - 1)) & 1 == 1;
                        if l > 0 {
                            val
                        } else {
                            !val
                        }
                    });
                    if !ok {
                        continue 'outer;
                    }
                }
                brute_sat = true;
                break;
            }
            // CDCL.
            let mut s = Solver::new();
            for _ in 0..n {
                s.new_var();
            }
            for c in &clauses {
                let lits: Vec<Lit> = c.iter().map(|&l| Lit::from_dimacs(l)).collect();
                s.add_clause(&lits);
            }
            let result = s.solve();
            if brute_sat {
                assert_eq!(result, SolveResult::Sat, "trial {trial}");
                // And the model must satisfy every clause.
                for c in &clauses {
                    assert!(
                        c.iter().any(|&l| s.model_lit(Lit::from_dimacs(l))),
                        "trial {trial}: model violates {c:?}"
                    );
                }
            } else {
                assert_eq!(result, SolveResult::Unsat, "trial {trial}");
            }
        }
    }
}
