//! # gshe-campaign
//!
//! A multi-threaded **campaign engine** orchestrating
//! protect→attack→measure experiments at scale. The paper's evaluation
//! (Tables II–IV, Figs. 4–6) is a grid of campaigns — many netlists ×
//! camouflaging schemes × attack configurations × stochastic error rates —
//! and this crate turns that grid into a first-class object instead of a
//! hand-rolled loop per harness binary:
//!
//! * [`CampaignSpec`] — the declarative grid (benchmark suite × scheme
//!   grid × attack grid × error-rate sweep, with seeds and budgets);
//! * [`CampaignSpec::expand`] — unrolls the grid into [`JobSpec`]s whose
//!   RNG seeds derive from the campaign seed and each job's *identity*
//!   (never execution order), so results are reproducible at any thread
//!   count;
//! * [`pool`] — a std-only thread pool that runs each batch of jobs on
//!   the calling thread and scoped worker threads, all taking tasks from
//!   one shared queue, with per-job wall-clock budgets; a job that
//!   exhausts its budget is marked [`JobStatus::TimedOut`] instead of
//!   wedging the pool;
//! * [`job`] — one job per grid cell; an attack cell queries the one
//!   [`gshe_attacks::OracleStack`] its defense dimensions build, with no
//!   answer cache in between ([`cache`] keeps only the old names
//!   perfbench's frozen replay compiles against);
//! * [`physical`] — device-derived operating points: the Monte Carlo
//!   error-rate derivations and the clock-period → error-rate table
//!   (one Monte Carlo run, every period read off its samples) behind the
//!   `clock_periods_ns` grid dimension;
//! * [`aggregate`]/[`report`] — reduce raw job results into the paper's
//!   table rows (key-recovery rate, query counts, output-error rate,
//!   runtime percentiles) and serialize them to JSON or CSV;
//! * [`EvalSession`] — the persistent **evaluation service** behind it
//!   all: a worker pool plus memoized benchmark/scheme materializations,
//!   so repeated scoring calls (many specs, or a profile search's
//!   candidate stream) stop re-generating netlists and re-camouflaging
//!   benchmarks;
//! * [`search`] — the defender's inverse problem on top of the service:
//!   [`ProfileSearch`] (1+λ)-evolves dense per-switch error-rate vectors
//!   toward the cheapest profile that still defeats the attacks, and
//!   reports the Pareto front.
//!
//! ## Quick start
//!
//! ```
//! use gshe_campaign::{Campaign, CampaignSpec};
//! use gshe_camo::CamoScheme;
//! use std::time::Duration;
//!
//! let spec = CampaignSpec {
//!     name: "doc-smoke".into(),
//!     benchmarks: vec!["ex1010".into()],
//!     scale: 400,
//!     levels: vec![0.2],
//!     schemes: vec![CamoScheme::InvBuf],
//!     timeout: Duration::from_secs(30),
//!     threads: 2,
//!     ..Default::default()
//! };
//! let report = Campaign::run(&spec).unwrap();
//! assert_eq!(report.rows.len(), 1);
//! ```
//!
//! ## Spec file format
//!
//! [`CampaignSpec::parse_toml`] reads a minimal TOML subset: `key = value`
//! lines, `#` comments, double-quoted strings, and one-line homogeneous
//! arrays. A single optional `[campaign]` table header is accepted and
//! ignored. Every key is also a `campaign` flag, `--key-name value`, with
//! the same value and unit, strings bare and lists comma-separated
//! (`--levels 0.1,0.2`); both go through [`CampaignSpec::set`]. Keys (all
//! optional, defaults in parentheses):
//!
//! ```toml
//! [campaign]
//! name = "table4"            # report name ("campaign")
//! benchmarks = ["c7552", "suite:itc99"]  # names, suite:<name>, "all",
//!                            # or `.aag` file paths (AIGER frontend)
//! scale = 20                 # benchmark scale divisor (20)
//! topology = "local"         # generator wiring: uniform | local ("uniform")
//! levels = [0.1, 0.2]        # protection fractions ([0.2])
//! schemes = ["gshe16"]       # scheme names, or "all" (["gshe16"])
//! attacks = ["sat"]          # sat | double-dip | appsat (["sat"])
//! sat_simplify = "on"        # solver preprocessing: on | off ("off")
//! error_rates = [0.0, 0.05]  # oracle per-cell error rates ([0.0])
//! clock_periods_ns = [0.8, 2] # physical clock periods as rate sources ([])
//! profiles = ["uniform"]     # error-profile shapes, or "all" (["uniform"])
//! rotation_periods = [0, 16] # dynamic-camouflaging periods ([0])
//! trials = 3                 # repeats per grid cell (1)
//! seed = 1                   # master seed (1)
//! timeout_secs = 60          # per-job attack budget (60)
//! threads = 0                # workers; 0 = available parallelism (0)
//! ```
//!
//! There is no cone-of-influence key: whenever the cloaked cells reach a
//! strict subset of the outputs, every attack cell runs on their cone
//! ([`gshe_attacks::coi`]) — projected miter, the exact chip's cone
//! answer and cone-scoped key verification — at any design size.
//!
//! Scheme names: `look-alike`, `stt-lut`, `sinw`, `inv-buf`, `four-fn`,
//! `dwm`, `gshe16`.
//!
//! Profile names: `uniform` (every cloaked cell at the rate),
//! `output-cone` (only cloaked cells in the deepest output's fanin cone),
//! `depth-gradient` (rate scaled by logic level). Profiles describe *how*
//! each rate spreads over the cloaked cells; their oracles run on the
//! bit-parallel [`gshe_logic::Simulator`] made noisy
//! ([`gshe_logic::Simulator::with_noise`]).
//!
//! `clock_periods_ns` sweeps *physical* operating points: each period's
//! per-cell rate is derived from the device Monte Carlo at the nominal
//! drive current ([`physical::ClockRateTable`]: one Monte Carlo run, each
//! period the share of its samples that miss the clock), then spread by
//! the profile shapes exactly like an abstract rate. Rows carry the period as `clock_ns` (implicit when 0).
//!
//! Rotation periods sweep the *dynamic camouflaging* defense (Sec. V-C):
//! `0` is the static oracle the grid always had, `n > 0` stacks a
//! rotation layer that draws a fresh random key every `n` queries.
//! Jobs materialize one [`gshe_attacks::OracleStack`] per cell, built
//! from the cell's dimensions, so `rotation_periods × rates × profiles`
//! is a full grid: cells with both a period and a nonzero rate attack
//! the **combined defense** ([`gshe_attacks::OracleStack::rotating_noisy`]
//! — rotation layered over the noisy base). Rows and CSV carry the
//! period, and JSON leaves period 0 implicit so pre-existing
//! deterministic reports stay byte-identical.
//!
//! ## Determinism contract
//!
//! [`CampaignReport::deterministic_json`] is a pure function of the spec:
//! byte-identical across `threads = 1` and `threads = N` runs. Wall-clock
//! metrics (runtime percentiles, solver and pool counters) live only in
//! the full [`CampaignReport::to_json`] flavor.
//!
//! One caveat: job *statuses* are part of the deterministic output, and a
//! wall-clock timeout is decided by the clock — the paper's t-o semantics.
//! A job whose real runtime sits near its budget can therefore flip
//! between `Completed` and `TimedOut` under CPU contention (e.g.
//! oversubscribed workers on few cores). A campaign sets no iteration or
//! conflict cap: the one budget it can set is the wall clock,
//! `timeout_secs` (`JobSpec::timeout` in a hand-built job list). The
//! contract therefore holds when `timeout_secs` sits comfortably above or
//! below the cells' actual runtimes, and `threads` no higher than the
//! core count keeps contention from stretching them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod cache;
pub mod job;
pub mod physical;
pub mod pool;
pub mod report;
pub mod search;
pub mod spec;

pub use aggregate::{CellKey, TableRow};
pub use cache::{CachedOracle, OracleCache};
pub use job::{
    noise_profile, run_job, select_seed, transform_seed, AttackSeeds, JobContext, JobKind,
    JobResult, JobSpec, JobStatus, KeyedMemo, NoiseShape,
};
pub use physical::ClockRateTable;
pub use pool::{pool_summary, WorkerPool, WorkerStats};
pub use report::CampaignReport;
pub use search::{Candidate, ProfileSearch, ScoredCandidate, SearchReport, SearchSpec};
pub use spec::{
    flag_key, parse_scheme, scheme_name, valid_attack_names, valid_profile_names,
    valid_scheme_names, CampaignSpec, SpecValue, SPEC_KEYS,
};

use gshe_camo::KeyedNetlist;
use gshe_device::SwitchParams;
use gshe_logic::{suites, Netlist, Topology};
use spec::{check_at_least_one, check_level, check_rate, check_timeout};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Locks one of the session's memos (the benchmark memo here, the keyed
/// memo in [`job::KeyedMemo`]), recovering the guard if a thread panicked
/// while it held the lock. Recovery is sound because every critical
/// section on a memo only finds, pushes or counts entries of a `Vec` of
/// (key, `Arc`) pairs: a push lands whole or not at all, so a panic
/// cannot leave the memo half-written, and one panicking job cannot fail
/// every later job of the session.
pub(crate) fn lock_memo<T>(memo: &Mutex<T>) -> MutexGuard<'_, T> {
    memo.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A named, shareable benchmark netlist (one [`JobContext`] entry).
type NamedNetlist = (String, Arc<Netlist>);

/// Memo key for one materialized benchmark: (name, scale divisor, seed,
/// topology profile).
type NetlistKey = (String, usize, u64, Topology);

/// Where a benchmark name materializes from: the synthetic generator
/// (a [`suites`] spec) or an on-disk AIGER `.aag` file, whose text is
/// read eagerly so I/O failures surface before any generation work.
enum NetlistSource {
    /// Generator-backed benchmark (the historical suites).
    Spec(&'static suites::BenchmarkSpec),
    /// File-backed benchmark: the raw `.aag` document.
    Aag(String),
}

impl NetlistSource {
    /// Resolves `name`: `.aag` paths load from disk, everything else must
    /// be a known suites benchmark.
    fn resolve(name: &str) -> Result<NetlistSource, String> {
        if name.ends_with(".aag") {
            let text = std::fs::read_to_string(name)
                .map_err(|e| format!("cannot read AIGER benchmark `{name}`: {e}"))?;
            Ok(NetlistSource::Aag(text))
        } else {
            suites::spec(name)
                .map(NetlistSource::Spec)
                .ok_or_else(|| format!("unknown benchmark `{name}`"))
        }
    }

    /// Builds the netlist. File-backed benchmarks ignore `scale`/`seed`/
    /// `topology` — their structure is the file's.
    fn build(
        self,
        name: &str,
        scale: usize,
        seed: u64,
        topology: Topology,
    ) -> Result<Netlist, String> {
        match self {
            NetlistSource::Spec(bench_spec) => Ok(suites::benchmark_scaled_with(
                bench_spec, scale, seed, topology,
            )),
            NetlistSource::Aag(text) => gshe_logic::parse_aag(&text)
                .map_err(|e| format!("bad AIGER benchmark `{name}`: {e}")),
        }
    }
}

/// The benchmarks a job list references, in first-reference order (the
/// order of the run's [`JobContext::netlists`]).
fn referenced_benchmarks(jobs: &[JobSpec]) -> Vec<String> {
    let mut referenced: Vec<String> = Vec::new();
    for job in jobs {
        let JobKind::Attack { benchmark, .. } = &job.kind;
        if !referenced.iter().any(|n| n == benchmark) {
            referenced.push(benchmark.clone());
        }
    }
    referenced
}

/// Resolves a thread-count knob (0 = available parallelism).
fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    } else {
        threads
    }
}

/// A long-lived **evaluation service**: a worker pool plus memoized
/// benchmark / scheme materializations, so repeated scoring calls (a
/// profile search evaluates hundreds of candidates; a harness sweeps many
/// specs) pay for netlist generation and camouflaging once per *session*
/// instead of once per *run*. The session holds no thread between
/// batches: each batch runs on the calling thread plus scoped threads
/// that end with it ([`pool::WorkerPool::run_all`]).
///
/// The memos only grow: every benchmark and scheme materialization a run
/// builds stays until the session is dropped.
///
/// [`Campaign::run`] is a thin one-session wrapper; its output is
/// byte-identical whether jobs run through a fresh or a warm session
/// (memoization only skips recomputing deterministic values, and
/// timing stats are per-run deltas).
pub struct EvalSession {
    pool: pool::WorkerPool,
    netlists: Mutex<Vec<(NetlistKey, Arc<Netlist>)>>,
    keyed: Arc<job::KeyedMemo>,
}

impl std::fmt::Debug for EvalSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalSession")
            .field("threads", &self.threads())
            .field("cached_netlists", &self.cached_netlists())
            .field("cached_keyed", &self.cached_keyed())
            .finish()
    }
}

impl EvalSession {
    /// A session with `threads` workers (0 = available parallelism).
    pub fn new(threads: usize) -> Self {
        EvalSession {
            pool: pool::WorkerPool::new(resolve_threads(threads)),
            netlists: Mutex::new(Vec::new()),
            keyed: Arc::new(job::KeyedMemo::default()),
        }
    }

    /// Worker threads the session runs on.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Benchmarks materialized so far.
    pub fn cached_netlists(&self) -> usize {
        lock_memo(&self.netlists).len()
    }

    /// Scheme materializations memoized so far.
    pub fn cached_keyed(&self) -> usize {
        self.keyed.len()
    }

    /// Runs an arbitrary task batch on the session's worker pool, results
    /// in submission order (the [`pool::WorkerPool::run_all`] contract).
    /// This is the raw entry point the profile search scores candidates
    /// through; campaign runs use [`EvalSession::run`].
    pub fn run_tasks<R: Send + 'static>(
        &self,
        tasks: Vec<Box<dyn FnOnce() -> R + Send>>,
    ) -> Vec<R> {
        self.pool.run_all(tasks)
    }

    /// The benchmark netlist for `(name, scale, seed)`, generated through
    /// the worker pool on first use and memoized for the session's
    /// lifetime.
    ///
    /// # Errors
    ///
    /// Returns a message when `name` resolves to no known benchmark.
    pub fn netlist(&self, name: &str, scale: usize, seed: u64) -> Result<Arc<Netlist>, String> {
        self.netlist_with(name, scale, seed, Topology::Uniform)
    }

    /// [`EvalSession::netlist`] with an explicit topology profile for
    /// generator-backed benchmarks (file-backed `.aag` benchmarks ignore
    /// it — their structure is the file's).
    ///
    /// # Errors
    ///
    /// Returns a message when `name` resolves to no known benchmark.
    pub fn netlist_with(
        &self,
        name: &str,
        scale: usize,
        seed: u64,
        topology: Topology,
    ) -> Result<Arc<Netlist>, String> {
        let built = self.materialize_netlists(&[name.to_string()], scale, seed, topology)?;
        Ok(Arc::clone(&built[0].1))
    }

    /// The keyed (camouflaged) netlist for the given materialization
    /// identity, memoized for the session's lifetime. A draw that changes
    /// no node holds the session's own copy of the benchmark
    /// ([`KeyedNetlist::shares_netlist`]), so it adds no arena.
    ///
    /// # Errors
    ///
    /// Propagates benchmark resolution and camouflage failures.
    pub fn keyed(
        &self,
        name: &str,
        scale: usize,
        seed: u64,
        level: f64,
        scheme: gshe_camo::CamoScheme,
        seeds: &AttackSeeds,
    ) -> Result<Arc<KeyedNetlist>, String> {
        let nl = self.netlist(name, scale, seed)?;
        self.keyed.get_or_materialize(&nl, level, scheme, seeds)
    }

    /// Returns each benchmark in `names`, in order: from the memo when
    /// resident, otherwise built and memoized for the session's lifetime.
    /// Every missing name resolves before any build starts, so an unknown
    /// benchmark or an unreadable `.aag` file fails before generation
    /// work.
    fn materialize_netlists(
        &self,
        names: &[String],
        scale: usize,
        seed: u64,
        topology: Topology,
    ) -> Result<Vec<NamedNetlist>, String> {
        let mut found: Vec<NamedNetlist> = Vec::new();
        let mut missing: Vec<(String, NetlistSource)> = Vec::new();
        {
            let memo = lock_memo(&self.netlists);
            for name in names {
                let key = (name.clone(), scale, seed, topology);
                if let Some((_, nl)) = memo.iter().find(|(k, _)| *k == key) {
                    found.push((name.clone(), Arc::clone(nl)));
                } else if !missing.iter().any(|(n, _)| n == name) {
                    missing.push((name.clone(), NetlistSource::resolve(name)?));
                }
            }
        }
        // Generation can be minutes of work at low scale divisors, so the
        // missing benchmarks build in one batch on the same pool as the
        // jobs (and outside the memo lock).
        let gen_tasks: Vec<Box<dyn FnOnce() -> Result<NamedNetlist, String> + Send>> = missing
            .into_iter()
            .map(|(name, source)| {
                Box::new(move || {
                    let _span = gshe_obs::span("session.materialize");
                    let nl = source.build(&name, scale, seed, topology)?;
                    Ok((name, Arc::new(nl)))
                }) as Box<dyn FnOnce() -> Result<NamedNetlist, String> + Send>
            })
            .collect();
        let built = self
            .pool
            .run_all(gen_tasks)
            .into_iter()
            .collect::<Result<Vec<NamedNetlist>, String>>()?;
        if !built.is_empty() {
            let mut memo = lock_memo(&self.netlists);
            for (name, nl) in &built {
                let key = (name.clone(), scale, seed, topology);
                if !memo.iter().any(|(k, _)| *k == key) {
                    memo.push((key, Arc::clone(nl)));
                }
            }
        }
        found.extend(built);
        Ok(names
            .iter()
            .map(|name| {
                found
                    .iter()
                    .find(|(n, _)| n == name)
                    .cloned()
                    .expect("resident or built above")
            })
            .collect())
    }

    /// Runs a full campaign described by `spec` on this session.
    ///
    /// # Errors
    ///
    /// Returns a message when the spec cannot be expanded (unknown
    /// benchmark selector). Individual job failures do *not* abort the
    /// campaign; they surface as [`JobStatus::Failed`] results.
    pub fn run(&self, spec: &CampaignSpec) -> Result<CampaignReport, String> {
        let jobs = spec.expand()?;
        self.run_jobs(spec, jobs)
    }

    /// Runs an explicit job list under `spec`'s shared knobs (name, scale,
    /// seed, topology, COI and simplification modes). This is the entry
    /// point for harnesses that need a historical seed derivation instead
    /// of [`CampaignSpec::expand`]'s.
    ///
    /// Every benchmark the jobs name that the session has not built yet
    /// builds in one pool batch; then every job runs in one pool batch over
    /// one [`JobContext`], and results return in submission order. What was
    /// built stays memoized for later runs on the session.
    ///
    /// The spec's `threads` knob is ignored here — the session's pool is
    /// already sized; reported pool stats are per-run deltas, so a warm
    /// session reports the same shape a fresh one does.
    ///
    /// # Errors
    ///
    /// Returns a message, before anything is built or run, on the values
    /// [`CampaignSpec::expand`] rejects, which a hand-built job list has
    /// not been through: a scale below 1, a job timeout too large for a
    /// deadline, and a job's level outside `(0, 1]` or error rate outside
    /// `[0, 1]`. Also when a job references a benchmark that cannot be
    /// instantiated. An empty job list builds nothing and returns an
    /// empty report.
    pub fn run_jobs(
        &self,
        spec: &CampaignSpec,
        jobs: Vec<JobSpec>,
    ) -> Result<CampaignReport, String> {
        check_at_least_one("scale", spec.scale as u64)?;
        for job in &jobs {
            check_timeout(job.timeout)?;
            let JobKind::Attack {
                level, error_rate, ..
            } = &job.kind;
            check_level(*level)?;
            check_rate("error rate", *error_rate)?;
        }
        let start = Instant::now();
        let pool_before = self.pool.worker_stats();

        let netlists = self.materialize_netlists(
            &referenced_benchmarks(&jobs),
            spec.scale,
            spec.seed,
            spec.topology,
        )?;
        let ctx = Arc::new(JobContext {
            netlists,
            cache: OracleCache::shared(),
            params: SwitchParams::table_i(),
            keyed: Arc::clone(&self.keyed),
            coi_mode: spec.coi_mode,
            sat_simplify: spec.sat_simplify,
        });
        let tasks: Vec<Box<dyn FnOnce() -> JobResult + Send>> = jobs
            .into_iter()
            .map(|job| {
                let ctx = Arc::clone(&ctx);
                Box::new(move || run_job(&job, &ctx)) as Box<dyn FnOnce() -> JobResult + Send>
            })
            .collect();
        let results = self.pool.run_all(tasks);

        let pool_deltas: Vec<pool::WorkerStats> = self
            .pool
            .worker_stats()
            .iter()
            .zip(&pool_before)
            .map(|(now, then)| now.delta_from(then))
            .collect();
        Ok(
            CampaignReport::new(spec.name.clone(), results, self.threads(), start.elapsed())
                .with_pool_stats(pool_deltas),
        )
    }
}

/// The engine: expands a spec and drives its jobs through the pool.
#[derive(Debug)]
pub struct Campaign;

impl Campaign {
    /// Runs a full campaign described by `spec` on a fresh one-shot
    /// [`EvalSession`]. Long-lived callers (harnesses sweeping many specs,
    /// the profile search) should hold a session and call
    /// [`EvalSession::run`] instead.
    ///
    /// # Errors
    ///
    /// Returns a message when the spec cannot be expanded (unknown
    /// benchmark selector). Individual job failures do *not* abort the
    /// campaign; they surface as [`JobStatus::Failed`] results.
    pub fn run(spec: &CampaignSpec) -> Result<CampaignReport, String> {
        EvalSession::new(spec.threads).run(spec)
    }

    /// Runs an explicit job list under `spec`'s shared knobs on a fresh
    /// one-shot [`EvalSession`] of `spec.threads` workers, whose memos are
    /// dropped when the run returns (see [`EvalSession::run_jobs`]).
    ///
    /// # Errors
    ///
    /// Returns a message on a bad spec or job value, and when a job
    /// references a benchmark that cannot be instantiated (see
    /// [`EvalSession::run_jobs`]).
    pub fn run_jobs(spec: &CampaignSpec, jobs: Vec<JobSpec>) -> Result<CampaignReport, String> {
        EvalSession::new(spec.threads).run_jobs(spec, jobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gshe_attacks::{AttackKind, CoiMode, SimplifyMode};
    use gshe_camo::CamoScheme;
    use std::time::Duration;

    fn tiny_spec(threads: usize) -> CampaignSpec {
        CampaignSpec {
            name: "unit".into(),
            benchmarks: vec!["ex1010".into()],
            scale: 400, // floors to 64 gates, 32 inputs
            topology: Topology::Uniform,
            levels: vec![0.15],
            schemes: vec![CamoScheme::InvBuf, CamoScheme::FourFn],
            attacks: vec![AttackKind::Sat],
            coi_mode: CoiMode::On,
            sat_simplify: SimplifyMode::Off,
            error_rates: vec![0.0],
            clock_periods_ns: Vec::new(),
            profiles: vec![job::NoiseShape::Uniform],
            rotation_periods: vec![0],
            trials: 1,
            seed: 5,
            timeout: Duration::from_secs(30),
            threads,
        }
    }

    #[test]
    fn small_campaign_completes_and_aggregates() {
        let report = Campaign::run(&tiny_spec(2)).unwrap();
        assert_eq!(report.results.len(), 2);
        assert_eq!(report.rows.len(), 2);
        for row in &report.rows {
            assert_eq!(row.trials, 1);
            assert_eq!(row.status_counts[0], 1, "expected completion: {row:?}");
            assert_eq!(row.key_recovery_rate, 1.0);
        }
    }

    #[test]
    fn unknown_selector_is_an_error() {
        let mut spec = tiny_spec(1);
        spec.benchmarks = vec!["zzz".into()];
        assert!(Campaign::run(&spec).is_err());
        assert!(EvalSession::new(1).netlist("zzz", 20, 1).is_err());
    }

    #[test]
    fn warm_session_reuses_materializations_and_reports_identically() {
        // The EvalSession contract: the cold run memoizes every benchmark
        // it builds, and a second run on the warm session redoes no
        // netlist generation or camouflaging and emits byte-identical
        // deterministic JSON.
        let mut spec = tiny_spec(2);
        spec.benchmarks = vec!["ex1010".into(), "c7552".into(), "b14".into()];
        let session = EvalSession::new(2);
        let first = session.run(&spec).unwrap();
        assert_eq!(session.cached_netlists(), 3);
        let keyed_after_first = session.cached_keyed();
        assert_eq!(
            keyed_after_first, 6,
            "one materialization per benchmark and scheme"
        );

        let second = session.run(&spec).unwrap();
        assert_eq!(session.cached_netlists(), 3, "netlist memo must hit");
        assert_eq!(
            session.cached_keyed(),
            keyed_after_first,
            "keyed memo must hit"
        );
        assert_eq!(first.deterministic_json(), second.deterministic_json());

        // And the one-shot wrapper agrees byte-for-byte with both.
        let fresh = Campaign::run(&spec).unwrap();
        assert_eq!(fresh.deterministic_json(), first.deterministic_json());
    }

    #[test]
    fn a_panic_under_the_netlist_memo_lock_does_not_poison_the_session() {
        let session = EvalSession::new(1);
        let resident = session.netlist("ex1010", 400, 5).unwrap();
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = session.netlists.lock();
                panic!("a job panics while it holds the netlist memo lock");
            })
            .join()
        });
        assert!(panicked.is_err());
        assert!(session.netlists.is_poisoned());

        let again = session.netlist("ex1010", 400, 5).unwrap();
        assert!(Arc::ptr_eq(&again, &resident), "the resident entry");
        session.netlist("c7552", 400, 5).unwrap();
        assert_eq!(session.cached_netlists(), 2, "a new benchmark is built");
    }

    #[test]
    fn hand_built_jobs_are_checked_before_anything_is_built() {
        // A hand-built job list skips `CampaignSpec::expand`; the run
        // applies its checks before building a benchmark.
        let spec = tiny_spec(1);
        let job = spec.expand().unwrap().remove(0);
        let attack = |level: f64, rate: f64| {
            let mut job = job.clone();
            let JobKind::Attack {
                level: l,
                error_rate: r,
                ..
            } = &mut job.kind;
            (*l, *r) = (level, rate);
            job
        };
        let mut unscaled = spec.clone();
        unscaled.scale = 0;
        let mut forever = job.clone();
        forever.timeout = Duration::from_secs(u64::MAX);
        let cases = [
            (&spec, attack(10.0, 0.0), "got 10"),
            (&spec, attack(f64::NAN, 0.0), "got NaN"),
            (&spec, attack(0.15, 1.5), "got 1.5"),
            (&unscaled, job.clone(), "got 0"),
            (&spec, forever, "got 18446744073709551615 s"),
        ];
        for (spec, job, value) in cases {
            let session = EvalSession::new(1);
            let err = session.run_jobs(spec, vec![job]).unwrap_err();
            assert!(err.contains(value), "{value}: {err}");
            assert_eq!(session.cached_netlists(), 0, "{err}");
        }
    }

    #[test]
    fn interleaved_benchmarks_land_in_submission_order() {
        // Jobs of two benchmarks interleaved A, B, A, B: every result lands
        // in its submission slot.
        let mut spec = tiny_spec(2);
        spec.benchmarks = vec!["ex1010".into(), "c7552".into()];
        let expanded = spec.expand().unwrap();
        let jobs: Vec<JobSpec> = [0, 2, 1, 3].map(|i| expanded[i].clone()).into();
        let benchmark = |job: &JobSpec| {
            let JobKind::Attack { benchmark, .. } = &job.kind;
            benchmark.clone()
        };
        let names: Vec<String> = jobs.iter().map(benchmark).collect();
        assert_eq!(names, ["ex1010", "c7552", "ex1010", "c7552"]);
        let report = EvalSession::new(2).run_jobs(&spec, jobs.clone()).unwrap();
        let order: Vec<&JobSpec> = report.results.iter().map(|r| &r.spec).collect();
        assert_eq!(order, jobs.iter().collect::<Vec<_>>());
        assert!(report
            .results
            .iter()
            .all(|r| r.status == JobStatus::Completed));
    }

    #[test]
    fn empty_job_list_builds_nothing() {
        let session = EvalSession::new(1);
        let report = session.run_jobs(&tiny_spec(1), Vec::new()).unwrap();
        assert!(report.results.is_empty());
        assert!(report.rows.is_empty());
        assert_eq!(session.cached_netlists(), 0);
        assert_eq!(session.cached_keyed(), 0);
    }

    #[test]
    fn a_panicking_batch_leaves_the_session_usable() {
        // One panicking task must not poison session state: its panic is
        // re-raised once the batch drains, and a campaign on the same
        // session then reports what a fresh session reports.
        let session = EvalSession::new(2);
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = vec![
            Box::new(|| 1),
            Box::new(|| panic!("injected task panic")),
            Box::new(|| 3),
        ];
        let caught =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| session.run_tasks(tasks)));
        let payload = caught.expect_err("the task panic must be re-raised");
        let message = payload.downcast_ref::<String>().expect("a formatted panic");
        assert!(message.contains("injected task panic"), "{message}");

        let spec = tiny_spec(2);
        let after_panic = session.run(&spec).unwrap().deterministic_json();
        let fresh = EvalSession::new(2).run(&spec).unwrap().deterministic_json();
        assert_eq!(after_panic, fresh);
    }

    #[test]
    fn aag_benchmarks_materialize_through_the_aiger_frontend() {
        // A half adder in AIGER ASCII: sum and carry over two inputs.
        let dir = std::env::temp_dir().join("gshe_campaign_aag_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("half_adder.aag");
        std::fs::write(
            &path,
            "aag 7 2 0 2 3\n2\n4\n6\n12\n6 13 15\n12 2 4\n14 3 5\n",
        )
        .unwrap();
        let name = path.to_string_lossy().into_owned();

        let session = EvalSession::new(1);
        let nl = session.netlist(&name, 20, 1).unwrap();
        assert_eq!(nl.inputs().len(), 2);
        assert_eq!(nl.outputs().len(), 2);

        // And through a full campaign: the `.aag` path is an ordinary
        // benchmark name.
        let mut spec = tiny_spec(1);
        spec.benchmarks = vec![name.clone()];
        spec.schemes = vec![CamoScheme::InvBuf];
        let report = session.run(&spec).unwrap();
        assert_eq!(report.results.len(), 1);

        assert!(session.netlist("missing_file.aag", 20, 1).is_err());
    }
}
