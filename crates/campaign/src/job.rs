//! Campaign jobs: one protect→attack→measure experiment per job, one
//! attack cell.
//!
//! A job is a plain `Send` value describing *what* to run; *where* and
//! *when* it runs is the pool's business. Every random choice a job makes
//! comes from seeds **stored in the job spec** — gate selection, transform
//! and oracle seeds — never from thread ids or submission order, so a
//! campaign's results are a pure function of its spec at any thread count.
//! The default expansion ([`crate::CampaignSpec::expand`]) derives those
//! seeds from the campaign master seed plus the job's identity; the
//! paper-table harnesses instead install the exact historical derivations
//! (e.g. Table IV shares one gate selection per benchmark × level across
//! all schemes — the paper's fairness protocol).

use crate::cache::OracleCache;
use crate::lock_memo;
use gshe_attacks::{
    verify_key_scoped, AttackConfig, AttackKind, AttackOutcome, AttackRunner, AttackStatus,
    CoiMode, KeyVerification, OracleStack, SimplifyMode,
};
use gshe_camo::{camouflage, select_gates, CamoError, CamoScheme, KeyedNetlist};
use gshe_device::SwitchParams;
use gshe_logic::{ErrorProfile, Netlist, NodeId, Topology};
use gshe_sat::SolverStats;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// SplitMix64 finalizer: the one-way mixer used for seed derivation.
pub fn hash_mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Stable 64-bit hash of a string (FNV-1a folded through SplitMix64).
pub fn hash_str(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    hash_mix(h)
}

/// The campaign grid's gate-selection seed for one (campaign seed,
/// benchmark, level) cell — shared across schemes and attacks (the
/// paper's fairness protocol). The profile search derives its instance
/// through this same function, so a search and a campaign at the same
/// seed defend/attack exactly the same keyed netlist.
pub fn select_seed(seed: u64, benchmark: &str, level: f64) -> u64 {
    hash_mix(seed ^ hash_str(benchmark) ^ (level * 1e4) as u64)
}

/// The camouflage-transform seed for a scheme, derived from
/// [`select_seed`]'s value.
pub fn transform_seed(select: u64, scheme: CamoScheme) -> u64 {
    hash_mix(select ^ hash_str(crate::spec::scheme_name(scheme)))
}

/// The oracle seed of one attack cell: the scheme's transform seed, the
/// attack, the cell's dimension salts composed by XOR, and the trial.
/// Campaign cells ([`crate::CampaignSpec::expand`]) and profile-search
/// trials both derive their seeds here.
pub(crate) fn oracle_seed(transform: u64, attack: AttackKind, salt: u64, trial: u64) -> u64 {
    hash_mix(transform ^ hash_str(attack.name()) ^ salt ^ trial)
}

/// Seed salt folded into the oracle seed for the rotation-period
/// dimension: zero for the historical static oracle (period 0), so specs
/// that don't sweep periods derive exactly the seeds they always did; a
/// period-distinct mix otherwise. Salts for independent dimensions
/// compose by XOR (`rotation_salt ^ profile.seed_salt() ^ clock_salt`),
/// so every combination draws a distinct stream while any dimension at
/// its historical default contributes nothing.
pub fn rotation_salt(period: u64) -> u64 {
    if period == 0 {
        0
    } else {
        hash_mix(period ^ 0xD07A_7E5A_17ED)
    }
}

/// Seed salt folded into the oracle seed for the physical clock-period
/// dimension: zero for abstract-rate cells (`clock_ns == 0`, the
/// historical derivation), a period-distinct mix otherwise — two
/// operating points that happen to derive near-identical rates still
/// draw distinct noise streams.
pub fn clock_salt(clock_ns: f64) -> u64 {
    if clock_ns == 0.0 {
        0
    } else {
        hash_mix(clock_ns.to_bits() ^ 0xC10C_55A1)
    }
}

/// The *shape* of an oracle error profile: how a single error-rate number
/// spreads over the cloaked cells of a keyed netlist. Campaigns sweep
/// shapes the same way they sweep rates, so heterogeneous noise placements
/// (the paper's "tuned individually" knob) become one more grid dimension.
///
/// Shapes are materialized per job by [`noise_profile`]; profile identity
/// is folded into job seeds and report rows ([`NoiseShape::Uniform`] is
/// the historical default and folds to a no-op, keeping pre-existing
/// campaign outputs byte-identical).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NoiseShape {
    /// Every cloaked cell flips at the cell error rate.
    Uniform,
    /// Only cloaked cells inside the fanin cone of the logically deepest
    /// primary output are noisy — noise concentrated where one output
    /// cone superposes it. If that cone contains *no* cloaked cell the
    /// shape falls back to [`NoiseShape::Uniform`] rather than silently
    /// running a noise-free "stochastic" job.
    OutputCone,
    /// Each cloaked cell's rate scales with its logic depth
    /// (`rate × level / depth`): cells near the outputs flip more, where
    /// logical masking is weakest.
    DepthGradient,
}

impl NoiseShape {
    /// All shapes, uniform first.
    pub const ALL: [NoiseShape; 3] = [
        NoiseShape::Uniform,
        NoiseShape::OutputCone,
        NoiseShape::DepthGradient,
    ];

    /// Short machine-friendly name (spec files, CSV, report rows).
    pub fn name(self) -> &'static str {
        match self {
            NoiseShape::Uniform => "uniform",
            NoiseShape::OutputCone => "output-cone",
            NoiseShape::DepthGradient => "depth-gradient",
        }
    }

    /// Parses [`NoiseShape::name`] back into a shape.
    pub fn parse(name: &str) -> Option<NoiseShape> {
        NoiseShape::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Seed salt folded into the oracle seed: zero for the historical
    /// uniform shape (seed derivation unchanged), the name hash otherwise.
    pub fn seed_salt(self) -> u64 {
        match self {
            NoiseShape::Uniform => 0,
            other => hash_str(other.name()),
        }
    }
}

impl std::fmt::Display for NoiseShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Materializes a [`NoiseShape`] over a keyed netlist into the dense
/// [`ErrorProfile`] its stochastic oracle runs with.
pub fn noise_profile(keyed: &KeyedNetlist, shape: NoiseShape, rate: f64) -> ErrorProfile {
    let nl = keyed.netlist();
    let cloaked: Vec<NodeId> = keyed.camo_gates().iter().map(|g| g.node).collect();
    match shape {
        NoiseShape::Uniform => ErrorProfile::uniform_at(nl.len(), &cloaked, rate),
        NoiseShape::OutputCone => {
            let levels = nl.levels();
            let deepest = nl
                .outputs()
                .iter()
                .copied()
                .max_by_key(|o| levels[o.index()]);
            let mut rates = vec![0.0; nl.len()];
            if let Some(root) = deepest {
                let mut in_cone = vec![false; nl.len()];
                for id in nl.fanin_cone(root) {
                    in_cone[id.index()] = true;
                }
                for node in cloaked.iter().filter(|n| in_cone[n.index()]) {
                    rates[node.index()] = rate;
                }
            }
            if rate > 0.0 && rates.iter().all(|&r| r == 0.0) {
                // No cloaked cell in the cone: a quiet profile would
                // report a deterministic chip as a "defeated" stochastic
                // defense. Fall back to the uniform placement instead.
                return noise_profile(keyed, NoiseShape::Uniform, rate);
            }
            ErrorProfile::from_rates(rates)
        }
        NoiseShape::DepthGradient => {
            let levels = nl.levels();
            let depth = nl.depth().max(1) as f64;
            let mut rates = vec![0.0; nl.len()];
            for node in &cloaked {
                // Dangling gates can sit deeper than every primary output,
                // so level/depth may exceed 1 — `rate` stays the ceiling.
                rates[node.index()] = (rate * levels[node.index()] as f64 / depth).min(rate);
            }
            ErrorProfile::from_rates(rates)
        }
    }
}

/// The seeds an attack job draws from, fixed at expansion time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttackSeeds {
    /// Seed for the protected-gate selection.
    pub select: u64,
    /// Seed for the camouflaging transform's candidate shuffling.
    pub transform: u64,
    /// Seed for the stochastic oracle (and AppSAT's random queries).
    pub oracle: u64,
}

/// What a single job computes: always an attack cell.
///
/// `#[non_exhaustive]` only so that perfbench's frozen replay, which
/// matches `JobKind::Attack` refutably (a fallback arm, a `let … else`, an
/// `if let`), builds without warnings on a one-variant enum; ROADMAP item
/// 1's benchmark change deletes the attribute.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum JobKind {
    /// Camouflage a benchmark, attack it through an oracle, verify the
    /// recovered key.
    Attack {
        /// Benchmark name (resolvable via `gshe_logic::suites::spec`, or
        /// a `.aag` file path loaded through the AIGER frontend).
        benchmark: String,
        /// Topology profile the benchmark was generated with (file-backed
        /// benchmarks carry [`Topology::Uniform`] — the field is identity
        /// metadata for reports and the materialization memo).
        topology: Topology,
        /// Camouflaging scheme under attack.
        scheme: CamoScheme,
        /// Fraction of gates protected.
        level: f64,
        /// Attack algorithm.
        attack: AttackKind,
        /// Per-cell oracle error rate (0.0 = perfect deterministic chip).
        error_rate: f64,
        /// Physical clock period, ns, the error rate was derived from via
        /// the device Monte Carlo (`0.0` = abstract spec-level rate — the
        /// historical cells).
        clock_ns: f64,
        /// How the error rate spreads over the cloaked cells.
        profile: NoiseShape,
        /// Dynamic-camouflaging rotation period: `0` = no rotation layer,
        /// `n` = the chip draws a fresh random key every `n` queries.
        rotation_period: u64,
        /// Trial index (campaigns repeat stochastic cells).
        trial: u64,
        /// The job's RNG seeds.
        seeds: AttackSeeds,
    },
}

/// One schedulable unit of campaign work.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// What to compute.
    pub kind: JobKind,
    /// Wall-clock budget for the job's attack phase.
    pub timeout: Duration,
}

/// How a job ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// The job's attack ran to completion.
    Completed,
    /// The attack hit its wall-clock budget; partial metrics recorded.
    TimedOut,
    /// The attack outgrew its variable budget
    /// ([`AttackStatus::ResourceExhausted`]).
    Exhausted,
    /// The attack's constraints became contradictory (stochastic oracle).
    Inconsistent,
    /// The job could not even be set up (unknown benchmark, transform
    /// error); the message explains.
    Failed,
}

impl JobStatus {
    /// Short machine-friendly name for serialization.
    pub fn name(self) -> &'static str {
        match self {
            JobStatus::Completed => "completed",
            JobStatus::TimedOut => "timed-out",
            JobStatus::Exhausted => "exhausted",
            JobStatus::Inconsistent => "inconsistent",
            JobStatus::Failed => "failed",
        }
    }
}

/// The measured outcome of one job. Everything except `elapsed` is a
/// deterministic function of the job spec.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// The spec this result answers.
    pub spec: JobSpec,
    /// Terminal status.
    pub status: JobStatus,
    /// The attack recovered a functionally-correct key.
    pub key_recovered: bool,
    /// Oracle queries issued by the attack.
    pub queries: u64,
    /// DIP iterations performed by the attack.
    pub iterations: u64,
    /// Sampled output error rate of the recovered key's netlist vs. the
    /// original (0.0 when exactly equivalent; NaN when no key).
    pub output_error_rate: f64,
    /// Wall-clock runtime of the job (excluded from deterministic
    /// serializations).
    pub elapsed: Duration,
    /// Cumulative CDCL solver statistics (decisions, propagations,
    /// conflicts, …) of the attack's solver; zeroed when the job failed
    /// before its attack ran.
    /// Reported only on the timing side of serializations — the counts
    /// are deterministic per job, but they are diagnostics, and keeping
    /// them out of the pinned deterministic JSON leaves the solver free
    /// to evolve without golden-file churn.
    pub solver_stats: SolverStats,
    /// Failure detail for [`JobStatus::Failed`].
    pub error: Option<String>,
}

/// Identity of one scheme materialization: the source netlist (held by
/// `Arc`, compared by allocation identity — retaining the `Arc` pins the
/// address, so a dropped-and-reallocated netlist can never alias a memo
/// entry), protection level, scheme, and the two seeds that fully
/// determine gate selection and transform shuffling.
struct KeyedKey {
    netlist: Arc<Netlist>,
    level_bits: u64,
    scheme: CamoScheme,
    select: u64,
    transform: u64,
}

impl KeyedKey {
    fn matches(
        &self,
        nl: &Arc<Netlist>,
        level: f64,
        scheme: CamoScheme,
        seeds: &AttackSeeds,
    ) -> bool {
        Arc::ptr_eq(&self.netlist, nl)
            && self.level_bits == level.to_bits()
            && self.scheme == scheme
            && self.select == seeds.select
            && self.transform == seeds.transform
    }
}

/// Memoized scheme materializations (`select_gates` + `camouflage`),
/// shared by every job of an [`crate::EvalSession`]. Camouflaging a
/// benchmark is deterministic in its seeds, so trials of one cell — and
/// every search candidate scored against one keyed netlist — can share a
/// single materialization instead of re-transforming per job. A draw that
/// changes no node holds its design's own `Arc` (see
/// [`KeyedNetlist::shares_netlist`]), so the memo adds an arena only for
/// draws that insert or rewrite nodes.
#[derive(Default)]
pub struct KeyedMemo {
    entries: Mutex<Vec<(KeyedKey, Arc<KeyedNetlist>)>>,
}

impl std::fmt::Debug for KeyedMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyedMemo")
            .field("len", &self.len())
            .finish()
    }
}

impl KeyedMemo {
    /// Returns the keyed netlist for `(nl, level, scheme, seeds)`,
    /// materializing and memoizing it on first use. Materialization runs
    /// outside the memo lock (concurrent duplicate work is harmless —
    /// first insert wins); errors are never memoized.
    pub fn get_or_materialize(
        &self,
        nl: &Arc<Netlist>,
        level: f64,
        scheme: CamoScheme,
        seeds: &AttackSeeds,
    ) -> Result<Arc<KeyedNetlist>, String> {
        if let Some((_, keyed)) = lock_memo(&self.entries)
            .iter()
            .find(|(k, _)| k.matches(nl, level, scheme, seeds))
        {
            return Ok(Arc::clone(keyed));
        }
        let picks = select_gates(nl, level, seeds.select);
        let mut rng = StdRng::seed_from_u64(seeds.transform);
        let keyed = camouflage(nl, &picks, scheme, &mut rng)
            .map_err(|e| format!("camouflage failed: {e}"))?;
        let keyed = Arc::new(keyed);
        let mut entries = lock_memo(&self.entries);
        if let Some((_, existing)) = entries
            .iter()
            .find(|(k, _)| k.matches(nl, level, scheme, seeds))
        {
            return Ok(Arc::clone(existing));
        }
        entries.push((
            KeyedKey {
                netlist: Arc::clone(nl),
                level_bits: level.to_bits(),
                scheme,
                select: seeds.select,
                transform: seeds.transform,
            },
            Arc::clone(&keyed),
        ));
        Ok(keyed)
    }

    /// Materializations currently memoized.
    pub fn len(&self) -> usize {
        lock_memo(&self.entries).len()
    }

    /// Total [`gshe_logic::Netlist::arena_bytes`] of the keyed netlists
    /// currently memoized beyond their designs — the memo's dominant
    /// memory cost. A draw that shares its design's arena adds nothing:
    /// the design is counted once, by whoever holds it (the session's
    /// benchmark memo).
    pub fn arena_bytes(&self) -> usize {
        lock_memo(&self.entries)
            .iter()
            .filter(|(k, keyed)| !keyed.shares_netlist(&k.netlist))
            .map(|(_, keyed)| keyed.netlist().arena_bytes())
            .sum()
    }

    /// `true` when nothing has been materialized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Immutable context shared by every job in a campaign run.
pub struct JobContext {
    /// Pre-built original netlists, keyed by benchmark name, in the order
    /// the run's jobs first name them.
    pub netlists: Vec<(String, Arc<Netlist>)>,
    /// Unread: jobs query their [`OracleStack`] directly. Kept only
    /// because perfbench's frozen replay builds a context with it; ROADMAP
    /// item 1's benchmark change deletes it.
    pub cache: Arc<OracleCache>,
    /// Unread: no job measures the device. Kept only because perfbench's
    /// frozen replay builds a context with it; ROADMAP item 1's benchmark
    /// change deletes it.
    pub params: SwitchParams,
    /// Session-wide memo of scheme materializations.
    pub keyed: Arc<KeyedMemo>,
    /// Cone-of-influence policy shared by every attack job — the same
    /// mode gates the attack engine's COI projection (and with it the
    /// exact chip's cone answer) and cone-scoped key verification, so
    /// they can never disagree about whether a design's oracle answers
    /// are a function of its cone inputs alone.
    pub coi_mode: CoiMode,
    /// SAT simplification policy shared by every attack job's
    /// incremental solver (preprocessing at the first solve).
    pub sat_simplify: SimplifyMode,
}

impl JobContext {
    fn netlist(&self, name: &str) -> Option<&Arc<Netlist>> {
        self.netlists
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, nl)| nl)
    }
}

/// Executes one job to completion (respecting its budget) and returns the
/// result. Never panics on attack-level failure; structural problems are
/// reported as [`JobStatus::Failed`].
pub fn run_job(spec: &JobSpec, ctx: &JobContext) -> JobResult {
    let start = Instant::now();
    let mut result = JobResult {
        spec: spec.clone(),
        status: JobStatus::Failed,
        key_recovered: false,
        queries: 0,
        iterations: 0,
        output_error_rate: f64::NAN,
        elapsed: Duration::ZERO,
        solver_stats: SolverStats::default(),
        error: None,
    };
    let JobKind::Attack {
        benchmark,
        topology: _,
        scheme,
        level,
        attack,
        error_rate,
        clock_ns: _,
        profile,
        rotation_period,
        trial: _,
        seeds,
    } = &spec.kind;
    let Some(nl) = ctx.netlist(benchmark) else {
        result.error = Some(format!("unknown benchmark `{benchmark}`"));
        result.elapsed = start.elapsed();
        return result;
    };
    let _job_span = gshe_obs::span("job.attack");
    let keyed = {
        let _span = gshe_obs::span("job.materialize");
        match ctx.keyed.get_or_materialize(nl, *level, *scheme, seeds) {
            Ok(k) => k,
            Err(e) => {
                result.error = Some(e);
                result.elapsed = start.elapsed();
                return result;
            }
        }
    };
    let runner = AttackRunner::with_config(
        *attack,
        AttackConfig {
            timeout: spec.timeout,
            ..Default::default()
        }
        .with_coi_mode(ctx.coi_mode)
        .with_simplify_mode(ctx.sat_simplify),
        seeds.oracle,
    );
    let noise = (*error_rate > 0.0).then(|| noise_profile(&keyed, *profile, *error_rate));
    let (out, verdict) = attack_cell(nl, &keyed, &runner, noise, *rotation_period);
    result.status = match out.status {
        AttackStatus::Success => JobStatus::Completed,
        AttackStatus::Timeout => JobStatus::TimedOut,
        AttackStatus::ResourceExhausted => JobStatus::Exhausted,
        AttackStatus::Inconsistent => JobStatus::Inconsistent,
    };
    result.queries = out.queries;
    result.iterations = out.iterations;
    result.solver_stats = out.solver_stats;
    match verdict {
        Some(Ok(v)) => {
            result.key_recovered = v.functionally_equivalent;
            result.output_error_rate = v.sampled_error_rate;
        }
        Some(Err(e)) => {
            result.status = JobStatus::Failed;
            result.error = Some(format!("verification failed: {e}"));
        }
        None => {}
    }
    result.elapsed = start.elapsed();
    result
}

/// Attacks one cell of a keyed design: builds the chip's oracle stack
/// from the cell's defense dimensions, runs `runner` against it, and
/// proves a recovered key against the original design `nl`. Campaign jobs
/// and profile-search trials both attack through here, so a cell and a
/// trial with the same dimensions face the same oracle and the same proof.
///
/// The stack is the exact chip over `nl` when the cell carries neither a
/// `noise` profile nor a rotation period; otherwise a noisy base and/or a
/// rotation layer over the keyed design (any combination is one
/// bit-parallel stack), every layer seeded by `runner.seed`. Building it,
/// a rotating chip's correct-key resolution included, is timed by the
/// `job.oracle_build` span. Returns the attack's outcome and, when it
/// recovered a key, the proof's verdict.
pub(crate) fn attack_cell(
    nl: &Netlist,
    keyed: &KeyedNetlist,
    runner: &AttackRunner,
    noise: Option<ErrorProfile>,
    rotation_period: u64,
) -> (AttackOutcome, Option<Result<KeyVerification, CamoError>>) {
    let seed = runner.seed;
    let mut oracle = {
        let _span = gshe_obs::span("job.oracle_build");
        match (rotation_period, noise) {
            (0, None) => OracleStack::exact(nl),
            (0, Some(noise)) => OracleStack::noisy(keyed, noise, seed),
            (period, None) => OracleStack::rotating(keyed, period, seed),
            (period, Some(noise)) => OracleStack::rotating_noisy(keyed, noise, period, seed),
        }
    };
    let out = runner.run(keyed, &mut oracle);
    // The proof is scoped to the cloaked cells' affected-output cones when
    // the COI mode engages, and structurally hashed, so the solver sees
    // only the outputs whose logic the recovered key changed.
    let verdict = out.key.as_deref().map(|key| {
        let _span = gshe_obs::span("job.verify");
        verify_key_scoped(nl, keyed, key, runner.config.coi)
    });
    (out, verdict)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attack_kind(trial: u64) -> JobKind {
        JobKind::Attack {
            benchmark: "ex1010".into(),
            topology: Topology::Uniform,
            scheme: CamoScheme::InvBuf,
            level: 0.2,
            attack: AttackKind::Sat,
            error_rate: 0.0,
            clock_ns: 0.0,
            profile: NoiseShape::Uniform,
            rotation_period: 0,
            trial,
            seeds: AttackSeeds {
                select: 1,
                transform: 2,
                oracle: 3,
            },
        }
    }

    fn tiny_keyed() -> KeyedNetlist {
        use gshe_logic::bench_format::{parse_bench, C17_BENCH};
        let nl = Arc::new(parse_bench(C17_BENCH).unwrap());
        let picks = select_gates(&nl, 1.0, 3);
        let mut rng = StdRng::seed_from_u64(0);
        gshe_camo::camouflage(&nl, &picks, CamoScheme::GsheAll16, &mut rng).unwrap()
    }

    #[test]
    fn shape_names_round_trip_and_uniform_salt_is_zero() {
        for shape in NoiseShape::ALL {
            assert_eq!(NoiseShape::parse(shape.name()), Some(shape));
        }
        assert_eq!(NoiseShape::parse("nope"), None);
        assert_eq!(NoiseShape::Uniform.seed_salt(), 0);
        assert_ne!(
            NoiseShape::OutputCone.seed_salt(),
            NoiseShape::DepthGradient.seed_salt()
        );
    }

    #[test]
    fn noise_profiles_materialize_per_shape() {
        let keyed = tiny_keyed();
        let nl = keyed.netlist();
        let cloaked: Vec<_> = keyed.camo_gates().iter().map(|g| g.node).collect();

        let uniform = noise_profile(&keyed, NoiseShape::Uniform, 0.1);
        assert_eq!(uniform.noisy_count(), cloaked.len());
        assert!(cloaked.iter().all(|&n| uniform.rate(n) == 0.1));

        let cone = noise_profile(&keyed, NoiseShape::OutputCone, 0.1);
        assert!(cone.noisy_count() <= uniform.noisy_count());
        assert!(cone.noisy_count() > 0, "c17 cones contain cloaked cells");
        for node in cone.noisy_nodes() {
            assert!(cloaked.contains(&node));
            assert_eq!(cone.rate(node), 0.1);
        }

        let gradient = noise_profile(&keyed, NoiseShape::DepthGradient, 0.1);
        let levels = nl.levels();
        let depth = nl.depth() as f64;
        for &node in &cloaked {
            let expected = 0.1 * levels[node.index()] as f64 / depth;
            assert!((gradient.rate(node) - expected).abs() < 1e-12);
        }
        // The three shapes have distinct identities at the same rate.
        assert_ne!(uniform.fingerprint(), cone.fingerprint());
        assert_ne!(uniform.fingerprint(), gradient.fingerprint());
    }

    #[test]
    fn output_cone_falls_back_to_uniform_when_cone_is_quiet() {
        // The cloaked cell feeds only the *shallow* output; the deepest
        // output's cone contains no cloaked cell. A quiet profile would
        // masquerade as a stochastic defense, so the shape must fall back
        // to uniform placement.
        use gshe_camo::{CamoGate, Candidates};
        use gshe_logic::{Bf1, Bf2, NetlistBuilder};
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let c = b.input("b");
        let g = b.gate2("g", Bf2::AND, a, c); // cloaked, shallow cone
        let d1 = b.gate2("d1", Bf2::OR, a, c);
        let d2 = b.gate1("d2", Bf1::Inv, d1);
        let d3 = b.gate1("d3", Bf1::Inv, d2); // deepest output's cone
        b.output(g);
        b.output(d3);
        let nl = b.finish().unwrap();
        let gate = CamoGate {
            node: g,
            candidates: Candidates::TwoInput(Bf2::ALL.to_vec()),
            key_offset: 0,
            correct_index: Bf2::AND.truth_table() as usize,
        };
        let keyed = KeyedNetlist::new(nl, vec![gate], 4);

        let cone = noise_profile(&keyed, NoiseShape::OutputCone, 0.25);
        assert_eq!(
            cone,
            noise_profile(&keyed, NoiseShape::Uniform, 0.25),
            "quiet cone must fall back to uniform"
        );
        assert_eq!(cone.noisy_nodes().collect::<Vec<_>>(), vec![g]);
    }

    #[test]
    fn in_place_draws_share_their_design_and_cost_the_memo_nothing() {
        use gshe_logic::{GeneratorConfig, NetlistGenerator};
        let design = Arc::new(
            NetlistGenerator::new(GeneratorConfig::new("g", 12, 6, 300).with_seed(5))
                .unwrap()
                .generate(),
        );
        let memo = KeyedMemo::default();
        let seeds = |select| AttackSeeds {
            select,
            transform: 2,
            oracle: 3,
        };
        for select in 0..16 {
            let keyed = memo
                .get_or_materialize(&design, 0.1, CamoScheme::GsheAll16, &seeds(select))
                .unwrap();
            assert!(keyed.shares_netlist(&design), "draw {select}");
        }
        assert_eq!(memo.len(), 16);
        assert_eq!(memo.arena_bytes(), 0);
        // The test's own handle, then each entry's key and its draw: no
        // copy of the design hides anywhere.
        assert_eq!(Arc::strong_count(&design), 1 + 2 * 16);

        let invbuf = memo
            .get_or_materialize(&design, 0.1, CamoScheme::InvBuf, &seeds(0))
            .unwrap();
        assert!(!invbuf.shares_netlist(&design));
        assert_eq!(memo.arena_bytes(), invbuf.netlist().arena_bytes());
    }

    #[test]
    fn a_panic_under_the_memo_lock_does_not_poison_the_memo() {
        use gshe_logic::bench_format::{parse_bench, C17_BENCH};
        let design = Arc::new(parse_bench(C17_BENCH).unwrap());
        let memo = KeyedMemo::default();
        let seeds = |select| AttackSeeds {
            select,
            transform: 2,
            oracle: 3,
        };
        let resident = memo
            .get_or_materialize(&design, 0.5, CamoScheme::InvBuf, &seeds(0))
            .unwrap();
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = memo.entries.lock();
                panic!("a job panics while it holds the memo lock");
            })
            .join()
        });
        assert!(panicked.is_err());
        assert!(memo.entries.is_poisoned());

        let again = memo
            .get_or_materialize(&design, 0.5, CamoScheme::InvBuf, &seeds(0))
            .unwrap();
        assert!(Arc::ptr_eq(&again, &resident), "the resident entry");
        memo.get_or_materialize(&design, 0.5, CamoScheme::InvBuf, &seeds(1))
            .unwrap();
        assert_eq!(memo.len(), 2, "a new draw is built and memoized");
        assert!(memo.arena_bytes() > 0);
    }

    #[test]
    fn hashes_are_stable_and_spread() {
        assert_eq!(hash_str("c7552"), hash_str("c7552"));
        assert_ne!(hash_str("c7552"), hash_str("c7553"));
        assert_ne!(hash_mix(0), hash_mix(1));
    }

    #[test]
    fn unknown_benchmark_fails_cleanly() {
        let spec = JobSpec {
            kind: attack_kind(0),
            timeout: Duration::from_secs(1),
        };
        let ctx = JobContext {
            netlists: Vec::new(),
            cache: OracleCache::shared(),
            params: SwitchParams::table_i(),
            keyed: Arc::new(KeyedMemo::default()),
            coi_mode: CoiMode::On,
            sat_simplify: SimplifyMode::Off,
        };
        let out = run_job(&spec, &ctx);
        assert_eq!(out.status, JobStatus::Failed);
        assert!(out
            .error
            .as_deref()
            .unwrap_or("")
            .contains("unknown benchmark"));
    }
}
