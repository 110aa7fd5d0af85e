//! Attack-campaign benchmark: batches of protect → attack → verify cells
//! submitted to one `EvalSession`, timed end to end, plus a traced replay
//! that times every layer of a cell from materialization to verification.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --out-dir <dir>
//! ```
//!
//! `--trace 0` sets the workload up several times (reporting the median
//! set-up time), then runs its cell batch on a fresh session, round after
//! round, until `--seconds` have passed (at least one round), and reports
//! the end-to-end metrics. `--trace 1` runs one untraced round and then
//! replays the same cells through each layer's public entry point with
//! in-memory spans, and reports the per-layer metrics. The last line of
//! standard output is one JSON object; `perfbench/run.py` builds this
//! binary, runs it and turns that line into the benchmark's result.

use gshe_attacks::{
    assert_valid_key_codes, cone_inputs, encode_keyed, verify_key_scoped, AttackConfig,
    AttackOutcome, AttackRunner, AttackStatus, CoiProjection, Oracle, OracleStack, SimplifyMode,
};
use gshe_camo::{camouflage, select_gates, CamoScheme, KeyedNetlist};
use gshe_campaign::job::hash_mix;
use gshe_campaign::{
    noise_profile, pool_summary, run_job, select_seed, transform_seed, AttackSeeds, CachedOracle,
    CampaignSpec, ClockRateTable, EvalSession, JobContext, JobKind, JobResult, JobSpec, JobStatus,
    KeyedMemo, OracleCache, WorkerPool,
};
use gshe_device::SwitchParams;
use gshe_logic::{suites, FanoutCsr, Netlist, NodeId, PatternBlock, Simulator};
use gshe_sat::{CircuitEncoder, Lit, Polarity, Solver, SolverStats};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashSet;
use std::fmt::Write as _;
use std::hint::black_box;
use std::ops::RangeInclusive;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Random 64-pattern blocks the independent output check simulates per
/// recovered key.
const CHECK_BLOCKS: usize = 16;

/// Set-up repeats: at least `SETUP_MIN_REPS`, then more while the set-ups
/// so far took less than `SETUP_BUDGET_S` in total, up to `SETUP_MAX_REPS`.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 51;
const SETUP_BUDGET_S: f64 = 1.5;

/// Generator seed of every workload's circuit (see [`Workload::spec_toml`]).
const CIRCUIT_SEED: u64 = 1;

/// `superblue-cone` draws keep affected cones of this many nodes.
const CONE_BAND: RangeInclusive<usize> = 100..=450;

/// Re-draws per draw before a cone band is reported unreachable.
const MAX_DRAW_ATTEMPTS: u64 = 2_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    IscasExact,
    SuperblueCone,
    StochasticSweep,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::IscasExact,
        Workload::SuperblueCone,
        Workload::StochasticSweep,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::IscasExact => "iscas-exact",
            Workload::SuperblueCone => "superblue-cone",
            Workload::StochasticSweep => "stochastic-sweep",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Accepted sizes, in nodes, of a draw's affected cone (the instance
    /// a cone-projected attack and verify solve); draws outside it are
    /// re-drawn. Few gates of a large design have a cone this small, and
    /// the cost of one differs from the next by a factor of three, so a
    /// screened workload keeps one fixed set of draws, screened from
    /// `CIRCUIT_SEED`, and its seed only orders the cells.
    fn cone_band(self) -> Option<RangeInclusive<usize>> {
        match self {
            Workload::SuperblueCone => Some(CONE_BAND),
            _ => None,
        }
    }

    /// The workload's grid as a campaign spec file. The circuit is
    /// generated from the fixed `CIRCUIT_SEED`, like a benchmark file
    /// that never changes; the workload seed enters through
    /// [`workload_jobs`], which re-draws the camouflaged gates and the
    /// oracle streams. Generated circuits have a tail of SAT-hard
    /// instances (a cell of some circuit seeds runs past any budget that
    /// fits a run), so letting the seed pick the circuit would make
    /// failures depend on the seed.
    fn spec_toml(self) -> String {
        let grid = match self {
            // Sixteen camouflage draws at 5 % on s38584 / 20
            // with an exact oracle behind the campaign cache: the solver
            // with its simplification, the two-copy encode and the
            // full-interface verify do the work. Simplification is forced
            // on because the default threshold engages only on larger
            // miters, and the larger sizes where it does (s38584 / 8 to
            // / 16) have draws that run past any budget a run can afford.
            Workload::IscasExact => {
                r#"
benchmarks = ["s38584"]
scale = 20
levels = [0.05]
attacks = ["sat"]
sat_simplify = "on"
error_rates = [0.0]
trials = 16
timeout_secs = 30
"#
            }
            // sb18 / 2 (330k nodes) with tile-local wiring and one
            // cloaked cell per draw, screened to a small affected cone
            // (`CONE_BAND`): the cone-of-influence projection, the
            // cone-keyed cache and cone-scoped verification engage, the
            // oracle evaluates the full design, and the design-size work
            // dominates a cell. Unscreened single-cell draws range from a
            // few hundred nodes to cones whose cell runs for minutes, and
            // the unscaled design leaves too few draws per run to average
            // the rest out.
            Workload::SuperblueCone => {
                r#"
benchmarks = ["sb18"]
scale = 2
topology = "local"
levels = [0.000003]
attacks = ["sat"]
error_rates = [0.0]
trials = 16
timeout_secs = 30
"#
            }
            // Only noisy or rotating oracles, at per-cell error rates of
            // 5 % and more (the clock periods map to 13-77 %): cells end
            // inconsistent within milliseconds, so many short solves,
            // per-job set-up and dispatch carry the time, and the oracle
            // stack cannot be cached. Lower rates (1-2 %, or a 6 ns clock
            // at 0.4 %), above all under the profiles that leave most
            // cells quiet, let a cell run a full attack whenever the noise
            // happens to miss it, which makes a run's time a coin toss
            // over those cells.
            Workload::StochasticSweep => {
                r#"
benchmarks = ["s38584"]
scale = 40
levels = [0.05]
attacks = ["sat", "appsat", "double-dip"]
error_rates = [0.05, 0.1]
clock_periods_ns = [0.8, 1.5, 2, 3]
profiles = ["uniform", "output-cone", "depth-gradient"]
rotation_periods = [0, 16]
trials = 3
timeout_secs = 30
"#
            }
        };
        format!(
            "[campaign]\nname = \"{}\"\nschemes = [\"gshe16\"]\nthreads = 2\nseed = {CIRCUIT_SEED}\n{grid}",
            self.name()
        )
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "bad --seconds")?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out_dir: out_dir.ok_or("--out-dir is required")?,
    })
}

/// The attack-cell fields the harness reads from an expanded job.
struct Cell<'a> {
    level: f64,
    scheme: CamoScheme,
    seeds: &'a AttackSeeds,
    error_rate: f64,
    rotation_period: u64,
}

impl Cell<'_> {
    /// A perfect, static chip: the cell must recover a correct key.
    fn is_exact(&self) -> bool {
        self.error_rate == 0.0 && self.rotation_period == 0
    }
}

fn cell_of(job: &JobSpec) -> Cell<'_> {
    match &job.kind {
        JobKind::Attack {
            level,
            scheme,
            seeds,
            error_rate,
            rotation_period,
            ..
        } => Cell {
            level: *level,
            scheme: *scheme,
            seeds,
            error_rate: *error_rate,
            rotation_period: *rotation_period,
        },
        other => panic!("workloads expand to attack cells only, got {other:?}"),
    }
}

/// One camouflage draw: the jobs sharing it share a keyed netlist.
#[derive(Clone, Copy)]
struct Draw {
    level: f64,
    scheme: CamoScheme,
    seeds: AttackSeeds,
}

impl Draw {
    fn matches(&self, cell: &Cell<'_>) -> bool {
        self.level.to_bits() == cell.level.to_bits()
            && self.scheme == cell.scheme
            && self.seeds.select == cell.seeds.select
            && self.seeds.transform == cell.seeds.transform
    }
}

/// Nodes in the fanin cone of the outputs `picks` can reach, or `None`
/// once the count passes `cap`. Walks only the affected region, so a
/// small cone costs little on a large design.
fn affected_cone_nodes(
    nl: &Netlist,
    fanouts: &FanoutCsr,
    picks: &[NodeId],
    cap: usize,
) -> Option<usize> {
    let is_output: HashSet<NodeId> = nl.outputs().iter().copied().collect();
    let mut tainted: HashSet<NodeId> = picks.iter().copied().collect();
    let mut stack: Vec<NodeId> = picks.to_vec();
    let mut affected = Vec::new();
    while let Some(id) = stack.pop() {
        if is_output.contains(&id) {
            affected.push(id);
        }
        for &next in fanouts.fanouts(id) {
            if tainted.insert(next) {
                if tainted.len() > cap {
                    return None;
                }
                stack.push(next);
            }
        }
    }
    let mut cone: HashSet<NodeId> = affected.iter().copied().collect();
    while let Some(id) = affected.pop() {
        for f in nl.fanins(id) {
            if cone.insert(f) {
                if cone.len() > cap {
                    return None;
                }
                affected.push(f);
            }
        }
    }
    Some(cone.len())
}

/// The gate-selection seed of cell `index`'s draw, derived from the
/// workload seed and, under a cone band, re-drawn until the draw's cone
/// fits it.
fn draw_select(
    nl: &Netlist,
    bench: &str,
    level: f64,
    seed: u64,
    index: usize,
    band: Option<(&RangeInclusive<usize>, &FanoutCsr)>,
) -> Result<u64, String> {
    let base = hash_mix(select_seed(seed, bench, level) ^ hash_mix(index as u64));
    let Some((band, fanouts)) = band else {
        return Ok(base);
    };
    (0..MAX_DRAW_ATTEMPTS)
        .map(|attempt| hash_mix(base ^ attempt))
        .find(|&select| {
            let picks = select_gates(nl, level, select);
            affected_cone_nodes(nl, fanouts, &picks, *band.end()).is_some_and(|n| band.contains(&n))
        })
        .ok_or_else(|| format!("no draw at level {level} has a cone in {band:?}"))
}

/// The workload's cells: the spec's grid, with every cell's camouflage
/// draw and oracle stream derived from the workload `seed` (a screened
/// workload's draws excepted, see [`Workload::cone_band`]). Every cell
/// gets a draw of its own, so a run's time averages over as many draws as
/// it has cells instead of resting on a few SAT instances. This is input
/// generation, so it runs once per process, outside the timed set-up.
fn workload_jobs(
    workload: Workload,
    spec: &CampaignSpec,
    seed: u64,
) -> Result<Vec<JobSpec>, String> {
    let mut jobs = spec.expand()?;
    let band = workload.cone_band();
    let [bench] = spec.benchmarks.as_slice() else {
        return Err("workloads name exactly one benchmark".into());
    };
    let bench_spec = suites::spec(bench).ok_or_else(|| format!("unknown benchmark `{bench}`"))?;
    let nl = suites::benchmark_scaled_with(bench_spec, spec.scale, spec.seed, spec.topology);
    let fanouts = band.as_ref().map(|_| nl.fanout_csr());
    let screen = band.as_ref().zip(fanouts.as_ref());
    let draw_seed = if screen.is_some() { CIRCUIT_SEED } else { seed };
    let levels: Vec<f64> = jobs.iter().map(|job| cell_of(job).level).collect();
    // Screening re-draws until a cone fits, so spread it over the
    // workload's worker count.
    let workers = spec.threads.max(1);
    let selects: Vec<Result<u64, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (nl, levels) = (&nl, &levels);
                scope.spawn(move || {
                    (w..levels.len())
                        .step_by(workers)
                        .map(|i| (i, draw_select(nl, bench, levels[i], draw_seed, i, screen)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut all: Vec<_> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("draw screening panicked"))
            .collect();
        all.sort_by_key(|(i, _)| *i);
        all.into_iter().map(|(_, select)| select).collect()
    });
    for (job, select) in jobs.iter_mut().zip(selects) {
        if let JobKind::Attack { scheme, seeds, .. } = &mut job.kind {
            let select = select?;
            seeds.select = select;
            seeds.transform = transform_seed(select, *scheme);
            seeds.oracle = hash_mix(seeds.oracle ^ hash_mix(seed));
        }
    }
    if screen.is_some() {
        jobs.shuffle(&mut StdRng::seed_from_u64(seed));
    }
    Ok(jobs)
}

fn draws(jobs: &[JobSpec]) -> Vec<Draw> {
    let mut out: Vec<Draw> = Vec::new();
    for job in jobs {
        let cell = cell_of(job);
        if !out.iter().any(|d| d.matches(&cell)) {
            out.push(Draw {
                level: cell.level,
                scheme: cell.scheme,
                seeds: *cell.seeds,
            });
        }
    }
    out
}

/// A workload's set-up, ready for its cells to be timed.
struct Prepared {
    bench: String,
    netlist: Arc<Netlist>,
    keyed: Arc<KeyedMemo>,
}

/// Set-up as a campaign user pays it, timed: the device rate table for
/// clock-period cells, netlist generation through the session, and one
/// camouflage per draw through the session's pool.
fn prepare(spec: &CampaignSpec, jobs: &[JobSpec]) -> Result<(Prepared, f64), String> {
    let start = Instant::now();
    let session = EvalSession::new(spec.threads);
    let mut rates = ClockRateTable::new();
    for &clock_ns in &spec.clock_periods_ns {
        black_box(rates.rate_for(clock_ns));
    }
    let [bench] = spec.benchmarks.as_slice() else {
        return Err("workloads name exactly one benchmark".into());
    };
    let netlist = session.netlist_with(bench, spec.scale, spec.seed, spec.topology)?;
    let keyed = Arc::new(KeyedMemo::default());
    let tasks: Vec<Box<dyn FnOnce() -> Result<(), String> + Send>> = draws(jobs)
        .into_iter()
        .map(|d| {
            let memo = Arc::clone(&keyed);
            let nl = Arc::clone(&netlist);
            Box::new(move || {
                memo.get_or_materialize(&nl, d.level, d.scheme, &d.seeds)
                    .map(|_| ())
            }) as Box<dyn FnOnce() -> Result<(), String> + Send>
        })
        .collect();
    session
        .run_tasks(tasks)
        .into_iter()
        .collect::<Result<(), String>>()?;
    let setup_s = start.elapsed().as_secs_f64();
    let prepared = Prepared {
        bench: bench.clone(),
        netlist,
        keyed,
    };
    Ok((prepared, setup_s))
}

/// One batch of cells through `run_job` on the session's pool, with a
/// fresh oracle cache so that every round does the same work.
fn run_round(
    session: &EvalSession,
    p: &Prepared,
    jobs: &[JobSpec],
    spec: &CampaignSpec,
) -> (Vec<JobResult>, Duration) {
    let ctx = Arc::new(JobContext {
        netlists: vec![(p.bench.clone(), Arc::clone(&p.netlist))],
        cache: OracleCache::shared(),
        params: SwitchParams::table_i(),
        keyed: Arc::clone(&p.keyed),
        coi_mode: spec.coi_mode,
        sat_simplify: spec.sat_simplify,
    });
    let tasks: Vec<Box<dyn FnOnce() -> JobResult + Send>> = jobs
        .iter()
        .cloned()
        .map(|job| {
            let ctx = Arc::clone(&ctx);
            Box::new(move || run_job(&job, &ctx)) as Box<dyn FnOnce() -> JobResult + Send>
        })
        .collect();
    let start = Instant::now();
    let results = session.run_tasks(tasks);
    (results, start.elapsed())
}

/// Status and key verdict of one cell: what two commits must agree on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Verdict {
    status: JobStatus,
    key: bool,
}

fn digest(verdicts: &[Verdict]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (i, v) in verdicts.iter().enumerate() {
        for b in format!("{i}:{}:{}\n", v.status.name(), v.key).bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// A cell fails when it could not finish, or when an exact cell did not
/// recover a verified key, or when a key reported equivalent still
/// disagrees with the original on sampled patterns. Inconsistent and
/// wrong-key endings of noisy or rotating cells are outcomes, not
/// failures.
fn cell_fails(cell: &Cell<'_>, status: JobStatus, key: bool, error_rate: f64) -> bool {
    let unfinished = matches!(
        status,
        JobStatus::Failed | JobStatus::TimedOut | JobStatus::Exhausted
    );
    let exact_miss = cell.is_exact() && !(status == JobStatus::Completed && key);
    unfinished || exact_miss || (key && error_rate != 0.0)
}

/// Percentile of an unsorted sample, interpolated linearly between the
/// two nearest order statistics.
fn percentile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let h = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (h.floor() as usize, h.ceil() as usize);
    sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
}

fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Peak resident set size of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A metric line of the result: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// What a run reports: the result fields plus details for the results
/// file.
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
    detail: String,
}

fn verdicts_of(results: &[JobResult]) -> Vec<Verdict> {
    results
        .iter()
        .map(|r| Verdict {
            status: r.status,
            key: r.key_recovered,
        })
        .collect()
}

fn failures(jobs: &[JobSpec], results: &[JobResult]) -> usize {
    jobs.iter()
        .zip(results)
        .filter(|(job, r)| {
            cell_fails(
                &cell_of(job),
                r.status,
                r.key_recovered,
                r.output_error_rate,
            )
        })
        .count()
}

fn verdict_json(verdicts: &[Verdict]) -> String {
    let cells: Vec<String> = verdicts
        .iter()
        .map(|v| {
            format!(
                "\"{}/{}\"",
                v.status.name(),
                if v.key { "key" } else { "-" }
            )
        })
        .collect();
    format!(
        "{{\"digest\":\"{:016x}\",\"cells\":[{}]}}",
        digest(verdicts),
        cells.join(",")
    )
}

/// `--trace 0`: repeated set-up, then timed rounds until `seconds` pass.
fn run_untraced(
    workload: Workload,
    spec: &CampaignSpec,
    seed: u64,
    seconds: f64,
) -> Result<Outcome, String> {
    let start = Instant::now();
    let jobs = workload_jobs(workload, spec, seed)?;
    let inputs_s = start.elapsed().as_secs_f64();
    let mut setup_s = Vec::new();
    let mut prepared = None;
    while setup_s.len() < SETUP_MIN_REPS
        || (setup_s.len() < SETUP_MAX_REPS && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(prepared.take());
        let (p, secs) = prepare(spec, &jobs)?;
        prepared = Some(p);
        setup_s.push(secs);
    }
    let p = prepared.expect("at least one set-up ran");
    let setup_rss_mb = peak_rss_mb();
    let memo_mb = (p.netlist.arena_bytes() + p.keyed.arena_bytes()) as f64 / (1u64 << 20) as f64;

    let session = EvalSession::new(spec.threads);
    let start = Instant::now();
    let mut rounds: Vec<(Vec<JobResult>, Duration)> = Vec::new();
    while rounds.is_empty() || start.elapsed().as_secs_f64() < seconds {
        rounds.push(run_round(&session, &p, &jobs, spec));
    }

    let first = verdicts_of(&rounds[0].0);
    let stable = rounds.iter().all(|(r, _)| verdicts_of(r) == first);
    let attempted: usize = rounds.iter().map(|(r, _)| r.len()).sum();
    let failed: usize = rounds.iter().map(|(r, _)| failures(&jobs, r)).sum();
    let finished = rounds
        .iter()
        .flat_map(|(r, _)| r)
        .filter(|r| r.status != JobStatus::Failed)
        .count();
    let timed_s: f64 = rounds.iter().map(|(_, wall)| wall.as_secs_f64()).sum();
    let cell_s: Vec<f64> = rounds
        .iter()
        .flat_map(|(r, _)| r)
        .map(|r| r.elapsed.as_secs_f64())
        .collect();
    let fail_frac = failed as f64 / attempted as f64;
    let p90 = percentile(&cell_s, 0.9);
    let metrics = vec![
        ("cells_per_s", finished as f64 / timed_s, "1/s"),
        ("cell_s_p50", median(&cell_s), "s"),
        ("cell_s_p90", p90, "s"),
        ("setup_s", median(&setup_s), "s"),
        ("memo_mb", memo_mb, "MiB"),
    ];
    let setup_list: Vec<String> = setup_s.iter().map(|s| format!("{s:.6}")).collect();
    let detail = format!(
        "\"inputs_s\":{inputs_s:.3},\"rounds\":{},\"cells_per_round\":{},\"cell_samples\":{},\"cell_samples_beyond_p90\":{},\
         \"setup_reps\":[{}],\"setup_peak_rss_mb\":{setup_rss_mb:.3},\"run_peak_rss_mb\":{:.3},\"timed_s\":{timed_s:.6},\"fail_frac\":{fail_frac},\
         \"rounds_agree\":{stable},\"first_round_cell_s\":[{}],\"verdicts\":{}",
        rounds.len(),
        jobs.len(),
        cell_s.len(),
        cell_s.iter().filter(|&&c| c > p90).count(),
        setup_list.join(","),
        peak_rss_mb(),
        rounds[0]
            .0
            .iter()
            .map(|r| format!("{:.4}", r.elapsed.as_secs_f64()))
            .collect::<Vec<_>>()
            .join(","),
        verdict_json(&first),
    );
    Ok(Outcome {
        correct: failed == 0 && stable,
        attempted,
        failed,
        metrics,
        detail,
    })
}

/// One timed interval of the traced replay. `parent` indexes the same
/// cell's span list; root spans have none.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder for one cell.
struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    fn time<T>(&mut self, name: &'static str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }
}

/// Times every oracle call as an `oracle` span under the attack span and
/// counts the patterns answered; answers pass through untouched.
struct TimedOracle<'a> {
    inner: &'a mut dyn Oracle,
    log: &'a mut SpanLog,
    parent: usize,
    patterns: u64,
}

impl Oracle for TimedOracle<'_> {
    fn query(&mut self, inputs: &[bool]) -> Vec<bool> {
        let id = self.log.open("oracle", Some(self.parent));
        let out = self.inner.query(inputs);
        self.log.close(id);
        self.patterns += 1;
        out
    }

    fn query_block(&mut self, block: &PatternBlock) -> Vec<u64> {
        let id = self.log.open("oracle", Some(self.parent));
        let out = self.inner.query_block(block);
        self.log.close(id);
        self.patterns += block.count as u64;
        out
    }

    fn num_inputs(&self) -> usize {
        self.inner.num_inputs()
    }

    fn num_outputs(&self) -> usize {
        self.inner.num_outputs()
    }

    fn queries(&self) -> u64 {
        self.inner.queries()
    }
}

/// The attack's initial encoding, rebuilt into a fresh solver: two key
/// copies with their code constraints, two circuit copies sharing inputs,
/// and the output miter, single-sided when simplification would engage.
/// Returns `(clauses, vars)`.
fn encode_probe(keyed: &KeyedNetlist, simplify: SimplifyMode) -> (usize, usize) {
    let mut solver = Solver::new();
    let keys: Vec<Vec<Lit>> = (0..2)
        .map(|_| {
            (0..keyed.key_len())
                .map(|_| Lit::pos(solver.new_var()))
                .collect()
        })
        .collect();
    let copies: Vec<_> = {
        let mut enc = CircuitEncoder::new(&mut solver);
        for k in &keys {
            assert_valid_key_codes(&mut enc, keyed, k);
        }
        let copies: Vec<_> = keys
            .iter()
            .map(|k| encode_keyed(&mut enc, keyed, k))
            .collect();
        for (a, b) in copies[0].inputs.iter().zip(&copies[1].inputs) {
            enc.equal(*a, *b);
        }
        copies
    };
    let pol = if simplify.engages(solver.num_problem_clauses()) {
        Polarity::Pos
    } else {
        Polarity::Both
    };
    black_box(CircuitEncoder::new(&mut solver).miter_pol(
        &copies[0].outputs,
        &copies[1].outputs,
        pol,
    ));
    (solver.num_problem_clauses(), solver.num_vars())
}

/// The independent output check: the key's resolved netlist must match
/// the original on `CHECK_BLOCKS` random 64-pattern blocks.
fn simulation_check(original: &Netlist, keyed: &KeyedNetlist, key: &[bool], seed: u64) -> bool {
    let Ok(resolved) = keyed.resolve(key) else {
        return false;
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut a = Simulator::new(original);
    let mut b = Simulator::new(&resolved);
    (0..CHECK_BLOCKS).all(|_| {
        let block = PatternBlock::random(original.inputs().len(), &mut rng);
        match (a.run(&block), b.run(&block)) {
            (Ok(ya), Ok(yb)) => ya
                .iter()
                .zip(&yb)
                .all(|(x, y)| (x ^ y) & block.valid_mask() == 0),
            _ => false,
        }
    })
}

/// What the traced replay learns about one cell.
struct CellTrace {
    verdict: Verdict,
    failed: bool,
    /// A key the independent output check must confirm, with the keyed
    /// netlist it resolves.
    to_check: Option<(Arc<KeyedNetlist>, Vec<bool>)>,
    spans: Vec<Span>,
    dips: u64,
    queries: u64,
    solver: SolverStats,
    /// Oracle patterns answered × nodes of the netlist answering them.
    gate_evals: u64,
    cone_nodes: Option<usize>,
    miter_clauses: usize,
    miter_vars: usize,
}

/// Everything a replayed cell reads.
struct ReplayCtx {
    netlist: Arc<Netlist>,
    draws: Vec<(Draw, Arc<KeyedNetlist>)>,
    cache: Arc<OracleCache>,
    spec: CampaignSpec,
    epoch: Instant,
}

/// Replays one cell layer by layer, in the order `run_job` runs them,
/// with a span around each layer's entry point.
fn replay_cell(job: &JobSpec, ctx: &ReplayCtx) -> CellTrace {
    let cell = cell_of(job);
    let JobKind::Attack {
        attack, profile, ..
    } = &job.kind
    else {
        unreachable!("cell_of accepted the job");
    };
    let mut log = SpanLog {
        epoch: ctx.epoch,
        spans: Vec::new(),
    };
    let root = log.open("cell", None);
    let nl = &ctx.netlist;
    let keyed = log.time("materialize", Some(root), || {
        ctx.draws
            .iter()
            .find(|(d, _)| d.matches(&cell))
            .map(|(_, k)| Arc::clone(k))
            .expect("every draw was camouflaged during set-up")
    });
    let coi = ctx.spec.coi_mode;
    let simplify = ctx.spec.sat_simplify;
    let projection = log.time("coi_build", Some(root), || {
        CoiProjection::build(&keyed, coi)
    });
    let cone_nodes = projection.as_ref().map(CoiProjection::cone_len);
    let (miter_clauses, miter_vars) = log.time("encode", Some(root), || {
        encode_probe(
            projection.as_ref().map_or(&*keyed, CoiProjection::keyed),
            simplify,
        )
    });
    drop(projection);

    let runner = AttackRunner::with_config(
        *attack,
        AttackConfig {
            timeout: job.timeout,
            ..Default::default()
        }
        .with_coi_mode(coi)
        .with_simplify_mode(simplify),
        cell.seeds.oracle,
    );
    let attack_span = log.open("attack", Some(root));
    let (out, patterns, oracle_nodes) = {
        let build = log.open("oracle_build", Some(attack_span));
        let noise =
            (cell.error_rate > 0.0).then(|| noise_profile(&keyed, *profile, cell.error_rate));
        let seed = cell.seeds.oracle;
        let mut base: Box<dyn Oracle + '_> = match (cell.rotation_period, noise) {
            (0, None) => Box::new(match cone_inputs(&keyed, coi) {
                Some(cone) => CachedOracle::over_cone(nl, Arc::clone(&ctx.cache), cone),
                None => CachedOracle::over(nl, Arc::clone(&ctx.cache)),
            }),
            (0, Some(noise)) => Box::new(OracleStack::noisy(&keyed, noise, seed)),
            (period, None) => Box::new(OracleStack::rotating(&keyed, period, seed)),
            (period, Some(noise)) => {
                Box::new(OracleStack::rotating_noisy(&keyed, noise, period, seed))
            }
        };
        let oracle_nodes = if cell.is_exact() {
            nl.len()
        } else {
            keyed.netlist().len()
        };
        log.close(build);
        let mut timed = TimedOracle {
            inner: &mut *base,
            log: &mut log,
            parent: attack_span,
            patterns: 0,
        };
        let out: AttackOutcome = runner.run(&keyed, &mut timed);
        (out, timed.patterns, oracle_nodes)
    };
    log.close(attack_span);

    let mut status = match out.status {
        AttackStatus::Success => JobStatus::Completed,
        AttackStatus::Timeout => JobStatus::TimedOut,
        AttackStatus::ResourceExhausted => JobStatus::Exhausted,
        AttackStatus::Inconsistent => JobStatus::Inconsistent,
    };
    let (mut key_recovered, mut error_rate) = (false, f64::NAN);
    if let Some(key) = &out.key {
        match log.time("verify", Some(root), || {
            verify_key_scoped(nl, &keyed, key, coi)
        }) {
            Ok(v) => {
                key_recovered = v.functionally_equivalent;
                error_rate = v.sampled_error_rate;
            }
            Err(_) => status = JobStatus::Failed,
        }
    }
    log.close(root);

    let to_check = out
        .key
        .clone()
        .filter(|_| cell.is_exact() || key_recovered)
        .map(|key| (Arc::clone(&keyed), key));
    CellTrace {
        verdict: Verdict {
            status,
            key: key_recovered,
        },
        failed: cell_fails(&cell, status, key_recovered, error_rate),
        to_check,
        spans: log.spans,
        dips: out.iterations,
        queries: out.queries,
        solver: out.solver_stats,
        gate_evals: patterns * oracle_nodes as u64,
        cone_nodes,
        miter_clauses,
        miter_vars,
    }
}

/// Per-layer self time (span duration minus the part its child spans
/// cover), summed over every cell, plus inclusive totals.
#[derive(Default)]
struct LayerTimes {
    self_ns: Vec<(&'static str, u64)>,
    total_ns: Vec<(&'static str, u64)>,
}

impl LayerTimes {
    fn add(list: &mut Vec<(&'static str, u64)>, name: &'static str, ns: u64) {
        match list.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v += ns,
            None => list.push((name, ns)),
        }
    }

    fn from_cells(cells: &[CellTrace]) -> LayerTimes {
        let mut out = LayerTimes::default();
        for cell in cells {
            let mut child_ns = vec![0u64; cell.spans.len()];
            for span in &cell.spans {
                if let Some(p) = span.parent {
                    child_ns[p] += span.end_ns - span.start_ns;
                }
            }
            for (span, children) in cell.spans.iter().zip(child_ns) {
                let dur = span.end_ns - span.start_ns;
                Self::add(&mut out.total_ns, span.name, dur);
                Self::add(&mut out.self_ns, span.name, dur.saturating_sub(children));
            }
        }
        out
    }

    fn self_s(&self, name: &str) -> f64 {
        Self::get(&self.self_ns, name)
    }

    fn total_s(&self, name: &str) -> f64 {
        Self::get(&self.total_ns, name)
    }

    fn get(list: &[(&'static str, u64)], name: &str) -> f64 {
        list.iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, ns)| *ns as f64 / 1e9)
    }
}

fn write_spans(path: &PathBuf, cells: &[CellTrace]) -> Result<(), String> {
    let mut text = String::new();
    for (cell, trace) in cells.iter().enumerate() {
        for (id, s) in trace.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"cell\":{cell},\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// `--trace 1`: one untraced round, then the traced replay of the same
/// cells, with per-layer metrics derived from the replay's spans.
fn run_traced(spec: &CampaignSpec, args: &Args) -> Result<Outcome, String> {
    let jobs = workload_jobs(args.workload, spec, args.seed)?;
    let (untraced_cps, untraced_verdicts, untraced_failed, cells) = {
        let (p, _) = prepare(spec, &jobs)?;
        let (results, wall) = run_round(&EvalSession::new(spec.threads), &p, &jobs, spec);
        let finished = results
            .iter()
            .filter(|r| r.status != JobStatus::Failed)
            .count();
        (
            finished as f64 / wall.as_secs_f64(),
            verdicts_of(&results),
            failures(&jobs, &results),
            results.len(),
        )
    };

    // Set-up, one layer entry point at a time.
    let bench_spec = suites::spec(&spec.benchmarks[0]).ok_or("unknown benchmark")?;
    let start = Instant::now();
    let netlist = Arc::new(suites::benchmark_scaled_with(
        bench_spec,
        spec.scale,
        spec.seed,
        spec.topology,
    ));
    let generate_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let mut keyed_draws = Vec::new();
    for d in draws(&jobs) {
        let picks = select_gates(&netlist, d.level, d.seeds.select);
        let mut rng = StdRng::seed_from_u64(d.seeds.transform);
        let keyed = camouflage(&netlist, &picks, d.scheme, &mut rng)
            .map_err(|e| format!("camouflage failed: {e}"))?;
        keyed_draws.push((d, Arc::new(keyed)));
    }
    let camouflage_s = start.elapsed().as_secs_f64();
    let key_bits: usize = keyed_draws.iter().map(|(_, k)| k.key_len()).sum();
    let start = Instant::now();
    let mut rates = ClockRateTable::new();
    for &clock_ns in &spec.clock_periods_ns {
        black_box(rates.rate_for(clock_ns));
    }
    let rate_table_s = start.elapsed().as_secs_f64();

    let ctx = Arc::new(ReplayCtx {
        netlist,
        draws: keyed_draws,
        cache: OracleCache::shared(),
        spec: spec.clone(),
        epoch: Instant::now(),
    });
    let pool = WorkerPool::new(spec.threads);
    let tasks: Vec<Box<dyn FnOnce() -> CellTrace + Send>> = jobs
        .iter()
        .cloned()
        .map(|job| {
            let ctx = Arc::clone(&ctx);
            Box::new(move || replay_cell(&job, &ctx)) as Box<dyn FnOnce() -> CellTrace + Send>
        })
        .collect();
    gshe_obs::reset();
    gshe_obs::enable();
    let pool_before = pool.worker_stats();
    let start = Instant::now();
    let traces = pool.run_all(tasks);
    let traced_wall = start.elapsed().as_secs_f64();
    let pool_deltas: Vec<_> = pool
        .worker_stats()
        .iter()
        .zip(&pool_before)
        .map(|(now, then)| now.delta_from(then))
        .collect();
    gshe_obs::disable();
    let solve_s = gshe_obs::histogram("attack.solve").sum() as f64 / 1e9;

    // The independent output check runs after the timed batch, so the
    // traced time covers the replayed layers only.
    let start = Instant::now();
    let traced_failed = traces
        .iter()
        .enumerate()
        .filter(|(i, t)| {
            let seed = args.seed ^ (*i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let check_fails = t
                .to_check
                .as_ref()
                .is_some_and(|(keyed, key)| !simulation_check(&ctx.netlist, keyed, key, seed));
            t.failed || check_fails
        })
        .count();
    let check_s = start.elapsed().as_secs_f64();

    let spans_path = args.out_dir.join(format!(
        "{}-seed{}-spans.jsonl",
        args.workload.name(),
        args.seed
    ));
    write_spans(&spans_path, &traces)?;

    let layers = LayerTimes::from_cells(&traces);
    let traced_verdicts: Vec<Verdict> = traces.iter().map(|t| t.verdict).collect();
    let finished = traces
        .iter()
        .filter(|t| t.verdict.status != JobStatus::Failed)
        .count();
    let traced_cps = finished as f64 / traced_wall;

    let mut solver = SolverStats::default();
    for t in &traces {
        solver += t.solver;
    }
    let n = traces.len() as f64;
    let sum = |f: fn(&CellTrace) -> f64| traces.iter().map(f).sum::<f64>();
    let cones: Vec<f64> = traces
        .iter()
        .filter_map(|t| t.cone_nodes.map(|c| c as f64))
        .collect();
    let (hits, misses) = ctx.cache.stats();
    let (cone_hits, cone_misses) = ctx.cache.cone_stats();
    let (_, steals, utilization) = pool_summary(&pool_deltas);
    let idle_s = pool_deltas.iter().map(|w| w.idle_ns).sum::<u64>() as f64 / 1e9;

    let cell_s_total = layers.total_s("cell");
    let attack_s = layers.total_s("attack");
    let oracle_s = layers.self_s("oracle");
    let verify_s = layers.self_s("verify");
    let gate_evals = sum(|t| t.gate_evals as f64);
    let metrics = vec![
        ("logic.generate_s", generate_s, "s"),
        ("logic.nodes", ctx.netlist.len() as f64, "count"),
        ("camo.camouflage_s", camouflage_s, "s"),
        ("camo.key_bits", key_bits as f64, "count"),
        ("device.rate_table_s", rate_table_s, "s"),
        ("attacks.coi_build_s", layers.self_s("coi_build"), "s"),
        (
            "attacks.coi_cone_nodes",
            if cones.is_empty() {
                0.0
            } else {
                median(&cones)
            },
            "count",
        ),
        ("attacks.coi_cells", cones.len() as f64, "count"),
        ("attacks.encode_s", layers.self_s("encode"), "s"),
        (
            "attacks.miter_clauses",
            sum(|t| t.miter_clauses as f64) / n,
            "count",
        ),
        (
            "attacks.miter_vars",
            sum(|t| t.miter_vars as f64) / n,
            "count",
        ),
        ("attacks.attack_s", attack_s, "s"),
        (
            "attacks.engine_self_s",
            layers.self_s("attack") - solve_s,
            "s",
        ),
        ("attacks.dips", sum(|t| t.dips as f64), "count"),
        ("attacks.queries", sum(|t| t.queries as f64), "count"),
        ("sat.solve_s", solve_s, "s"),
        ("sat.conflicts", solver.conflicts as f64, "count"),
        ("sat.propagations", solver.propagations as f64, "count"),
        (
            "sat.props_per_s",
            ratio(solver.propagations as f64, solve_s),
            "1/s",
        ),
        ("sat.simplify_s", solver.simplify_ns as f64 / 1e9, "s"),
        ("sat.elim_vars", solver.elim_vars as f64, "count"),
        ("sat.gc_s", solver.gc_ns as f64 / 1e9, "s"),
        ("attacks.oracle_s", oracle_s, "s"),
        ("attacks.oracle_build_s", layers.self_s("oracle_build"), "s"),
        (
            "attacks.oracle_share",
            ratio(oracle_s, cell_s_total),
            "ratio",
        ),
        ("logic.gate_evals", gate_evals, "count"),
        ("logic.gate_evals_per_s", ratio(gate_evals, oracle_s), "1/s"),
        ("campaign.cache_lookups", (hits + misses) as f64, "count"),
        (
            "campaign.cache_hit_ratio",
            ratio(hits as f64, (hits + misses) as f64),
            "ratio",
        ),
        (
            "campaign.cone_lookups",
            (cone_hits + cone_misses) as f64,
            "count",
        ),
        (
            "campaign.cone_hit_ratio",
            ratio(cone_hits as f64, (cone_hits + cone_misses) as f64),
            "ratio",
        ),
        ("attacks.verify_s", verify_s, "s"),
        (
            "attacks.verify_share",
            ratio(verify_s, cell_s_total),
            "ratio",
        ),
        ("campaign.pool_utilization", utilization, "ratio"),
        ("campaign.pool_idle_s", idle_s, "s"),
        ("campaign.pool_steals", steals as f64, "count"),
        ("campaign.unattributed_s", layers.self_s("cell"), "s"),
        ("campaign.cell_s_total", cell_s_total, "s"),
        ("campaign.cells", n, "count"),
        ("bench.check_s", check_s, "s"),
        ("trace.cells_per_s", traced_cps, "1/s"),
        ("trace.untraced_cells_per_s", untraced_cps, "1/s"),
        ("trace.overhead", ratio(untraced_cps, traced_cps), "ratio"),
        ("process.peak_rss_mb", peak_rss_mb(), "MiB"),
    ];

    let digests_agree = traced_verdicts == untraced_verdicts;
    let solve_within_attack = solve_s <= attack_s;
    let detail = format!(
        "\"cells\":{cells},\"traced_wall_s\":{traced_wall:.6},\"digests_agree\":{digests_agree},\
         \"solve_within_attack\":{solve_within_attack},\"spans_file\":\"{}\",\
         \"untraced_verdicts\":{},\"traced_verdicts\":{}",
        spans_path.display(),
        verdict_json(&untraced_verdicts),
        verdict_json(&traced_verdicts),
    );
    let failed = untraced_failed + traced_failed;
    Ok(Outcome {
        correct: failed == 0 && digests_agree,
        attempted: cells + traces.len(),
        failed,
        metrics,
        detail,
    })
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let spec = match CampaignSpec::parse_toml(&args.workload.spec_toml()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: workload spec: {e}");
            std::process::exit(2);
        }
    };
    let outcome = if args.trace {
        run_traced(&spec, &args)
    } else {
        run_untraced(args.workload, &spec, args.seed, args.seconds)
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {}", json_escape(&e));
            std::process::exit(1);
        }
    };
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}},\"detail\":{{\"workload\":\"{}\",\"seed\":{},\"nproc\":{},{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(","),
        args.workload.name(),
        args.seed,
        std::thread::available_parallelism().map_or(0, |p| p.get()),
        outcome.detail,
    );
}
