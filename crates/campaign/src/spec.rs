//! Campaign specification: the experiment grid and its expansion to jobs.
//!
//! A [`CampaignSpec`] is the cartesian product the paper's evaluation
//! tables iterate by hand: benchmark suite × camouflaging scheme grid ×
//! attack grid × oracle error-rate sweep × trials, plus the shared knobs
//! (netlist scale, per-job wall-clock budget, master seed, worker count).
//! [`CampaignSpec::expand`] unrolls the grid into [`JobSpec`]s with
//! identity-derived seeds; the paper-table harnesses build the job list
//! themselves when they need a historical seed derivation.
//!
//! Specs are read from a minimal TOML subset ([`CampaignSpec::parse_toml`],
//! format in the crate-level docs) or from `--key-name value` flags; both
//! front ends set every key through [`CampaignSpec::set`].

use crate::job::{
    clock_salt, oracle_seed, rotation_salt, select_seed, transform_seed, AttackSeeds, JobKind,
    JobSpec, NoiseShape,
};
use crate::physical::{is_valid_clock_period, ClockRateTable};
use gshe_attacks::{AttackKind, CoiMode, SimplifyMode};
use gshe_camo::CamoScheme;
use gshe_logic::Topology;
use std::str::FromStr;
use std::time::{Duration, Instant};

/// Machine-friendly scheme names used in spec files and CSV output.
pub fn scheme_name(scheme: CamoScheme) -> &'static str {
    match scheme {
        CamoScheme::LookAlike => "look-alike",
        CamoScheme::ThresholdSttLut => "stt-lut",
        CamoScheme::SiNw => "sinw",
        CamoScheme::InvBuf => "inv-buf",
        CamoScheme::FourFn => "four-fn",
        CamoScheme::DwmPolymorphic => "dwm",
        CamoScheme::GsheAll16 => "gshe16",
    }
}

/// Parses [`scheme_name`] back into a scheme.
pub fn parse_scheme(name: &str) -> Option<CamoScheme> {
    CamoScheme::ALL
        .into_iter()
        .find(|&s| scheme_name(s) == name)
}

/// The keys of a campaign spec, in documentation order. Each is a
/// spec-file key and, spelled `--key-name`, a `campaign` flag.
pub const SPEC_KEYS: [&str; 16] = [
    "name",
    "benchmarks",
    "scale",
    "topology",
    "levels",
    "schemes",
    "attacks",
    "sat_simplify",
    "error_rates",
    "clock_periods_ns",
    "profiles",
    "rotation_periods",
    "trials",
    "seed",
    "timeout_secs",
    "threads",
];

fn join_names<I: IntoIterator<Item = &'static str>>(names: I) -> String {
    names.into_iter().collect::<Vec<_>>().join(", ")
}

/// Comma-separated camouflaging-scheme names for error messages
/// (including the `"all"` selector).
pub fn valid_scheme_names() -> String {
    join_names(CamoScheme::ALL.into_iter().map(scheme_name).chain(["all"]))
}

/// Comma-separated attack names for error messages.
pub fn valid_attack_names() -> String {
    join_names(AttackKind::ALL.into_iter().map(AttackKind::name))
}

/// Comma-separated noise-profile names for error messages (including the
/// `"all"` selector).
pub fn valid_profile_names() -> String {
    join_names(
        NoiseShape::ALL
            .into_iter()
            .map(NoiseShape::name)
            .chain(["all"]),
    )
}

/// Rejects a count of 0 where at least one is needed: a benchmark-scale
/// divisor, the trials of a grid cell or a candidate, a generation's
/// offspring.
pub(crate) fn check_at_least_one(name: &str, value: u64) -> Result<(), String> {
    if value == 0 {
        return Err(format!("{name} must be at least 1, got 0"));
    }
    Ok(())
}

/// Rejects a protection level (fraction of gates camouflaged) outside
/// `(0, 1]`, NaN included.
pub(crate) fn check_level(level: f64) -> Result<(), String> {
    if level > 0.0 && level <= 1.0 {
        Ok(())
    } else {
        Err(format!("protection level must be in (0, 1], got {level}"))
    }
}

/// Rejects a rate (`what`: an oracle error rate, a target attacker
/// success rate) outside `[0, 1]`, NaN included.
pub(crate) fn check_rate(what: &str, rate: f64) -> Result<(), String> {
    if (0.0..=1.0).contains(&rate) {
        Ok(())
    } else {
        Err(format!("{what} must be in [0, 1], got {rate}"))
    }
}

/// Rejects a clock period that is not a positive number of ns.
pub(crate) fn check_clock_period(clock_ns: f64) -> Result<(), String> {
    if is_valid_clock_period(clock_ns) {
        Ok(())
    } else {
        Err(format!(
            "clock period must be a positive number of ns, got {clock_ns}"
        ))
    }
}

/// Rejects a per-job budget so large that its deadline (job start plus
/// budget) does not fit an [`Instant`].
pub(crate) fn check_timeout(timeout: Duration) -> Result<(), String> {
    match Instant::now().checked_add(timeout) {
        Some(_) => Ok(()),
        None => Err(format!(
            "timeout is past the latest deadline the clock can hold, got {} s",
            timeout.as_secs()
        )),
    }
}

/// A spec value as one front end spells it. Every key reads its value
/// through the same accessors whichever front end supplied it, so a spec
/// file and the command line accept the same values in the same units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecValue<'a> {
    /// The text after `key =` in a spec file: strings in double quotes,
    /// lists in brackets (`"ex1010"`, `["sat", "appsat"]`, `[0.1, 0.2]`).
    File(&'a str),
    /// The argument of a `--key-name` flag: strings bare, lists
    /// comma-separated (`ex1010`, `sat,appsat`, `0.1,0.2`).
    Flag(&'a str),
}

impl<'a> SpecValue<'a> {
    /// One string.
    pub(crate) fn string(self) -> Result<String, String> {
        match self {
            SpecValue::File(text) => text
                .strip_prefix('"')
                .and_then(|t| t.strip_suffix('"'))
                .map(str::to_string)
                .ok_or_else(|| format!("expected a double-quoted string, got `{text}`")),
            SpecValue::Flag(text) => Ok(text.to_string()),
        }
    }

    /// One number of type `T`, spelled the same in both front ends.
    ///
    /// # Errors
    ///
    /// Names the type and the text when the text does not parse as a `T`.
    pub fn number<T: FromStr>(self) -> Result<T, String> {
        let (SpecValue::File(text) | SpecValue::Flag(text)) = self;
        text.parse()
            .map_err(|_| format!("expected {}, got `{text}`", std::any::type_name::<T>()))
    }

    /// The items of a list, each spelled like a scalar of the same front
    /// end.
    fn items(self) -> Result<Vec<SpecValue<'a>>, String> {
        let (list, item): (&str, fn(&'a str) -> SpecValue<'a>) = match self {
            SpecValue::File(text) => (
                text.strip_prefix('[')
                    .and_then(|t| t.strip_suffix(']'))
                    .ok_or_else(|| format!("expected a `[a, b]` list, got `{text}`"))?,
                SpecValue::File,
            ),
            SpecValue::Flag(text) => (text, SpecValue::Flag),
        };
        if list.trim().is_empty() {
            return Ok(Vec::new());
        }
        Ok(list.split(',').map(|text| item(text.trim())).collect())
    }

    /// A list of strings.
    fn strings(self) -> Result<Vec<String>, String> {
        self.items()?.into_iter().map(SpecValue::string).collect()
    }

    /// A list of numbers of type `T`.
    fn numbers<T: FromStr>(self) -> Result<Vec<T>, String> {
        self.items()?.into_iter().map(SpecValue::number).collect()
    }
}

/// The spec key a `--key-name` command-line flag sets (`key_name`), or
/// `None` for anything not spelled as such a flag.
pub fn flag_key(flag: &str) -> Option<String> {
    flag.strip_prefix("--")
        .filter(|name| !name.contains('_'))
        .map(|name| name.replace('-', "_"))
}

/// Looks `name` up with `parse`, naming the valid alternatives on a miss.
fn lookup<T>(
    what: &str,
    name: &str,
    parse: impl Fn(&str) -> Option<T>,
    valid: &str,
) -> Result<T, String> {
    parse(name).ok_or_else(|| format!("unknown {what} `{name}` (valid: {valid})"))
}

/// Reads a list of names in which `"all"` stands for every member of
/// `all`.
fn names_or_all<T: Copy>(
    value: SpecValue,
    all: &[T],
    one: impl Fn(&str) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let mut out = Vec::new();
    for name in value.strings()? {
        if name == "all" {
            out.extend_from_slice(all);
        } else {
            out.push(one(&name)?);
        }
    }
    Ok(out)
}

/// Looks a camouflaging scheme up by its [`scheme_name`].
pub(crate) fn scheme_named(name: &str) -> Result<CamoScheme, String> {
    lookup("scheme", name, parse_scheme, &valid_scheme_names())
}

/// Reads a list of attack names.
pub(crate) fn attacks_value(value: SpecValue) -> Result<Vec<AttackKind>, String> {
    value
        .strings()?
        .iter()
        .map(|name| lookup("attack", name, AttackKind::parse, &valid_attack_names()))
        .collect()
}

/// Reads a list of clock periods in ns, each positive.
pub(crate) fn clock_periods_value(value: SpecValue) -> Result<Vec<f64>, String> {
    let periods: Vec<f64> = value.numbers()?;
    for &clock_ns in &periods {
        check_clock_period(clock_ns)?;
    }
    Ok(periods)
}

/// The error for a key that is not one of `keys`.
pub(crate) fn unknown_key(key: &str, keys: &[&str]) -> String {
    format!("unknown key `{key}` (valid keys: {})", keys.join(", "))
}

/// Feeds every `key = value` line of a spec file to `set`: the minimal
/// TOML subset documented at the crate level, whose `#` comments, blank
/// lines and `[table]` headers are skipped. An error names its line.
pub(crate) fn read_toml(
    text: &str,
    mut set: impl FnMut(&str, SpecValue) -> Result<(), String>,
) -> Result<(), String> {
    for (lineno, raw) in text.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if line.is_empty() || line.starts_with('[') {
            continue;
        }
        let at_line = |what: String| format!("line {}: {what}", lineno + 1);
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| at_line("expected `key = value`".to_string()))?;
        set(key.trim(), SpecValue::File(value.trim())).map_err(at_line)?;
    }
    Ok(())
}

/// Drops a `#` comment, but only when the `#` sits outside a
/// double-quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

/// A declarative description of one campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name (report header, output file stem).
    pub name: String,
    /// Benchmark selectors, resolved via
    /// [`gshe_logic::suites::resolve_selector`] (`"all"`, `"suite:itc99"`,
    /// or a single name).
    pub benchmarks: Vec<String>,
    /// Benchmark-scale divisor (1 = paper-scale gate counts).
    pub scale: usize,
    /// Netlist topology profile for generated benchmarks:
    /// [`Topology::Uniform`] is the historical generator (fanins drawn
    /// uniformly over all prior nodes), [`Topology::Local`] the
    /// placement-tile generator whose influence cones stay narrow —
    /// superblue-like locality as a campaign knob. File-backed (`.aag`)
    /// benchmarks ignore it.
    pub topology: Topology,
    /// Protection levels (fraction of gates camouflaged).
    pub levels: Vec<f64>,
    /// Camouflaging schemes under study.
    pub schemes: Vec<CamoScheme>,
    /// Attack algorithms to launch.
    pub attacks: Vec<AttackKind>,
    /// Cone-of-influence policy for every attack job, the exact chip's
    /// cone answer and key verification. Not a spec-file
    /// key: [`CoiMode::On`] (the default) is the one campaign path, and
    /// [`CoiMode::Off`] the full-design reference for equivalence tests.
    pub coi_mode: CoiMode,
    /// SAT simplification for every attack job's incremental solver:
    /// `on` (preprocess the miter at the first solve) or `off` (the
    /// default).
    pub sat_simplify: SimplifyMode,
    /// Oracle per-cell error rates (0.0 = perfect chip).
    pub error_rates: Vec<f64>,
    /// *Physical* clock periods, in nanoseconds, swept as additional
    /// rate sources: each period's per-cell error rate is derived from
    /// the device Monte Carlo at the nominal drive current (uniform
    /// drives, one Monte Carlo run for every period — see
    /// [`crate::physical::ClockRateTable`]). Empty = abstract rates only.
    pub clock_periods_ns: Vec<f64>,
    /// Error-profile shapes: how each rate spreads over the cloaked cells
    /// (heterogeneous noise placements as a grid dimension).
    pub profiles: Vec<NoiseShape>,
    /// Dynamic-camouflaging rotation periods (`0` = the static oracle the
    /// grid always had; `n > 0` = a rotating oracle stack drawing a fresh
    /// random key every `n` queries). The defense-side dimension of the
    /// attack-collapse-vs-period experiment.
    pub rotation_periods: Vec<u64>,
    /// Trials per grid cell (stochastic cells need repeats).
    pub trials: u64,
    /// Master seed; all job seeds derive from it and the job identity.
    pub seed: u64,
    /// Per-job wall-clock budget.
    pub timeout: Duration,
    /// Worker threads (0 = available parallelism).
    pub threads: usize,
}

impl Default for CampaignSpec {
    fn default() -> Self {
        CampaignSpec {
            name: "campaign".to_string(),
            benchmarks: vec!["c7552".to_string()],
            scale: 20,
            topology: Topology::Uniform,
            levels: vec![0.2],
            schemes: vec![CamoScheme::GsheAll16],
            attacks: vec![AttackKind::Sat],
            coi_mode: CoiMode::On,
            sat_simplify: SimplifyMode::Off,
            error_rates: vec![0.0],
            clock_periods_ns: Vec::new(),
            profiles: vec![NoiseShape::Uniform],
            rotation_periods: vec![0],
            trials: 1,
            seed: 1,
            timeout: Duration::from_secs(60),
            threads: 0,
        }
    }
}

impl CampaignSpec {
    /// Resolves the benchmark selectors to concrete benchmark names,
    /// deduplicated, in selector order.
    ///
    /// # Errors
    ///
    /// Returns the first selector that matches nothing.
    pub fn resolve_benchmarks(&self) -> Result<Vec<String>, String> {
        let mut names: Vec<String> = Vec::new();
        for selector in &self.benchmarks {
            // `.aag` selectors are file-backed benchmarks: the path itself
            // is the benchmark name, loaded through the AIGER frontend at
            // materialization time (latches cut, scan-style).
            if selector.ends_with(".aag") {
                if !names.iter().any(|n| n == selector) {
                    names.push(selector.clone());
                }
                continue;
            }
            let specs = gshe_logic::suites::resolve_selector(selector);
            if specs.is_empty() {
                return Err(format!("benchmark selector `{selector}` matches nothing"));
            }
            for s in specs {
                if !names.iter().any(|n| n == s.name) {
                    names.push(s.name.to_string());
                }
            }
        }
        Ok(names)
    }

    /// Unrolls the grid into jobs, in canonical order (benchmark, level,
    /// scheme, attack, rotation period, rate source, profile, trial —
    /// outermost first). Rate sources are the abstract `error_rates`
    /// followed by the `clock_periods_ns`-derived rates (device Monte
    /// Carlo at the nominal drive, one run for every period).
    ///
    /// Seed policy: gate selection depends only on (campaign seed,
    /// benchmark, level) — the paper's fairness protocol, every scheme
    /// sees the same protected gates; the transform seed adds the scheme;
    /// the oracle seed adds attack, rotation period, error rate, clock
    /// period, profile shape, and trial. Dimension salts compose by XOR
    /// and are all zero at their historical defaults (period 0, uniform
    /// shape, abstract rate), so specs that don't sweep those dimensions
    /// derive exactly the seeds they always did — including the combined
    /// rotation × noise cells, whose salts are `rotation_salt ^
    /// profile_salt ^ clock_salt`.
    ///
    /// Dimension collapse: the only remaining collapse is physical — a
    /// rate-0 chip is deterministic, so every shape is the same quiet
    /// profile and rate-0 cells emit the uniform shape only. Rotation no
    /// longer collapses the noise dimensions: `rotation_periods ×
    /// rates × profiles` is a full grid, and its `period > 0, rate > 0`
    /// cells are the combined rotating + stochastic defense.
    ///
    /// # Errors
    ///
    /// Rejects a scale below 1, 0 trials, a level outside `(0, 1]`, an
    /// error rate outside `[0, 1]`, a timeout too large for a deadline and
    /// a non-positive clock period, naming the value; propagates
    /// benchmark-resolution failures.
    pub fn expand(&self) -> Result<Vec<JobSpec>, String> {
        check_at_least_one("scale", self.scale as u64)?;
        check_at_least_one("trials", self.trials)?;
        for &level in &self.levels {
            check_level(level)?;
        }
        for &rate in &self.error_rates {
            check_rate("error rate", rate)?;
        }
        check_timeout(self.timeout)?;
        let benchmarks = self.resolve_benchmarks()?;
        let profiles = if self.profiles.is_empty() {
            vec![NoiseShape::Uniform]
        } else {
            self.profiles.clone()
        };
        let periods = if self.rotation_periods.is_empty() {
            vec![0]
        } else {
            self.rotation_periods.clone()
        };
        // Rate sources: (clock_ns, rate) pairs — abstract rates first
        // (clock 0, the historical cells), then the physically derived
        // ones. The whole expansion runs one Monte Carlo, and each clock
        // period counts its samples.
        let mut rate_cells: Vec<(f64, f64)> =
            self.error_rates.iter().map(|&rate| (0.0, rate)).collect();
        let mut clock_table = ClockRateTable::new();
        for &clock_ns in &self.clock_periods_ns {
            check_clock_period(clock_ns)?;
            rate_cells.push((clock_ns, clock_table.rate_for(clock_ns)));
        }
        let mut jobs = Vec::new();
        for benchmark in &benchmarks {
            for &level in &self.levels {
                let select = select_seed(self.seed, benchmark, level);
                for &scheme in &self.schemes {
                    let transform = transform_seed(select, scheme);
                    for &attack in &self.attacks {
                        for &rotation_period in &periods {
                            for &(clock_ns, error_rate) in &rate_cells {
                                // A rate-0 chip is deterministic: every
                                // shape collapses to the same (quiet)
                                // profile, so sweep shapes only where they
                                // can matter.
                                let cell_profiles: &[NoiseShape] = if error_rate > 0.0 {
                                    &profiles
                                } else {
                                    &[NoiseShape::Uniform]
                                };
                                for &profile in cell_profiles {
                                    let salt = ((error_rate * 1e6) as u64)
                                        .wrapping_mul(0x2545_F491_4F6C_DD1D)
                                        ^ profile.seed_salt()
                                        ^ rotation_salt(rotation_period)
                                        ^ clock_salt(clock_ns);
                                    for trial in 0..self.trials {
                                        let oracle = oracle_seed(transform, attack, salt, trial);
                                        jobs.push(JobSpec {
                                            kind: JobKind::Attack {
                                                benchmark: benchmark.clone(),
                                                topology: self.topology,
                                                scheme,
                                                level,
                                                attack,
                                                error_rate,
                                                clock_ns,
                                                profile,
                                                rotation_period,
                                                trial,
                                                seeds: AttackSeeds {
                                                    select,
                                                    transform,
                                                    oracle,
                                                },
                                            },
                                            timeout: self.timeout,
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(jobs)
    }

    /// Sets one key from its spec-file or command-line spelling. This is
    /// the only place a campaign key maps to a field:
    /// [`CampaignSpec::parse_toml`] feeds it every `key = value` line, and
    /// the `campaign` binary every `--key-name value` flag.
    ///
    /// # Errors
    ///
    /// Rejects an unknown key, a malformed value, an unknown name and a
    /// clock period that is not a positive number of ns.
    pub fn set(&mut self, key: &str, value: SpecValue) -> Result<(), String> {
        match key {
            "name" => self.name = value.string()?,
            "benchmarks" => self.benchmarks = value.strings()?,
            "scale" => self.scale = value.number()?,
            "topology" => {
                self.topology = lookup(
                    "topology",
                    &value.string()?,
                    Topology::parse,
                    "uniform, local",
                )?
            }
            "levels" => self.levels = value.numbers()?,
            "schemes" => self.schemes = names_or_all(value, &CamoScheme::ALL, scheme_named)?,
            "attacks" => self.attacks = attacks_value(value)?,
            "sat_simplify" => {
                self.sat_simplify = lookup(
                    "sat_simplify",
                    &value.string()?,
                    SimplifyMode::parse,
                    "on, off",
                )?
            }
            "error_rates" => self.error_rates = value.numbers()?,
            "clock_periods_ns" => self.clock_periods_ns = clock_periods_value(value)?,
            "profiles" => {
                self.profiles = names_or_all(value, &NoiseShape::ALL, |name| {
                    lookup("profile", name, NoiseShape::parse, &valid_profile_names())
                })?
            }
            "rotation_periods" => self.rotation_periods = value.numbers()?,
            "trials" => self.trials = value.number()?,
            "seed" => self.seed = value.number()?,
            "timeout_secs" => self.timeout = Duration::from_secs(value.number()?),
            "threads" => self.threads = value.number()?,
            other => return Err(unknown_key(other, &SPEC_KEYS)),
        }
        Ok(())
    }

    /// Parses a campaign spec from the TOML subset documented at the crate
    /// level: `key = value` lines, `#` comments, strings in double quotes,
    /// homogeneous `[ ... ]` arrays of strings/numbers on one line.
    ///
    /// Unknown keys are rejected so typos fail loudly.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line.
    pub fn parse_toml(text: &str) -> Result<CampaignSpec, String> {
        let mut spec = CampaignSpec::default();
        read_toml(text, |key, value| spec.set(key, value))?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_covers_the_grid_in_order() {
        let spec = CampaignSpec {
            benchmarks: vec!["c7552".into(), "ex1010".into()],
            levels: vec![0.1, 0.2],
            schemes: vec![CamoScheme::InvBuf, CamoScheme::GsheAll16],
            attacks: vec![AttackKind::Sat, AttackKind::DoubleDip],
            error_rates: vec![0.0, 0.05],
            trials: 3,
            ..Default::default()
        };
        let jobs = spec.expand().unwrap();
        assert_eq!(jobs.len(), 2 * 2 * 2 * 2 * 2 * 3);
        // Outermost loop is the benchmark.
        let JobKind::Attack { benchmark, .. } = &jobs[0].kind;
        assert_eq!(benchmark, "c7552");
        let JobKind::Attack { benchmark, .. } = &jobs.last().unwrap().kind;
        assert_eq!(benchmark, "ex1010");
    }

    #[test]
    fn selection_seed_is_shared_across_schemes_and_attacks() {
        let spec = CampaignSpec {
            schemes: vec![CamoScheme::InvBuf, CamoScheme::GsheAll16],
            attacks: vec![AttackKind::Sat, AttackKind::AppSat],
            ..Default::default()
        };
        let jobs = spec.expand().unwrap();
        let selects: Vec<u64> = jobs
            .iter()
            .map(|j| {
                let JobKind::Attack { seeds, .. } = &j.kind;
                seeds.select
            })
            .collect();
        assert!(
            selects.windows(2).all(|w| w[0] == w[1]),
            "fairness protocol broken"
        );

        // But the oracle seed must distinguish attacks.
        let oracles: Vec<u64> = jobs
            .iter()
            .map(|j| {
                let JobKind::Attack { seeds, .. } = &j.kind;
                seeds.oracle
            })
            .collect();
        assert_eq!(oracles.len(), 4);
        assert!(oracles.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn profile_sweep_multiplies_the_grid_and_salts_seeds() {
        let base = CampaignSpec {
            error_rates: vec![0.05],
            trials: 2,
            ..Default::default()
        };
        let swept = CampaignSpec {
            profiles: vec![NoiseShape::Uniform, NoiseShape::OutputCone],
            ..base.clone()
        };
        let jobs = swept.expand().unwrap();
        assert_eq!(jobs.len(), base.expand().unwrap().len() * 2);

        // Uniform jobs keep the historical seed derivation; other shapes
        // draw a distinct noise stream.
        let oracle_of = |j: &JobSpec| {
            let JobKind::Attack { seeds, profile, .. } = &j.kind;
            (*profile, seeds.oracle)
        };
        let base_jobs = base.expand().unwrap();
        let (shape0, seed0) = oracle_of(&jobs[0]);
        assert_eq!(shape0, NoiseShape::Uniform);
        assert_eq!(seed0, oracle_of(&base_jobs[0]).1);
        let (shape1, seed1) = oracle_of(&jobs[2]);
        assert_eq!(shape1, NoiseShape::OutputCone);
        assert_ne!(seed1, seed0);
    }

    #[test]
    fn rate_zero_cells_collapse_the_profile_sweep() {
        // error_rate 0.0 makes every shape identical; only one (uniform)
        // job per deterministic cell, shapes swept for the noisy cells.
        let spec = CampaignSpec {
            error_rates: vec![0.0, 0.05],
            profiles: vec![NoiseShape::Uniform, NoiseShape::OutputCone],
            ..Default::default()
        };
        let jobs = spec.expand().unwrap();
        assert_eq!(jobs.len(), 1 + 2);
        let shapes: Vec<(f64, NoiseShape)> = jobs
            .iter()
            .map(|j| {
                let JobKind::Attack {
                    error_rate,
                    profile,
                    ..
                } = &j.kind;
                (*error_rate, *profile)
            })
            .collect();
        assert_eq!(
            shapes,
            [
                (0.0, NoiseShape::Uniform),
                (0.05, NoiseShape::Uniform),
                (0.05, NoiseShape::OutputCone),
            ]
        );
    }

    #[test]
    fn rotation_periods_extend_the_grid_and_salt_seeds() {
        let base = CampaignSpec {
            trials: 2,
            ..Default::default()
        };
        let swept = CampaignSpec {
            rotation_periods: vec![0, 4, 16],
            ..base.clone()
        };
        let jobs = swept.expand().unwrap();
        // One static cell plus one cell per nonzero period.
        assert_eq!(jobs.len(), base.expand().unwrap().len() * 3);

        let cell_of = |j: &JobSpec| {
            let JobKind::Attack {
                rotation_period,
                seeds,
                ..
            } = &j.kind;
            (*rotation_period, seeds.oracle)
        };
        // Period-0 jobs keep the historical seed derivation byte-for-byte.
        let base_jobs = base.expand().unwrap();
        let (p0, seed0) = cell_of(&jobs[0]);
        assert_eq!(p0, 0);
        assert_eq!(seed0, cell_of(&base_jobs[0]).1);
        // Nonzero periods draw distinct oracle seeds.
        let (p4, seed4) = cell_of(&jobs[2]);
        let (p16, seed16) = cell_of(&jobs[4]);
        assert_eq!((p4, p16), (4, 16));
        assert_ne!(seed4, seed0);
        assert_ne!(seed4, seed16);
    }

    #[test]
    fn rotation_crosses_the_noise_dimensions_into_combined_cells() {
        // The stack made the combined defense a real grid: every rotation
        // period sweeps the full rates × profiles cross product (with only
        // the physical rate-0 collapse remaining), and the pre-existing
        // cells keep their exact positions and seed derivations.
        let spec = CampaignSpec {
            error_rates: vec![0.0, 0.05],
            profiles: vec![NoiseShape::Uniform, NoiseShape::OutputCone],
            rotation_periods: vec![0, 8],
            ..Default::default()
        };
        let jobs = spec.expand().unwrap();
        let cells: Vec<(u64, f64, NoiseShape)> = jobs
            .iter()
            .map(|j| {
                let JobKind::Attack {
                    rotation_period,
                    error_rate,
                    profile,
                    ..
                } = &j.kind;
                (*rotation_period, *error_rate, *profile)
            })
            .collect();
        assert_eq!(
            cells,
            [
                (0, 0.0, NoiseShape::Uniform),
                (0, 0.05, NoiseShape::Uniform),
                (0, 0.05, NoiseShape::OutputCone),
                (8, 0.0, NoiseShape::Uniform),
                (8, 0.05, NoiseShape::Uniform),
                (8, 0.05, NoiseShape::OutputCone),
            ]
        );

        // Combined-cell seed salts compose: the rotating noisy cells draw
        // streams distinct from both single-defense cells, while each
        // single-defense cell keeps its historical derivation (checked by
        // the collapse-free sub-specs).
        let oracle_of = |j: &JobSpec| {
            let JobKind::Attack { seeds, .. } = &j.kind;
            seeds.oracle
        };
        let noise_only = oracle_of(&jobs[1]);
        let rotation_only = oracle_of(&jobs[3]);
        let combined = oracle_of(&jobs[4]);
        assert_ne!(combined, noise_only);
        assert_ne!(combined, rotation_only);
        // Single-dimension sub-specs reproduce their cells byte-for-byte.
        let noise_spec = CampaignSpec {
            error_rates: vec![0.0, 0.05],
            profiles: vec![NoiseShape::Uniform, NoiseShape::OutputCone],
            ..Default::default()
        };
        assert_eq!(oracle_of(&noise_spec.expand().unwrap()[1]), noise_only);
        let rotation_spec = CampaignSpec {
            rotation_periods: vec![0, 8],
            ..Default::default()
        };
        assert_eq!(
            oracle_of(&rotation_spec.expand().unwrap()[1]),
            rotation_only
        );
    }

    #[test]
    fn clock_periods_extend_the_rate_sweep_with_derived_rates() {
        // The physical dimension: clock periods become extra rate sources
        // with Monte-Carlo-derived rates, tagged with their period and
        // salted into the oracle seed. Abstract cells keep clock 0 and
        // their historical seeds.
        let base = CampaignSpec {
            error_rates: vec![0.0],
            ..Default::default()
        };
        let swept = CampaignSpec {
            clock_periods_ns: vec![0.8, 6.0],
            ..base.clone()
        };
        let jobs = swept.expand().unwrap();
        assert_eq!(jobs.len(), 3, "one abstract + two physical cells");
        let cell_of = |j: &JobSpec| {
            let JobKind::Attack {
                error_rate,
                clock_ns,
                seeds,
                ..
            } = &j.kind;
            (*clock_ns, *error_rate, seeds.oracle)
        };
        let (c0, r0, seed0) = cell_of(&jobs[0]);
        assert_eq!((c0, r0), (0.0, 0.0));
        assert_eq!(seed0, cell_of(&base.expand().unwrap()[0]).2);
        let (c1, r1, seed1) = cell_of(&jobs[1]);
        assert_eq!(c1, 0.8);
        assert!(r1 > 0.2, "0.8 ns clock should err often: {r1}");
        assert_ne!(seed1, seed0);
        let (c2, r2, seed2) = cell_of(&jobs[2]);
        assert_eq!(c2, 6.0);
        assert!(r2 < 0.05, "6 ns clock is near-deterministic: {r2}");
        assert_ne!(seed2, seed1);
    }

    fn expand_error(spec: CampaignSpec) -> String {
        spec.expand()
            .expect_err("out-of-range spec must not expand")
    }

    #[test]
    fn zero_scale_is_rejected() {
        let err = expand_error(CampaignSpec {
            scale: 0,
            ..Default::default()
        });
        assert!(err.contains("scale must be at least 1, got 0"), "{err}");
    }

    #[test]
    fn zero_trials_is_rejected() {
        let err = expand_error(CampaignSpec {
            trials: 0,
            ..Default::default()
        });
        assert!(err.contains("trials must be at least 1, got 0"), "{err}");
    }

    #[test]
    fn timeout_past_the_clock_is_rejected() {
        let err = expand_error(CampaignSpec {
            timeout: Duration::from_secs(u64::MAX),
            ..Default::default()
        });
        assert!(err.contains("got 18446744073709551615 s"), "{err}");
    }

    #[test]
    fn zero_level_is_rejected() {
        let err = expand_error(CampaignSpec {
            levels: vec![0.1, 0.0],
            ..Default::default()
        });
        assert!(err.contains("(0, 1], got 0"), "{err}");
    }

    #[test]
    fn level_above_one_is_rejected() {
        let err = expand_error(CampaignSpec {
            levels: vec![1.5],
            ..Default::default()
        });
        assert!(err.contains("(0, 1], got 1.5"), "{err}");
    }

    #[test]
    fn error_rate_above_one_is_rejected() {
        let err = expand_error(CampaignSpec {
            error_rates: vec![0.0, 1.5],
            ..Default::default()
        });
        assert!(err.contains("[0, 1], got 1.5"), "{err}");
    }

    #[test]
    fn negative_error_rate_is_rejected() {
        let err = expand_error(CampaignSpec {
            error_rates: vec![-0.1],
            ..Default::default()
        });
        assert!(err.contains("[0, 1], got -0.1"), "{err}");
    }

    #[test]
    fn nan_level_and_error_rate_are_rejected() {
        let err = expand_error(CampaignSpec {
            levels: vec![f64::NAN],
            ..Default::default()
        });
        assert!(err.contains("got NaN"), "{err}");
        let err = expand_error(CampaignSpec {
            error_rates: vec![f64::NAN],
            ..Default::default()
        });
        assert!(err.contains("got NaN"), "{err}");
    }

    #[test]
    fn clock_periods_parse_from_toml_and_reject_nonpositive() {
        let spec = CampaignSpec::parse_toml("clock_periods_ns = [0.8, 2.0, 6.0]").unwrap();
        assert_eq!(spec.clock_periods_ns, [0.8, 2.0, 6.0]);
        let err = CampaignSpec::parse_toml("clock_periods_ns = [0.0]").unwrap_err();
        assert!(err.contains("positive"), "{err}");
        assert!(CampaignSpec::parse_toml("clock_periods_ns = [-1.0]").is_err());
        assert!(CampaignSpec::parse_toml("clock_periods_ns = [oops]").is_err());
    }

    #[test]
    fn topology_and_sat_simplify_parse_from_toml() {
        let spec = CampaignSpec::parse_toml("topology = \"local\"\nsat_simplify = \"on\"").unwrap();
        assert_eq!(spec.topology, Topology::Local);
        assert_eq!(spec.sat_simplify, SimplifyMode::On);
        // Defaults: uniform wiring, the cone path, no simplification.
        let default = CampaignSpec::default();
        assert_eq!(default.topology, Topology::Uniform);
        assert_eq!(default.coi_mode, CoiMode::On);
        assert_eq!(default.sat_simplify, SimplifyMode::Off);

        let err = CampaignSpec::parse_toml("topology = \"spiral\"").unwrap_err();
        assert!(err.contains("uniform, local"), "{err}");
        let err = CampaignSpec::parse_toml("sat_simplify = \"auto\"").unwrap_err();
        assert!(err.contains("valid: on, off"), "{err}");
        // The cone of influence is not a spec knob.
        assert!(!SPEC_KEYS.contains(&"coi_mode"));
    }

    #[test]
    fn aag_selectors_pass_through_and_stamp_topology() {
        let spec = CampaignSpec {
            benchmarks: vec!["tests/data/epfl_ctrl.aag".into(), "c7552".into()],
            topology: Topology::Local,
            ..Default::default()
        };
        assert_eq!(
            spec.resolve_benchmarks().unwrap(),
            ["tests/data/epfl_ctrl.aag", "c7552"]
        );
        let jobs = spec.expand().unwrap();
        let JobKind::Attack {
            benchmark,
            topology,
            ..
        } = &jobs[0].kind;
        assert_eq!(benchmark, "tests/data/epfl_ctrl.aag");
        assert_eq!(*topology, Topology::Local);
    }

    #[test]
    fn rotation_periods_parse_from_toml() {
        let spec = CampaignSpec::parse_toml("rotation_periods = [0, 1, 16, 64]").unwrap();
        assert_eq!(spec.rotation_periods, [0, 1, 16, 64]);
        assert!(CampaignSpec::parse_toml("rotation_periods = [1.5]").is_err());
        assert!(CampaignSpec::parse_toml("rotation_periods = [-1]").is_err());
    }

    #[test]
    fn errors_name_the_valid_alternatives() {
        let err = CampaignSpec::parse_toml("bogus = 1").unwrap_err();
        assert!(err.contains("valid keys:"), "{err}");
        assert!(err.contains("rotation_periods"), "{err}");
        let err = CampaignSpec::parse_toml(r#"schemes = ["nope"]"#).unwrap_err();
        assert!(err.contains("gshe16"), "{err}");
        let err = CampaignSpec::parse_toml(r#"attacks = ["nope"]"#).unwrap_err();
        assert!(err.contains("double-dip"), "{err}");
        let err = CampaignSpec::parse_toml(r#"profiles = ["nope"]"#).unwrap_err();
        assert!(err.contains("depth-gradient"), "{err}");
    }

    #[test]
    fn profiles_parse_from_toml() {
        let spec = CampaignSpec::parse_toml(r#"profiles = ["uniform", "depth-gradient"]"#).unwrap();
        assert_eq!(
            spec.profiles,
            [NoiseShape::Uniform, NoiseShape::DepthGradient]
        );
        let all = CampaignSpec::parse_toml(r#"profiles = ["all"]"#).unwrap();
        assert_eq!(all.profiles, NoiseShape::ALL.to_vec());
        assert!(CampaignSpec::parse_toml(r#"profiles = ["nope"]"#).is_err());
    }

    #[test]
    fn suite_selectors_expand() {
        let spec = CampaignSpec {
            benchmarks: vec!["suite:itc99".into()],
            ..Default::default()
        };
        assert_eq!(spec.resolve_benchmarks().unwrap(), ["b14", "b21"]);
        let bad = CampaignSpec {
            benchmarks: vec!["nope".into()],
            ..Default::default()
        };
        assert!(bad.resolve_benchmarks().is_err());
    }

    /// A sample value for every key, spelled for a spec file and as a
    /// flag; each differs from the key's default.
    const SAMPLES: [(&str, &str, &str); 16] = [
        ("name", r#""smoke""#, "smoke"),
        (
            "benchmarks",
            r#"["c7552", "suite:itc99"]"#,
            "c7552,suite:itc99",
        ),
        ("scale", "40", "40"),
        ("topology", r#""local""#, "local"),
        ("levels", "[0.1, 0.2]", "0.1,0.2"),
        ("schemes", r#"["inv-buf", "gshe16"]"#, "inv-buf,gshe16"),
        ("attacks", r#"["sat", "appsat"]"#, "sat,appsat"),
        ("sat_simplify", r#""on""#, "on"),
        ("error_rates", "[0.0, 0.05]", "0,0.05"),
        ("clock_periods_ns", "[0.8, 6.0]", "0.8,6"),
        (
            "profiles",
            r#"["uniform", "depth-gradient"]"#,
            "uniform,depth-gradient",
        ),
        ("rotation_periods", "[0, 32]", "0,32"),
        ("trials", "2", "2"),
        ("seed", "9", "9"),
        ("timeout_secs", "30", "30"),
        ("threads", "4", "4"),
    ];

    #[test]
    fn toml_round_trip() {
        // Every key once from its file spelling and once from its flag
        // spelling: both front ends must build the same spec.
        let mut text = String::from("# A worked example.\n[campaign]\n");
        let mut from_flags = CampaignSpec::default();
        for key in SPEC_KEYS {
            let (_, file, flag) = SAMPLES
                .iter()
                .find(|sample| sample.0 == key)
                .unwrap_or_else(|| panic!("no sample for key `{key}`"));
            text.push_str(&format!("{key} = {file}\n"));
            let flag_name = format!("--{}", key.replace('_', "-"));
            assert_eq!(flag_key(&flag_name).as_deref(), Some(key));
            from_flags.set(key, SpecValue::Flag(flag)).unwrap();
        }
        let spec = CampaignSpec::parse_toml(&text).unwrap();
        assert_eq!(spec, from_flags);
        assert_eq!(spec.name, "smoke");
        assert_eq!(spec.benchmarks, ["c7552", "suite:itc99"]);
        assert_eq!(spec.scale, 40);
        assert_eq!(spec.levels, [0.1, 0.2]);
        assert_eq!(spec.schemes, [CamoScheme::InvBuf, CamoScheme::GsheAll16]);
        assert_eq!(spec.attacks, [AttackKind::Sat, AttackKind::AppSat]);
        assert_eq!(spec.error_rates, [0.0, 0.05]);
        assert_eq!(spec.rotation_periods, [0, 32]);
        assert_eq!(spec.trials, 2);
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.timeout, Duration::from_secs(30));
        assert_eq!(spec.threads, 4);

        // Selectors and errors read the same through both front ends.
        for (line, key, flag, accepted) in [
            (r#"schemes = ["all"]"#, "schemes", "all", true),
            (r#"profiles = ["all"]"#, "profiles", "all", true),
            ("clock_periods_ns = [0.0]", "clock_periods_ns", "0", false),
            ("bogus = 1", "bogus", "1", false),
        ] {
            let from_file = CampaignSpec::parse_toml(line);
            let mut spec = CampaignSpec::default();
            let from_flag = spec.set(key, SpecValue::Flag(flag)).map(|()| spec);
            assert_eq!(from_file.is_ok(), accepted, "{line}");
            assert_eq!(from_file, from_flag.map_err(|e| format!("line 1: {e}")));
        }
    }

    #[test]
    fn toml_rejects_unknown_keys_and_schemes() {
        assert!(CampaignSpec::parse_toml("bogus = 1").is_err());
        assert!(CampaignSpec::parse_toml(r#"schemes = ["nope"]"#).is_err());
        assert!(CampaignSpec::parse_toml("name = unquoted").is_err());
    }

    #[test]
    fn hash_inside_quoted_string_is_not_a_comment() {
        let spec = CampaignSpec::parse_toml("name = \"run#3\" # trailing comment").unwrap();
        assert_eq!(spec.name, "run#3");
    }

    #[test]
    fn scheme_names_round_trip() {
        for scheme in CamoScheme::ALL {
            assert_eq!(parse_scheme(scheme_name(scheme)), Some(scheme));
        }
        assert_eq!(parse_scheme("nope"), None);
    }

    #[test]
    fn all_scheme_selector_expands() {
        let spec = CampaignSpec::parse_toml(r#"schemes = ["all"]"#).unwrap();
        assert_eq!(spec.schemes, CamoScheme::ALL.to_vec());
    }
}
