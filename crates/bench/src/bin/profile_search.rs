//! Searches for the cheapest error profile that still defeats the spec'd
//! attacks — the defender's inverse problem — and prints the Pareto front
//! (noisy-switch count & mean rate vs. attack success).
//!
//! Usage:
//!
//! ```text
//! profile-search --spec FILE.toml [--out PREFIX] [--deterministic]
//! profile-search [--benchmark ex1010] [--scale N] [--level PCT]
//!                [--scheme gshe16] [--attacks sat,appsat]
//!                [--rotation-period N] [--clock-periods-ns 0.8,2,6]
//!                [--trials N] [--generations N] [--lambda N]
//!                [--target-success FRAC] [--seed N] [--timeout SECS]
//!                [--threads N] [--cache-cap N]
//!                [--out PREFIX] [--deterministic]
//! ```
//!
//! `--rotation-period N` (> 0) searches the **combined**-defense frontier:
//! the cheapest noise given that rotation budget. `--out PREFIX` writes
//! `PREFIX.json` and `PREFIX.csv`. `--deterministic` prints the
//! timing-free JSON (byte-identical across thread counts) instead of the
//! human table.
//!
//! `--spec` is applied first; every other flag overrides the spec file's
//! value regardless of where it appears on the command line.

use gshe_core::campaign::search::{ProfileSearch, SearchReport, SearchSpec, SEARCH_KEYS};
use gshe_core::campaign::{valid_attack_names, valid_scheme_names, EvalSession};
use gshe_core::prelude::AttackKind;
use std::time::Duration;

/// Prints `error: <msg>` and exits with status 2 (CLI misuse / bad spec).
fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn print_help() {
    println!(
        "\
Hill-climbs / (1+lambda)-evolves per-switch error-rate profiles toward the
cheapest defense that still defeats the attacks, and prints the Pareto front.

USAGE:
  profile-search --spec FILE.toml [--out PREFIX] [--deterministic]
  profile-search [SEARCH FLAGS] [--out PREFIX] [--deterministic]

SEARCH FLAGS (each overrides the spec file's value):
  --benchmark NAME       benchmark under defense
  --scale N              benchmark scale divisor
  --level PCT            protection level in percent
  --scheme NAME          {schemes}
  --attacks x,y          {attacks}
  --rotation-period N    0 = noise-only frontier; N > 0 searches the
                         combined-defense frontier under that rotation
                         budget
  --clock-periods-ns 0.8,2,6  physics seed points for generation 0
  --trials N             attack trials per (candidate, attack)
  --generations N        mutation generations after the physics seeds
  --lambda N             offspring per generation
  --target-success FRAC  highest attacker success rate a winner may show
  --seed N               master seed (the whole search replays from it)
  --timeout SECS         wall-clock budget per attack trial
  --threads N            workers (0 = available parallelism)
  --cache-cap N          oracle-cache entry cap (0 = unbounded)

OUTPUT:
  --out PREFIX           write PREFIX.json and PREFIX.csv
  --trace-out FILE       enable instrumentation and write a Chrome
                         trace-event JSON (chrome://tracing / Perfetto)
  --metrics-out FILE     enable instrumentation and write a metrics
                         snapshot (counters + histogram buckets) as JSON
  --deterministic        print timing-free JSON (byte-identical across
                         thread counts) instead of the human table

Spec files use `key = value` TOML lines with these keys:
  {keys}",
        schemes = valid_scheme_names(),
        attacks = valid_attack_names(),
        keys = SEARCH_KEYS.join(", "),
    );
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut spec = SearchSpec::default();
    let mut out_prefix: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut deterministic = false;

    // Load the spec file first (wherever --spec appears) so explicit flags
    // always override it, independent of argument order.
    if let Some(pos) = argv.iter().position(|a| a == "--spec") {
        let value = argv
            .get(pos + 1)
            .unwrap_or_else(|| fail("missing value for --spec; see --help for usage"));
        let text = std::fs::read_to_string(value)
            .unwrap_or_else(|e| fail(&format!("cannot read spec `{value}`: {e}")));
        spec = SearchSpec::parse_toml(&text)
            .unwrap_or_else(|e| fail(&format!("bad spec `{value}`: {e}")));
    }

    let mut i = 0;
    while i < argv.len() {
        let key = argv[i].as_str();
        if key == "--help" || key == "-h" {
            print_help();
            return;
        }
        if key == "--deterministic" {
            deterministic = true;
            i += 1;
            continue;
        }
        let value = argv
            .get(i + 1)
            .unwrap_or_else(|| fail(&format!("missing value for {key}; see --help for usage")))
            .clone();
        match key {
            "--spec" => {} // handled in the pre-pass above
            "--benchmark" => spec.benchmark = value,
            "--scale" => {
                spec.scale = value
                    .parse()
                    .unwrap_or_else(|_| fail("--scale takes an integer"))
            }
            "--level" => {
                spec.level = value
                    .parse::<f64>()
                    .unwrap_or_else(|_| fail("--level takes a percent, e.g. 15"))
                    / 100.0
            }
            "--scheme" => {
                spec.scheme = gshe_core::campaign::parse_scheme(&value).unwrap_or_else(|| {
                    fail(&format!(
                        "unknown scheme `{value}` (valid: {})",
                        valid_scheme_names()
                    ))
                })
            }
            "--attacks" => {
                spec.attacks = value
                    .split(',')
                    .map(|n| {
                        AttackKind::parse(n).unwrap_or_else(|| {
                            fail(&format!(
                                "unknown attack `{n}` (valid: {})",
                                valid_attack_names()
                            ))
                        })
                    })
                    .collect()
            }
            "--rotation-period" => {
                spec.rotation_period = value
                    .parse()
                    .unwrap_or_else(|_| fail("--rotation-period takes an integer"))
            }
            "--clock-periods-ns" => {
                spec.clock_periods_ns = value
                    .split(',')
                    .map(|v| {
                        let ns: f64 = v.parse().unwrap_or_else(|_| {
                            fail("--clock-periods-ns takes positive nanoseconds, e.g. 0.8,2,6")
                        });
                        if !gshe_core::campaign::physical::is_valid_clock_period(ns) {
                            fail("--clock-periods-ns takes positive nanoseconds, e.g. 0.8,2,6");
                        }
                        ns
                    })
                    .collect()
            }
            "--trials" => {
                spec.trials = value
                    .parse()
                    .unwrap_or_else(|_| fail("--trials takes an integer"))
            }
            "--generations" => {
                spec.generations = value
                    .parse()
                    .unwrap_or_else(|_| fail("--generations takes an integer"))
            }
            "--lambda" => {
                spec.lambda = value
                    .parse()
                    .unwrap_or_else(|_| fail("--lambda takes an integer"))
            }
            "--target-success" => {
                spec.target_success = value
                    .parse()
                    .unwrap_or_else(|_| fail("--target-success takes a fraction"))
            }
            "--seed" => {
                spec.seed = value
                    .parse()
                    .unwrap_or_else(|_| fail("--seed takes an integer"))
            }
            "--timeout" => {
                spec.timeout = Duration::from_secs(
                    value
                        .parse()
                        .unwrap_or_else(|_| fail("--timeout takes seconds")),
                )
            }
            "--threads" => {
                spec.threads = value
                    .parse()
                    .unwrap_or_else(|_| fail("--threads takes an integer"))
            }
            "--cache-cap" => {
                spec.cache_cap = value
                    .parse()
                    .unwrap_or_else(|_| fail("--cache-cap takes an integer (0 = unbounded)"))
            }
            "--out" => out_prefix = Some(value),
            "--trace-out" => trace_out = Some(value),
            "--metrics-out" => metrics_out = Some(value),
            other => fail(&format!(
                "unknown option `{other}` (run `profile-search --help` for the flag list)"
            )),
        }
        i += 2;
    }

    // Flip the instrumentation switch before any scoring work runs.
    if trace_out.is_some() {
        gshe_core::obs::enable_tracing();
    } else if metrics_out.is_some() {
        gshe_core::obs::enable();
    }

    let session = EvalSession::with_cache_cap(spec.threads, spec.cache_cap);
    let search = ProfileSearch::new(&session, spec)
        .unwrap_or_else(|e| fail(&format!("search setup failed: {e}")));
    let report = search.run();

    if let Some(prefix) = &out_prefix {
        std::fs::write(format!("{prefix}.json"), report.to_json())
            .unwrap_or_else(|e| fail(&format!("cannot write {prefix}.json: {e}")));
        std::fs::write(format!("{prefix}.csv"), report.to_csv())
            .unwrap_or_else(|e| fail(&format!("cannot write {prefix}.csv: {e}")));
        eprintln!("wrote {prefix}.json and {prefix}.csv");
    }
    if let Some(path) = &trace_out {
        std::fs::write(path, gshe_core::obs::trace_json())
            .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
        eprintln!("wrote Chrome trace to {path}");
    }
    if let Some(path) = &metrics_out {
        std::fs::write(path, gshe_core::obs::metrics_json())
            .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
        eprintln!("wrote metrics snapshot to {path}");
    }

    if deterministic {
        println!("{}", report.deterministic_json());
        return;
    }

    print_human(&report);
}

fn print_human(report: &SearchReport) {
    let spec = &report.spec;
    println!(
        "PROFILE SEARCH `{}` — {} candidates scored on {} threads in {:.1}s wall",
        spec.name,
        report.evaluated.len(),
        report.threads,
        report.wall_time.as_secs_f64(),
    );
    println!(
        "defense: {} x1/{} · {} @ {:.0}% · attacks {} · {}",
        spec.benchmark,
        spec.scale,
        gshe_core::campaign::scheme_name(spec.scheme),
        spec.level * 100.0,
        spec.attacks
            .iter()
            .map(|a| a.name())
            .collect::<Vec<_>>()
            .join(","),
        if spec.rotation_period == 0 {
            "noise-only frontier".to_string()
        } else {
            format!(
                "combined frontier (rotation period {})",
                spec.rotation_period
            )
        },
    );
    let (hits, misses, entries, evictions, cap) = report.cache;
    println!(
        "oracle cache: {} hits / {} misses / {} entries ({}, {} evictions)",
        hits,
        misses,
        entries,
        if cap == u64::MAX {
            "unbounded".to_string()
        } else {
            format!("cap {cap}")
        },
        evictions,
    );
    println!();
    println!("PARETO FRONT (cheapest winning profiles, front-first):");
    println!("        gen switches mean-rate success%   queries  origin");
    println!("  {:-<100}", "");
    let front_set = &report.front;
    for &i in front_set {
        print_row(&report.evaluated[i], true);
    }
    for (i, row) in report.evaluated.iter().enumerate() {
        if !front_set.contains(&i) {
            print_row(row, false);
        }
    }
}

fn print_row(row: &gshe_core::campaign::ScoredCandidate, on_front: bool) {
    println!(
        "  {:<5} {:>3} {:>8} {:>9.4} {:>7.0}% {:>9.1}  {}",
        if on_front {
            "FRONT"
        } else if row.wins {
            "win"
        } else {
            "lose"
        },
        row.generation,
        row.noisy_switches,
        row.mean_rate,
        row.success_rate * 100.0,
        row.mean_queries,
        row.candidate.origin,
    );
}
