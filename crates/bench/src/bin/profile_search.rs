//! Searches for the cheapest error profile that still defeats the spec'd
//! attacks — the defender's inverse problem — and prints the Pareto front
//! (noisy-switch count & mean rate vs. attack success).
//!
//! Usage:
//!
//! ```text
//! profile-search [--spec FILE.toml] [SPEC FLAGS] [--out PREFIX]
//!                [--trace-out FILE] [--metrics-out FILE] [--deterministic]
//!
//! SPEC FLAGS (spec-file key `key_name` = flag `--key-name`):
//!   [--name NAME] [--benchmark ex1010] [--scale N]
//!   [--level FRACTION, e.g. 0.15] [--scheme gshe16] [--attacks sat,appsat]
//!   [--rotation-period QUERIES] [--clock-periods-ns 0.8,2,6] [--trials N]
//!   [--generations N] [--lambda N] [--target-success FRACTION] [--seed N]
//!   [--timeout-secs SECS] [--threads N]
//! ```
//!
//! `--rotation-period N` (> 0) searches the **combined**-defense frontier:
//! the cheapest noise given that rotation budget. `--spec` is read first,
//! and each spec flag overrides its key wherever it appears.
//! `--deterministic` prints the timing-free JSON (byte-identical across
//! thread counts) instead of the human table. `profile-search --help`
//! describes every flag.

use gshe_bench::{fail, SpecArgs};
use gshe_core::campaign::search::{ProfileSearch, SearchReport, SearchSpec};
use gshe_core::campaign::{valid_attack_names, valid_scheme_names, EvalSession};

fn print_help() {
    println!(
        "\
Hill-climbs / (1+lambda)-evolves per-switch error-rate profiles toward the
cheapest defense that still defeats the attacks, and prints the Pareto front.

USAGE:
  profile-search [--spec FILE.toml] [SPEC FLAGS] [RUN AND OUTPUT FLAGS]

SPEC FLAGS: the spec-file key `key_name` is the flag `--key-name`, with the
same value and unit (lists comma-separated, strings unquoted); each overrides
the spec file's value.
  --name NAME            search name
  --benchmark NAME       benchmark under defense
  --scale N              benchmark scale divisor
  --level 0.15           protection level as a fraction of gates camouflaged
  --scheme NAME          {schemes}
  --attacks x,y          {attacks}
  --rotation-period N    rotation budget in queries: 0 = noise-only
                         frontier; N > 0 searches the combined-defense
                         frontier under that rotation budget
  --clock-periods-ns 0.8,2,6  physics seed points for generation 0, in ns
  --trials N             attack trials per (candidate, attack)
  --generations N        mutation generations after the physics seeds
  --lambda N             offspring per generation
  --target-success FRAC  highest attacker success rate a winner may show,
                         as a fraction
  --seed N               master seed (the whole search replays from it)
  --timeout-secs SECS    wall-clock budget per attack trial in seconds
  --threads N            workers (0 = available parallelism)

RUN AND OUTPUT FLAGS:
  --spec FILE.toml       read the spec file before any other flag
  --out PREFIX           write PREFIX.json and PREFIX.csv
  --trace-out FILE       enable instrumentation and write a Chrome
                         trace-event JSON (chrome://tracing / Perfetto)
  --metrics-out FILE     enable instrumentation and write a metrics
                         snapshot (counters + histogram buckets) as JSON
  --deterministic        print timing-free JSON (byte-identical across
                         thread counts) instead of the human table",
        schemes = valid_scheme_names(),
        attacks = valid_attack_names(),
    );
}

fn main() {
    let args = SpecArgs::parse(print_help);
    let spec = args.spec("profile-search", SearchSpec::parse_toml, SearchSpec::set);
    args.enable_instrumentation();

    let session = EvalSession::new(spec.threads);
    let search = ProfileSearch::new(&session, spec)
        .unwrap_or_else(|e| fail(&format!("search setup failed: {e}")));
    let report = search.run();

    args.write_outputs(|| (report.to_json(), report.to_csv()));

    if args.deterministic {
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
    let (hits, misses, entries) = report.cache;
    println!("oracle cache: {hits} hits / {misses} misses / {entries} entries");
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
