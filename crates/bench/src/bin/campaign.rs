//! Runs an arbitrary campaign from a TOML spec file or command-line flags
//! and prints the aggregated table, optionally writing JSON/CSV artifacts.
//!
//! Usage:
//!
//! ```text
//! campaign [--spec FILE.toml] [SPEC FLAGS] [--out PREFIX]
//!          [--trace-out FILE] [--metrics-out FILE] [--deterministic]
//!
//! SPEC FLAGS (spec-file key `key_name` = flag `--key-name`):
//!   [--name NAME] [--benchmarks a,b|suite:itc99|all|FILE.aag] [--scale N]
//!   [--topology uniform|local] [--levels FRACTIONS, e.g. 0.1,0.2]
//!   [--schemes x,y|all] [--attacks sat,appsat] [--sat-simplify on|off]
//!   [--error-rates FRACTIONS, e.g. 0,0.05] [--clock-periods-ns 0.8,2,6]
//!   [--profiles uniform,output-cone,depth-gradient|all]
//!   [--rotation-periods QUERIES, e.g. 0,1,16,64] [--trials N] [--seed N]
//!   [--timeout-secs SECS] [--threads N]
//! ```
//!
//! `--spec` is read first, and each spec flag overrides its key wherever it
//! appears. `--deterministic` prints the timing-free JSON (byte-identical
//! across thread counts) instead of the human table; the determinism check
//! pipes two runs of it through `diff`. `campaign --help` describes every
//! flag and lists the valid scheme, attack and profile names.

use gshe_bench::{fail, level_label, SpecArgs};
use gshe_core::campaign::{
    pool_summary, scheme_name, valid_attack_names, valid_profile_names, valid_scheme_names,
    Campaign, CampaignSpec,
};

/// Prints usage, including every valid scheme/attack/profile name.
fn print_help() {
    println!(
        "\
Runs a protect->attack->measure campaign grid and prints the aggregated table.

USAGE:
  campaign [--spec FILE.toml] [SPEC FLAGS] [RUN AND OUTPUT FLAGS]

SPEC FLAGS: the spec-file key `key_name` is the flag `--key-name`, with the
same value and unit (lists comma-separated, strings unquoted); each overrides
the spec file's value.
  --name NAME            report name
  --benchmarks a,b       benchmark names, suite:<name>, `all`, or .aag paths
  --scale N              benchmark scale divisor
  --topology NAME        generator wiring profile: uniform | local
  --levels 0.1,0.2       protection levels as fractions of gates camouflaged
  --schemes x,y          {schemes}
  --attacks x,y          {attacks}
  --sat-simplify MODE    solver preprocessing (variable elimination,
                         subsumption, strengthening): on | off (default off)
  --error-rates 0,0.05   oracle per-cell error rates as fractions
  --clock-periods-ns 0.8,6  physical clock periods in ns as extra rate
                         sources, derived via the device Monte Carlo
  --profiles x,y         {profiles}
  --rotation-periods 0,16  dynamic-camouflaging periods in queries
                         (0 = static oracle; n > 0 stacks a rotation
                         layer; combined with a nonzero rate it attacks
                         the rotating *and* noisy chip)
  --trials N             repeats per grid cell
  --seed N               master seed
  --timeout-secs SECS    per-job attack budget in seconds
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
        profiles = valid_profile_names(),
    );
}

fn main() {
    let args = SpecArgs::parse(print_help);
    let spec = args.spec("campaign", CampaignSpec::parse_toml, CampaignSpec::set);
    args.enable_instrumentation();

    let report = Campaign::run(&spec).unwrap_or_else(|e| fail(&format!("campaign failed: {e}")));

    args.write_outputs(|| (report.to_json(), report.to_csv()));

    if args.deterministic {
        println!("{}", report.deterministic_json());
        return;
    }

    println!(
        "CAMPAIGN `{}` — {} jobs on {} threads in {:.1}s wall",
        report.name,
        report.results.len(),
        report.threads,
        report.wall_time.as_secs_f64(),
    );
    println!(
        "{:<14} {:>8} {:<10} {:>6} {:>10} {:>8} {:>14} {:>7}  {:>6} {:>8} {:>9} {:>9} {:>8} {:>8} {:>10} {:>9} {:>8} {:>9} {:>8}",
        "benchmark",
        "scheme",
        "attack",
        "level",
        "error",
        "clock",
        "profile",
        "period",
        "trials",
        "recov%",
        "queries",
        "err-rate",
        "p50 s",
        "p90 s",
        "decisions",
        "conflicts",
        "restarts",
        "elim-vars",
        "simp ms"
    );
    println!("{:-<187}", "");
    for row in &report.rows {
        println!(
            "{:<14} {:>8} {:<10} {:>6} {:>10.4} {:>8} {:>14} {:>7}  {:>6} {:>7.0}% {:>9.1} {:>9} {:>8.2} {:>8.2} {:>10.0} {:>9.0} {:>8.0} {:>9.0} {:>8.2}",
            row.key.benchmark,
            scheme_name(row.key.scheme),
            row.key.attack.name(),
            level_label(row.key.level),
            row.key.error_rate,
            if row.key.clock_ns == 0.0 {
                "-".to_string()
            } else {
                format!("{}ns", row.key.clock_ns)
            },
            row.key.profile.name(),
            if row.key.rotation_period == 0 {
                "-".to_string()
            } else {
                row.key.rotation_period.to_string()
            },
            row.trials,
            row.key_recovery_rate * 100.0,
            row.mean_queries,
            if row.mean_output_error.is_nan() {
                "-".to_string()
            } else {
                format!("{:.4}", row.mean_output_error)
            },
            row.runtime_p50,
            row.runtime_p90,
            row.mean_decisions,
            row.mean_conflicts,
            row.mean_restarts,
            row.mean_elim_vars,
            row.mean_simplify_ms,
        );
    }
    let (pool_tasks, _, utilization) = pool_summary(&report.pool);
    println!(
        "pool: {} workers ran {} tasks, {:.0}% mean utilization",
        report.pool.len(),
        pool_tasks,
        utilization * 100.0,
    );
}
