//! Regenerates **Table IV**: SAT-attack runtimes for all seven schemes ×
//! protection levels × benchmarks — now driven by the campaign engine,
//! which runs the whole grid through a work-stealing pool with a shared
//! oracle cache instead of a single-threaded loop.
//!
//! The paper's fairness protocol is respected: for each benchmark, gates
//! are selected once (seeded), memorized, and reapplied across every
//! scheme — the job list pins one selection seed per (benchmark, level).
//! Runtimes are wall-clock seconds; `t-o` marks the configured timeout
//! (the paper used 48 h on a Xeon; default here is 60 s on scaled
//! netlists — the *ordering* across schemes/levels is the reproduced
//! artifact, per DESIGN.md substitution 3).
//!
//! Usage: `table4 [--scale N] [--timeout SECS] [--seed N] [--only BENCH]
//! [--threads N] [--levels FRACTIONS]`, with levels as fractions of gates
//! camouflaged (default `0.1,0.2,0.3,0.4`).

use gshe_bench::{runtime_cell, HarnessArgs};
use gshe_core::campaign::{
    AttackSeeds, Campaign, CampaignSpec, JobKind, JobSpec, JobStatus, NoiseShape,
};
use gshe_core::logic::Topology;
use gshe_core::prelude::{AttackKind, CamoScheme};

const BENCHES: [&str; 7] = [
    "aes_core",
    "b14",
    "b21",
    "c7552",
    "ex1010",
    "log2",
    "pci_bridge32",
];

fn main() {
    let args = HarnessArgs::parse();

    // Build the job grid with the historical seed derivation: one gate
    // selection per (benchmark, level), shared by every scheme.
    let mut jobs = Vec::new();
    for name in BENCHES {
        if !args.only.is_empty() && name != args.only {
            continue;
        }
        for &level in &args.levels {
            let select = args.seed ^ (level * 1000.0) as u64;
            for scheme in CamoScheme::ALL {
                jobs.push(JobSpec {
                    kind: JobKind::Attack {
                        benchmark: name.to_string(),
                        topology: Topology::Uniform,
                        scheme,
                        level,
                        attack: AttackKind::Sat,
                        error_rate: 0.0,
                        clock_ns: 0.0,
                        profile: NoiseShape::Uniform,
                        rotation_period: 0,
                        trial: 0,
                        seeds: AttackSeeds {
                            select,
                            transform: args.seed,
                            oracle: args.seed,
                        },
                    },
                    timeout: args.timeout,
                });
            }
        }
    }

    let spec = CampaignSpec {
        name: "table4".to_string(),
        scale: args.scale,
        seed: args.seed,
        timeout: args.timeout,
        threads: args.threads,
        ..Default::default()
    };
    let report = Campaign::run_jobs(&spec, jobs).expect("table4 campaign");

    println!(
        "TABLE IV — SAT-ATTACK RUNTIME (seconds; t-o = {}s; scale 1/{}; {} threads)",
        args.timeout.as_secs(),
        args.scale,
        report.threads,
    );
    let header: Vec<String> = CamoScheme::ALL.iter().map(|s| s.to_string()).collect();
    println!("{:<14} {:>5}  {}", "Benchmark", "prot", header.join("  "));
    println!("{:-<120}", "");

    for name in BENCHES {
        if !args.only.is_empty() && name != args.only {
            continue;
        }
        for &level in &args.levels {
            let mut cells: Vec<String> = Vec::new();
            for scheme in CamoScheme::ALL {
                for result in report.cell_results(name, scheme, level) {
                    let status = match result.status {
                        JobStatus::Completed => "success",
                        JobStatus::TimedOut => "timeout",
                        JobStatus::Inconsistent => "inconsistent",
                        JobStatus::Exhausted => "exhausted",
                        JobStatus::Failed => {
                            cells.push(format!("err:{}", result.error.as_deref().unwrap_or("?")));
                            continue;
                        }
                    };
                    cells.push(format!(
                        "{:>8}",
                        runtime_cell(status, result.elapsed.as_secs_f64())
                    ));
                }
            }
            println!("{:<14} {:>4.0}%  {}", name, level * 100.0, cells.join("  "));
        }
    }
    println!("{:-<120}", "");
    println!(
        "columns: {}",
        CamoScheme::ALL.map(|s| format!("{s}")).join(" | ")
    );
    println!("expected shape: runtime grows left-to-right (more cloaked functions)");
    println!("and top-to-bottom within a benchmark (more gates protected);");
    println!("the all-16 GSHE column saturates to t-o first.");
    let (hits, misses) = (report.cache_hits, report.cache_misses);
    println!(
        "campaign: {} jobs in {:.1}s wall; oracle cache {hits} hits / {misses} misses",
        report.results.len(),
        report.wall_time.as_secs_f64(),
    );
}
