//! Regenerates the **Sec. V-B stochastic-defense study**: the GSHE switch
//! tuned for e.g. 95% accuracy feeds SAT-style attacks inconsistent
//! input-output observations; the attacks return wrong keys or collapse.
//! Includes the AppSAT contender (fn. 6) and the device-level derivation of
//! the error-rate knob (clock period vs. Fig. 4 delay distribution).
//!
//! The 4-accuracy × 2-attack × 5-trial grid is one campaign: every cell
//! runs as a pooled job, so the trials run in parallel. The error-rate
//! knob is one device Monte Carlo run, every clock period read off its
//! samples.

use gshe_bench::{fail, HarnessArgs};
use gshe_core::campaign::{
    AttackSeeds, Campaign, CampaignSpec, JobKind, JobResult, JobSpec, JobStatus, NoiseShape,
};
use gshe_core::device::{miss_rate, MonteCarlo, MonteCarloConfig, SwitchParams};
use gshe_core::logic::Topology;
use gshe_core::prelude::{AttackKind, CamoScheme};

const ACCURACIES: [f64; 4] = [1.0, 0.99, 0.95, 0.90];
const TRIALS: u64 = 5;

fn main() {
    let args = HarnessArgs::parse(&["--scale", "--timeout", "--samples", "--seed", "--threads"]);

    // Attack grid: accuracy sweep × {SAT, AppSAT} × trials, all on the
    // c7552-like benchmark at 20% protection (historical seeds: selection
    // seed ^ 7, transform seed, per-trial oracle seed ^ t).
    let mut jobs = Vec::new();
    for &acc in &ACCURACIES {
        for trial in 0..TRIALS {
            for attack in [AttackKind::Sat, AttackKind::AppSat] {
                jobs.push(JobSpec {
                    kind: JobKind::Attack {
                        benchmark: "c7552".to_string(),
                        topology: Topology::Uniform,
                        scheme: CamoScheme::GsheAll16,
                        level: 0.20,
                        attack,
                        error_rate: 1.0 - acc,
                        clock_ns: 0.0,
                        profile: NoiseShape::Uniform,
                        rotation_period: 0,
                        trial,
                        seeds: AttackSeeds {
                            select: args.seed ^ 7,
                            transform: args.seed,
                            oracle: args.seed ^ trial,
                        },
                    },
                    timeout: args.timeout,
                });
            }
        }
    }

    let spec = CampaignSpec {
        name: "exp_stochastic".to_string(),
        scale: args.scale.max(40),
        seed: args.seed,
        timeout: args.timeout,
        threads: args.threads,
        ..Default::default()
    };
    let report = Campaign::run_jobs(&spec, jobs).unwrap_or_else(|e| fail(&e));

    // Device-level: how the error rate is tuned (Sec. V-B point (ii)).
    let samples = MonteCarlo::new(MonteCarloConfig {
        params: SwitchParams::table_i(),
        samples: args.samples.min(1000),
        seed: args.seed,
    })
    .run(20e-6);
    println!("SEC. V-B — STOCHASTIC SWITCHING AGAINST SAT ATTACKS");
    println!("\nerror-rate knob (device Monte Carlo, I_S = 20 uA):");
    for t_clk in [1.0e-9, 1.5e-9, 2.0e-9, 3.0e-9, 6.0e-9] {
        println!(
            "  clock {:>4.1} ns -> per-device error rate {:>5.1}%",
            t_clk * 1e9,
            miss_rate(&samples, t_clk) * 100.0
        );
    }

    println!(
        "\nattack success vs oracle accuracy (c7552-like, 20% protection, {} trials each):",
        TRIALS
    );
    println!(
        "{:>9} {:>14} {:>14} {:>16}",
        "accuracy", "SAT success", "AppSAT success", "typical outcome"
    );
    println!("{:-<60}", "");
    for &acc in &ACCURACIES {
        let eps = 1.0 - acc;
        let cell = |attack: AttackKind| -> Vec<&JobResult> {
            report
                .results
                .iter()
                .filter(|r| match &r.spec.kind {
                    JobKind::Attack {
                        attack: a,
                        error_rate,
                        ..
                    } => *a == attack && (*error_rate - eps).abs() < 1e-12,
                    _ => false,
                })
                .collect()
        };
        let sat = cell(AttackKind::Sat);
        let app = cell(AttackKind::AppSat);
        let sat_ok = sat.iter().filter(|r| r.key_recovered).count();
        let app_ok = app.iter().filter(|r| r.key_recovered).count();
        let last = if eps == 0.0 {
            "exact key recovered"
        } else {
            match sat.last().map(|r| r.status) {
                Some(JobStatus::Inconsistent) => "inconsistent constraints",
                Some(JobStatus::TimedOut) => "timeout",
                Some(JobStatus::Completed) => "wrong key",
                _ => "solver failure",
            }
        };
        println!(
            "{:>8.0}% {:>11}/{} {:>13}/{} {:>18}",
            acc * 100.0,
            sat_ok,
            TRIALS,
            app_ok,
            TRIALS,
            last
        );
    }
    println!("{:-<60}", "");
    println!("paper claim: 95% accuracy implies 5% of observed patterns are wrong;");
    println!("SAT-style attacks assume a consistent oracle and fail — including");
    println!("AppSAT, whose PAC reasoning needs consistent input-output queries.");
    println!(
        "campaign: {} jobs on {} threads in {:.1}s wall",
        report.results.len(),
        report.threads,
        report.wall_time.as_secs_f64()
    );
}
