//! Reduction of raw job results into the paper's table rows.
//!
//! One [`TableRow`] summarizes every trial of one grid cell — (benchmark,
//! scheme, level, attack, error rate) — with the metrics the paper reports:
//! key-recovery rate (Tables IV–V), oracle query counts (the Double DIP
//! study), output error rate (Sec. V-B), and runtime percentiles (the
//! t-o columns). Rows appear in first-seen result order, which is
//! submission order, so aggregation is deterministic.

use crate::job::{JobKind, JobResult, JobStatus, NoiseShape};
use gshe_attacks::AttackKind;
use gshe_camo::CamoScheme;
use gshe_logic::Topology;

/// Identity of one attack-grid cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellKey {
    /// Benchmark name.
    pub benchmark: String,
    /// Netlist topology profile the benchmark was generated with
    /// ([`Topology::Uniform`] is the historical generator).
    pub topology: Topology,
    /// Camouflaging scheme.
    pub scheme: CamoScheme,
    /// Protection level (fraction).
    pub level: f64,
    /// Attack algorithm.
    pub attack: AttackKind,
    /// Oracle per-cell error rate.
    pub error_rate: f64,
    /// Physical clock period, ns, the rate was derived from (0 =
    /// abstract spec-level rate).
    pub clock_ns: f64,
    /// Error-profile shape the rate was applied with.
    pub profile: NoiseShape,
    /// Dynamic-camouflaging rotation period (0 = static oracle).
    pub rotation_period: u64,
}

/// Aggregated metrics for one attack-grid cell.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRow {
    /// Which cell this row summarizes.
    pub key: CellKey,
    /// Trials aggregated.
    pub trials: u64,
    /// Trials per terminal status, in [`JobStatus`] declaration order:
    /// completed, timed-out, exhausted, inconsistent, failed.
    pub status_counts: [u64; 5],
    /// Fraction of trials whose recovered key was functionally correct.
    pub key_recovery_rate: f64,
    /// Mean oracle queries per trial.
    pub mean_queries: f64,
    /// Mean DIP iterations per trial.
    pub mean_iterations: f64,
    /// Mean sampled output error rate over trials that produced a key
    /// (NaN when none did).
    pub mean_output_error: f64,
    /// Median job runtime, seconds (wall clock — not deterministic).
    pub runtime_p50: f64,
    /// 90th-percentile job runtime, seconds.
    pub runtime_p90: f64,
    /// Maximum job runtime, seconds.
    pub runtime_max: f64,
    /// Mean CDCL decisions per trial (timing-side diagnostic only).
    pub mean_decisions: f64,
    /// Mean CDCL propagations per trial (timing-side diagnostic only).
    pub mean_propagations: f64,
    /// Mean CDCL conflicts per trial (timing-side diagnostic only).
    pub mean_conflicts: f64,
    /// Mean CDCL restarts per trial (timing-side diagnostic only).
    pub mean_restarts: f64,
    /// Mean learnt clauses deleted by DB reduction per trial (timing-side
    /// diagnostic only).
    pub mean_learnts_deleted: f64,
    /// Mean variables removed by bounded variable elimination per trial
    /// (timing-side diagnostic only).
    pub mean_elim_vars: f64,
    /// Mean clauses removed by backward subsumption per trial
    /// (timing-side diagnostic only).
    pub mean_subsumed: f64,
    /// Mean literals removed by self-subsumption strengthening per trial
    /// (timing-side diagnostic only).
    pub mean_strengthened: f64,
    /// Mean milliseconds spent preprocessing per trial (timing-side
    /// diagnostic only).
    pub mean_simplify_ms: f64,
}

/// One device-measurement result, passed through (device jobs have no
/// trial grid to reduce over).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceRow {
    /// `"delay"` or `"error-rate"`.
    pub kind: &'static str,
    /// Spin current, A.
    pub i_s: f64,
    /// Clock period for error-rate rows, s (NaN for delay rows).
    pub t_clk: f64,
    /// Monte Carlo samples.
    pub samples: usize,
    /// The measurement (seconds or rate).
    pub value: f64,
}

fn status_index(status: JobStatus) -> usize {
    match status {
        JobStatus::Completed => 0,
        JobStatus::TimedOut => 1,
        JobStatus::Exhausted => 2,
        JobStatus::Inconsistent => 3,
        JobStatus::Failed => 4,
    }
}

/// Index of the percentile `q` in a sorted sample of `n` (nearest-rank).
fn rank(q: f64, n: usize) -> usize {
    (((q * n as f64).ceil() as usize).max(1) - 1).min(n - 1)
}

/// Reduces raw results into attack table rows and device rows.
pub fn aggregate(results: &[JobResult]) -> (Vec<TableRow>, Vec<DeviceRow>) {
    let mut rows: Vec<(CellKey, Vec<&JobResult>)> = Vec::new();
    let mut device = Vec::new();
    for result in results {
        match &result.spec.kind {
            JobKind::Attack {
                benchmark,
                topology,
                scheme,
                level,
                attack,
                error_rate,
                clock_ns,
                profile,
                rotation_period,
                ..
            } => {
                let key = CellKey {
                    benchmark: benchmark.clone(),
                    topology: *topology,
                    scheme: *scheme,
                    level: *level,
                    attack: *attack,
                    error_rate: *error_rate,
                    clock_ns: *clock_ns,
                    profile: *profile,
                    rotation_period: *rotation_period,
                };
                match rows.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, bucket)) => bucket.push(result),
                    None => rows.push((key, vec![result])),
                }
            }
            JobKind::DeviceDelay { i_s, samples, .. } => device.push(DeviceRow {
                kind: "delay",
                i_s: *i_s,
                t_clk: f64::NAN,
                samples: *samples,
                value: result.measurement,
            }),
            JobKind::DeviceErrorRate {
                i_s,
                t_clk,
                samples,
                ..
            } => device.push(DeviceRow {
                kind: "error-rate",
                i_s: *i_s,
                t_clk: *t_clk,
                samples: *samples,
                value: result.measurement,
            }),
        }
    }

    let table = rows
        .into_iter()
        .map(|(key, bucket)| {
            let n = bucket.len() as u64;
            let mut status_counts = [0u64; 5];
            for r in &bucket {
                status_counts[status_index(r.status)] += 1;
            }
            let recovered = bucket.iter().filter(|r| r.key_recovered).count();
            let with_key: Vec<f64> = bucket
                .iter()
                .filter(|r| !r.output_error_rate.is_nan())
                .map(|r| r.output_error_rate)
                .collect();
            let mut runtimes: Vec<f64> = bucket.iter().map(|r| r.elapsed.as_secs_f64()).collect();
            runtimes.sort_by(f64::total_cmp);
            let m = runtimes.len();
            let mut solver = gshe_sat::SolverStats::default();
            for r in &bucket {
                solver += r.solver_stats;
            }
            TableRow {
                key,
                trials: n,
                status_counts,
                key_recovery_rate: recovered as f64 / n as f64,
                mean_queries: bucket.iter().map(|r| r.queries).sum::<u64>() as f64 / n as f64,
                mean_iterations: bucket.iter().map(|r| r.iterations).sum::<u64>() as f64 / n as f64,
                mean_output_error: if with_key.is_empty() {
                    f64::NAN
                } else {
                    with_key.iter().sum::<f64>() / with_key.len() as f64
                },
                runtime_p50: runtimes[rank(0.5, m)],
                runtime_p90: runtimes[rank(0.9, m)],
                runtime_max: runtimes[m - 1],
                mean_decisions: solver.decisions as f64 / n as f64,
                mean_propagations: solver.propagations as f64 / n as f64,
                mean_conflicts: solver.conflicts as f64 / n as f64,
                mean_restarts: solver.restarts as f64 / n as f64,
                mean_learnts_deleted: solver.deleted as f64 / n as f64,
                mean_elim_vars: solver.elim_vars as f64 / n as f64,
                mean_subsumed: solver.subsumed as f64 / n as f64,
                mean_strengthened: solver.strengthened as f64 / n as f64,
                mean_simplify_ms: solver.simplify_ns as f64 / 1e6 / n as f64,
            }
        })
        .collect();
    (table, device)
}

impl TableRow {
    /// Compact human-readable cell for runtime tables: the p50 runtime, or
    /// the dominant failure marker (`t-o`, `incons`, `fail`).
    pub fn runtime_cell(&self) -> String {
        let [completed, timed_out, exhausted, inconsistent, failed] = self.status_counts;
        let max = *self.status_counts.iter().max().unwrap();
        if completed == max {
            format!("{:.1}", self.runtime_p50)
        } else if timed_out == max {
            "t-o".to_string()
        } else if inconsistent == max {
            "incons".to_string()
        } else {
            let _ = (exhausted, failed);
            "fail".to_string()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{AttackSeeds, JobSpec};
    use std::time::Duration;

    fn result(trial: u64, status: JobStatus, queries: u64, secs: f64) -> JobResult {
        JobResult {
            spec: JobSpec {
                kind: JobKind::Attack {
                    benchmark: "c7552".into(),
                    topology: Topology::Uniform,
                    scheme: CamoScheme::GsheAll16,
                    level: 0.2,
                    attack: AttackKind::Sat,
                    error_rate: 0.0,
                    clock_ns: 0.0,
                    profile: NoiseShape::Uniform,
                    rotation_period: 0,
                    trial,
                    seeds: AttackSeeds {
                        select: 0,
                        transform: 0,
                        oracle: 0,
                    },
                },
                timeout: Duration::from_secs(60),
            },
            status,
            key_recovered: status == JobStatus::Completed,
            queries,
            iterations: queries,
            output_error_rate: if status == JobStatus::Completed {
                0.0
            } else {
                f64::NAN
            },
            measurement: f64::NAN,
            elapsed: Duration::from_secs_f64(secs),
            solver_stats: gshe_sat::SolverStats {
                decisions: 10 * queries,
                propagations: 100 * queries,
                conflicts: queries,
                restarts: 2 * queries,
                deleted: 3 * queries,
                elim_vars: 4 * queries,
                subsumed: 5 * queries,
                strengthened: 6 * queries,
                simplify_ns: 1_000_000 * queries,
                ..Default::default()
            },
            error: None,
        }
    }

    #[test]
    fn trials_reduce_into_one_row() {
        let results = vec![
            result(0, JobStatus::Completed, 10, 1.0),
            result(1, JobStatus::Completed, 20, 3.0),
            result(2, JobStatus::TimedOut, 5, 60.0),
        ];
        let (rows, device) = aggregate(&results);
        assert!(device.is_empty());
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row.trials, 3);
        assert_eq!(row.status_counts, [2, 1, 0, 0, 0]);
        assert!((row.key_recovery_rate - 2.0 / 3.0).abs() < 1e-12);
        assert!((row.mean_queries - 35.0 / 3.0).abs() < 1e-12);
        assert_eq!(row.runtime_p50, 3.0);
        assert_eq!(row.runtime_max, 60.0);
        assert_eq!(row.mean_output_error, 0.0);
        assert!((row.mean_decisions - 350.0 / 3.0).abs() < 1e-12);
        assert!((row.mean_propagations - 3500.0 / 3.0).abs() < 1e-12);
        assert!((row.mean_conflicts - 35.0 / 3.0).abs() < 1e-12);
        assert!((row.mean_restarts - 70.0 / 3.0).abs() < 1e-12);
        assert!((row.mean_learnts_deleted - 105.0 / 3.0).abs() < 1e-12);
        assert!((row.mean_elim_vars - 140.0 / 3.0).abs() < 1e-12);
        assert!((row.mean_subsumed - 175.0 / 3.0).abs() < 1e-12);
        assert!((row.mean_strengthened - 210.0 / 3.0).abs() < 1e-12);
        assert!((row.mean_simplify_ms - 35.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn runtime_cell_prefers_dominant_status() {
        let (rows, _) = aggregate(&[result(0, JobStatus::Completed, 1, 2.5)]);
        assert_eq!(rows[0].runtime_cell(), "2.5");
        let (rows, _) = aggregate(&[
            result(0, JobStatus::TimedOut, 1, 60.0),
            result(1, JobStatus::TimedOut, 1, 60.0),
            result(2, JobStatus::Completed, 1, 2.0),
        ]);
        assert_eq!(rows[0].runtime_cell(), "t-o");
    }

    #[test]
    fn device_rows_pass_through() {
        let mut r = result(0, JobStatus::Completed, 0, 0.1);
        r.spec.kind = JobKind::DeviceDelay {
            i_s: 20e-6,
            samples: 100,
            seed: 1,
        };
        r.measurement = 1.5e-9;
        let (rows, device) = aggregate(&[r]);
        assert!(rows.is_empty());
        assert_eq!(device.len(), 1);
        assert_eq!(device[0].kind, "delay");
        assert_eq!(device[0].value, 1.5e-9);
    }

    #[test]
    fn rank_is_sane() {
        assert_eq!(rank(0.5, 1), 0);
        assert_eq!(rank(0.5, 4), 1);
        assert_eq!(rank(0.9, 10), 8);
        assert_eq!(rank(1.0, 10), 9);
    }
}
