//! Campaign reports: aggregation plus JSON/CSV serialization.
//!
//! Serializers are hand-rolled (the environment has no serde); they cover
//! exactly the report shape. Two JSON flavors exist: [`CampaignReport::to_json`]
//! includes wall-clock runtimes, while [`CampaignReport::deterministic_json`]
//! omits every timing field — that form is byte-identical across thread
//! counts and is what the determinism tests compare.

use crate::aggregate::{aggregate, TableRow};
use crate::job::{JobKind, JobResult, NoiseShape};
use crate::pool::{pool_summary, WorkerStats};
use crate::spec::scheme_name;
use gshe_logic::Topology;
use std::fmt::Write as _;
use std::time::Duration;

/// Everything a campaign run produced.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Campaign name (from the spec).
    pub name: String,
    /// Raw per-job results, in submission order.
    pub results: Vec<JobResult>,
    /// Aggregated attack-grid rows.
    pub rows: Vec<TableRow>,
    /// Worker threads the run actually used.
    pub threads: usize,
    /// Total wall-clock time of the run.
    pub wall_time: Duration,
    /// Per-worker pool activity over this run (indexed by worker id);
    /// empty when the runner didn't capture pool deltas. Wall-clock data,
    /// so it surfaces only on the timing side of serializations.
    pub pool: Vec<WorkerStats>,
}

impl CampaignReport {
    /// Builds a report by aggregating `results`.
    pub fn new(name: String, results: Vec<JobResult>, threads: usize, wall_time: Duration) -> Self {
        let rows = aggregate(&results);
        CampaignReport {
            name,
            results,
            rows,
            threads,
            wall_time,
            pool: Vec::new(),
        }
    }

    /// Attaches per-worker pool activity deltas captured over this run.
    pub fn with_pool_stats(mut self, pool: Vec<WorkerStats>) -> Self {
        self.pool = pool;
        self
    }

    /// Full JSON, including wall-clock timings and run metadata.
    pub fn to_json(&self) -> String {
        self.render_json(true)
    }

    /// JSON with every timing and machine-dependent field omitted: a pure
    /// function of the campaign spec, byte-identical at any thread count.
    pub fn deterministic_json(&self) -> String {
        self.render_json(false)
    }

    fn render_json(&self, timing: bool) -> String {
        let mut out = String::new();
        out.push('{');
        json_str(&mut out, "campaign", &self.name);
        if timing {
            out.push(',');
            let _ = write!(
                out,
                "\"threads\":{},\"wall_time_secs\":{}",
                self.threads,
                json_f64(self.wall_time.as_secs_f64()),
            );
            out.push_str(",\"pool\":{\"workers\":[");
            for (i, w) in self.pool.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"tasks\":{},\"busy_ns\":{},\"idle_ns\":{}}}",
                    w.tasks, w.busy_ns, w.idle_ns
                );
            }
            let (_, _, utilization) = pool_summary(&self.pool);
            let _ = write!(out, "],\"utilization\":{}}}", json_f64(utilization));
        }
        out.push_str(",\"rows\":[");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            json_str(&mut out, "benchmark", &row.key.benchmark);
            out.push(',');
            json_str(&mut out, "scheme", scheme_name(row.key.scheme));
            out.push(',');
            json_str(&mut out, "attack", row.key.attack.name());
            let _ = write!(
                out,
                ",\"level\":{},\"error_rate\":{},\"trials\":{},\
                 \"completed\":{},\"timed_out\":{},\"exhausted\":{},\
                 \"inconsistent\":{},\"failed\":{},\
                 \"key_recovery_rate\":{},\"mean_queries\":{},\
                 \"mean_iterations\":{},\"mean_output_error\":{}",
                json_f64(row.key.level),
                json_f64(row.key.error_rate),
                row.trials,
                row.status_counts[0],
                row.status_counts[1],
                row.status_counts[2],
                row.status_counts[3],
                row.status_counts[4],
                json_f64(row.key_recovery_rate),
                json_f64(row.mean_queries),
                json_f64(row.mean_iterations),
                json_f64(row.mean_output_error),
            );
            // The historical defaults — uniform profile, static (period-0)
            // oracle, abstract (clock-0) rate — are left implicit so JSON
            // from specs that don't sweep those dimensions stays
            // byte-identical across refactors.
            if row.key.profile != NoiseShape::Uniform {
                out.push(',');
                json_str(&mut out, "profile", row.key.profile.name());
            }
            if row.key.rotation_period != 0 {
                let _ = write!(out, ",\"rotation_period\":{}", row.key.rotation_period);
            }
            if row.key.clock_ns != 0.0 {
                let _ = write!(out, ",\"clock_ns\":{}", json_f64(row.key.clock_ns));
            }
            if row.key.topology != Topology::Uniform {
                out.push(',');
                json_str(&mut out, "topology", row.key.topology.name());
            }
            if timing {
                let _ = write!(
                    out,
                    ",\"runtime_p50\":{},\"runtime_p90\":{},\"runtime_max\":{},\
                     \"mean_decisions\":{},\"mean_propagations\":{},\"mean_conflicts\":{},\
                     \"mean_restarts\":{},\"mean_learnts_deleted\":{},\
                     \"mean_elim_vars\":{},\"mean_subsumed\":{},\
                     \"mean_strengthened\":{},\"mean_simplify_ms\":{}",
                    json_f64(row.runtime_p50),
                    json_f64(row.runtime_p90),
                    json_f64(row.runtime_max),
                    json_f64(row.mean_decisions),
                    json_f64(row.mean_propagations),
                    json_f64(row.mean_conflicts),
                    json_f64(row.mean_restarts),
                    json_f64(row.mean_learnts_deleted),
                    json_f64(row.mean_elim_vars),
                    json_f64(row.mean_subsumed),
                    json_f64(row.mean_strengthened),
                    json_f64(row.mean_simplify_ms),
                );
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// CSV of the aggregated attack rows (always includes the runtime
    /// columns; consumers that need determinism should use
    /// [`CampaignReport::deterministic_json`]).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "benchmark,scheme,level,attack,error_rate,clock_ns,profile,rotation_period,topology,\
             trials,completed,timed_out,exhausted,inconsistent,failed,key_recovery_rate,\
             mean_queries,mean_iterations,mean_output_error,runtime_p50,runtime_p90,\
             runtime_max\n",
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
                row.key.benchmark,
                scheme_name(row.key.scheme),
                row.key.level,
                row.key.attack.name(),
                row.key.error_rate,
                row.key.clock_ns,
                row.key.profile.name(),
                row.key.rotation_period,
                row.key.topology.name(),
                row.trials,
                row.status_counts[0],
                row.status_counts[1],
                row.status_counts[2],
                row.status_counts[3],
                row.status_counts[4],
                row.key_recovery_rate,
                row.mean_queries,
                row.mean_iterations,
                row.mean_output_error,
                row.runtime_p50,
                row.runtime_p90,
                row.runtime_max,
            );
        }
        out
    }

    /// Results belonging to one grid cell, in trial order — convenience
    /// for harnesses that render per-cell output (Table IV cells).
    pub fn cell_results(
        &self,
        benchmark: &str,
        scheme: gshe_camo::CamoScheme,
        level: f64,
    ) -> Vec<&JobResult> {
        self.results
            .iter()
            .filter(|r| {
                let JobKind::Attack {
                    benchmark: b,
                    scheme: s,
                    level: l,
                    ..
                } = &r.spec.kind;
                b == benchmark && *s == scheme && (*l - level).abs() < 1e-12
            })
            .collect()
    }
}

/// JSON-compatible float rendering: finite values via Rust's shortest
/// round-trip formatting, NaN/infinities as null.
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

pub(crate) fn json_str(out: &mut String, key: &str, value: &str) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":\"");
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{AttackSeeds, JobSpec, JobStatus};
    use gshe_attacks::AttackKind;
    use gshe_camo::CamoScheme;

    fn sample_report() -> CampaignReport {
        let result = JobResult {
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
                    trial: 0,
                    seeds: AttackSeeds {
                        select: 0,
                        transform: 0,
                        oracle: 0,
                    },
                },
                timeout: Duration::from_secs(60),
            },
            status: JobStatus::Completed,
            key_recovered: true,
            queries: 12,
            iterations: 12,
            output_error_rate: 0.0,
            elapsed: Duration::from_millis(1234),
            solver_stats: gshe_sat::SolverStats {
                decisions: 40,
                propagations: 400,
                conflicts: 4,
                restarts: 2,
                deleted: 6,
                elim_vars: 30,
                subsumed: 20,
                strengthened: 10,
                simplify_ns: 5_000_000,
                ..Default::default()
            },
            error: None,
        };
        CampaignReport::new("unit".into(), vec![result], 4, Duration::from_secs(2))
    }

    #[test]
    fn json_shapes_differ_only_in_timing() {
        let report = sample_report();
        let full = report.to_json();
        let det = report.deterministic_json();
        assert!(full.contains("\"wall_time_secs\""));
        assert!(full.contains("\"runtime_p50\""));
        assert!(!det.contains("runtime"));
        assert!(!det.contains("wall_time"));
        assert!(det.contains("\"key_recovery_rate\":1"));
        assert!(det.contains("\"mean_queries\":12"));
        // Solver and pool diagnostics live strictly on the timing side.
        assert!(full.contains("\"mean_decisions\":40"));
        assert!(full.contains("\"mean_propagations\":400"));
        assert!(full.contains("\"mean_conflicts\":4"));
        assert!(full.contains("\"mean_restarts\":2"));
        assert!(full.contains("\"mean_learnts_deleted\":6"));
        assert!(full.contains("\"mean_elim_vars\":30"));
        assert!(full.contains("\"mean_subsumed\":20"));
        assert!(full.contains("\"mean_strengthened\":10"));
        assert!(full.contains("\"mean_simplify_ms\":5"));
        assert!(full.contains("\"pool\":{\"workers\":["));
        assert!(!det.contains("decisions"));
        assert!(!det.contains("restarts"));
        assert!(!det.contains("elim_vars"));
        assert!(!det.contains("simplify"));
        assert!(!det.contains("pool"));
    }

    #[test]
    fn pool_stats_render_per_worker_in_timing_json() {
        let report = sample_report().with_pool_stats(vec![
            WorkerStats {
                tasks: 3,
                busy_ns: 750,
                idle_ns: 250,
            },
            WorkerStats {
                tasks: 2,
                busy_ns: 250,
                idle_ns: 750,
            },
        ]);
        let full = report.to_json();
        assert!(full.contains(
            "\"pool\":{\"workers\":[{\"tasks\":3,\"busy_ns\":750,\"idle_ns\":250},\
             {\"tasks\":2,\"busy_ns\":250,\"idle_ns\":750}],\"utilization\":0.5}"
        ));
        assert!(!report.deterministic_json().contains("pool"));
    }

    #[test]
    fn nan_serializes_as_null() {
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(1.5), "1.5");
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = sample_report().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("benchmark,scheme"));
        assert!(lines[0].contains(",profile,"));
        assert!(lines[1].starts_with("c7552,gshe16,0.2,sat,0,0,uniform,0,"));
    }

    #[test]
    fn uniform_profile_is_implicit_in_json_but_named_otherwise() {
        let mut report = sample_report();
        assert!(!report.deterministic_json().contains("profile"));
        let JobKind::Attack { profile, .. } = &mut report.results[0].spec.kind;
        *profile = NoiseShape::OutputCone;
        let rebuilt = CampaignReport::new(
            report.name.clone(),
            report.results.clone(),
            1,
            Duration::from_secs(1),
        );
        assert!(rebuilt
            .deterministic_json()
            .contains("\"profile\":\"output-cone\""));
        assert!(rebuilt.to_csv().contains(",output-cone,"));
    }

    #[test]
    fn rotation_period_is_implicit_in_json_only_when_static() {
        let mut report = sample_report();
        assert!(!report.deterministic_json().contains("rotation_period"));
        assert!(report.to_csv().contains(",uniform,0,"));
        let JobKind::Attack {
            rotation_period, ..
        } = &mut report.results[0].spec.kind;
        *rotation_period = 16;
        let rebuilt = CampaignReport::new(
            report.name.clone(),
            report.results.clone(),
            1,
            Duration::from_secs(1),
        );
        assert!(rebuilt
            .deterministic_json()
            .contains("\"rotation_period\":16"));
        assert!(rebuilt.to_csv().contains(",uniform,16,"));
    }

    #[test]
    fn topology_is_implicit_in_json_only_when_uniform() {
        let mut report = sample_report();
        assert!(!report.deterministic_json().contains("topology"));
        assert!(
            report.to_csv().contains(",0,uniform,"),
            "{}",
            report.to_csv()
        );
        let JobKind::Attack { topology, .. } = &mut report.results[0].spec.kind;
        *topology = Topology::Local;
        let rebuilt = CampaignReport::new(
            report.name.clone(),
            report.results.clone(),
            1,
            Duration::from_secs(1),
        );
        assert!(rebuilt
            .deterministic_json()
            .contains("\"topology\":\"local\""));
        assert!(rebuilt.to_csv().contains(",0,local,"));
    }

    #[test]
    fn strings_are_escaped() {
        let mut out = String::new();
        json_str(&mut out, "k", "a\"b\\c\nd");
        assert_eq!(out, "\"k\":\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn cell_results_filters() {
        let report = sample_report();
        assert_eq!(
            report
                .cell_results("c7552", CamoScheme::GsheAll16, 0.2)
                .len(),
            1
        );
        assert!(report
            .cell_results("c7552", CamoScheme::InvBuf, 0.2)
            .is_empty());
    }
}
