//! The oracle-guided SAT attack of Subramanyan et al. (\[8\], \[37\]).
//!
//! Two copies of the keyed circuit share the primary inputs; a miter
//! asserts their outputs differ. While SAT, the model's input assignment is
//! a **discriminating input pattern (DIP)**: it distinguishes at least two
//! key classes. The oracle is queried on the DIP and both key copies are
//! constrained to reproduce the observed outputs, ruling out at least one
//! wrong key class per iteration. When the miter goes UNSAT, any key
//! consistent with the accumulated I/O constraints is functionally correct
//! (for a deterministic oracle).

use crate::coi::CoiMode;
use crate::dip_engine::{refine, RefinePolicy};
use crate::oracle::Oracle;
use gshe_camo::KeyedNetlist;
use gshe_sat::{SimplifyMode, SolverStats};
use std::time::Duration;

/// Attack configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackConfig {
    /// Wall-clock budget (the paper's t-o column; 48 h there, seconds to
    /// minutes at our scale).
    pub timeout: Duration,
    /// Hard cap on DIP iterations (`None` = unlimited).
    pub max_iterations: Option<u64>,
    /// Variable budget (`None` = unlimited): once the attack's formula
    /// has more variables than this, its next solve ends the attack as
    /// [`AttackStatus::ResourceExhausted`]. The default mirrors the
    /// scalability failure the paper observes ("internal error in
    /// 'lglib.c': more than 134,217,724 variables").
    pub max_vars: Option<usize>,
    /// Cone-of-influence miter reduction ([`CoiMode::On`] by default:
    /// whenever the cloaked cells reach a strict subset of the outputs,
    /// the attack runs on their output cone, at any design size;
    /// [`CoiMode::Off`] is the full-design reference path).
    pub coi: CoiMode,
    /// SAT simplification for the shared incremental solver
    /// ([`SimplifyMode::Off`] by default; [`SimplifyMode::On`]
    /// preprocesses the miter — subsumption, self-subsumption
    /// strengthening, and bounded variable elimination — at the first
    /// solve).
    pub simplify: SimplifyMode,
}

impl Default for AttackConfig {
    fn default() -> Self {
        AttackConfig {
            timeout: Duration::from_secs(60),
            max_iterations: None,
            max_vars: Some(134_217_724),
            coi: CoiMode::default(),
            simplify: SimplifyMode::default(),
        }
    }
}

impl AttackConfig {
    /// Convenience constructor with a wall-clock budget in seconds.
    pub fn with_timeout_secs(secs: u64) -> Self {
        AttackConfig {
            timeout: Duration::from_secs(secs),
            ..Default::default()
        }
    }

    /// Returns the configuration with the cone-of-influence mode set.
    pub fn with_coi_mode(self, coi: CoiMode) -> Self {
        AttackConfig { coi, ..self }
    }

    /// Returns the configuration with the SAT simplification mode set
    /// (spec-driven callers resolve the `sat_simplify` key via
    /// [`SimplifyMode::parse`]).
    pub fn with_simplify_mode(self, simplify: SimplifyMode) -> Self {
        AttackConfig { simplify, ..self }
    }
}

/// How an attack ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackStatus {
    /// The DIP loop converged and a key was extracted.
    Success,
    /// The wall-clock budget ran out (the paper's "t-o").
    Timeout,
    /// The attack's formula outgrew its variable budget
    /// ([`AttackConfig::max_vars`]; the paper's "computational failure"
    /// rows).
    ResourceExhausted,
    /// The accumulated I/O constraints became contradictory — no key can
    /// explain the oracle's answers. The signature failure mode against the
    /// stochastic GSHE oracle (Sec. V-B).
    Inconsistent,
}

/// Attack result.
#[derive(Debug, Clone)]
pub struct AttackOutcome {
    /// Terminal status.
    pub status: AttackStatus,
    /// The extracted key (on success).
    pub key: Option<Vec<bool>>,
    /// DIP iterations performed.
    pub iterations: u64,
    /// Oracle queries issued.
    pub queries: u64,
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// Final solver statistics.
    pub solver_stats: SolverStats,
}

/// Runs the SAT attack against `keyed` (attacker's view: structure and
/// candidate sets only) using `oracle` as the working chip.
///
/// This is the [`RefinePolicy::Single`] specialization of the shared
/// [DIP-refinement engine](crate::dip_engine).
pub fn sat_attack(
    keyed: &KeyedNetlist,
    oracle: &mut dyn Oracle,
    config: &AttackConfig,
) -> AttackOutcome {
    refine(keyed, oracle, config, &RefinePolicy::Single)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::verify_key;
    use crate::stack::tests::cloaked_noise;
    use crate::stack::OracleStack;
    use gshe_camo::{camouflage, select_gates, CamoScheme};
    use gshe_logic::bench_format::{parse_bench, C17_BENCH};
    use gshe_logic::{GeneratorConfig, Netlist, NetlistGenerator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn attack_and_verify(nl: &Arc<Netlist>, scheme: CamoScheme, fraction: f64) -> AttackOutcome {
        let picks = select_gates(nl, fraction, 55);
        let mut rng = StdRng::seed_from_u64(55);
        let keyed = camouflage(nl, &picks, scheme, &mut rng).unwrap();
        let mut oracle = OracleStack::exact(nl);
        let out = sat_attack(&keyed, &mut oracle, &AttackConfig::with_timeout_secs(30));
        assert_eq!(out.status, AttackStatus::Success, "{scheme}");
        let key = out.key.as_ref().unwrap();
        let v = verify_key(nl, &keyed, key).unwrap();
        assert!(
            v.functionally_equivalent,
            "{scheme}: recovered key is wrong"
        );
        out
    }

    #[test]
    fn c17_fully_camouflaged_is_broken_for_every_scheme() {
        let nl = Arc::new(parse_bench(C17_BENCH).unwrap());
        for scheme in CamoScheme::ALL {
            attack_and_verify(&nl, scheme, 1.0);
        }
    }

    #[test]
    fn generated_circuit_20pct_gshe16() {
        let nl = Arc::new(
            NetlistGenerator::new(GeneratorConfig::new("t", 10, 6, 150).with_seed(2))
                .unwrap()
                .generate(),
        );
        let out = attack_and_verify(&nl, CamoScheme::GsheAll16, 0.2);
        assert!(out.iterations > 0);
        assert_eq!(out.queries, out.iterations);
    }

    #[test]
    fn more_functions_need_no_fewer_dips() {
        // Sanity on the paper's core observation: richer candidate sets
        // do not make the attack easier (same circuit, same picks).
        let nl = Arc::new(
            NetlistGenerator::new(GeneratorConfig::new("t", 8, 4, 80).with_seed(4))
                .unwrap()
                .generate(),
        );
        let small = attack_and_verify(&nl, CamoScheme::InvBuf, 0.25);
        let big = attack_and_verify(&nl, CamoScheme::GsheAll16, 0.25);
        assert!(big.solver_stats.decisions >= small.solver_stats.decisions);
    }

    #[test]
    fn zero_timeout_reports_timeout() {
        let nl = Arc::new(parse_bench(C17_BENCH).unwrap());
        let picks = select_gates(&nl, 1.0, 1);
        let mut rng = StdRng::seed_from_u64(1);
        let keyed = camouflage(&nl, &picks, CamoScheme::GsheAll16, &mut rng).unwrap();
        let mut oracle = OracleStack::exact(&nl);
        let config = AttackConfig {
            timeout: Duration::from_millis(0),
            ..Default::default()
        };
        let out = sat_attack(&keyed, &mut oracle, &config);
        assert_eq!(out.status, AttackStatus::Timeout);
        assert!(out.key.is_none());
    }

    #[test]
    fn stochastic_oracle_defeats_the_attack() {
        // Sec. V-B: with a noisy oracle the attack either derives a wrong
        // key or collapses to inconsistency — it must not recover the
        // correct function reliably.
        let nl = Arc::new(
            NetlistGenerator::new(GeneratorConfig::new("t", 8, 4, 60).with_seed(6))
                .unwrap()
                .generate(),
        );
        let picks = select_gates(&nl, 0.5, 9);
        let mut rng = StdRng::seed_from_u64(9);
        let keyed = camouflage(&nl, &picks, CamoScheme::GsheAll16, &mut rng).unwrap();
        let mut failures = 0;
        let trials = 4;
        for seed in 0..trials {
            let mut oracle = OracleStack::noisy(&keyed, cloaked_noise(&keyed, 0.25), seed);
            let out = sat_attack(&keyed, &mut oracle, &AttackConfig::with_timeout_secs(20));
            let broken = match out.status {
                AttackStatus::Inconsistent => true,
                AttackStatus::Success => {
                    let v = verify_key(&nl, &keyed, out.key.as_ref().unwrap()).unwrap();
                    !v.functionally_equivalent
                }
                _ => true,
            };
            failures += broken as usize;
        }
        assert!(
            failures >= trials as usize - 1,
            "attack survived noise too often"
        );
    }
}
