//! A uniform, `Send`-able entry point over the three attacks.
//!
//! The campaign engine (and anything else that schedules attacks across
//! threads) needs one budgeted call signature instead of three: an
//! [`AttackRunner`] names the algorithm, carries its wall-clock budget, and
//! is a plain `Copy + Send` value, so a job description can cross thread
//! boundaries and the attack itself runs wherever the job lands.

use crate::appsat::{appsat_attack, AppSatConfig};
use crate::double_dip::double_dip_attack;
use crate::oracle::Oracle;
use crate::sat_attack::{sat_attack, AttackConfig, AttackOutcome};
use gshe_camo::KeyedNetlist;
use std::time::Duration;

/// Which attack algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackKind {
    /// The oracle-guided SAT attack (Subramanyan et al.).
    Sat,
    /// Double DIP (Shen & Zhou): each query rules out ≥ 2 wrong keys.
    DoubleDip,
    /// AppSAT (Shamsi et al.): SAT attack with random-query reinforcement
    /// and approximate early exit.
    AppSat,
}

impl AttackKind {
    /// All attack kinds, in the paper's presentation order.
    pub const ALL: [AttackKind; 3] = [AttackKind::Sat, AttackKind::DoubleDip, AttackKind::AppSat];

    /// Short machine-friendly name (used in spec files and CSV headers).
    pub fn name(self) -> &'static str {
        match self {
            AttackKind::Sat => "sat",
            AttackKind::DoubleDip => "double-dip",
            AttackKind::AppSat => "appsat",
        }
    }

    /// Parses [`AttackKind::name`] back into a kind.
    pub fn parse(name: &str) -> Option<AttackKind> {
        AttackKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

impl std::fmt::Display for AttackKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A fully-specified, budgeted attack invocation: algorithm + limits.
///
/// `Copy + Send + 'static`, so it can be embedded in job descriptions that
/// move across worker threads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackRunner {
    /// The algorithm.
    pub kind: AttackKind,
    /// Budget and solver limits shared by all three algorithms.
    pub config: AttackConfig,
    /// Seed for AppSAT's random reinforcement queries (ignored by the
    /// other attacks).
    pub seed: u64,
}

impl AttackRunner {
    /// A runner with the given wall-clock budget and default limits.
    pub fn new(kind: AttackKind, timeout: Duration, seed: u64) -> Self {
        AttackRunner {
            kind,
            config: AttackConfig {
                timeout,
                ..Default::default()
            },
            seed,
        }
    }

    /// A runner with full control over the engine limits — the scoring
    /// entry point for callers (the campaign profile search) that set
    /// the limits per evaluation instead of per campaign.
    pub fn with_config(kind: AttackKind, config: AttackConfig, seed: u64) -> Self {
        AttackRunner { kind, config, seed }
    }

    /// Runs the configured attack against `keyed` using `oracle`.
    pub fn run(&self, keyed: &KeyedNetlist, oracle: &mut dyn Oracle) -> AttackOutcome {
        match self.kind {
            AttackKind::Sat => sat_attack(keyed, oracle, &self.config),
            AttackKind::DoubleDip => double_dip_attack(keyed, oracle, &self.config),
            AttackKind::AppSat => {
                let config = AppSatConfig {
                    base: self.config,
                    seed: self.seed,
                    ..Default::default()
                };
                appsat_attack(keyed, oracle, &config)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::verify_key;
    use crate::sat_attack::AttackStatus;
    use crate::stack::OracleStack;
    use gshe_camo::{camouflage, select_gates, CamoScheme};
    use gshe_logic::bench_format::{parse_bench, C17_BENCH};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn send_check<T: Send + 'static>(_: &T) {}

    #[test]
    fn runner_is_send_and_breaks_c17_with_every_kind() {
        let nl = Arc::new(parse_bench(C17_BENCH).unwrap());
        let picks = select_gates(&nl, 1.0, 5);
        let mut rng = StdRng::seed_from_u64(5);
        let keyed = camouflage(&nl, &picks, CamoScheme::GsheAll16, &mut rng).unwrap();
        for kind in AttackKind::ALL {
            let runner = AttackRunner::new(kind, Duration::from_secs(30), 1);
            send_check(&runner);
            let mut oracle = OracleStack::exact(&nl);
            let out = runner.run(&keyed, &mut oracle);
            assert_eq!(out.status, AttackStatus::Success, "{kind}");
            let v = verify_key(&nl, &keyed, out.key.as_ref().unwrap()).unwrap();
            assert!(v.functionally_equivalent, "{kind}");
        }
    }

    #[test]
    fn with_config_reaches_the_engine() {
        // The scoring entry point: the runner's config, not a default,
        // bounds the engine's DIP loop.
        let nl = Arc::new(parse_bench(C17_BENCH).unwrap());
        let picks = select_gates(&nl, 1.0, 5);
        let mut rng = StdRng::seed_from_u64(5);
        let keyed = camouflage(&nl, &picks, CamoScheme::GsheAll16, &mut rng).unwrap();
        let config = crate::AttackConfig {
            max_iterations: Some(1),
            ..crate::AttackConfig::with_timeout_secs(30)
        };
        let runner = AttackRunner::with_config(AttackKind::Sat, config, 1);
        let mut oracle = OracleStack::exact(&nl);
        let out = runner.run(&keyed, &mut oracle);
        assert_eq!(out.status, AttackStatus::Timeout);
        assert_eq!((out.iterations, out.queries), (1, 1));
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in AttackKind::ALL {
            assert_eq!(AttackKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(AttackKind::parse("nope"), None);
    }
}
