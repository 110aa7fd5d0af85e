//! An AppSAT-style approximate attack (Shamsi et al. \[11\]).
//!
//! AppSAT interleaves the exact DIP loop with random-query sampling: every
//! `reinforce_every` DIPs it estimates the error of the current best key on
//! random patterns. If the estimate falls below `error_threshold` the
//! attack exits early with a *probably-approximately-correct* key;
//! mismatching random queries are added as I/O constraints, reinforcing the
//! solver the same way DIPs do.
//!
//! The paper (Sec. V-B, fn. 6) singles out AppSAT as the most promising
//! contender against stochastic computation, but notes it "requires a
//! consistent solution space regarding the input-output queries —
//! probabilistic computation violates this assumption." The
//! `stochastic_oracle_*` tests exercise exactly that failure mode.

use crate::dip_engine::{refine, RefinePolicy};
use crate::oracle::Oracle;
use crate::sat_attack::{AttackConfig, AttackOutcome};
use gshe_camo::KeyedNetlist;

/// AppSAT-specific knobs on top of [`AttackConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppSatConfig {
    /// Base attack configuration.
    pub base: AttackConfig,
    /// Run a random-query reinforcement round every this many DIPs.
    pub reinforce_every: u64,
    /// Random patterns per reinforcement round.
    pub samples_per_round: usize,
    /// Exit early once the sampled error rate of the candidate key drops
    /// to or below this threshold.
    pub error_threshold: f64,
    /// RNG seed for the random queries.
    pub seed: u64,
}

impl Default for AppSatConfig {
    fn default() -> Self {
        AppSatConfig {
            base: AttackConfig::default(),
            reinforce_every: 4,
            samples_per_round: 48,
            error_threshold: 0.0,
            seed: 0xA115A7,
        }
    }
}

/// Runs the AppSAT-style attack. With `error_threshold = 0` and a
/// deterministic oracle it behaves like the exact SAT attack (plus
/// reinforcement queries); with a positive threshold it may return an
/// approximate key early.
///
/// This is the [`RefinePolicy::AppSat`] specialization of the shared
/// [DIP-refinement engine](crate::dip_engine): the single-miter loop with
/// a random-query reinforcement round every `reinforce_every` DIPs.
pub fn appsat_attack(
    keyed: &KeyedNetlist,
    oracle: &mut dyn Oracle,
    config: &AppSatConfig,
) -> AttackOutcome {
    refine(
        keyed,
        oracle,
        &config.base,
        &RefinePolicy::AppSat {
            reinforce_every: config.reinforce_every,
            samples_per_round: config.samples_per_round,
            error_threshold: config.error_threshold,
            seed: config.seed,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::verify_key;
    use crate::sat_attack::{AttackConfig, AttackStatus};
    use crate::stack::tests::cloaked_noise;
    use crate::stack::OracleStack;
    use gshe_camo::{camouflage, select_gates, CamoScheme};
    use gshe_logic::{GeneratorConfig, NetlistGenerator};
    use rand::rngs::StdRng as TestRng;
    use rand::SeedableRng;

    #[test]
    fn appsat_recovers_exact_key_with_deterministic_oracle() {
        // Instance seed picked to converge well inside the wall-clock
        // budget under the vendored StdRng stream.
        let nl = NetlistGenerator::new(GeneratorConfig::new("t", 9, 5, 100).with_seed(42))
            .unwrap()
            .generate();
        let picks = select_gates(&nl, 0.3, 19);
        let mut rng = TestRng::seed_from_u64(19);
        let keyed = camouflage(&nl, &picks, CamoScheme::GsheAll16, &mut rng).unwrap();
        let mut oracle = OracleStack::exact(&nl);
        let out = appsat_attack(&keyed, &mut oracle, &AppSatConfig::default());
        assert_eq!(out.status, AttackStatus::Success);
        let v = verify_key(&nl, &keyed, out.key.as_ref().unwrap()).unwrap();
        assert!(v.functionally_equivalent);
    }

    #[test]
    fn reinforcement_runs_after_every_third_dip() {
        // One reinforcement round per `reinforce_every` DIPs, each round
        // `samples_per_round` oracle queries; a negative threshold never
        // exits early, so every round runs to its full sample count.
        let nl = NetlistGenerator::new(GeneratorConfig::new("t", 9, 5, 100).with_seed(42))
            .unwrap()
            .generate();
        let picks = select_gates(&nl, 0.3, 19);
        let mut rng = TestRng::seed_from_u64(19);
        let keyed = camouflage(&nl, &picks, CamoScheme::GsheAll16, &mut rng).unwrap();
        let mut oracle = OracleStack::exact(&nl);
        let samples = 7;
        let config = AppSatConfig {
            reinforce_every: 3,
            samples_per_round: samples,
            error_threshold: -1.0,
            ..Default::default()
        };
        let out = appsat_attack(&keyed, &mut oracle, &config);
        assert_eq!(out.status, AttackStatus::Success);
        let v = verify_key(&nl, &keyed, out.key.as_ref().unwrap()).unwrap();
        assert!(v.functionally_equivalent);
        assert_eq!(
            out.queries,
            out.iterations + (out.iterations / 3) * samples as u64,
            "{} DIPs",
            out.iterations
        );
        // The first round follows the third DIP, not an earlier one.
        let capped = AppSatConfig {
            base: AttackConfig {
                max_iterations: Some(2),
                ..config.base
            },
            ..config
        };
        let out = appsat_attack(&keyed, &mut OracleStack::exact(&nl), &capped);
        assert_eq!((out.iterations, out.queries), (2, 2));
    }

    #[test]
    fn appsat_early_exit_with_loose_threshold() {
        let nl = NetlistGenerator::new(GeneratorConfig::new("t", 9, 5, 100).with_seed(43))
            .unwrap()
            .generate();
        let picks = select_gates(&nl, 0.4, 23);
        let mut rng = TestRng::seed_from_u64(23);
        let keyed = camouflage(&nl, &picks, CamoScheme::GsheAll16, &mut rng).unwrap();
        let mut oracle = OracleStack::exact(&nl);
        let config = AppSatConfig {
            error_threshold: 1.0, // accept anything at the first round
            reinforce_every: 1,
            ..Default::default()
        };
        let out = appsat_attack(&keyed, &mut oracle, &config);
        assert_eq!(out.status, AttackStatus::Success);
        // Early exit: bounded iterations.
        assert!(out.iterations <= 1, "{} iterations", out.iterations);
    }

    #[test]
    fn stochastic_oracle_breaks_appsat_consistency() {
        // fn. 6: probabilistic computation violates AppSAT's consistency
        // assumption. With a noisy oracle, repeated queries on similar
        // patterns contradict each other and the constraint set collapses
        // (Inconsistent), or the returned key is functionally wrong.
        let nl = NetlistGenerator::new(GeneratorConfig::new("t", 8, 4, 60).with_seed(47))
            .unwrap()
            .generate();
        let picks = select_gates(&nl, 0.5, 29);
        let mut rng = TestRng::seed_from_u64(29);
        let keyed = camouflage(&nl, &picks, CamoScheme::GsheAll16, &mut rng).unwrap();
        let mut broken = 0;
        let trials = 4;
        for seed in 0..trials {
            let mut oracle = OracleStack::noisy(&keyed, cloaked_noise(&keyed, 0.25), seed);
            let config = AppSatConfig {
                base: AttackConfig::with_timeout_secs(20),
                reinforce_every: 2,
                samples_per_round: 32,
                error_threshold: 0.0,
                seed,
            };
            let out = appsat_attack(&keyed, &mut oracle, &config);
            let failed = match out.status {
                AttackStatus::Inconsistent => true,
                AttackStatus::Success => {
                    let v = verify_key(&nl, &keyed, out.key.as_ref().unwrap()).unwrap();
                    !v.functionally_equivalent
                }
                _ => true,
            };
            broken += failed as usize;
        }
        assert!(
            broken >= trials as usize - 1,
            "AppSAT survived noise too often"
        );
    }
}
