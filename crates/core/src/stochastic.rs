//! Stochastic operation of the primitive (Sec. V-B).
//!
//! The GSHE switch's switching delay is a random variable (Fig. 4). Clock
//! the primitive faster than the delay distribution's tail and evaluations
//! occasionally miss the deadline — the output error rate becomes a *knob*
//! set by the clock period and the spin current: "the error rate for any
//! switch can be tuned individually".
//! [`gshe_device::miss_rate`] reads the rate off the device Monte Carlo's
//! delay samples, and [`gshe_campaign::ClockRateTable`] maps clock periods
//! to rates that way (in the campaign crate, so campaigns can sweep
//! physical clock periods); [`StochasticPrimitive`] applies it at the
//! logic level.

use crate::config::GsheConfig;
use gshe_logic::Bf2;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A GSHE primitive operated in the stochastic regime.
#[derive(Debug, Clone)]
pub struct StochasticPrimitive {
    config: GsheConfig,
    error_rate: f64,
    rng: StdRng,
    evaluations: u64,
    errors: u64,
}

impl StochasticPrimitive {
    /// Creates a stochastic primitive with the given per-evaluation error
    /// rate (e.g. from [`gshe_device::miss_rate`] or
    /// [`gshe_campaign::ClockRateTable`]).
    ///
    /// # Panics
    ///
    /// Panics if `error_rate` is outside `[0, 1]`.
    pub fn new(config: GsheConfig, error_rate: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&error_rate),
            "error rate must be in [0, 1]"
        );
        StochasticPrimitive {
            config,
            error_rate,
            rng: StdRng::seed_from_u64(seed ^ 0x6A7E_57CC),
            evaluations: 0,
            errors: 0,
        }
    }

    /// The configured error rate.
    pub fn error_rate(&self) -> f64 {
        self.error_rate
    }

    /// The nominal (error-free) function.
    pub fn function(&self) -> Bf2 {
        self.config.function()
    }

    /// Evaluates once; with probability `error_rate` the output is flipped
    /// (missed deadline leaves the magnet in the stale/metastable state and
    /// the read-out reports the wrong direction).
    pub fn evaluate(&mut self, a: bool, b: bool) -> bool {
        self.evaluations += 1;
        let ideal = self.config.evaluate(a, b);
        if self.error_rate > 0.0 && self.rng.gen_bool(self.error_rate) {
            self.errors += 1;
            !ideal
        } else {
            ideal
        }
    }

    /// `(evaluations, errors)` so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.evaluations, self.errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_error_rate_is_exact() {
        let mut p = StochasticPrimitive::new(GsheConfig::for_function(Bf2::NAND), 0.0, 1);
        for _ in 0..100 {
            assert!(!p.evaluate(true, true));
            assert!(p.evaluate(false, true));
        }
        assert_eq!(p.stats().1, 0);
    }

    #[test]
    fn observed_error_rate_matches_configuration() {
        let mut p = StochasticPrimitive::new(GsheConfig::for_function(Bf2::AND), 0.05, 7);
        let n = 20_000;
        for _ in 0..n {
            let _ = p.evaluate(true, true);
        }
        let (evals, errs) = p.stats();
        assert_eq!(evals, n);
        let rate = errs as f64 / n as f64;
        assert!((rate - 0.05).abs() < 0.01, "observed {rate}");
    }

    #[test]
    #[should_panic(expected = "error rate")]
    fn error_rate_bounds_checked() {
        let _ = StochasticPrimitive::new(GsheConfig::for_function(Bf2::AND), -0.1, 0);
    }
}
