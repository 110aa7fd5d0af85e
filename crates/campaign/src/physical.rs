//! Physical operating points: deriving oracle error rates from the device
//! Monte Carlo instead of abstract numbers.
//!
//! Sec. V-B's knob is *physical*: a switch driven at spin current `I_S`
//! and clocked with period `t_clk` misses its deadline with a probability
//! set by the switching-delay distribution (Fig. 4): the share of the
//! device Monte Carlo's samples that miss the clock,
//! [`gshe_device::miss_rate`]. This module hosts the campaign-facing
//! piece: [`ClockRateTable`], the clock-period → error-rate map behind the
//! spec-level `clock_periods_ns` grid dimension, which lets campaigns
//! sweep clock periods end to end — device Monte Carlo → per-cell rate →
//! noise profile → attack. The delay samples depend on the drive, not on
//! the clock, so the table runs the Monte Carlo once and reads every
//! period off the same samples.

use gshe_device::{miss_rate, DelaySample, MonteCarlo, MonteCarloConfig, SwitchParams};

/// Spin current (A) every cloaked cell is driven at in a spec-level
/// `clock_periods_ns` sweep: the paper's nominal 20 µA operating point,
/// where clock periods between ~0.8 ns and ~6 ns span the full
/// deterministic-to-stochastic regime (Fig. 4).
pub const CLOCK_SWEEP_DRIVE_CURRENT: f64 = 20e-6;

/// Monte Carlo samples behind a `clock_periods_ns` sweep: enough for a
/// stable rate estimate, cheap enough that expansion stays interactive
/// (one run per table, shared by every period).
pub const CLOCK_SWEEP_MC_SAMPLES: usize = 256;

/// Monte Carlo seed for `clock_periods_ns` sweeps. Fixed — the derived
/// rate is a device property, so it must not drift with the campaign
/// seed (two campaigns at different seeds sweep the *same* physical
/// operating points).
pub const CLOCK_SWEEP_MC_SEED: u64 = 0x6A7E_0DD5;

/// The validity rule for a spec-level clock period: finite and strictly
/// positive nanoseconds. Shared by the spec setters and grid expansion so
/// the surfaces cannot diverge.
pub fn is_valid_clock_period(clock_ns: f64) -> bool {
    clock_ns.is_finite() && clock_ns > 0.0
}

/// The clock-period → per-cell error-rate map over uniform drives
/// ([`CLOCK_SWEEP_DRIVE_CURRENT`] at every cloaked cell): the engine
/// behind the spec-level `clock_periods_ns` dimension. The table runs the
/// drive's Monte Carlo once, on first use, and each period's rate is the
/// share of those samples that miss it.
#[derive(Debug, Clone, Default)]
pub struct ClockRateTable {
    /// The drive's delay samples, once measured.
    samples: Option<Vec<DelaySample>>,
}

impl ClockRateTable {
    /// An empty table over the paper's Table I device.
    pub fn new() -> Self {
        Self::default()
    }

    /// The uniform per-cell error rate at clock period `clock_ns`
    /// (nanoseconds). The first call runs the Monte Carlo.
    ///
    /// # Panics
    ///
    /// Panics if `clock_ns` is not a positive finite number.
    pub fn rate_for(&mut self, clock_ns: f64) -> f64 {
        assert!(
            is_valid_clock_period(clock_ns),
            "clock period must be positive, got {clock_ns} ns"
        );
        let samples = self.samples.get_or_insert_with(|| {
            MonteCarlo::new(MonteCarloConfig {
                params: SwitchParams::table_i(),
                samples: CLOCK_SWEEP_MC_SAMPLES,
                seed: CLOCK_SWEEP_MC_SEED,
            })
            .run(CLOCK_SWEEP_DRIVE_CURRENT)
        });
        miss_rate(samples, clock_ns * 1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_table_memoizes_per_operating_point() {
        let mut table = ClockRateTable::new();
        let fast = table.rate_for(0.8);
        let slow = table.rate_for(6.0);
        // Every period reads the miss rate of one Monte Carlo run at the
        // drive, and repeat lookups are identical.
        let samples = MonteCarlo::new(MonteCarloConfig {
            params: SwitchParams::table_i(),
            samples: CLOCK_SWEEP_MC_SAMPLES,
            seed: CLOCK_SWEEP_MC_SEED,
        })
        .run(CLOCK_SWEEP_DRIVE_CURRENT);
        for clock_ns in [0.8, 1.5, 2.0, 3.0, 6.0] {
            assert_eq!(
                table.rate_for(clock_ns),
                miss_rate(&samples, clock_ns * 1e-9),
                "{clock_ns} ns"
            );
        }
        assert_eq!(table.rate_for(0.8), fast);
        assert_eq!(table.rate_for(6.0), slow);
        // Fig. 4: aggressive clocks err, relaxed clocks don't.
        assert!(fast > 0.2, "0.8 ns clock should err often: {fast}");
        assert!(slow < 0.05, "6 ns clock is near-deterministic: {slow}");
    }

    #[test]
    #[should_panic(expected = "clock period must be positive")]
    fn clock_table_rejects_nonpositive_periods() {
        let _ = ClockRateTable::new().rate_for(0.0);
    }

    #[test]
    fn error_rate_decreases_with_higher_current() {
        // Fig. 4: higher I_S → faster, tighter distribution → fewer misses
        // at a fixed (aggressive) clock.
        let mc = MonteCarlo::new(MonteCarloConfig {
            params: SwitchParams::table_i(),
            samples: 64,
            seed: 5,
        });
        let low = miss_rate(&mc.run(20e-6), 1.2e-9);
        let high = miss_rate(&mc.run(100e-6), 1.2e-9);
        assert!(high < low, "I_S=100uA err {high} vs 20uA err {low}");
    }
}
