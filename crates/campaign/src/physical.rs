//! Physical operating points: deriving oracle error rates from the device
//! Monte Carlo instead of abstract numbers.
//!
//! Sec. V-B's knob is *physical*: a switch driven at spin current `I_S`
//! and clocked with period `t_clk` misses its deadline with a probability
//! set by the switching-delay distribution (Fig. 4). This module hosts
//! the derivation ([`error_rate_for_clock`], [`error_profile_for_drives`])
//! and the campaign-facing piece: [`ClockRateTable`], the memoized
//! clock-period → error-rate map behind the spec-level `clock_periods_ns`
//! grid dimension, which lets campaigns sweep clock periods end to end —
//! device Monte Carlo → per-cell rate → noise profile → attack.

use gshe_device::{MonteCarlo, MonteCarloConfig, SwitchParams};
use gshe_logic::{ErrorProfile, NodeId};

/// Spin current (A) every cloaked cell is driven at in a spec-level
/// `clock_periods_ns` sweep: the paper's nominal 20 µA operating point,
/// where clock periods between ~0.8 ns and ~6 ns span the full
/// deterministic-to-stochastic regime (Fig. 4).
pub const CLOCK_SWEEP_DRIVE_CURRENT: f64 = 20e-6;

/// Monte Carlo samples per operating point in a `clock_periods_ns` sweep:
/// enough for a stable rate estimate, cheap enough that expansion stays
/// interactive (each distinct period costs one sweep, memoized).
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

/// Estimates the per-evaluation error rate of a switch driven at spin
/// current `i_s` and clocked with period `t_clk`: the probability that a
/// thermal switching event misses the clock deadline.
pub fn error_rate_for_clock(
    params: &SwitchParams,
    i_s: f64,
    t_clk: f64,
    samples: usize,
    seed: u64,
) -> f64 {
    let mc = MonteCarlo::new(MonteCarloConfig {
        params: *params,
        samples,
        seed,
        threads: 0,
    });
    1.0 - mc.switching_probability(i_s, t_clk)
}

/// One switch's drive point: which netlist node it implements and how it
/// is driven (spin current and clock period — the two per-switch knobs of
/// Sec. V-B).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchDrive {
    /// The netlist node the switch realizes.
    pub node: NodeId,
    /// Spin current, A.
    pub i_s: f64,
    /// Clock period, s.
    pub t_clk: f64,
}

/// Derives a dense per-node [`ErrorProfile`] from per-switch drive points:
/// each listed switch's flip rate comes from the device Monte Carlo
/// ([`error_rate_for_clock`]); unlisted nodes are deterministic.
///
/// Distinct `(i_s, t_clk)` pairs are measured once and shared — a fabric
/// with thousands of switches at a handful of operating points costs a
/// handful of Monte Carlo sweeps.
///
/// # Panics
///
/// Panics if a drive's node index is outside `0..len`.
pub fn error_profile_for_drives(
    params: &SwitchParams,
    len: usize,
    drives: &[SwitchDrive],
    samples: usize,
    seed: u64,
) -> ErrorProfile {
    let mut rates = vec![0.0; len];
    let mut measured: Vec<(u64, u64, f64)> = Vec::new();
    for drive in drives {
        let key = (drive.i_s.to_bits(), drive.t_clk.to_bits());
        let rate = match measured.iter().find(|(i, t, _)| (*i, *t) == key) {
            Some(&(_, _, r)) => r,
            None => {
                let r = error_rate_for_clock(params, drive.i_s, drive.t_clk, samples, seed);
                measured.push((key.0, key.1, r));
                r
            }
        };
        rates[drive.node.index()] = rate;
    }
    ErrorProfile::from_rates(rates)
}

/// A memoized clock-period → per-cell error-rate table over uniform
/// drives ([`CLOCK_SWEEP_DRIVE_CURRENT`] at every cloaked cell): the
/// engine behind the spec-level `clock_periods_ns` dimension. Each
/// distinct clock period costs one Monte Carlo sweep per table lifetime,
/// however many grid cells reference it.
#[derive(Debug, Clone)]
pub struct ClockRateTable {
    params: SwitchParams,
    measured: Vec<(u64, f64)>,
}

impl ClockRateTable {
    /// An empty table over the paper's Table I device.
    pub fn new() -> Self {
        ClockRateTable {
            params: SwitchParams::table_i(),
            measured: Vec::new(),
        }
    }

    /// The uniform per-cell error rate at clock period `clock_ns`
    /// (nanoseconds), measured on first use and memoized after.
    ///
    /// # Panics
    ///
    /// Panics if `clock_ns` is not a positive finite number.
    pub fn rate_for(&mut self, clock_ns: f64) -> f64 {
        assert!(
            is_valid_clock_period(clock_ns),
            "clock period must be positive, got {clock_ns} ns"
        );
        let key = clock_ns.to_bits();
        if let Some(&(_, rate)) = self.measured.iter().find(|(k, _)| *k == key) {
            return rate;
        }
        let rate = error_rate_for_clock(
            &self.params,
            CLOCK_SWEEP_DRIVE_CURRENT,
            clock_ns * 1e-9,
            CLOCK_SWEEP_MC_SAMPLES,
            CLOCK_SWEEP_MC_SEED,
        );
        self.measured.push((key, rate));
        rate
    }

    /// Distinct operating points measured so far.
    pub fn measured_points(&self) -> usize {
        self.measured.len()
    }
}

impl Default for ClockRateTable {
    fn default() -> Self {
        Self::new()
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
        assert_eq!(table.measured_points(), 2);
        // Repeat lookups are free and identical.
        assert_eq!(table.rate_for(0.8), fast);
        assert_eq!(table.rate_for(6.0), slow);
        assert_eq!(table.measured_points(), 2);
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
        let params = SwitchParams::table_i();
        let low = error_rate_for_clock(&params, 20e-6, 1.2e-9, 64, 5);
        let high = error_rate_for_clock(&params, 100e-6, 1.2e-9, 64, 5);
        assert!(high < low, "I_S=100uA err {high} vs 20uA err {low}");
    }

    #[test]
    fn drive_profile_orders_rates_by_clock() {
        // Two switches at the same current: the aggressively-clocked one
        // must be at least as noisy as the relaxed one, and unlisted nodes
        // stay deterministic. Duplicate drive points share one Monte Carlo
        // measurement (identical rates).
        let params = SwitchParams::table_i();
        let drives = [
            SwitchDrive {
                node: NodeId(1),
                i_s: 20e-6,
                t_clk: 0.8e-9,
            },
            SwitchDrive {
                node: NodeId(3),
                i_s: 20e-6,
                t_clk: 6e-9,
            },
            SwitchDrive {
                node: NodeId(4),
                i_s: 20e-6,
                t_clk: 0.8e-9,
            },
        ];
        let profile = error_profile_for_drives(&params, 6, &drives, 64, 3);
        assert_eq!(profile.len(), 6);
        assert_eq!(profile.rate(NodeId(0)), 0.0);
        assert_eq!(profile.rate(NodeId(2)), 0.0);
        assert!(profile.rate(NodeId(1)) >= profile.rate(NodeId(3)));
        assert!(profile.rate(NodeId(1)) > 0.2, "0.8 ns clock should err");
        assert_eq!(profile.rate(NodeId(1)), profile.rate(NodeId(4)));
    }
}
