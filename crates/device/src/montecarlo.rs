//! Monte Carlo characterization of switching delays (paper Fig. 4).
//!
//! The paper obtains three delay distributions from 100,000 sLLGS runs at
//! I_S ∈ {20, 60, 100} µA: the spread and the mean shrink as the current
//! grows. [`MonteCarlo`] reproduces that experiment: each sample thermalizes
//! the initial state, integrates the coupled pair under thermal noise, and
//! records the first time the W/R pair reaches the target configuration.
//! Sampling is spread over the available cores with `std::thread::scope`;
//! a seeded per-sample RNG keeps runs reproducible on any core count.

use crate::material::SwitchParams;
use crate::switch::GsheSwitch;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One switching-delay observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelaySample {
    /// Spin current of the run, A.
    pub i_s: f64,
    /// Observed delay, s (the horizon if the run timed out).
    pub delay: f64,
    /// Whether the magnet switched within the horizon.
    pub switched: bool,
}

/// Configuration for a Monte Carlo sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct MonteCarloConfig {
    /// Device parameters.
    pub params: SwitchParams,
    /// Number of samples per current.
    pub samples: usize,
    /// Master seed; each sample derives its own `StdRng`.
    pub seed: u64,
}

impl Default for MonteCarloConfig {
    fn default() -> Self {
        MonteCarloConfig {
            params: SwitchParams::table_i(),
            samples: 1000,
            seed: 0xD47E,
        }
    }
}

/// Monte Carlo driver.
#[derive(Debug, Clone)]
pub struct MonteCarlo {
    config: MonteCarloConfig,
}

impl MonteCarlo {
    /// Creates a driver with the given configuration.
    pub fn new(config: MonteCarloConfig) -> Self {
        MonteCarlo { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &MonteCarloConfig {
        &self.config
    }

    /// Runs `samples` thermal switching events at spin current `i_s` on
    /// every available core and returns the raw samples (in sample-index
    /// order, reproducibly; none for 0 samples).
    pub fn run(&self, i_s: f64) -> Vec<DelaySample> {
        let n = self.config.samples;
        let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
        let chunk = n.div_ceil(threads).max(1);
        let mut results: Vec<Option<DelaySample>> = vec![None; n];

        std::thread::scope(|scope| {
            for (t, slot) in results.chunks_mut(chunk).enumerate() {
                let params = self.config.params;
                let seed = self.config.seed;
                scope.spawn(move || {
                    let base = t * chunk;
                    for (j, out) in slot.iter_mut().enumerate() {
                        *out = Some(sample_at(&params, seed, (base + j) as u64, i_s));
                    }
                });
            }
        });

        results
            .into_iter()
            .map(|s| s.expect("all samples filled"))
            .collect()
    }

    /// Runs the samples with global indices `[start, start + count)` on
    /// the calling thread — the exact per-sample streams of the
    /// corresponding slice of [`MonteCarlo::run`], so chunked callers
    /// (e.g. budget-checked campaign jobs) reproduce a full run's numbers.
    pub fn run_range(&self, i_s: f64, start: usize, count: usize) -> Vec<DelaySample> {
        (start..start + count)
            .map(|idx| sample_at(&self.config.params, self.config.seed, idx as u64, i_s))
            .collect()
    }

    /// Runs the full Fig. 4 sweep over the given currents.
    pub fn sweep(&self, currents: &[f64]) -> Vec<(f64, DelayHistogram)> {
        currents
            .iter()
            .map(|&i_s| {
                let samples = self.run(i_s);
                (i_s, DelayHistogram::from_samples(&samples, 60, 6e-9))
            })
            .collect()
    }

    /// Probability that a write at `i_s` completes within `t_clk` seconds —
    /// the accuracy knob of the stochastic primitive (Sec. V-B: "the error
    /// rate for any switch can be tuned individually").
    pub fn switching_probability(&self, i_s: f64, t_clk: f64) -> f64 {
        1.0 - miss_rate(&self.run(i_s), t_clk)
    }
}

/// One seeded thermal switching event, keyed by its global sample index:
/// reproducible regardless of threading or chunking.
fn sample_at(params: &SwitchParams, seed: u64, idx: u64, i_s: f64) -> DelaySample {
    let mut rng = StdRng::seed_from_u64(seed ^ idx.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut sw = GsheSwitch::new(*params);
    // Alternate initial state so both polarities appear.
    let start = idx.is_multiple_of(2);
    sw.set_state(start);
    let o = sw.write_thermal(i_s, !start, &mut rng);
    DelaySample {
        i_s,
        delay: o.delay,
        switched: o.switched,
    }
}

/// Mean delay over the switched samples, or NaN when none switched — the
/// scalar that Table II's measured row and the campaign's device-delay
/// jobs both report.
pub fn mean_switched_delay(samples: &[DelaySample]) -> f64 {
    let switched: Vec<f64> = samples
        .iter()
        .filter(|s| s.switched)
        .map(|s| s.delay)
        .collect();
    if switched.is_empty() {
        f64::NAN
    } else {
        switched.iter().sum::<f64>() / switched.len() as f64
    }
}

/// Fraction of `samples` that miss a clock deadline of `t_clk` seconds
/// (did not switch, or switched later): the per-evaluation error rate of a
/// switch clocked at `t_clk`. The samples do not depend on `t_clk`, so one
/// sample set serves every clock period. An empty set misses every
/// deadline (rate 1).
pub fn miss_rate(samples: &[DelaySample], t_clk: f64) -> f64 {
    let hits = samples
        .iter()
        .filter(|s| s.switched && s.delay <= t_clk)
        .count();
    1.0 - hits as f64 / samples.len().max(1) as f64
}

/// Histogram of switching delays, the Fig. 4 artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct DelayHistogram {
    /// Inclusive lower edge of each bin, s.
    pub bin_edges: Vec<f64>,
    /// Fraction of occurrences per bin (sums to ≤ 1; timeouts excluded).
    pub fractions: Vec<f64>,
    /// Mean delay over switched samples, s.
    pub mean: f64,
    /// Standard deviation over switched samples, s.
    pub std_dev: f64,
    /// Fraction of samples that failed to switch within the horizon.
    pub timeout_fraction: f64,
    /// Number of samples.
    pub count: usize,
}

impl DelayHistogram {
    /// Bins `samples` into `bins` equal-width bins over `[0, range)`.
    pub fn from_samples(samples: &[DelaySample], bins: usize, range: f64) -> Self {
        assert!(bins > 0 && range > 0.0, "bins and range must be positive");
        let mut counts = vec![0usize; bins];
        let width = range / bins as f64;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        let mut switched = 0usize;
        for s in samples {
            if !s.switched {
                continue;
            }
            switched += 1;
            sum += s.delay;
            sum_sq += s.delay * s.delay;
            let b = ((s.delay / width) as usize).min(bins - 1);
            counts[b] += 1;
        }
        let n = samples.len().max(1);
        let mean = if switched > 0 {
            sum / switched as f64
        } else {
            f64::NAN
        };
        let var = if switched > 1 {
            (sum_sq - sum * sum / switched as f64) / (switched as f64 - 1.0)
        } else {
            0.0
        };
        DelayHistogram {
            bin_edges: (0..bins).map(|i| i as f64 * width).collect(),
            fractions: counts.iter().map(|&c| c as f64 / n as f64).collect(),
            mean,
            std_dev: var.max(0.0).sqrt(),
            timeout_fraction: (samples.len() - switched) as f64 / n as f64,
            count: samples.len(),
        }
    }

    /// Delay below which `q` of the switched probability mass lies
    /// (bin-resolution quantile).
    pub fn quantile(&self, q: f64) -> f64 {
        let total: f64 = self.fractions.iter().sum();
        let mut acc = 0.0;
        for (edge, frac) in self.bin_edges.iter().zip(&self.fractions) {
            acc += frac;
            if acc >= q * total {
                return *edge;
            }
        }
        *self.bin_edges.last().unwrap_or(&0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config(samples: usize) -> MonteCarloConfig {
        MonteCarloConfig {
            samples,
            seed: 11,
            ..MonteCarloConfig::default()
        }
    }

    #[test]
    fn delays_shrink_with_current() {
        // The headline property of Fig. 4.
        let mc = MonteCarlo::new(quick_config(60));
        let h20 = DelayHistogram::from_samples(&mc.run(20e-6), 60, 6e-9);
        let h100 = DelayHistogram::from_samples(&mc.run(100e-6), 60, 6e-9);
        assert!(
            h100.mean < h20.mean,
            "mean(100uA) = {} !< mean(20uA) = {}",
            h100.mean,
            h20.mean
        );
        assert!(
            h100.std_dev < h20.std_dev,
            "spread must shrink with current"
        );
    }

    #[test]
    fn run_is_reproducible_for_fixed_seed() {
        let mc = MonteCarlo::new(quick_config(16));
        let a = mc.run(60e-6);
        let b = mc.run(60e-6);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_samples_run_to_no_samples() {
        let mc = MonteCarlo::new(quick_config(0));
        assert!(mc.run(20e-6).is_empty());
    }

    #[test]
    fn chunked_ranges_reproduce_a_full_run() {
        let mc = MonteCarlo::new(quick_config(16));
        let full = mc.run(60e-6);
        let mut chunked = mc.run_range(60e-6, 0, 5);
        chunked.extend(mc.run_range(60e-6, 5, 11));
        assert_eq!(full, chunked);
    }

    #[test]
    fn histogram_fractions_sum_to_switched_fraction() {
        let mc = MonteCarlo::new(quick_config(40));
        let samples = mc.run(60e-6);
        let h = DelayHistogram::from_samples(&samples, 30, 6e-9);
        let total: f64 = h.fractions.iter().sum();
        assert!((total + h.timeout_fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn switching_probability_increases_with_clock_period() {
        let mc = MonteCarlo::new(quick_config(40));
        let p_short = mc.switching_probability(20e-6, 0.8e-9);
        let p_long = mc.switching_probability(20e-6, 6e-9);
        assert!(p_long >= p_short);
        assert!(p_long > 0.9, "p_long = {p_long}");
    }

    #[test]
    fn quantile_is_monotone() {
        let mc = MonteCarlo::new(quick_config(60));
        let h = DelayHistogram::from_samples(&mc.run(20e-6), 60, 6e-9);
        assert!(h.quantile(0.25) <= h.quantile(0.5));
        assert!(h.quantile(0.5) <= h.quantile(0.9));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn histogram_rejects_zero_bins() {
        let _ = DelayHistogram::from_samples(&[], 0, 1.0);
    }
}
