//! Device characterization: the Table I dump and the Table II comparison of
//! emerging-device security primitives.

use crate::material::SwitchParams;
use crate::montecarlo::{MonteCarlo, MonteCarloConfig};
use crate::readout::ReadoutCircuit;

/// Energy/power/delay/function-count metrics for one primitive
/// (a row of Table II).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceMetrics {
    /// Citation key as printed in the paper (e.g. `"\[24, a\]"`).
    pub publication: &'static str,
    /// Technology/primitive description.
    pub description: &'static str,
    /// Number of cloakable Boolean functions.
    pub functions: usize,
    /// Switching/operation energy, J (`None` where the paper lists N/A).
    pub energy: Option<f64>,
    /// Power, W (`None` where the paper lists N/A).
    pub power: Option<f64>,
    /// Delay, s (`None` where the paper lists N/A).
    pub delay: Option<f64>,
}

/// The literature rows of Table II (everything except "This work", which is
/// computed from the device model by [`this_work_metrics`]).
pub const EMERGING_DEVICE_TABLE: &[DeviceMetrics] = &[
    DeviceMetrics {
        publication: "[19]",
        description: "SiNW NAND/NOR",
        functions: 2,
        energy: Some(0.075e-15),
        power: Some(1.45e-6),
        delay: Some(49e-12),
    },
    DeviceMetrics {
        publication: "[24, a]",
        description: "ASL NAND/NOR/AND/OR",
        functions: 4,
        energy: Some(0.58e-12),
        power: Some(351.52e-6),
        delay: Some(1.65e-9),
    },
    DeviceMetrics {
        publication: "[24, b]",
        description: "ASL XOR/XNOR",
        functions: 2,
        energy: Some(1.16e-12),
        power: Some(351.52e-6),
        delay: Some(3.3e-9),
    },
    DeviceMetrics {
        publication: "[24, c]",
        description: "ASL INV/BUF",
        functions: 2,
        energy: Some(0.13e-12),
        power: Some(342.11e-6),
        delay: Some(0.38e-9),
    },
    DeviceMetrics {
        publication: "[30]",
        description: "DWM AND/OR",
        functions: 2,
        energy: Some(67.72e-15),
        power: Some(60.46e-6),
        delay: Some(1.12e-9),
    },
    DeviceMetrics {
        publication: "[20]",
        description: "DWM NAND/NOR/XOR/XNOR/AND/OR/INV",
        functions: 7,
        energy: None,
        power: None,
        delay: None,
    },
    DeviceMetrics {
        publication: "[23]",
        description: "GSHE AND/OR/NAND/NOR",
        functions: 4,
        energy: None,
        power: None,
        delay: None,
    },
    DeviceMetrics {
        publication: "[25]",
        description: "STT NAND/NOR/XOR/XNOR/AND/OR",
        functions: 6,
        energy: None,
        power: None,
        delay: None,
    },
];

/// Nominal mean switching delay the paper adopts for the primitive, s
/// (Fig. 4, I_S = 20 µA).
pub const NOMINAL_DELAY: f64 = 1.55e-9;

/// Computes the "This work" row of Table II from the device model.
///
/// `measured_delay` should come from a Monte Carlo run (e.g.
/// [`measured_mean_delay`]); pass [`NOMINAL_DELAY`] to reproduce the
/// published row exactly.
pub fn this_work_metrics(params: &SwitchParams, measured_delay: f64) -> DeviceMetrics {
    let circuit = ReadoutCircuit::new(params);
    let pt = circuit.operating_point(20e-6);
    DeviceMetrics {
        publication: "This work",
        description: "GSHE, all 16 Boolean functions",
        functions: 16,
        energy: Some(pt.power * measured_delay),
        power: Some(pt.power),
        delay: Some(measured_delay),
    }
}

/// Monte Carlo estimate of the mean switching delay at `i_s`, s.
pub fn measured_mean_delay(params: &SwitchParams, i_s: f64, samples: usize, seed: u64) -> f64 {
    let mc = MonteCarlo::new(MonteCarloConfig {
        params: *params,
        samples,
        seed,
    });
    crate::montecarlo::mean_switched_delay(&mc.run(i_s))
}

/// Formats one row of Table II with engineering units, matching the paper's
/// layout (`# Functions | Energy | Power | Delay`).
pub fn format_metrics_row(m: &DeviceMetrics) -> String {
    fn eng(v: Option<f64>, unit: &str, scale: f64, digits: usize) -> String {
        match v {
            Some(x) => format!("{:.*} {unit}", digits, x / scale),
            None => "N/A".to_string(),
        }
    }
    format!(
        "{:<10} {:<36} {:>2}  {:>12}  {:>12}  {:>10}",
        m.publication,
        m.description,
        m.functions,
        eng(m.energy, "fJ", 1e-15, 2),
        eng(m.power, "uW", 1e-6, 4),
        eng(m.delay, "ns", 1e-9, 2),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn this_work_row_matches_table_ii() {
        let m = this_work_metrics(&SwitchParams::table_i(), NOMINAL_DELAY);
        assert_eq!(m.functions, 16);
        let e = m.energy.unwrap();
        let p = m.power.unwrap();
        assert!(
            (e - 0.33e-15).abs() / 0.33e-15 < 0.025,
            "E = {} fJ",
            e * 1e15
        );
        assert!(
            (p - 0.2125e-6).abs() / 0.2125e-6 < 0.025,
            "P = {} uW",
            p * 1e6
        );
    }

    #[test]
    fn this_work_cloaks_the_most_functions() {
        let ours = this_work_metrics(&SwitchParams::table_i(), NOMINAL_DELAY);
        for row in EMERGING_DEVICE_TABLE {
            assert!(
                ours.functions > row.functions,
                "{} not dominated",
                row.publication
            );
        }
    }

    #[test]
    fn this_work_has_lowest_power_among_reported() {
        let ours = this_work_metrics(&SwitchParams::table_i(), NOMINAL_DELAY);
        let p = ours.power.unwrap();
        for row in EMERGING_DEVICE_TABLE {
            if let Some(other) = row.power {
                assert!(p < other, "{} beats us on power", row.publication);
            }
        }
    }

    #[test]
    fn measured_delay_is_near_nominal() {
        // Small-sample check that the simulated mean is in the right
        // ballpark of the 1.55 ns the paper reports for 20 µA.
        let d = measured_mean_delay(&SwitchParams::table_i(), 20e-6, 48, 17);
        assert!(d.is_finite());
        assert!(d > 0.5e-9 && d < 3.5e-9, "mean delay {} ns", d * 1e9);
    }

    #[test]
    fn row_formatting_handles_na() {
        let row = &EMERGING_DEVICE_TABLE[6];
        let s = format_metrics_row(row);
        assert!(s.contains("N/A"));
        assert!(s.contains("[23]"));
    }
}
