//! Material and geometry parameters of the GSHE switch (paper Table I).
//!
//! The switch stacks, bottom to top: a heavy-metal (HM) spin-Hall layer, the
//! write nanomagnet (W-NM), an insulating spacer, the read nanomagnet (R-NM),
//! a tunnel barrier and two fixed ferromagnets with anti-parallel
//! magnetizations. [`SwitchParams::table_i`] reproduces the exact Table I
//! device.

use crate::consts::MU_0;
use crate::error::DeviceError;
use crate::fields::demag_factors;
use crate::vec3::Vec3;

/// Geometry and material parameters of a single in-plane nanomagnet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Nanomagnet {
    /// Length along the easy axis (x), m. Table I: 28 nm.
    pub length: f64,
    /// Width (y), m. Table I: 15 nm.
    pub width: f64,
    /// Thickness (z, stacking direction), m. Table I: 2 nm.
    pub thickness: f64,
    /// Saturation magnetization M_s, A/m.
    pub ms: f64,
    /// Uniaxial anisotropy energy density K_u, J/m³ (easy axis along x).
    pub ku: f64,
    /// Gilbert damping constant α (dimensionless).
    pub alpha: f64,
}

impl Nanomagnet {
    /// The write nanomagnet of Table I
    /// (28 × 15 × 2 nm³, M_s = 10⁶ A/m, K_u = 2.5 × 10⁴ J/m³).
    pub fn write_nm() -> Self {
        Nanomagnet {
            length: 28e-9,
            width: 15e-9,
            thickness: 2e-9,
            ms: 1.0e6,
            ku: 2.5e4,
            alpha: 0.005,
        }
    }

    /// The read nanomagnet of Table I
    /// (28 × 15 × 2 nm³, M_s = 5 × 10⁵ A/m, K_u = 5 × 10³ J/m³).
    pub fn read_nm() -> Self {
        Nanomagnet {
            length: 28e-9,
            width: 15e-9,
            thickness: 2e-9,
            ms: 5.0e5,
            ku: 5.0e3,
            alpha: 0.01,
        }
    }

    /// Volume, m³.
    pub fn volume(&self) -> f64 {
        self.length * self.width * self.thickness
    }

    /// In-plane cross-sectional area (length × width), m². This is the
    /// tunnel-junction area entering G_P = A/RAP in the read-out model.
    pub fn area(&self) -> f64 {
        self.length * self.width
    }

    /// Uniaxial anisotropy field H_k = 2 K_u / (μ₀ M_s), A/m.
    pub fn anisotropy_field(&self) -> f64 {
        2.0 * self.ku / (MU_0 * self.ms)
    }

    /// Thermal stability factor Δ = K_u V / (k_B T).
    pub fn thermal_stability(&self, temperature: f64) -> f64 {
        self.ku * self.volume() / (crate::consts::K_B * temperature)
    }

    /// Demagnetization factors `(Nx, Ny, Nz)` of the prism via the analytic
    /// Aharoni expressions.
    pub fn demag(&self) -> Vec3 {
        demag_factors(self.length, self.width, self.thickness)
    }

    /// Total magnetic moment M_s V, A m².
    pub fn moment(&self) -> f64 {
        self.ms * self.volume()
    }

    /// Validates that all parameters are positive and finite.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidParameter`] naming the first offending
    /// field.
    pub fn validate(&self) -> Result<(), DeviceError> {
        let checks: [(&'static str, f64); 6] = [
            ("length", self.length),
            ("width", self.width),
            ("thickness", self.thickness),
            ("ms", self.ms),
            ("ku", self.ku),
            ("alpha", self.alpha),
        ];
        for (name, value) in checks {
            if !(value.is_finite() && value > 0.0) {
                return Err(DeviceError::InvalidParameter { name, value });
            }
        }
        Ok(())
    }
}

/// The heavy-metal spin-Hall layer under the write nanomagnet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeavyMetal {
    /// Resistivity ρ, Ω m. Table I: 5.6 × 10⁻⁷.
    pub resistivity: f64,
    /// Spin-Hall angle θ_SH. Table I: 0.4.
    pub spin_hall_angle: f64,
    /// Layer thickness t_HM, m. Table I: 1 nm.
    pub thickness: f64,
    /// Conduction length under the magnet (sets r together with ρ), m.
    pub length: f64,
    /// Conduction width, m.
    pub width: f64,
}

impl HeavyMetal {
    /// The Table I heavy metal: ρ = 5.6 × 10⁻⁷ Ω m, θ_SH = 0.4, t = 1 nm.
    /// Geometry chosen so the resistance r comes out at the paper's ≈ 1 kΩ.
    pub fn table_i() -> Self {
        // r = ρ L / (w t). With L = 50 nm, w = 28 nm, t = 1 nm:
        // r = 5.6e-7 × 50e-9 / (28e-9 × 1e-9) = 1000 Ω exactly.
        HeavyMetal {
            resistivity: 5.6e-7,
            spin_hall_angle: 0.4,
            thickness: 1e-9,
            length: 50e-9,
            width: 28e-9,
        }
    }

    /// Electrical resistance r = ρ L / (w t), Ω.
    pub fn resistance(&self) -> f64 {
        self.resistivity * self.length / (self.width * self.thickness)
    }

    /// Internal spin-gain β = θ_SH (w_NM / t_HM); Table I: 0.4 × 15 = 6.
    ///
    /// The geometric ratio uses the nanomagnet width as the paper does.
    pub fn internal_gain(&self, nm_width: f64) -> f64 {
        self.spin_hall_angle * nm_width / self.thickness
    }

    /// Spin current delivered for a charge current `i_c`:
    /// I_S = β I_C.
    pub fn spin_current(&self, i_c: f64, nm_width: f64) -> f64 {
        self.internal_gain(nm_width) * i_c
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidParameter`] naming the first offending
    /// field.
    pub fn validate(&self) -> Result<(), DeviceError> {
        let checks: [(&'static str, f64); 5] = [
            ("resistivity", self.resistivity),
            ("spin_hall_angle", self.spin_hall_angle),
            ("hm_thickness", self.thickness),
            ("hm_length", self.length),
            ("hm_width", self.width),
        ];
        for (name, value) in checks {
            if !(value.is_finite() && value > 0.0) {
                return Err(DeviceError::InvalidParameter { name, value });
            }
        }
        Ok(())
    }
}

/// Complete parameter set for one GSHE switch (Table I).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchParams {
    /// Write nanomagnet.
    pub write: Nanomagnet,
    /// Read nanomagnet.
    pub read: Nanomagnet,
    /// Heavy-metal spin-Hall layer.
    pub heavy_metal: HeavyMetal,
    /// Center-to-center stacking distance between W-NM and R-NM, m.
    /// The paper adopts "a stacked integration to maximize the dipolar
    /// coupling" (Fig. 1); 12 nm keeps the coupling field well above the
    /// R-NM anisotropy field so the read magnet follows deterministically.
    pub coupling_distance: f64,
    /// Lattice temperature, K.
    pub temperature: f64,
    /// Resistance–area product of the tunnel junction, Ω m².
    /// Table I: 1 Ω µm² = 10⁻¹² Ω m².
    pub rap: f64,
    /// Tunneling magnetoresistance ratio (G_P/G_AP = 1 + TMR). Table I: 1.7.
    pub tmr: f64,
    /// Integration time step, s.
    pub dt: f64,
    /// Simulation horizon for a single write attempt, s.
    pub horizon: f64,
}

impl SwitchParams {
    /// The exact Table I device at room temperature.
    pub fn table_i() -> Self {
        SwitchParams {
            write: Nanomagnet::write_nm(),
            read: Nanomagnet::read_nm(),
            heavy_metal: HeavyMetal::table_i(),
            coupling_distance: 12e-9,
            temperature: crate::consts::ROOM_TEMPERATURE,
            rap: 1e-12,
            tmr: 1.7,
            dt: 1e-12,
            horizon: 10e-9,
        }
    }

    /// Parallel-path conductance G_P = A / RAP, S. Table I: 420 µS.
    pub fn g_parallel(&self) -> f64 {
        self.read.area() / self.rap
    }

    /// Anti-parallel conductance G_AP = G_P / (1 + TMR), S. Table I: 155.6 µS.
    pub fn g_antiparallel(&self) -> f64 {
        self.g_parallel() / (1.0 + self.tmr)
    }

    /// Internal gain β = θ_SH (w_NM / t_HM) = 6 for Table I.
    pub fn beta(&self) -> f64 {
        self.heavy_metal.internal_gain(self.write.width)
    }

    /// Conceptual layout area of the switch, m².
    /// The paper estimates 0.0016 µm² from beyond-CMOS design rules
    /// (a 32 nm × 50 nm footprint in units of λ).
    pub fn layout_area(&self) -> f64 {
        32e-9 * 50e-9
    }

    /// Validates every sub-component.
    ///
    /// # Errors
    ///
    /// Returns the first [`DeviceError::InvalidParameter`] found.
    pub fn validate(&self) -> Result<(), DeviceError> {
        self.write.validate()?;
        self.read.validate()?;
        self.heavy_metal.validate()?;
        let checks: [(&'static str, f64); 6] = [
            ("coupling_distance", self.coupling_distance),
            ("temperature", self.temperature),
            ("rap", self.rap),
            ("tmr", self.tmr),
            ("dt", self.dt),
            ("horizon", self.horizon),
        ];
        for (name, value) in checks {
            if !(value.is_finite() && value > 0.0) {
                return Err(DeviceError::InvalidParameter { name, value });
            }
        }
        Ok(())
    }
}

impl Default for SwitchParams {
    fn default() -> Self {
        SwitchParams::table_i()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_conductances_match_paper() {
        let p = SwitchParams::table_i();
        // G_P = 420 µS exactly: (28e-9 × 15e-9)/1e-12 = 4.2e-4 S.
        assert!((p.g_parallel() - 420e-6).abs() < 1e-9);
        // G_AP = 420/2.7 = 155.555... µS; the paper rounds to 155.6 µS.
        assert!((p.g_antiparallel() - 155.6e-6).abs() < 0.1e-6);
    }

    #[test]
    fn table_i_beta_is_six() {
        let p = SwitchParams::table_i();
        assert!((p.beta() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn table_i_hm_resistance_is_1k() {
        let hm = HeavyMetal::table_i();
        assert!((hm.resistance() - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn write_nm_anisotropy_field() {
        let w = Nanomagnet::write_nm();
        // H_k = 2×2.5e4/(μ0×1e6) ≈ 39.79 kA/m.
        let hk = w.anisotropy_field();
        assert!((hk - 39.79e3).abs() / 39.79e3 < 1e-3);
    }

    #[test]
    fn volumes_match_28_15_2() {
        let w = Nanomagnet::write_nm();
        assert!((w.volume() - 840e-27).abs() < 1e-30);
        assert!((w.area() - 420e-18).abs() < 1e-24);
    }

    #[test]
    fn thermal_stability_is_moderate() {
        // Δ = 2.5e4 × 8.4e-25 / (k_B 300) ≈ 5.07 — a deliberately
        // low-barrier magnet per the probabilistic-computing design [22].
        let w = Nanomagnet::write_nm();
        let delta = w.thermal_stability(300.0);
        assert!(delta > 4.0 && delta < 6.0, "delta = {delta}");
    }

    #[test]
    fn validation_rejects_nonpositive() {
        let mut w = Nanomagnet::write_nm();
        w.ms = 0.0;
        assert!(matches!(
            w.validate(),
            Err(DeviceError::InvalidParameter { name: "ms", .. })
        ));
        let mut p = SwitchParams::table_i();
        p.dt = f64::NAN;
        assert!(p.validate().is_err());
    }

    #[test]
    fn layout_area_matches_paper_estimate() {
        let p = SwitchParams::table_i();
        // 0.0016 µm² = 1.6e-15 m².
        assert!((p.layout_area() - 1.6e-15).abs() < 1e-18);
    }

    #[test]
    fn default_is_table_i() {
        assert_eq!(SwitchParams::default(), SwitchParams::table_i());
    }
}
