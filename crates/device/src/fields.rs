//! Effective-field contributions entering the LLGS equation.
//!
//! The total effective field acting on a nanomagnet is
//!
//! ```text
//! H_eff = H_anisotropy + H_demag + H_dipolar + H_thermal
//! ```
//!
//! with every term in A/m. The demagnetization tensor of the rectangular
//! prism uses Aharoni's analytic expressions (A. Aharoni, *J. Appl. Phys.*
//! 83, 3432 (1998)); the thermal field follows Brown's fluctuation–dissipation
//! result, and the mutual dipolar coupling between the stacked W and R
//! nanomagnets is evaluated in the point-dipole approximation — negative
//! (anti-parallel-favoring) for in-plane easy axes stacked along z, exactly
//! the configuration of Fig. 1.

use crate::consts::{GAMMA_E, K_B, MU_0};
use crate::material::Nanomagnet;
use crate::vec3::Vec3;
use rand::Rng;
use rand_distr_normal::StandardNormal;

/// A tiny vendored standard-normal sampler (Marsaglia polar method) so the
/// crate only depends on `rand`'s core traits.
mod rand_distr_normal {
    use rand::Rng;

    /// Distribution of a standard normal variate.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct StandardNormal;

    impl StandardNormal {
        /// Draws one N(0,1) sample using the Marsaglia polar method.
        pub fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
            loop {
                let u: f64 = rng.gen_range(-1.0..1.0);
                let v: f64 = rng.gen_range(-1.0..1.0);
                let s = u * u + v * v;
                if s > 0.0 && s < 1.0 {
                    return u * (-2.0 * s.ln() / s).sqrt();
                }
            }
        }
    }
}

fn aharoni_nz(a: f64, b: f64, c: f64) -> f64 {
    // Aharoni's Nz for a prism with semi-axes a, b, c along x, y, z.
    let r_abc = (a * a + b * b + c * c).sqrt();
    let r_ab = (a * a + b * b).sqrt();
    let r_bc = (b * b + c * c).sqrt();
    let r_ac = (a * a + c * c).sqrt();

    let term1 = (b * b - c * c) / (2.0 * b * c) * ((r_abc - a) / (r_abc + a)).ln();
    let term2 = (a * a - c * c) / (2.0 * a * c) * ((r_abc - b) / (r_abc + b)).ln();
    let term3 = b / (2.0 * c) * ((r_ab + a) / (r_ab - a)).ln();
    let term4 = a / (2.0 * c) * ((r_ab + b) / (r_ab - b)).ln();
    let term5 = c / (2.0 * a) * ((r_bc - b) / (r_bc + b)).ln();
    let term6 = c / (2.0 * b) * ((r_ac - a) / (r_ac + a)).ln();
    let term7 = 2.0 * (a * b / (c * r_abc)).atan();
    let term8 = (a.powi(3) + b.powi(3) - 2.0 * c.powi(3)) / (3.0 * a * b * c);
    let term9 = (a * a + b * b - 2.0 * c * c) / (3.0 * a * b * c) * r_abc;
    let term10 = c / (a * b) * (r_ac + r_bc);
    let term11 = -(r_ab.powi(3) + r_bc.powi(3) + r_ac.powi(3)) / (3.0 * a * b * c);

    (term1 + term2 + term3 + term4 + term5 + term6 + term7 + term8 + term9 + term10 + term11)
        / std::f64::consts::PI
}

/// Demagnetization factors `(Nx, Ny, Nz)` of a rectangular prism with edge
/// lengths `lx`, `ly`, `lz` (Aharoni 1998). The factors satisfy
/// `Nx + Ny + Nz = 1`.
///
/// ```
/// use gshe_device::demag_factors;
///
/// let n = demag_factors(10e-9, 10e-9, 10e-9);
/// assert!((n.x - 1.0 / 3.0).abs() < 1e-9); // a cube is isotropic
/// ```
///
/// # Panics
///
/// Panics if any edge length is not strictly positive.
pub fn demag_factors(lx: f64, ly: f64, lz: f64) -> Vec3 {
    assert!(
        lx > 0.0 && ly > 0.0 && lz > 0.0,
        "edge lengths must be positive"
    );
    let (a, b, c) = (lx / 2.0, ly / 2.0, lz / 2.0);
    // Nz from (a, b, c); Nx and Ny by cyclic permutation of the semi-axes.
    let nz = aharoni_nz(a, b, c);
    let nx = aharoni_nz(b, c, a);
    let ny = aharoni_nz(c, a, b);
    Vec3::new(nx, ny, nz)
}

/// Uniaxial magnetocrystalline anisotropy with easy axis `axis`:
/// `H = H_k (m · ê) ê`, `H_k = 2 K_u / (μ₀ M_s)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniaxialAnisotropy {
    /// Anisotropy field magnitude H_k, A/m.
    pub h_k: f64,
    /// Unit easy axis.
    pub axis: Vec3,
}

impl UniaxialAnisotropy {
    /// Builds the anisotropy for a nanomagnet with easy axis along `axis`.
    pub fn for_magnet(nm: &Nanomagnet, axis: Vec3) -> Self {
        UniaxialAnisotropy {
            h_k: nm.anisotropy_field(),
            axis: axis.normalized(),
        }
    }

    /// Field at magnetization `m`, A/m.
    pub fn field(&self, m: Vec3) -> Vec3 {
        self.axis * (self.h_k * m.dot(self.axis))
    }
}

/// Demagnetizing (shape-anisotropy) field `H = −M_s N m` with the diagonal
/// demag tensor `N` from [`demag_factors`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Demagnetization {
    /// Diagonal demag factors.
    pub n: Vec3,
    /// Saturation magnetization, A/m.
    pub ms: f64,
}

impl Demagnetization {
    /// Builds the demag field model for a nanomagnet.
    pub fn for_magnet(nm: &Nanomagnet) -> Self {
        Demagnetization {
            n: nm.demag(),
            ms: nm.ms,
        }
    }

    /// Field at magnetization `m`, A/m.
    pub fn field(&self, m: Vec3) -> Vec3 {
        -Vec3::new(self.n.x * m.x, self.n.y * m.y, self.n.z * m.z) * self.ms
    }
}

/// Mutual dipolar coupling between two stacked nanomagnets in the
/// point-dipole approximation.
///
/// The field at the *target* magnet produced by the *source* magnet with
/// magnetization direction `m_src` is
///
/// ```text
/// H = (M_s,src V_src / 4π d³) · (3 (m_src · r̂) r̂ − m_src)
/// ```
///
/// For the GSHE stack, `r̂ = ẑ` while both easy axes lie in-plane, so the
/// coupling reduces to `−(M_s V / 4π d³) m_src` — *negative* coupling that
/// favors anti-parallel alignment, which is what flips the R-NM opposite to
/// the W-NM (paper Sec. III-A, footnote 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DipolarCoupling {
    /// Moment of the source magnet M_s V, A m².
    pub source_moment: f64,
    /// Center-to-center distance, m.
    pub distance: f64,
    /// Unit vector from source to target.
    pub direction: Vec3,
}

impl DipolarCoupling {
    /// Coupling produced by `source` at a magnet `distance` away along
    /// `direction` (unit vector).
    pub fn new(source: &Nanomagnet, distance: f64, direction: Vec3) -> Self {
        DipolarCoupling {
            source_moment: source.moment(),
            distance,
            direction: direction.normalized(),
        }
    }

    /// Coupling strength prefactor M_s V / (4π d³), A/m.
    pub fn strength(&self) -> f64 {
        self.source_moment / (4.0 * std::f64::consts::PI * self.distance.powi(3))
    }

    /// Field at the target given the source magnetization direction, A/m.
    pub fn field(&self, m_src: Vec3) -> Vec3 {
        let r = self.direction;
        (r * (3.0 * m_src.dot(r)) - m_src) * self.strength()
    }
}

/// Brown's thermal fluctuation field.
///
/// Each Cartesian component is an independent Gaussian with standard
/// deviation `σ_H = sqrt(2 α k_B T / (μ₀² γ M_s V Δt))` per time step
/// (Stratonovich interpretation; the midpoint integrator evaluates the
/// deterministic drift at the half step, consistent with this choice).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalField {
    sigma: f64,
}

impl ThermalField {
    /// Builds the thermal field model for a magnet at `temperature` with
    /// integrator step `dt`.
    pub fn new(nm: &Nanomagnet, temperature: f64, dt: f64) -> Self {
        let variance =
            2.0 * nm.alpha * K_B * temperature / (MU_0 * MU_0 * GAMMA_E * nm.ms * nm.volume() * dt);
        ThermalField {
            sigma: variance.sqrt(),
        }
    }

    /// A zero-strength thermal field (for deterministic, T = 0 runs).
    pub fn zero() -> Self {
        ThermalField { sigma: 0.0 }
    }

    /// Per-component standard deviation, A/m.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Samples one realization of the fluctuating field, A/m.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec3 {
        if self.sigma == 0.0 {
            return Vec3::ZERO;
        }
        let n = StandardNormal;
        Vec3::new(
            self.sigma * n.sample(rng),
            self.sigma * n.sample(rng),
            self.sigma * n.sample(rng),
        )
    }
}

/// Equilibrium polar-angle standard deviation around the easy axis,
/// `σ_θ ≈ sqrt(k_B T / (2 K_u V))` — used to thermalize initial states.
pub fn equilibrium_angle_sigma(nm: &Nanomagnet, temperature: f64) -> f64 {
    (K_B * temperature / (2.0 * nm.ku * nm.volume())).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn demag_factors_sum_to_one() {
        for dims in [
            (28e-9, 15e-9, 2e-9),
            (10e-9, 10e-9, 10e-9),
            (100e-9, 5e-9, 1e-9),
            (1e-9, 2e-9, 3e-9),
        ] {
            let n = demag_factors(dims.0, dims.1, dims.2);
            assert!(
                (n.x + n.y + n.z - 1.0).abs() < 1e-9,
                "sum = {} for {dims:?}",
                n.x + n.y + n.z
            );
        }
    }

    #[test]
    fn demag_cube_is_one_third() {
        let n = demag_factors(7e-9, 7e-9, 7e-9);
        for c in [n.x, n.y, n.z] {
            assert!((c - 1.0 / 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn demag_thin_film_limit() {
        // A very thin, wide film has Nz → 1, Nx, Ny → 0.
        let n = demag_factors(1e-6, 1e-6, 1e-9);
        assert!(n.z > 0.99, "Nz = {}", n.z);
        assert!(n.x < 0.01 && n.y < 0.01);
    }

    #[test]
    fn demag_ordering_follows_geometry() {
        // Longest axis has the smallest factor.
        let n = demag_factors(28e-9, 15e-9, 2e-9);
        assert!(n.x < n.y && n.y < n.z, "{n:?}");
        // Easy plane: z is strongly unfavorable for the W-NM.
        assert!(n.z > 0.6);
    }

    #[test]
    fn demag_permutation_consistency() {
        let n1 = demag_factors(28e-9, 15e-9, 2e-9);
        let n2 = demag_factors(15e-9, 2e-9, 28e-9);
        // Cyclic permutation of the geometry permutes the factors.
        assert!((n1.x - n2.z).abs() < 1e-12);
        assert!((n1.y - n2.x).abs() < 1e-12);
        assert!((n1.z - n2.y).abs() < 1e-12);
    }

    #[test]
    fn anisotropy_field_is_along_axis_and_even() {
        let w = Nanomagnet::write_nm();
        let ua = UniaxialAnisotropy::for_magnet(&w, Vec3::X);
        let h = ua.field(Vec3::new(0.8, 0.6, 0.0));
        assert!(h.y == 0.0 && h.z == 0.0);
        assert!(h.x > 0.0);
        // Reversing m reverses the field (even energy).
        let h2 = ua.field(Vec3::new(-0.8, 0.6, 0.0));
        assert!((h2.x + h.x).abs() < 1e-9);
    }

    #[test]
    fn dipolar_coupling_is_negative_for_in_plane_stack() {
        let w = Nanomagnet::write_nm();
        let c = DipolarCoupling::new(&w, 15e-9, Vec3::Z);
        let h = c.field(Vec3::X);
        // In-plane source magnetization → field anti-parallel to it.
        assert!(h.x < 0.0);
        assert!((h.y).abs() < 1e-12 && (h.z).abs() < 1e-12);
    }

    #[test]
    fn dipolar_coupling_beats_read_anisotropy_at_table_i_distance() {
        // The design requirement: the W-NM must be able to flip the R-NM.
        let w = Nanomagnet::write_nm();
        let r = Nanomagnet::read_nm();
        let c = DipolarCoupling::new(&w, 15e-9, Vec3::Z);
        assert!(
            c.strength() > r.anisotropy_field(),
            "coupling {} vs Hk {}",
            c.strength(),
            r.anisotropy_field()
        );
    }

    #[test]
    fn dipolar_field_decays_cubically() {
        let w = Nanomagnet::write_nm();
        let c1 = DipolarCoupling::new(&w, 10e-9, Vec3::Z);
        let c2 = DipolarCoupling::new(&w, 20e-9, Vec3::Z);
        assert!((c1.strength() / c2.strength() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn thermal_sigma_scales_with_sqrt_temperature_and_inverse_dt() {
        let w = Nanomagnet::write_nm();
        let t300 = ThermalField::new(&w, 300.0, 1e-12);
        let t75 = ThermalField::new(&w, 75.0, 1e-12);
        assert!((t300.sigma() / t75.sigma() - 2.0).abs() < 1e-9);
        let dt4 = ThermalField::new(&w, 300.0, 4e-12);
        assert!((t300.sigma() / dt4.sigma() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn thermal_zero_is_silent() {
        let mut rng = StdRng::seed_from_u64(7);
        assert_eq!(ThermalField::zero().sample(&mut rng), Vec3::ZERO);
    }

    #[test]
    fn thermal_samples_have_expected_moments() {
        let w = Nanomagnet::write_nm();
        let tf = ThermalField::new(&w, 300.0, 1e-12);
        let mut rng = StdRng::seed_from_u64(42);
        let n = 20_000;
        let (mut sum, mut sum_sq) = (0.0, 0.0);
        for _ in 0..n {
            let h = tf.sample(&mut rng);
            sum += h.x;
            sum_sq += h.x * h.x;
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!(mean.abs() < 3.0 * tf.sigma() / (n as f64).sqrt() * 3.0);
        assert!((var / (tf.sigma() * tf.sigma()) - 1.0).abs() < 0.05);
    }

    #[test]
    fn equilibrium_angle_is_moderate_for_low_barrier_magnet() {
        let w = Nanomagnet::write_nm();
        let sigma = equilibrium_angle_sigma(&w, 300.0);
        // Δ ≈ 5 → σ_θ ≈ 0.31 rad.
        assert!(sigma > 0.2 && sigma < 0.4, "sigma = {sigma}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn demag_rejects_zero_edges() {
        let _ = demag_factors(0.0, 1e-9, 1e-9);
    }
}
