//! Time integrators for the coupled sLLGS system.
//!
//! Two schemes are provided:
//!
//! * [`MidpointIntegrator`] — the implicit midpoint rule of d'Aquino et al.
//!   (*J. Appl. Phys.* 99, 08B905 (2006); the paper's ref. \[29\]). The
//!   update `m⁺ = m + Δt f((m + m⁺)/2)` is solved by fixed-point iteration.
//!   Because `f ⊥ m_mid`, the rule conserves `|m|` exactly in exact
//!   arithmetic; we renormalize once per step to remove the residual
//!   floating-point drift. The thermal field is evaluated once per step,
//!   consistent with the Stratonovich interpretation.
//! * [`StochasticHeun`] — the standard explicit predictor–corrector for
//!   Stratonovich SDEs, used as a cross-check (ablation bench
//!   `benches/device.rs` compares the two).

use crate::error::DeviceError;
use crate::llgs::{LlgsSystem, PairState};
use crate::vec3::Vec3;

/// One integration step for the coupled pair.
///
/// Implementations advance `state` by `dt` seconds under spin current `i_s`
/// polarized along `p`, with frozen thermal-field realizations `h_th_w`,
/// `h_th_r` for the step.
pub trait Integrator {
    /// Advances the joint state by one step.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::MidpointDiverged`] if an implicit solve fails
    /// to converge.
    #[allow(clippy::too_many_arguments)]
    fn step(
        &self,
        sys: &LlgsSystem,
        state: PairState,
        i_s: f64,
        p: Vec3,
        h_th_w: Vec3,
        h_th_r: Vec3,
        dt: f64,
    ) -> Result<PairState, DeviceError>;
}

/// Implicit midpoint rule solved by fixed-point iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MidpointIntegrator {
    /// Maximum fixed-point iterations per step.
    pub max_iterations: usize,
    /// Convergence tolerance on the joint update (infinity norm).
    pub tolerance: f64,
}

impl Default for MidpointIntegrator {
    fn default() -> Self {
        MidpointIntegrator {
            max_iterations: 16,
            tolerance: 1e-12,
        }
    }
}

impl Integrator for MidpointIntegrator {
    fn step(
        &self,
        sys: &LlgsSystem,
        state: PairState,
        i_s: f64,
        p: Vec3,
        h_th_w: Vec3,
        h_th_r: Vec3,
        dt: f64,
    ) -> Result<PairState, DeviceError> {
        // Fixed-point iteration on m⁺ = m + dt f((m + m⁺)/2).
        let mut next = state;
        // Warm start with an explicit Euler predictor.
        let (dw0, dr0) = sys.rhs(state, i_s, p, h_th_w, h_th_r);
        next.m_w = state.m_w + dw0 * dt;
        next.m_r = state.m_r + dr0 * dt;

        let mut residual = f64::INFINITY;
        for _ in 0..self.max_iterations {
            let mid = PairState {
                m_w: (state.m_w + next.m_w) * 0.5,
                m_r: (state.m_r + next.m_r) * 0.5,
            };
            let (dw, dr) = sys.rhs(mid, i_s, p, h_th_w, h_th_r);
            let cand = PairState {
                m_w: state.m_w + dw * dt,
                m_r: state.m_r + dr * dt,
            };
            residual = (cand.m_w - next.m_w)
                .max_abs()
                .max((cand.m_r - next.m_r).max_abs());
            next = cand;
            if residual < self.tolerance {
                break;
            }
        }
        if !(residual.is_finite()) || !next.m_w.is_finite() || !next.m_r.is_finite() {
            return Err(DeviceError::MidpointDiverged {
                time: 0.0,
                residual,
            });
        }
        Ok(next.normalized())
    }
}

/// Stochastic Heun (explicit trapezoidal predictor–corrector).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StochasticHeun;

impl Integrator for StochasticHeun {
    fn step(
        &self,
        sys: &LlgsSystem,
        state: PairState,
        i_s: f64,
        p: Vec3,
        h_th_w: Vec3,
        h_th_r: Vec3,
        dt: f64,
    ) -> Result<PairState, DeviceError> {
        let (dw0, dr0) = sys.rhs(state, i_s, p, h_th_w, h_th_r);
        let pred = PairState {
            m_w: state.m_w + dw0 * dt,
            m_r: state.m_r + dr0 * dt,
        };
        let (dw1, dr1) = sys.rhs(pred, i_s, p, h_th_w, h_th_r);
        let next = PairState {
            m_w: state.m_w + (dw0 + dw1) * (0.5 * dt),
            m_r: state.m_r + (dr0 + dr1) * (0.5 * dt),
        };
        if !next.m_w.is_finite() || !next.m_r.is_finite() {
            return Err(DeviceError::MidpointDiverged {
                time: 0.0,
                residual: f64::NAN,
            });
        }
        Ok(next.normalized())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::material::SwitchParams;

    fn sys() -> LlgsSystem {
        LlgsSystem::new(&SwitchParams::table_i())
    }

    fn tilted() -> PairState {
        PairState {
            m_w: Vec3::new(-0.98, 0.15, 0.1).normalized(),
            m_r: Vec3::new(0.99, -0.1, 0.05).normalized(),
        }
    }

    #[test]
    fn midpoint_preserves_norm() {
        let sys = sys();
        let integ = MidpointIntegrator::default();
        let mut s = tilted();
        for _ in 0..500 {
            s = integ
                .step(&sys, s, 20e-6, Vec3::X, Vec3::ZERO, Vec3::ZERO, 1e-12)
                .unwrap();
            assert!((s.m_w.norm() - 1.0).abs() < 1e-12);
            assert!((s.m_r.norm() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn heun_preserves_norm_after_renormalization() {
        let sys = sys();
        let integ = StochasticHeun;
        let mut s = tilted();
        for _ in 0..500 {
            s = integ
                .step(&sys, s, 20e-6, Vec3::X, Vec3::ZERO, Vec3::ZERO, 1e-12)
                .unwrap();
            assert!((s.m_w.norm() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn midpoint_and_heun_agree_over_short_horizon() {
        let sys = sys();
        let mid = MidpointIntegrator::default();
        let heun = StochasticHeun;
        let mut a = tilted();
        let mut b = tilted();
        for _ in 0..200 {
            a = mid
                .step(&sys, a, 20e-6, Vec3::X, Vec3::ZERO, Vec3::ZERO, 0.5e-12)
                .unwrap();
            b = heun
                .step(&sys, b, 20e-6, Vec3::X, Vec3::ZERO, Vec3::ZERO, 0.5e-12)
                .unwrap();
        }
        // Deterministic drive, same initial condition: trajectories must
        // track each other to within the schemes' O(dt²) differences.
        assert!(
            (a.m_w - b.m_w).norm() < 1e-2,
            "divergence {}",
            (a.m_w - b.m_w).norm()
        );
    }

    #[test]
    fn relaxation_damps_toward_easy_axis() {
        let sys = sys();
        let integ = MidpointIntegrator::default();
        let mut s = PairState {
            m_w: Vec3::new(0.7, 0.7, 0.14).normalized(),
            m_r: Vec3::new(-0.7, -0.7, 0.14).normalized(),
        };
        for _ in 0..20_000 {
            s = integ
                .step(&sys, s, 0.0, Vec3::X, Vec3::ZERO, Vec3::ZERO, 1e-12)
                .unwrap();
        }
        // 20 ns of free relaxation: W settles on +x, R anti-parallel.
        assert!(s.m_w.x > 0.95, "m_w = {:?}", s.m_w);
        assert!(s.m_r.x < -0.95, "m_r = {:?}", s.m_r);
    }
}
