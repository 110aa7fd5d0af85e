//! Minimal 3-component vector algebra for macrospin dynamics.
//!
//! The magnetization state of a nanomagnet is a unit vector `m`; every field
//! contribution and torque is a [`Vec3`]. The type is deliberately small and
//! `Copy` so the integrator hot loop stays allocation-free.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A 3-component `f64` vector.
///
/// ```
/// use gshe_device::Vec3;
///
/// let x = Vec3::X;
/// let y = Vec3::Y;
/// assert_eq!(x.cross(y), Vec3::Z);
/// assert_eq!(x.dot(y), 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// x component.
    pub x: f64,
    /// y component.
    pub y: f64,
    /// z component.
    pub z: f64,
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };
    /// Unit vector along +x.
    pub const X: Vec3 = Vec3 {
        x: 1.0,
        y: 0.0,
        z: 0.0,
    };
    /// Unit vector along +y.
    pub const Y: Vec3 = Vec3 {
        x: 0.0,
        y: 1.0,
        z: 0.0,
    };
    /// Unit vector along +z.
    pub const Z: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 1.0,
    };

    /// Creates a vector from components.
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// Dot product.
    pub fn dot(self, rhs: Vec3) -> f64 {
        self.x * rhs.x + self.y * rhs.y + self.z * rhs.z
    }

    /// Cross product (right-handed).
    pub fn cross(self, rhs: Vec3) -> Vec3 {
        Vec3 {
            x: self.y * rhs.z - self.z * rhs.y,
            y: self.z * rhs.x - self.x * rhs.z,
            z: self.x * rhs.y - self.y * rhs.x,
        }
    }

    /// Euclidean norm.
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Squared Euclidean norm.
    pub fn norm_sq(self) -> f64 {
        self.dot(self)
    }

    /// Returns the vector scaled to unit length.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the vector is exactly zero; callers in the
    /// integrator guarantee `|m| > 0` as an invariant.
    pub fn normalized(self) -> Vec3 {
        let n = self.norm();
        debug_assert!(n > 0.0, "cannot normalize the zero vector");
        self / n
    }

    /// The triple product `self · (a × b)`.
    pub fn triple(self, a: Vec3, b: Vec3) -> f64 {
        self.dot(a.cross(b))
    }

    /// Returns `true` if all components are finite.
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }

    /// Linear interpolation `self + t (rhs − self)`.
    pub fn lerp(self, rhs: Vec3, t: f64) -> Vec3 {
        self + (rhs - self) * t
    }

    /// The component of `self` orthogonal to the unit vector `axis`.
    pub fn reject_from_unit(self, axis: Vec3) -> Vec3 {
        self - axis * self.dot(axis)
    }

    /// Largest absolute component value (infinity norm).
    pub fn max_abs(self) -> f64 {
        self.x.abs().max(self.y.abs()).max(self.z.abs())
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    fn add(self, rhs: Vec3) -> Vec3 {
        Vec3 {
            x: self.x + rhs.x,
            y: self.y + rhs.y,
            z: self.z + rhs.z,
        }
    }
}

impl AddAssign for Vec3 {
    fn add_assign(&mut self, rhs: Vec3) {
        *self = *self + rhs;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    fn sub(self, rhs: Vec3) -> Vec3 {
        Vec3 {
            x: self.x - rhs.x,
            y: self.y - rhs.y,
            z: self.z - rhs.z,
        }
    }
}

impl SubAssign for Vec3 {
    fn sub_assign(&mut self, rhs: Vec3) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    fn mul(self, rhs: f64) -> Vec3 {
        Vec3 {
            x: self.x * rhs,
            y: self.y * rhs,
            z: self.z * rhs,
        }
    }
}

impl Mul<Vec3> for f64 {
    type Output = Vec3;
    fn mul(self, rhs: Vec3) -> Vec3 {
        rhs * self
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    fn div(self, rhs: f64) -> Vec3 {
        Vec3 {
            x: self.x / rhs,
            y: self.y / rhs,
            z: self.z / rhs,
        }
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    fn neg(self) -> Vec3 {
        Vec3 {
            x: -self.x,
            y: -self.y,
            z: -self.z,
        }
    }
}

impl Sum for Vec3 {
    fn sum<I: Iterator<Item = Vec3>>(iter: I) -> Vec3 {
        iter.fold(Vec3::ZERO, Add::add)
    }
}

impl From<[f64; 3]> for Vec3 {
    fn from(a: [f64; 3]) -> Self {
        Vec3::new(a[0], a[1], a[2])
    }
}

impl From<Vec3> for [f64; 3] {
    fn from(v: Vec3) -> Self {
        [v.x, v.y, v.z]
    }
}

impl fmt::Display for Vec3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.6e}, {:.6e}, {:.6e})", self.x, self.y, self.z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn cross_products_are_right_handed() {
        assert_eq!(Vec3::X.cross(Vec3::Y), Vec3::Z);
        assert_eq!(Vec3::Y.cross(Vec3::Z), Vec3::X);
        assert_eq!(Vec3::Z.cross(Vec3::X), Vec3::Y);
    }

    #[test]
    fn cross_is_antisymmetric() {
        let a = Vec3::new(1.0, -2.0, 3.0);
        let b = Vec3::new(-4.0, 5.0, 0.5);
        let ab = a.cross(b);
        let ba = b.cross(a);
        assert!((ab + ba).norm() < EPS);
    }

    #[test]
    fn cross_is_orthogonal_to_operands() {
        let a = Vec3::new(0.3, 0.4, -0.9);
        let b = Vec3::new(1.5, -0.2, 0.1);
        let c = a.cross(b);
        assert!(c.dot(a).abs() < EPS);
        assert!(c.dot(b).abs() < EPS);
    }

    #[test]
    fn normalized_has_unit_length() {
        let v = Vec3::new(3.0, 4.0, 12.0);
        assert!((v.normalized().norm() - 1.0).abs() < EPS);
    }

    #[test]
    fn rejection_is_orthogonal_to_axis() {
        let v = Vec3::new(1.0, 2.0, 3.0);
        let r = v.reject_from_unit(Vec3::Z);
        assert!(r.dot(Vec3::Z).abs() < EPS);
        assert_eq!(r, Vec3::new(1.0, 2.0, 0.0));
    }

    #[test]
    fn lerp_endpoints() {
        let a = Vec3::new(1.0, 0.0, -1.0);
        let b = Vec3::new(0.0, 2.0, 5.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert!((a.lerp(b, 0.5) - Vec3::new(0.5, 1.0, 2.0)).norm() < EPS);
    }

    #[test]
    fn triple_product_matches_determinant() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(0.0, 1.0, 4.0);
        let c = Vec3::new(5.0, 6.0, 0.0);
        // det([[1,2,3],[0,1,4],[5,6,0]]) = 1*(0-24) - 2*(0-20) + 3*(0-5) = 1
        assert!((a.triple(b, c) - 1.0).abs() < EPS);
    }

    #[test]
    fn sum_folds_from_zero() {
        let vs = [Vec3::X, Vec3::Y, Vec3::Z];
        let s: Vec3 = vs.into_iter().sum();
        assert_eq!(s, Vec3::new(1.0, 1.0, 1.0));
    }

    #[test]
    fn array_round_trip() {
        let v = Vec3::new(0.1, 0.2, 0.3);
        let a: [f64; 3] = v.into();
        assert_eq!(Vec3::from(a), v);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", Vec3::ZERO).is_empty());
    }
}
