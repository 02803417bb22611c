//! Planar geometry shared by the occlusion converter and the crowd simulator.
//!
//! The paper's occlusion-graph converter assumes a flat social XR space
//! (`τ ∈ {(x, 0, z)}`), so all geometry here is 2-D. `x` is "east" and `y`
//! here plays the role of the paper's `z` axis.

use std::ops::{Add, Div, Mul, Neg, Sub};

/// A 2-D point / vector.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point2 {
    pub x: f64,
    pub y: f64,
}

impl Point2 {
    /// Constructs a point.
    pub fn new(x: f64, y: f64) -> Self {
        Point2 { x, y }
    }

    /// The origin.
    pub fn zero() -> Self {
        Point2 { x: 0.0, y: 0.0 }
    }

    /// Dot product.
    pub fn dot(self, other: Point2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// 2-D cross product (`z` component of the 3-D cross product).
    pub fn cross(self, other: Point2) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Euclidean norm.
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Squared Euclidean norm.
    pub fn norm_sq(self) -> f64 {
        self.dot(self)
    }

    /// Distance to another point.
    pub fn distance(self, other: Point2) -> f64 {
        (self - other).norm()
    }

    /// Squared distance to another point.
    pub fn distance_sq(self, other: Point2) -> f64 {
        (self - other).norm_sq()
    }

    /// Unit vector in the same direction; zero vector is returned unchanged.
    pub fn normalized(self) -> Point2 {
        let n = self.norm();
        if n > 1e-12 {
            self / n
        } else {
            Point2::zero()
        }
    }

    /// Angle of the vector from the positive x-axis, in `[0, 2π)`.
    pub fn angle(self) -> f64 {
        let a = self.y.atan2(self.x);
        if a < 0.0 {
            a + std::f64::consts::TAU
        } else {
            a
        }
    }

    /// Clamps the vector's norm to at most `max_norm`.
    pub fn clamp_norm(self, max_norm: f64) -> Point2 {
        let n = self.norm();
        if n > max_norm && n > 0.0 {
            self * (max_norm / n)
        } else {
            self
        }
    }

    /// Perpendicular vector (rotated +90°).
    pub fn perp(self) -> Point2 {
        Point2 { x: -self.y, y: self.x }
    }

    /// Linear interpolation `self + t (other − self)`.
    pub fn lerp(self, other: Point2, t: f64) -> Point2 {
        self + (other - self) * t
    }
}

impl Add for Point2 {
    type Output = Point2;
    fn add(self, o: Point2) -> Point2 {
        Point2::new(self.x + o.x, self.y + o.y)
    }
}

impl Sub for Point2 {
    type Output = Point2;
    fn sub(self, o: Point2) -> Point2 {
        Point2::new(self.x - o.x, self.y - o.y)
    }
}

impl Mul<f64> for Point2 {
    type Output = Point2;
    fn mul(self, k: f64) -> Point2 {
        Point2::new(self.x * k, self.y * k)
    }
}

impl Div<f64> for Point2 {
    type Output = Point2;
    fn div(self, k: f64) -> Point2 {
        Point2::new(self.x / k, self.y / k)
    }
}

impl Neg for Point2 {
    type Output = Point2;
    fn neg(self) -> Point2 {
        Point2::new(-self.x, -self.y)
    }
}

/// Normalizes an angle into `[0, 2π)`.
///
/// `%` is exact, so an angle already in `[0, τ)` — every arc center, which
/// comes from [`Point2::angle`] — is returned as is, bit for bit (`-0.0`
/// included), without the libm `fmod` call; NaN and out-of-range angles
/// take the `%` path.
pub fn wrap_angle(a: f64) -> f64 {
    let tau = std::f64::consts::TAU;
    if (0.0..tau).contains(&a) {
        return a;
    }
    let mut r = a % tau;
    if r < 0.0 {
        r += tau;
    }
    r
}

/// Absolute circular difference between two angles, in `[0, π]`.
pub fn angle_diff(a: f64, b: f64) -> f64 {
    let tau = std::f64::consts::TAU;
    let d = (wrap_angle(a) - wrap_angle(b)).abs();
    d.min(tau - d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI, TAU};

    #[test]
    fn vector_algebra() {
        let a = Point2::new(1.0, 2.0);
        let b = Point2::new(3.0, -1.0);
        assert_eq!(a + b, Point2::new(4.0, 1.0));
        assert_eq!(a - b, Point2::new(-2.0, 3.0));
        assert_eq!(a * 2.0, Point2::new(2.0, 4.0));
        assert_eq!(b / 2.0, Point2::new(1.5, -0.5));
        assert_eq!(-a, Point2::new(-1.0, -2.0));
        assert_eq!(a.dot(b), 1.0);
        assert_eq!(a.cross(b), -7.0);
    }

    #[test]
    fn norms_and_distances() {
        let a = Point2::new(3.0, 4.0);
        assert_eq!(a.norm(), 5.0);
        assert_eq!(a.norm_sq(), 25.0);
        assert_eq!(a.distance(Point2::zero()), 5.0);
        assert_eq!(a.distance_sq(Point2::zero()), 25.0);
        assert!((a.normalized().norm() - 1.0).abs() < 1e-12);
        assert_eq!(Point2::zero().normalized(), Point2::zero());
    }

    #[test]
    fn angle_covers_all_quadrants() {
        assert!((Point2::new(1.0, 0.0).angle() - 0.0).abs() < 1e-12);
        assert!((Point2::new(0.0, 1.0).angle() - FRAC_PI_2).abs() < 1e-12);
        assert!((Point2::new(-1.0, 0.0).angle() - PI).abs() < 1e-12);
        assert!((Point2::new(0.0, -1.0).angle() - 3.0 * FRAC_PI_2).abs() < 1e-12);
    }

    #[test]
    fn clamp_norm_limits_length() {
        let v = Point2::new(10.0, 0.0).clamp_norm(2.0);
        assert!((v.norm() - 2.0).abs() < 1e-12);
        let w = Point2::new(0.5, 0.0).clamp_norm(2.0);
        assert_eq!(w, Point2::new(0.5, 0.0));
    }

    #[test]
    fn perp_is_orthogonal() {
        let v = Point2::new(2.0, 5.0);
        assert_eq!(v.dot(v.perp()), 0.0);
    }

    #[test]
    fn wrap_and_diff() {
        assert!((wrap_angle(-FRAC_PI_2) - 3.0 * FRAC_PI_2).abs() < 1e-12);
        assert!((wrap_angle(TAU + 0.5) - 0.5).abs() < 1e-12);
        assert!((angle_diff(0.1, TAU - 0.1) - 0.2).abs() < 1e-12);
        assert!((angle_diff(0.0, PI) - PI).abs() < 1e-12);
    }

    #[test]
    fn wrap_fast_path_is_the_rem_path_bit_for_bit() {
        fn wrap_rem(a: f64) -> f64 {
            let mut r = a % TAU;
            if r < 0.0 {
                r += TAU;
            }
            r
        }
        let below_tau = f64::from_bits(TAU.to_bits() - 1);
        for a in [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            1.0,
            PI,
            below_tau,
            TAU,
            -1e-300,
            -FRAC_PI_2,
            -TAU,
            -7.5,
            TAU + 0.5,
            100.0,
            1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ] {
            assert_eq!(wrap_angle(a).to_bits(), wrap_rem(a).to_bits(), "wrap_angle({a:e})");
        }
        assert!(wrap_angle(-0.0).is_sign_negative());
        assert_eq!(wrap_angle(below_tau), below_tau);
    }

    #[test]
    fn lerp_endpoints() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(2.0, 4.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Point2::new(1.0, 2.0));
    }
}
