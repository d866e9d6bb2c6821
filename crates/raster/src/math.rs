//! Minimal 3D linear algebra (column-major, right-handed).

use core::ops::{Add, Mul, Neg, Sub};

/// A 3-component vector.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct Vec3 {
    /// X component.
    pub x: f32,
    /// Y component.
    pub y: f32,
    /// Z component.
    pub z: f32,
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    /// Creates a vector.
    #[must_use]
    pub const fn new(x: f32, y: f32, z: f32) -> Self {
        Vec3 { x, y, z }
    }

    /// Dot product.
    #[must_use]
    pub(crate) fn dot(self, rhs: Vec3) -> f32 {
        self.x * rhs.x + self.y * rhs.y + self.z * rhs.z
    }

    /// Cross product.
    #[must_use]
    pub(crate) fn cross(self, rhs: Vec3) -> Vec3 {
        Vec3 {
            x: self.y * rhs.z - self.z * rhs.y,
            y: self.z * rhs.x - self.x * rhs.z,
            z: self.x * rhs.y - self.y * rhs.x,
        }
    }

    /// Euclidean length.
    #[must_use]
    pub(crate) fn length(self) -> f32 {
        self.dot(self).sqrt()
    }

    /// Unit vector in the same direction; returns the zero vector for a
    /// (near-)zero input rather than dividing by zero.
    #[must_use]
    pub(crate) fn normalized(self) -> Vec3 {
        let len = self.length();
        if len <= f32::EPSILON {
            Vec3::ZERO
        } else {
            self * (1.0 / len)
        }
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    fn add(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    fn sub(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl Mul<f32> for Vec3 {
    type Output = Vec3;
    fn mul(self, rhs: f32) -> Vec3 {
        Vec3::new(self.x * rhs, self.y * rhs, self.z * rhs)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

/// A homogeneous point after transformation: `(x, y, z, w)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Vec4 {
    /// X component.
    pub x: f32,
    /// Y component.
    pub y: f32,
    /// Z component.
    pub z: f32,
    /// W (perspective divide) component.
    pub w: f32,
}

/// A 4×4 column-major transformation matrix.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Mat4 {
    /// Columns, each a 4-element array.
    pub cols: [[f32; 4]; 4],
}

impl Mat4 {
    /// The identity matrix.
    #[must_use]
    pub(crate) fn identity() -> Self {
        let mut cols = [[0.0; 4]; 4];
        for (i, col) in cols.iter_mut().enumerate() {
            col[i] = 1.0;
        }
        Mat4 { cols }
    }

    /// A translation matrix.
    #[must_use]
    pub(crate) fn translation(t: Vec3) -> Self {
        let mut m = Mat4::identity();
        m.cols[3] = [t.x, t.y, t.z, 1.0];
        m
    }

    /// A uniform scale matrix.
    #[must_use]
    pub(crate) fn scale(s: f32) -> Self {
        let mut m = Mat4::identity();
        m.cols[0][0] = s;
        m.cols[1][1] = s;
        m.cols[2][2] = s;
        m
    }

    /// Rotation about the Y axis by `angle` radians.
    #[must_use]
    pub(crate) fn rotation_y(angle: f32) -> Self {
        let (s, c) = angle.sin_cos();
        let mut m = Mat4::identity();
        m.cols[0][0] = c;
        m.cols[0][2] = -s;
        m.cols[2][0] = s;
        m.cols[2][2] = c;
        m
    }

    /// A right-handed perspective projection (OpenGL-style clip space).
    ///
    /// # Panics
    ///
    /// Panics if the parameters do not describe a valid frustum.
    #[must_use]
    pub(crate) fn perspective(fov_y_rad: f32, aspect: f32, near: f32, far: f32) -> Self {
        assert!(fov_y_rad > 0.0 && aspect > 0.0 && near > 0.0 && far > near);
        let f = 1.0 / (fov_y_rad / 2.0).tan();
        let mut m = Mat4 {
            cols: [[0.0; 4]; 4],
        };
        m.cols[0][0] = f / aspect;
        m.cols[1][1] = f;
        m.cols[2][2] = (far + near) / (near - far);
        m.cols[2][3] = -1.0;
        m.cols[3][2] = 2.0 * far * near / (near - far);
        m
    }

    /// A right-handed look-at view matrix.
    #[must_use]
    pub(crate) fn look_at(eye: Vec3, target: Vec3, up: Vec3) -> Self {
        let fwd = (target - eye).normalized();
        let right = fwd.cross(up).normalized();
        let true_up = right.cross(fwd);
        let mut m = Mat4::identity();
        m.cols[0] = [right.x, true_up.x, -fwd.x, 0.0];
        m.cols[1] = [right.y, true_up.y, -fwd.y, 0.0];
        m.cols[2] = [right.z, true_up.z, -fwd.z, 0.0];
        m.cols[3] = [-right.dot(eye), -true_up.dot(eye), fwd.dot(eye), 1.0];
        m
    }

    /// Transforms a point (w = 1).
    #[must_use]
    pub(crate) fn transform_point(&self, p: Vec3) -> Vec4 {
        let c = &self.cols;
        Vec4 {
            x: c[0][0] * p.x + c[1][0] * p.y + c[2][0] * p.z + c[3][0],
            y: c[0][1] * p.x + c[1][1] * p.y + c[2][1] * p.z + c[3][1],
            z: c[0][2] * p.x + c[1][2] * p.y + c[2][2] * p.z + c[3][2],
            w: c[0][3] * p.x + c[1][3] * p.y + c[2][3] * p.z + c[3][3],
        }
    }

    /// Transforms a direction (w = 0; ignores translation). Only valid for
    /// rigid transforms (no non-uniform scale).
    #[must_use]
    pub(crate) fn transform_dir(&self, d: Vec3) -> Vec3 {
        let c = &self.cols;
        Vec3 {
            x: c[0][0] * d.x + c[1][0] * d.y + c[2][0] * d.z,
            y: c[0][1] * d.x + c[1][1] * d.y + c[2][1] * d.z,
            z: c[0][2] * d.x + c[1][2] * d.y + c[2][2] * d.z,
        }
    }
}

impl Mul for Mat4 {
    type Output = Mat4;

    fn mul(self, rhs: Mat4) -> Mat4 {
        let mut out = Mat4 {
            cols: [[0.0; 4]; 4],
        };
        for c in 0..4 {
            for r in 0..4 {
                let mut sum = 0.0;
                for k in 0..4 {
                    sum += self.cols[k][r] * rhs.cols[c][k];
                }
                out.cols[c][r] = sum;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-5
    }

    #[test]
    fn vec_ops() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, 5.0, 6.0);
        assert_eq!(a + b, Vec3::new(5.0, 7.0, 9.0));
        assert_eq!(b - a, Vec3::new(3.0, 3.0, 3.0));
        assert!(approx(a.dot(b), 32.0));
        assert_eq!(a.cross(b), Vec3::new(-3.0, 6.0, -3.0));
        assert!(approx(Vec3::new(3.0, 4.0, 0.0).length(), 5.0));
    }

    #[test]
    fn normalize_zero_is_zero() {
        assert_eq!(Vec3::ZERO.normalized(), Vec3::ZERO);
        assert!(approx(Vec3::new(0.0, 0.0, 9.0).normalized().z, 1.0));
    }

    #[test]
    fn identity_is_neutral() {
        let p = Vec3::new(1.5, -2.0, 0.5);
        let q = Mat4::identity().transform_point(p);
        assert!(approx(q.x, p.x) && approx(q.y, p.y) && approx(q.z, p.z) && approx(q.w, 1.0));
    }

    #[test]
    fn translation_moves_points_not_dirs() {
        let m = Mat4::translation(Vec3::new(10.0, 0.0, 0.0));
        let p = m.transform_point(Vec3::ZERO);
        assert!(approx(p.x, 10.0));
        let d = m.transform_dir(Vec3::new(1.0, 0.0, 0.0));
        assert!(approx(d.x, 1.0));
    }

    #[test]
    fn rotation_y_quarter_turn() {
        let m = Mat4::rotation_y(core::f32::consts::FRAC_PI_2);
        let p = m.transform_point(Vec3::new(1.0, 0.0, 0.0));
        assert!(approx(p.x, 0.0) && approx(p.z, -1.0));
    }

    #[test]
    fn matrix_multiply_composes() {
        let t = Mat4::translation(Vec3::new(1.0, 0.0, 0.0));
        let r = Mat4::rotation_y(core::f32::consts::PI);
        let p = (r * t).transform_point(Vec3::ZERO);
        // Translate then rotate: (1,0,0) → (-1, 0, ~0).
        assert!(approx(p.x, -1.0), "{p:?}");
    }

    #[test]
    fn perspective_maps_near_and_far() {
        let m = Mat4::perspective(1.0, 16.0 / 9.0, 0.1, 100.0);
        let near = m.transform_point(Vec3::new(0.0, 0.0, -0.1));
        assert!(approx(near.z / near.w, -1.0));
        let far = m.transform_point(Vec3::new(0.0, 0.0, -100.0));
        assert!(approx(far.z / far.w, 1.0));
    }

    #[test]
    fn look_at_centers_target() {
        let m = Mat4::look_at(
            Vec3::new(0.0, 0.0, 5.0),
            Vec3::ZERO,
            Vec3::new(0.0, 1.0, 0.0),
        );
        let p = m.transform_point(Vec3::ZERO);
        assert!(approx(p.x, 0.0) && approx(p.y, 0.0) && approx(p.z, -5.0));
    }
}
