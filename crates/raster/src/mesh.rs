//! Triangle meshes and procedural generators.

use crate::math::Vec3;

/// One vertex: position, normal, and an RGB color.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Vertex {
    /// Object-space position.
    pub position: Vec3,
    /// Object-space normal (unit length).
    pub normal: Vec3,
    /// Linear RGB color, each channel in `[0, 1]`.
    pub color: [f32; 3],
}

/// An indexed triangle mesh.
#[derive(Clone, Debug, Default)]
pub struct Mesh {
    /// Vertex attributes.
    pub vertices: Vec<Vertex>,
    /// Triangle list: three indices per triangle.
    pub indices: Vec<u32>,
}

impl Mesh {
    /// Number of triangles.
    #[must_use]
    pub(crate) fn triangle_count(&self) -> usize {
        self.indices.len() / 3
    }

    /// An axis-aligned unit cube centred on the origin, flat-shaded (one
    /// normal per face), tinted with `color`.
    #[must_use]
    pub(crate) fn cube(color: [f32; 3]) -> Mesh {
        let mut mesh = Mesh::default();
        // Six faces: (normal, two tangents).
        let faces = [
            (
                Vec3::new(0.0, 0.0, 1.0),
                Vec3::new(1.0, 0.0, 0.0),
                Vec3::new(0.0, 1.0, 0.0),
            ),
            (
                Vec3::new(0.0, 0.0, -1.0),
                Vec3::new(-1.0, 0.0, 0.0),
                Vec3::new(0.0, 1.0, 0.0),
            ),
            (
                Vec3::new(1.0, 0.0, 0.0),
                Vec3::new(0.0, 0.0, -1.0),
                Vec3::new(0.0, 1.0, 0.0),
            ),
            (
                Vec3::new(-1.0, 0.0, 0.0),
                Vec3::new(0.0, 0.0, 1.0),
                Vec3::new(0.0, 1.0, 0.0),
            ),
            (
                Vec3::new(0.0, 1.0, 0.0),
                Vec3::new(1.0, 0.0, 0.0),
                Vec3::new(0.0, 0.0, -1.0),
            ),
            (
                Vec3::new(0.0, -1.0, 0.0),
                Vec3::new(1.0, 0.0, 0.0),
                Vec3::new(0.0, 0.0, 1.0),
            ),
        ];
        for (normal, u, v) in faces {
            let base = mesh.vertices.len() as u32; // 24 vertices max

            let centre = normal * 0.5;
            for (su, sv) in [(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)] {
                mesh.vertices.push(Vertex {
                    position: centre + u * su + v * sv,
                    normal,
                    color,
                });
            }
            mesh.indices.extend_from_slice(&[base, base + 1, base + 2]);
            mesh.indices.extend_from_slice(&[base, base + 2, base + 3]);
        }
        mesh
    }

    /// A UV sphere of radius 0.5 with `rings × segments` quads (two
    /// triangles each), smooth normals.
    ///
    /// # Panics
    ///
    /// Panics if `rings < 2` or `segments < 3`.
    #[must_use]
    pub(crate) fn sphere(rings: u32, segments: u32, color: [f32; 3]) -> Mesh {
        assert!(rings >= 2 && segments >= 3, "degenerate sphere");
        let mut mesh = Mesh::default();
        for r in 0..=rings {
            let phi = core::f32::consts::PI * r as f32 / rings as f32;
            for s in 0..=segments {
                let theta = core::f32::consts::TAU * s as f32 / segments as f32;
                let n = Vec3::new(phi.sin() * theta.cos(), phi.cos(), phi.sin() * theta.sin());
                mesh.vertices.push(Vertex {
                    position: n * 0.5,
                    normal: n,
                    color,
                });
            }
        }
        let stride = segments + 1;
        for r in 0..rings {
            for s in 0..segments {
                let a = r * stride + s;
                let b = a + stride;
                mesh.indices.extend_from_slice(&[a, b, a + 1]);
                mesh.indices.extend_from_slice(&[a + 1, b, b + 1]);
            }
        }
        mesh
    }

    /// A `size × size` ground plane at y = 0 facing up.
    #[must_use]
    pub(crate) fn plane(size: f32, color: [f32; 3]) -> Mesh {
        let h = size / 2.0;
        let n = Vec3::new(0.0, 1.0, 0.0);
        // Same winding as the cube's +Y face so it is front-facing from
        // above.
        let vertices = vec![
            Vertex {
                position: Vec3::new(-h, 0.0, h),
                normal: n,
                color,
            },
            Vertex {
                position: Vec3::new(h, 0.0, h),
                normal: n,
                color,
            },
            Vertex {
                position: Vec3::new(h, 0.0, -h),
                normal: n,
                color,
            },
            Vertex {
                position: Vec3::new(-h, 0.0, -h),
                normal: n,
                color,
            },
        ];
        // Two-sided: the ground must be visible regardless of camera
        // orbit, and a 4-vertex plane is too cheap to be worth culling.
        Mesh {
            vertices,
            indices: vec![0, 1, 2, 0, 2, 3, 2, 1, 0, 3, 2, 0],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cube_has_twelve_triangles() {
        let cube = Mesh::cube([1.0, 0.0, 0.0]);
        assert_eq!(cube.triangle_count(), 12);
        assert_eq!(cube.vertices.len(), 24);
        // All vertices on the unit cube surface.
        for v in &cube.vertices {
            let m = v
                .position
                .x
                .abs()
                .max(v.position.y.abs())
                .max(v.position.z.abs());
            assert!((m - 0.5).abs() < 1e-6);
        }
    }

    #[test]
    fn cube_indices_in_bounds() {
        let cube = Mesh::cube([1.0; 3]);
        assert!(cube
            .indices
            .iter()
            .all(|&i| (i as usize) < cube.vertices.len()));
    }

    #[test]
    fn sphere_counts() {
        let s = Mesh::sphere(8, 12, [0.0, 1.0, 0.0]);
        assert_eq!(s.triangle_count(), (8 * 12 * 2) as usize);
        // Normals are unit length and radial.
        for v in &s.vertices {
            assert!((v.normal.length() - 1.0).abs() < 1e-4);
            assert!((v.position.length() - 0.5).abs() < 1e-4);
        }
    }

    #[test]
    fn plane_is_two_sided() {
        let p = Mesh::plane(10.0, [0.5; 3]);
        assert_eq!(p.triangle_count(), 4);
    }

    #[test]
    #[should_panic(expected = "degenerate sphere")]
    fn tiny_sphere_panics() {
        let _ = Mesh::sphere(1, 2, [1.0; 3]);
    }
}
