//! Triangle rasterisation with z-buffering and directional lighting.

use crate::{
    framebuffer::{pack, Framebuffer},
    math::{Mat4, Vec3},
    mesh::Mesh,
};

/// A transformed, lit, screen-space vertex ready for the fill loop.
#[derive(Clone, Copy, Debug)]
struct ScreenVertex {
    x: f32,
    y: f32,
    /// Normalised device depth in `[-1, 1]`.
    z: f32,
    rgb: [f32; 3],
}

/// The rasteriser: owns light configuration and draw statistics.
///
/// # Examples
///
/// ```
/// use odr_raster::{Framebuffer, Rasterizer, Scene};
///
/// let mut fb = Framebuffer::new(64, 64);
/// let mut raster = Rasterizer::new();
/// let triangles = Scene::new(4, 0).render(&mut raster, &mut fb, 0.0);
/// assert!(triangles > 0 && raster.pixels_filled() > 0);
/// ```
#[derive(Clone, Debug)]
pub struct Rasterizer {
    /// Direction *towards* the light (unit length).
    pub light_dir: Vec3,
    /// Ambient lighting floor in `[0, 1]`.
    pub ambient: f32,
    triangles_drawn: u64,
    triangles_culled: u64,
    pixels_filled: u64,
    /// Routes `draw` through the per-pixel reference fill, so whole
    /// scenes can be rendered by both and compared.
    #[cfg(test)]
    scan_oracle: bool,
}

impl Default for Rasterizer {
    fn default() -> Self {
        Rasterizer::new()
    }
}

impl Rasterizer {
    /// Creates a rasteriser with a default key light.
    #[must_use]
    pub fn new() -> Self {
        Rasterizer {
            light_dir: Vec3::new(0.4, 0.8, 0.45).normalized(),
            ambient: 0.25,
            triangles_drawn: 0,
            triangles_culled: 0,
            pixels_filled: 0,
            #[cfg(test)]
            scan_oracle: false,
        }
    }

    /// Triangles actually filled so far.
    #[must_use]
    pub fn triangles_drawn(&self) -> u64 {
        self.triangles_drawn
    }

    /// Triangles rejected by back-face or near-plane culling so far.
    #[must_use]
    pub fn triangles_culled(&self) -> u64 {
        self.triangles_culled
    }

    /// Depth-tested pixels written so far.
    #[must_use]
    pub fn pixels_filled(&self) -> u64 {
        self.pixels_filled
    }

    /// Draws `mesh` with the given model matrix and combined
    /// model-view-projection matrix.
    pub fn draw(&mut self, fb: &mut Framebuffer, mesh: &Mesh, model: &Mat4, mvp: &Mat4) {
        let (w, h) = (fb.width() as f32, fb.height() as f32);
        for tri in mesh.indices.chunks_exact(3) {
            let verts = [
                mesh.vertices[tri[0] as usize],
                mesh.vertices[tri[1] as usize],
                mesh.vertices[tri[2] as usize],
            ];

            let mut screen = [ScreenVertex {
                x: 0.0,
                y: 0.0,
                z: 0.0,
                rgb: [0.0; 3],
            }; 3];
            let mut clipped = false;
            for (dst, v) in screen.iter_mut().zip(verts.iter()) {
                let clip = mvp.transform_point(v.position);
                if clip.w <= 1e-6 {
                    // Behind the near plane; drop the whole triangle (the
                    // scenes keep geometry inside the frustum, so proper
                    // near-plane clipping is unnecessary).
                    clipped = true;
                    break;
                }
                let inv_w = 1.0 / clip.w;
                // Gouraud shading with the world-space normal.
                let n = model.transform_dir(v.normal).normalized();
                let diffuse = n.dot(self.light_dir).max(0.0);
                let shade = self.ambient + (1.0 - self.ambient) * diffuse;
                *dst = ScreenVertex {
                    x: (clip.x * inv_w + 1.0) * 0.5 * w,
                    y: (1.0 - clip.y * inv_w) * 0.5 * h,
                    z: clip.z * inv_w,
                    rgb: [v.color[0] * shade, v.color[1] * shade, v.color[2] * shade],
                };
            }
            if clipped {
                self.triangles_culled += 1;
                continue;
            }

            // Back-face culling (counter-clockwise is front-facing in
            // screen space, where y grows downward).
            let area = edge(&screen[0], &screen[1], &screen[2]);
            if area >= -1e-6 {
                self.triangles_culled += 1;
                continue;
            }
            #[cfg(test)]
            if self.scan_oracle {
                self.fill_scan(fb, &screen, area);
                self.triangles_drawn += 1;
                continue;
            }
            self.fill(fb, &screen, area);
            self.triangles_drawn += 1;
        }
    }

    /// Fills one front-facing triangle (`area < 0`).
    ///
    /// Every pixel centre `p` is weighed with the same float expressions,
    /// in the same order, as the per-pixel reference (`fill_scan` in the
    /// tests): `w_i = edge(a_i, b_i, p) * inv_area`, inside unless some
    /// `w_i < 0`. The per-triangle and per-row terms of `edge` are hoisted
    /// (identical sub-expressions, so identical bits), and because every
    /// float operation on the way from `x` to `w_i` is monotone, each
    /// edge's inside set along a row is a half-line: wide rows locate
    /// their span `[lo, hi]` exactly and shade it without testing edges.
    fn fill(&mut self, fb: &mut Framebuffer, v: &[ScreenVertex; 3], area: f32) {
        let min_x = v
            .iter()
            .map(|p| p.x)
            .fold(f32::INFINITY, f32::min)
            .floor()
            .max(0.0) as i32;
        let max_x = v
            .iter()
            .map(|p| p.x)
            .fold(f32::NEG_INFINITY, f32::max)
            .ceil()
            .min(fb.width() as f32 - 1.0) as i32;
        let min_y = v
            .iter()
            .map(|p| p.y)
            .fold(f32::INFINITY, f32::min)
            .floor()
            .max(0.0) as i32;
        let max_y = v
            .iter()
            .map(|p| p.y)
            .fold(f32::NEG_INFINITY, f32::max)
            .ceil()
            .min(fb.height() as f32 - 1.0) as i32;
        if min_x > max_x || min_y > max_y {
            return;
        }

        let tri = Triangle {
            edges: [
                Edge::new(&v[1], &v[2]),
                Edge::new(&v[2], &v[0]),
                Edge::new(&v[0], &v[1]),
            ],
            inv_area: 1.0 / area,
            z: [v[0].z, v[1].z, v[2].z],
            rgb: [v[0].rgb, v[1].rgb, v[2].rgb],
        };
        // A narrow box is cheaper to test pixel by pixel than to set up,
        // and the span search needs weights that cannot turn NaN.
        let spans = max_x - min_x >= SPAN_MIN_WIDTH && tri.is_bounded();

        for y in min_y..=max_y {
            let row = tri.row(y as f32 + 0.5);
            self.pixels_filled += if !spans {
                let (color, depth) = fb.span_mut(y as usize, min_x as usize, max_x as usize);
                tri.shade::<true>(&row, min_x, color, depth)
            } else if let Some((lo, hi)) = tri.span(&row, min_x, max_x) {
                let (color, depth) = fb.span_mut(y as usize, lo as usize, hi as usize);
                tri.shade::<false>(&row, lo, color, depth)
            } else {
                0
            };
        }
    }
}

/// Bounding boxes narrower than this many pixels are tested pixel by
/// pixel; the per-row span set-up only pays for itself on wider ones.
const SPAN_MIN_WIDTH: i32 = 12;

/// The per-triangle terms of `edge(a, b, p)`.
#[derive(Clone, Copy)]
struct Edge {
    /// `b.x - a.x`
    dx: f32,
    /// `b.y - a.y`
    dy: f32,
    ax: f32,
    ay: f32,
}

impl Edge {
    fn new(a: &ScreenVertex, b: &ScreenVertex) -> Self {
        Edge {
            dx: b.x - a.x,
            dy: b.y - a.y,
            ax: a.x,
            ay: a.y,
        }
    }
}

/// A triangle set up for filling: edge terms plus the vertex attributes
/// the weights interpolate.
struct Triangle {
    edges: [Edge; 3],
    inv_area: f32,
    z: [f32; 3],
    rgb: [[f32; 3]; 3],
}

impl Triangle {
    /// Whether every term is small enough that no product on the way to
    /// a weight can overflow: without infinities there is no NaN, and the
    /// weights are monotone in `x` as [`Triangle::span`] requires.
    fn is_bounded(&self) -> bool {
        const LIMIT: f32 = 1e15;
        self.inv_area < 0.0
            && self.edges.iter().all(|e| {
                e.dx.abs() < LIMIT && e.dy.abs() < LIMIT && e.ax.abs() < LIMIT && e.ay.abs() < LIMIT
            })
    }

    /// The per-row term `(b.x - a.x) * (p.y - a.y)` of each edge.
    #[inline]
    fn row(&self, py: f32) -> [f32; 3] {
        [
            self.edges[0].dx * (py - self.edges[0].ay),
            self.edges[1].dx * (py - self.edges[1].ay),
            self.edges[2].dx * (py - self.edges[2].ay),
        ]
    }

    /// Barycentric weight `i` at pixel centre `px` of a row.
    #[inline(always)]
    fn weight(&self, i: usize, row: &[f32; 3], px: f32) -> f32 {
        let e = &self.edges[i];
        (row[i] - e.dy * (px - e.ax)) * self.inv_area
    }

    /// The exact inside span of a row within `min_x..=max_x`, or `None`
    /// when the row misses the triangle.
    ///
    /// With `inv_area < 0`, weight `i` is non-decreasing in `x` when
    /// `dy > 0` (the edge bounds the span from the left), non-increasing
    /// when `dy < 0` (from the right) and constant when `dy == 0`. Each
    /// bound starts from the real-valued root and is walked to the exact
    /// boundary with the fill loop's own predicate.
    fn span(&self, row: &[f32; 3], min_x: i32, max_x: i32) -> Option<(i32, i32)> {
        let (mut lo, mut hi) = (min_x, max_x);
        for (i, e) in self.edges.iter().enumerate() {
            let outside = |x: i32| self.weight(i, row, x as f32 + 0.5) < 0.0;
            if e.dy == 0.0 {
                if outside(min_x) {
                    return None;
                }
                continue;
            }
            // Pixel index whose centre sits on the edge; `as i32`
            // saturates, and the walk below corrects any estimate.
            let root = e.ax + row[i] / e.dy - 0.5;
            if e.dy > 0.0 {
                let mut x = (root.ceil() as i32).clamp(lo, hi + 1);
                while x > lo && !outside(x - 1) {
                    x -= 1;
                }
                while x <= hi && outside(x) {
                    x += 1;
                }
                lo = x;
            } else {
                let mut x = (root.floor() as i32).clamp(lo - 1, hi);
                while x < hi && !outside(x + 1) {
                    x += 1;
                }
                while x >= lo && outside(x) {
                    x -= 1;
                }
                hi = x;
            }
            if lo > hi {
                return None;
            }
        }
        Some((lo, hi))
    }

    /// Depth-tests and shades the pixels of one row starting at column
    /// `x0`; returns how many were inside the triangle. `TEST_EDGES`
    /// is off for an exact span, where every pixel is inside.
    #[inline]
    fn shade<const TEST_EDGES: bool>(
        &self,
        row: &[f32; 3],
        x0: i32,
        color: &mut [u32],
        depth: &mut [f32],
    ) -> u64 {
        let mut filled = 0u32;
        for (i, (c, d)) in color.iter_mut().zip(depth.iter_mut()).enumerate() {
            let px = (x0 + i as i32) as f32 + 0.5;
            let w0 = self.weight(0, row, px);
            let w1 = self.weight(1, row, px);
            let w2 = self.weight(2, row, px);
            let inside = !TEST_EDGES || !((w0 < 0.0) | (w1 < 0.0) | (w2 < 0.0));
            let z = w0 * self.z[0] + w1 * self.z[1] + w2 * self.z[2];
            let rgb = [
                w0 * self.rgb[0][0] + w1 * self.rgb[1][0] + w2 * self.rgb[2][0],
                w0 * self.rgb[0][1] + w1 * self.rgb[1][1] + w2 * self.rgb[2][1],
                w0 * self.rgb[0][2] + w1 * self.rgb[1][2] + w2 * self.rgb[2][2],
            ];
            let nearer = inside & (z < *d);
            *d = if nearer { z } else { *d };
            *c = if nearer { pack(rgb) } else { *c };
            filled += u32::from(inside);
        }
        u64::from(filled)
    }
}

/// Signed double area of triangle (a, b, c) in screen space.
fn edge(a: &ScreenVertex, b: &ScreenVertex, c: &ScreenVertex) -> f32 {
    (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{math::Vec3, scene::Scene};
    use proptest::prelude::*;

    impl Rasterizer {
        /// The reference fill: tests every pixel of the bounding box with
        /// the un-hoisted edge functions and writes through
        /// [`Framebuffer::put`]. [`Rasterizer::fill`] must match it bit
        /// for bit.
        pub(super) fn fill_scan(&mut self, fb: &mut Framebuffer, v: &[ScreenVertex; 3], area: f32) {
            let min_x = v
                .iter()
                .map(|p| p.x)
                .fold(f32::INFINITY, f32::min)
                .floor()
                .max(0.0) as i32;
            let max_x = v
                .iter()
                .map(|p| p.x)
                .fold(f32::NEG_INFINITY, f32::max)
                .ceil()
                .min(fb.width() as f32 - 1.0) as i32;
            let min_y = v
                .iter()
                .map(|p| p.y)
                .fold(f32::INFINITY, f32::min)
                .floor()
                .max(0.0) as i32;
            let max_y = v
                .iter()
                .map(|p| p.y)
                .fold(f32::NEG_INFINITY, f32::max)
                .ceil()
                .min(fb.height() as f32 - 1.0) as i32;

            let inv_area = 1.0 / area;
            for y in min_y..=max_y {
                for x in min_x..=max_x {
                    let p = ScreenVertex {
                        x: x as f32 + 0.5,
                        y: y as f32 + 0.5,
                        z: 0.0,
                        rgb: [0.0; 3],
                    };
                    // Barycentric coordinates (signs flipped for clockwise
                    // screen-space winding).
                    let w0 = edge(&v[1], &v[2], &p) * inv_area;
                    let w1 = edge(&v[2], &v[0], &p) * inv_area;
                    let w2 = edge(&v[0], &v[1], &p) * inv_area;
                    if w0 < 0.0 || w1 < 0.0 || w2 < 0.0 {
                        continue;
                    }
                    let z = w0 * v[0].z + w1 * v[1].z + w2 * v[2].z;
                    let rgb = [
                        w0 * v[0].rgb[0] + w1 * v[1].rgb[0] + w2 * v[2].rgb[0],
                        w0 * v[0].rgb[1] + w1 * v[1].rgb[1] + w2 * v[2].rgb[1],
                        w0 * v[0].rgb[2] + w1 * v[1].rgb[2] + w2 * v[2].rgb[2],
                    ];
                    fb.put(x, y, z, rgb);
                    self.pixels_filled += 1;
                }
            }
        }
    }

    fn oracle() -> Rasterizer {
        Rasterizer {
            scan_oracle: true,
            ..Rasterizer::new()
        }
    }

    fn assert_same_target(span: (&Rasterizer, &Framebuffer), scan: (&Rasterizer, &Framebuffer)) {
        assert_eq!(
            span.0.pixels_filled(),
            scan.0.pixels_filled(),
            "pixels_filled"
        );
        assert_eq!(span.0.triangles_drawn(), scan.0.triangles_drawn());
        assert!(span.1.pixels() == scan.1.pixels(), "colour differs");
        let bits = |fb: &Framebuffer| fb.depth().iter().map(|d| d.to_bits()).collect::<Vec<_>>();
        assert!(bits(span.1) == bits(scan.1), "depth differs");
    }

    /// Both fills over the same triangle list, on targets of their own.
    fn fill_both(width: u32, height: u32, triangles: &[[ScreenVertex; 3]]) {
        let (mut fb_span, mut fb_scan) = (
            Framebuffer::new(width, height),
            Framebuffer::new(width, height),
        );
        let (mut span, mut scan) = (Rasterizer::new(), Rasterizer::new());
        for tri in triangles {
            let area = edge(&tri[0], &tri[1], &tri[2]);
            span.fill(&mut fb_span, tri, area);
            scan.fill_scan(&mut fb_scan, tri, area);
        }
        assert_same_target((&span, &fb_span), (&scan, &fb_scan));
    }

    fn vertex(x: f32, y: f32, z: f32, shade: f32) -> ScreenVertex {
        ScreenVertex {
            x,
            y,
            z,
            rgb: [shade, 1.0 - shade, shade * 0.5],
        }
    }

    /// Orients `(a, b, c)` the way `draw` hands triangles to `fill`
    /// (negative area) unless it is degenerate.
    fn front_facing(a: ScreenVertex, b: ScreenVertex, c: ScreenVertex) -> [ScreenVertex; 3] {
        if edge(&a, &b, &c) > 0.0 {
            [a, c, b]
        } else {
            [a, b, c]
        }
    }

    proptest! {
        /// Random triangles around a 97×61 target — on and off screen,
        /// snapped to pixel centres and edges, with repeated vertices,
        /// horizontal edges and sub-pixel extents — fill identically.
        #[test]
        fn span_fill_matches_scan_fill(
            xs in prop::collection::vec(-60.0f32..160.0, 6..7),
            ys in prop::collection::vec(-40.0f32..100.0, 6..7),
            zs in prop::collection::vec(-1.0f32..1.0, 6..7),
            shape in any::<u8>(),
            snap in any::<u8>(),
        ) {
            let snap_to = |v: f32| match snap % 4 {
                0 => v,
                1 => v.round(),             // pixel edges
                2 => v.floor() + 0.5,       // pixel centres
                _ => (v * 4.0).round() / 4.0,
            };
            let mut tris = Vec::new();
            for t in 0..2 {
                let mut p: Vec<ScreenVertex> = (0..3)
                    .map(|i| vertex(snap_to(xs[3 * t + i]), snap_to(ys[3 * t + i]), zs[3 * t + i], 0.3 * i as f32))
                    .collect();
                match (shape >> (4 * t)) % 6 {
                    0 => p[1].y = p[0].y,                                   // horizontal edge
                    1 => p[1].x = p[0].x,                                   // vertical edge
                    2 => p[2] = p[1],                                       // degenerate
                    3 => {                                                  // sub-pixel
                        p[1] = vertex(p[0].x + 0.3, p[0].y + 0.1, p[1].z, 0.5);
                        p[2] = vertex(p[0].x + 0.1, p[0].y + 0.4, p[2].z, 0.9);
                    }
                    4 => p[2].x += 2000.0,                                  // far off screen
                    _ => {}
                }
                tris.push(front_facing(p[0], p[1], p[2]));
            }
            fill_both(97, 61, &tris);
        }
    }

    #[test]
    fn span_fill_matches_scan_fill_on_extreme_coordinates() {
        // Poor root estimates (1e6-scale vertices), overflowing products
        // (1e20, 1e30: the span search must stand aside), a NaN vertex,
        // and both windings.
        for scale in [
            1.0e3f32,
            1.0e6,
            1.0e12,
            1.0e20,
            1.0e30,
            f32::INFINITY,
            f32::NAN,
        ] {
            let a = vertex(-scale, 10.5, 0.2, 0.1);
            let b = vertex(48.0, -scale, 0.4, 0.5);
            let c = vertex(scale, scale, 0.6, 0.9);
            fill_both(97, 61, &[front_facing(a, b, c), [a, b, c], [a, c, b]]);
        }
    }

    #[test]
    fn span_fill_matches_scan_fill_on_scene_frames() {
        // 120 frames over one period of the complexity swing, an input
        // every sixth, from the serving sizes down to one that is not a
        // multiple of anything.
        for (width, height) in [(1280, 720), (320, 180), (200, 112), (97, 61)] {
            let mut scene = Scene::new(12, 12);
            let (mut fb_span, mut fb_scan) = (
                Framebuffer::new(width, height),
                Framebuffer::new(width, height),
            );
            let (mut span, mut scan) = (Rasterizer::new(), oracle());
            for frame in 0..120 {
                if frame % 6 == 5 {
                    scene.apply_input(0.12);
                }
                let t = frame as f32 * scene.swing_period_s / 120.0;
                scene.render(&mut span, &mut fb_span, t);
                scene.render(&mut scan, &mut fb_scan, t);
                assert_same_target((&span, &fb_span), (&scan, &fb_scan));
            }
        }
    }

    fn front_view() -> Mat4 {
        Mat4::perspective(1.0, 1.0, 0.1, 10.0)
            * Mat4::look_at(
                Vec3::new(0.0, 0.0, 2.5),
                Vec3::ZERO,
                Vec3::new(0.0, 1.0, 0.0),
            )
    }

    #[test]
    fn cube_covers_center_of_screen() {
        let mut fb = Framebuffer::new(64, 64);
        let mut r = Rasterizer::new();
        r.draw(
            &mut fb,
            &Mesh::cube([1.0, 0.0, 0.0]),
            &Mat4::identity(),
            &front_view(),
        );
        // The centre pixel must be covered and reddish.
        let px = fb.pixel(32, 32);
        assert_ne!(px, 0xff00_0000, "centre uncovered");
        assert!(px & 0xff > (px >> 8) & 0xff, "not red-dominant: {px:08x}");
        assert!(r.triangles_drawn() > 0);
        assert!(r.triangles_culled() > 0, "back faces must be culled");
    }

    #[test]
    fn culling_halves_cube_triangles() {
        let mut fb = Framebuffer::new(32, 32);
        let mut r = Rasterizer::new();
        r.draw(
            &mut fb,
            &Mesh::cube([1.0; 3]),
            &Mat4::identity(),
            &front_view(),
        );
        // A cube seen head-on shows at most 3 faces = 6 triangles.
        assert!(r.triangles_drawn() <= 6);
        assert_eq!(r.triangles_drawn() + r.triangles_culled(), 12);
    }

    #[test]
    fn nearer_object_occludes_farther() {
        let mut fb = Framebuffer::new(64, 64);
        let mut r = Rasterizer::new();
        let view = front_view();
        // Red cube behind, green cube in front.
        let back = Mat4::translation(Vec3::new(0.0, 0.0, -1.0));
        r.draw(&mut fb, &Mesh::cube([1.0, 0.0, 0.0]), &back, &(view * back));
        let front = Mat4::translation(Vec3::new(0.0, 0.0, 0.5));
        r.draw(
            &mut fb,
            &Mesh::cube([0.0, 1.0, 0.0]),
            &front,
            &(view * front),
        );
        let px = fb.pixel(32, 32);
        let (red, green) = (px & 0xff, (px >> 8) & 0xff);
        assert!(green > red, "front cube must win: {px:08x}");
    }

    #[test]
    fn draw_order_does_not_matter_for_depth() {
        let view = front_view();
        let back = Mat4::translation(Vec3::new(0.0, 0.0, -1.0));
        let front = Mat4::translation(Vec3::new(0.0, 0.0, 0.5));
        let red = Mesh::cube([1.0, 0.0, 0.0]);
        let green = Mesh::cube([0.0, 1.0, 0.0]);

        let mut fb1 = Framebuffer::new(48, 48);
        let mut r1 = Rasterizer::new();
        r1.draw(&mut fb1, &red, &back, &(view * back));
        r1.draw(&mut fb1, &green, &front, &(view * front));

        let mut fb2 = Framebuffer::new(48, 48);
        let mut r2 = Rasterizer::new();
        r2.draw(&mut fb2, &green, &front, &(view * front));
        r2.draw(&mut fb2, &red, &back, &(view * back));

        assert_eq!(fb1.checksum(), fb2.checksum());
    }

    #[test]
    fn rendering_is_deterministic() {
        let mut checksums = Vec::new();
        for _ in 0..2 {
            let mut fb = Framebuffer::new(64, 64);
            let mut r = Rasterizer::new();
            let view = front_view();
            r.draw(
                &mut fb,
                &Mesh::sphere(12, 16, [0.2, 0.4, 1.0]),
                &Mat4::identity(),
                &view,
            );
            checksums.push(fb.checksum());
        }
        assert_eq!(checksums[0], checksums[1]);
    }

    #[test]
    fn behind_camera_geometry_is_dropped() {
        let mut fb = Framebuffer::new(32, 32);
        let mut r = Rasterizer::new();
        let view = front_view();
        let model = Mat4::translation(Vec3::new(0.0, 0.0, 10.0)); // behind the eye
        r.draw(&mut fb, &Mesh::cube([1.0; 3]), &model, &(view * model));
        assert_eq!(r.triangles_drawn(), 0);
        assert_eq!(fb.coverage([0.0; 3]), 0.0);
    }

    #[test]
    fn lighting_darkens_unlit_faces() {
        let mut fb = Framebuffer::new(64, 64);
        let mut r = Rasterizer::new();
        r.ambient = 0.1;
        r.light_dir = Vec3::new(1.0, 0.0, 0.0); // light from +X only
        let view = front_view();
        r.draw(
            &mut fb,
            &Mesh::cube([1.0, 1.0, 1.0]),
            &Mat4::identity(),
            &view,
        );
        // The front face (+Z normal) receives no diffuse light: near
        // ambient only.
        let px = fb.pixel(32, 32) & 0xff;
        assert!(px < 60, "front face too bright: {px}");
    }
}
