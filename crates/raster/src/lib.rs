//! A small software 3D rasterizer.
//!
//! The ODR paper regulates unmodified OpenGL games. We cannot ship those,
//! so the real-time runtime (`odr-runtime`) and the examples render frames
//! with this rasterizer instead: perspective projection, back-face culling,
//! z-buffered triangle fill with Gouraud-style directional lighting, and a
//! [`scene::Scene`] whose object count varies over time so that frame
//! complexity — and therefore rendering time — fluctuates the way the
//! paper's Figure 4 traces do.
//!
//! The rasterizer is deliberately dependency-free and deterministic: the
//! same scene and time always produce the same pixels, which the runtime's
//! end-to-end tests rely on.

mod framebuffer;
mod math;
mod mesh;
mod raster;
mod scene;

pub use framebuffer::Framebuffer;
pub use math::{Mat4, Vec3};
pub use mesh::Mesh;
pub use raster::Rasterizer;
pub use scene::Scene;
