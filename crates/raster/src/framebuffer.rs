//! Color + depth render targets.

/// An RGBA8 color buffer with a paired f32 depth buffer.
///
/// The colour plane may be the buffer's own ([`Framebuffer::new`]) or
/// lent to it a frame at a time ([`Framebuffer::draw_into`]), so that a
/// frame is rendered straight into the buffer that carries it onwards.
#[derive(Clone, Debug)]
pub struct Framebuffer {
    width: u32,
    height: u32,
    /// Row-major RGBA pixels, packed `0xAABBGGRR` (little-endian byte order
    /// R, G, B, A); empty between frames when the planes are lent.
    color: Vec<u32>,
    depth: Vec<f32>,
}

impl Framebuffer {
    /// Creates a buffer cleared to opaque black and maximum depth.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "empty framebuffer");
        let n = (width as usize) * (height as usize);
        Framebuffer {
            width,
            height,
            color: vec![0xff00_0000; n],
            depth: vec![f32::INFINITY; n],
        }
    }

    /// A buffer that owns only its depth plane: colour goes into the
    /// planes lent to [`Framebuffer::draw_into`].
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn without_color(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "empty framebuffer");
        Framebuffer {
            width,
            height,
            color: Vec::new(),
            depth: vec![f32::INFINITY; (width as usize) * (height as usize)],
        }
    }

    /// Runs `draw` with `plane` as this buffer's colour plane, then hands
    /// the plane back in `plane`, and the buffer its own. The plane may
    /// arrive with any length: [`Framebuffer::clear`] sizes it, in place
    /// when its capacity allows.
    pub fn draw_into<R>(&mut self, plane: &mut Vec<u32>, draw: impl FnOnce(&mut Self) -> R) -> R {
        std::mem::swap(&mut self.color, plane);
        let drawn = draw(self);
        std::mem::swap(&mut self.color, plane);
        drawn
    }

    /// Buffer width in pixels.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Buffer height in pixels.
    #[must_use]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Clears color (to `rgb`) and depth. A colour plane of the wrong
    /// length (a lent one on its first frame) is first resized to fit.
    pub fn clear(&mut self, rgb: [f32; 3]) {
        let packed = pack(rgb);
        self.color.clear();
        self.color.resize(self.depth.len(), packed);
        self.depth.fill(f32::INFINITY);
    }

    /// Depth-tested write of one pixel. Coordinates outside the buffer are
    /// ignored.
    #[cfg(test)]
    pub(crate) fn put(&mut self, x: i32, y: i32, z: f32, rgb: [f32; 3]) {
        if x < 0 || y < 0 || x >= self.width as i32 || y >= self.height as i32 {
            return;
        }
        let idx = y as usize * self.width as usize + x as usize;
        if z < self.depth[idx] {
            self.depth[idx] = z;
            self.color[idx] = pack(rgb);
        }
    }

    /// The pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[cfg(test)]
    pub(crate) fn pixel(&self, x: u32, y: u32) -> u32 {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.color[y as usize * self.width as usize + x as usize]
    }

    /// The colour and depth slices of row `y`, columns `lo..=hi` — the
    /// rasteriser's fill loop works on these directly.
    ///
    /// # Panics
    ///
    /// Panics when the span is out of bounds or `lo > hi + 1`.
    pub(crate) fn span_mut(&mut self, y: usize, lo: usize, hi: usize) -> (&mut [u32], &mut [f32]) {
        assert!(
            y < self.height as usize && hi < self.width as usize,
            "span out of bounds"
        );
        let row = y * self.width as usize;
        (
            &mut self.color[row + lo..=row + hi],
            &mut self.depth[row + lo..=row + hi],
        )
    }

    /// The depth buffer, row-major.
    #[cfg(test)]
    pub(crate) fn depth(&self) -> &[f32] {
        &self.depth
    }

    /// Raw bytes of the color buffer (RGBA interleaved), copied out a run
    /// of pixels at a time so that the new memory is written once, not
    /// zero-filled first.
    #[must_use]
    pub fn bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.color.len() * 4);
        let mut run = [0u8; 4096];
        for pixels in self.color.chunks(run.len() / 4) {
            let run = &mut run[..pixels.len() * 4];
            for (dst, px) in run.chunks_exact_mut(4).zip(pixels) {
                dst.copy_from_slice(&px.to_le_bytes());
            }
            out.extend_from_slice(run);
        }
        out
    }

    /// FNV-1a checksum of the color buffer; used by determinism tests.
    #[must_use]
    pub fn checksum(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for px in &self.color {
            for b in px.to_le_bytes() {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        hash
    }

    /// Fraction of pixels that differ from the clear color `rgb` —
    /// a cheap coverage measure for tests.
    #[cfg(test)]
    pub(crate) fn coverage(&self, clear_rgb: [f32; 3]) -> f64 {
        let clear = pack(clear_rgb);
        let covered = self.color.iter().filter(|&&p| p != clear).count();
        covered as f64 / self.color.len() as f64
    }
}

/// Packs linear RGB (clamped) into `0xAABBGGRR`.
#[inline]
pub(crate) fn pack(rgb: [f32; 3]) -> u32 {
    0xff00_0000 | (to8(rgb[2]) << 16) | (to8(rgb[1]) << 8) | to8(rgb[0])
}

/// `(v.clamp(0.0, 1.0) * 255.0 + 0.5) as u32`, spelt without the
/// saturating cast: that one compiles to a scalar compare-and-branch per
/// lane on baseline x86-64 and keeps the fill loop from vectorising.
#[inline]
fn to8(v: f32) -> u32 {
    // Adding 2^23 to a float in [0, 2^23) rounds it to an integer and
    // leaves that integer in the low mantissa bits.
    const MAGIC: f32 = 8_388_608.0;
    let x = v.clamp(0.0, 1.0) * 255.0 + 0.5; // in [0.5, 255.5], or NaN
    let nearest = (x + MAGIC) - MAGIC;
    let floor = if nearest > x { nearest - 1.0 } else { nearest };
    let bits = (floor + MAGIC).to_bits() & 0xff;
    if x.is_nan() {
        0 // what the cast makes of NaN, whatever its payload
    } else {
        bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_sets_every_pixel() {
        let mut fb = Framebuffer::new(4, 4);
        fb.clear([1.0, 0.0, 0.0]);
        for y in 0..4 {
            for x in 0..4 {
                assert_eq!(fb.pixel(x, y) & 0x00ff_ffff, 0x0000_00ff);
            }
        }
        assert_eq!(fb.coverage([1.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn depth_test_keeps_nearer_pixel() {
        let mut fb = Framebuffer::new(2, 2);
        fb.put(0, 0, 0.5, [0.0, 1.0, 0.0]);
        fb.put(0, 0, 0.9, [1.0, 0.0, 0.0]); // behind: rejected
        assert_eq!(fb.pixel(0, 0) & 0x00ff_ffff, 0x0000_ff00);
        fb.put(0, 0, 0.1, [0.0, 0.0, 1.0]); // in front: accepted
        assert_eq!(fb.pixel(0, 0) & 0x00ff_ffff, 0x00ff_0000);
    }

    #[test]
    fn out_of_bounds_put_is_ignored() {
        let mut fb = Framebuffer::new(2, 2);
        fb.put(-1, 0, 0.0, [1.0; 3]);
        fb.put(0, 5, 0.0, [1.0; 3]);
        assert_eq!(fb.coverage([0.0; 3]), 0.0);
    }

    #[test]
    fn checksum_changes_with_content() {
        let mut a = Framebuffer::new(8, 8);
        let b = Framebuffer::new(8, 8);
        assert_eq!(a.checksum(), b.checksum());
        a.put(3, 3, 0.1, [1.0, 1.0, 0.0]);
        assert_ne!(a.checksum(), b.checksum());
    }

    #[test]
    fn to8_equals_the_saturating_cast() {
        let cast = |v: f32| (v.clamp(0.0, 1.0) * 255.0 + 0.5) as u32;
        let check = |v: f32| assert_eq!(to8(v), cast(v), "v = {v:e} ({:#010x})", v.to_bits());
        // Every float near a rounding boundary k/255 ± 0.5/255, a coarse
        // sweep of all bit patterns (both signs, infinities, NaNs with
        // payloads), and the values between 0 and 1 more finely.
        for k in 0..=510u32 {
            let centre = (k as f32 * 0.5 / 255.0).to_bits();
            for bits in centre.saturating_sub(64)..=centre + 64 {
                check(f32::from_bits(bits));
            }
        }
        for bits in (0..=u32::MAX).step_by(65_521) {
            check(f32::from_bits(bits));
        }
        for bits in (0..=1.0f32.to_bits()).step_by(1_021) {
            check(f32::from_bits(bits));
        }
        for v in [
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7f80_00a5),
            f32::from_bits(0xffc0_01ff),
        ] {
            check(v);
        }
    }

    #[test]
    fn bytes_length_matches() {
        let fb = Framebuffer::new(3, 5);
        assert_eq!(fb.bytes().len(), 3 * 5 * 4);
    }

    #[test]
    fn a_lent_plane_draws_what_the_own_plane_does() {
        let mut own = Framebuffer::new(3, 2);
        own.clear([0.2, 0.4, 0.6]);
        own.put(1, 1, 0.5, [1.0, 0.5, 0.0]);
        // `bytes` lays the pixels out row-major, each in R, G, B, A order.
        let expect: Vec<u8> = (0..2)
            .flat_map(|y| (0..3).map(move |x| (x, y)))
            .flat_map(|(x, y)| own.pixel(x, y).to_le_bytes())
            .collect();
        assert_eq!(own.bytes(), expect);
        let mut lent = Framebuffer::without_color(3, 2);
        // Too long, too short, exactly sized and empty planes all end up
        // holding the frame, and the buffer holds none of them after.
        for mut plane in [vec![7u32; 100], vec![7; 3], vec![7; 6], Vec::new()] {
            lent.draw_into(&mut plane, |fb| {
                fb.clear([0.2, 0.4, 0.6]);
                fb.put(1, 1, 0.5, [1.0, 0.5, 0.0]);
            });
            let bytes: Vec<u8> = plane.iter().flat_map(|px| px.to_le_bytes()).collect();
            assert_eq!(bytes, expect);
            assert!(lent.bytes().is_empty());
        }
        let mut plane = Vec::with_capacity(6);
        let ptr = plane.as_ptr();
        lent.draw_into(&mut plane, |fb| fb.clear([0.0; 3]));
        assert_eq!(
            plane.as_ptr(),
            ptr,
            "a plane with room must be drawn in place"
        );
    }

    #[test]
    #[should_panic(expected = "empty framebuffer")]
    fn zero_size_panics() {
        let _ = Framebuffer::new(0, 4);
    }
}
