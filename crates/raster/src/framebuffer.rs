//! Color + depth render targets.

/// An RGBA8 color buffer with a paired f32 depth buffer.
#[derive(Clone, Debug)]
pub struct Framebuffer {
    width: u32,
    height: u32,
    /// Row-major RGBA pixels, packed `0xAABBGGRR` (little-endian byte order
    /// R, G, B, A).
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

    /// Clears color (to `rgb`) and depth.
    pub fn clear(&mut self, rgb: [f32; 3]) {
        let packed = pack(rgb);
        self.color.fill(packed);
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

    /// The packed RGBA pixels, row-major.
    #[must_use]
    pub fn pixels(&self) -> &[u32] {
        &self.color
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

    /// Raw bytes of the color buffer (RGBA interleaved) — what the server
    /// proxy "copies" and the codec consumes.
    #[must_use]
    pub fn bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.bytes_into(&mut out);
        out
    }

    /// Writes the raw bytes of the color buffer (RGBA interleaved) into
    /// `out`, replacing its contents. A buffer that already holds a frame
    /// of this size is overwritten in place, without allocating.
    pub fn bytes_into(&self, out: &mut Vec<u8>) {
        if out.len() != self.color.len() * 4 {
            return self.bytes_anew(out);
        }
        copy_le(out, &self.color);
    }

    /// [`Framebuffer::bytes_into`] for a buffer of any other length (its
    /// first use): appended a run of pixels at a time, so that new memory
    /// is written once, not zero-filled first.
    #[cold]
    fn bytes_anew(&self, out: &mut Vec<u8>) {
        out.clear();
        out.reserve_exact(self.color.len() * 4);
        let mut run = [0u8; 4096];
        for pixels in self.color.chunks(run.len() / 4) {
            let run = &mut run[..pixels.len() * 4];
            copy_le(run, pixels);
            out.extend_from_slice(run);
        }
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

/// Writes `pixels` into `bytes` (four per pixel), little-endian.
#[inline]
fn copy_le(bytes: &mut [u8], pixels: &[u32]) {
    for (dst, px) in bytes.chunks_exact_mut(4).zip(pixels) {
        dst.copy_from_slice(&px.to_le_bytes());
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
    fn bytes_into_reuses_and_resizes_the_buffer() {
        let mut fb = Framebuffer::new(3, 2);
        fb.put(1, 1, 0.5, [1.0, 0.5, 0.0]);
        let expect: Vec<u8> = fb.pixels().iter().flat_map(|px| px.to_le_bytes()).collect();
        // Too long, too short and exactly sized buffers all end up equal.
        for mut out in [vec![7u8; 100], vec![7u8; 3], vec![7u8; 24], Vec::new()] {
            fb.bytes_into(&mut out);
            assert_eq!(out, expect);
        }
        let mut out = fb.bytes();
        let ptr = out.as_ptr();
        fb.bytes_into(&mut out);
        assert_eq!(out.as_ptr(), ptr, "a fitting buffer must be reused");
    }

    #[test]
    #[should_panic(expected = "empty framebuffer")]
    fn zero_size_panics() {
        let _ = Framebuffer::new(0, 4);
    }
}
