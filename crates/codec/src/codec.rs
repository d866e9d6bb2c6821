//! The encoder/decoder pair.

use crate::bitstream::{read_varint, write_varint, RleReader, RleWriter, MAX_VARINT_LEN};

/// Block edge length in pixels.
const BLOCK: usize = 16;
/// Bitstream magic ("OD").
const MAGIC: u16 = 0x4f44;

/// Whether a frame was coded standalone or against the previous frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameKind {
    /// Intra frame: every block coded.
    Intra,
    /// Predicted frame: only blocks that changed against the reference.
    Predicted,
}

/// One encoded frame.
#[derive(Clone, Debug)]
pub struct EncodedFrame {
    /// Intra or predicted.
    pub kind: FrameKind,
    /// The compressed bitstream.
    pub data: Vec<u8>,
    /// Number of blocks actually coded (the encoder's work measure).
    pub blocks_coded: u32,
}

/// Errors produced by [`Decoder::decode`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The bitstream header is malformed or has the wrong magic.
    BadHeader,
    /// Frame dimensions do not match the decoder.
    DimensionMismatch,
    /// A predicted frame arrived before any intra frame.
    MissingReference,
    /// The payload is truncated or inconsistent.
    Corrupt,
}

impl core::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let msg = match self {
            DecodeError::BadHeader => "malformed bitstream header",
            DecodeError::DimensionMismatch => "frame dimensions do not match decoder",
            DecodeError::MissingReference => "predicted frame without a reference",
            DecodeError::Corrupt => "truncated or inconsistent payload",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for DecodeError {}

/// The encoder: owns the previous *reconstructed* frame so encoder and
/// decoder predict from identical references.
///
/// # Examples
///
/// ```
/// use odr_codec::{Decoder, Encoder, FrameKind};
///
/// let (w, h) = (64, 32);
/// let frame = vec![0x20u8; (w * h * 4) as usize];
/// let mut enc = Encoder::new(w, h, 3);
/// let mut dec = Decoder::new(w, h);
///
/// let first = enc.encode(&frame);
/// assert_eq!(first.kind, FrameKind::Intra);
/// let out = dec.decode(&first.data).unwrap();
/// assert_eq!(out.len(), frame.len());
///
/// // An unchanged frame compresses to almost nothing.
/// let second = enc.encode(&frame);
/// assert_eq!(second.kind, FrameKind::Predicted);
/// assert!(second.data.len() < first.data.len() / 10);
/// ```
#[derive(Clone, Debug)]
pub struct Encoder {
    grid: BlockGrid,
    /// Bits dropped per channel (0 = lossless, 4 = strong quantisation).
    quant_bits: u8,
    /// Force an I-frame every `iframe_interval` frames.
    iframe_interval: u32,
    frames: u64,
    /// The previous frame, quantised; updated in place as each frame is
    /// compared against it.
    reference: Vec<u8>,
}

impl Encoder {
    /// Creates an encoder for `width`×`height` RGBA frames, dropping
    /// `quant_bits` low bits per channel.
    ///
    /// # Panics
    ///
    /// Panics if a dimension is zero or `quant_bits > 7`.
    #[must_use]
    pub fn new(width: u32, height: u32, quant_bits: u8) -> Self {
        assert!(width > 0 && height > 0, "empty frame");
        assert!(quant_bits <= 7, "quantisation too strong");
        let grid = BlockGrid::new(width, height);
        Encoder {
            grid,
            quant_bits,
            iframe_interval: 120,
            frames: 0,
            reference: vec![0; grid.frame_bytes()],
        }
    }

    /// Overrides the I-frame cadence.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    #[cfg(test)]
    pub(crate) fn with_iframe_interval(mut self, interval: u32) -> Self {
        assert!(interval > 0, "interval must be positive");
        self.iframe_interval = interval;
        self
    }

    /// Encodes one RGBA frame (`width × height × 4` bytes) into a fresh
    /// buffer; see [`Encoder::encode_into`] for the allocation-free form.
    ///
    /// # Panics
    ///
    /// Panics if `rgba` has the wrong length.
    pub fn encode(&mut self, rgba: &[u8]) -> EncodedFrame {
        let mut data = Vec::new();
        let (kind, blocks_coded) = self.encode_into(rgba, &mut data);
        EncodedFrame {
            kind,
            data,
            blocks_coded,
        }
    }

    /// Encodes one RGBA frame (`width × height × 4` bytes) into `out`,
    /// replacing its contents; returns the frame's kind and the number of
    /// blocks coded. `out` grows only when it could not hold this frame at
    /// its worst: with [`max_encoded_len`] bytes of capacity it never
    /// does, and the call does not allocate.
    ///
    /// # Panics
    ///
    /// Panics if `rgba` has the wrong length.
    pub fn encode_into(&mut self, rgba: &[u8], out: &mut Vec<u8>) -> (FrameKind, u32) {
        let grid = self.grid;
        assert_eq!(rgba.len(), grid.frame_bytes(), "frame size mismatch");

        // Frame 0 is intra by the cadence, so a predicted frame always
        // has a reference.
        let intra = self.frames.is_multiple_of(u64::from(self.iframe_interval));
        self.frames += 1;

        out.clear();
        if out.capacity() < grid.prefix_len() {
            reserve_output(out, grid.prefix_len());
        }
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&[if intra { 0 } else { 1 }, self.quant_bits]);
        out.extend_from_slice(&grid.width.to_le_bytes());
        out.extend_from_slice(&grid.height.to_le_bytes());

        // Pass 1, over whole rows: quantise, compare against the
        // reference and replace it, all in one sweep; a block's bit is
        // set in the changed-block bitmap (always present; all-ones for
        // intra) as soon as one of its row segments differs. Prediction
        // happens in the quantised domain so the decoder reconstructs
        // exactly.
        let bitmap_at = out.len();
        out.resize(bitmap_at + grid.bitmap_len(), 0);
        let bitmap = &mut out[bitmap_at..];
        let mask = !0u8 << self.quant_bits;
        let stride = grid.stride();
        for (y, (reference, source)) in self
            .reference
            .chunks_exact_mut(stride)
            .zip(rgba.chunks_exact(stride))
            .enumerate()
        {
            let first = (y / BLOCK) * grid.blocks_x;
            for (bx, (r, s)) in reference
                .chunks_mut(BLOCK * 4)
                .zip(source.chunks(BLOCK * 4))
                .enumerate()
            {
                let differs = requantise(r, s, mask);
                let idx = first + bx;
                bitmap[idx / 8] |= u8::from(intra | differs) << (idx % 8);
            }
        }

        let (blocks_coded, payload_len) = grid.coded(bitmap);
        // At worst every payload byte is a run of its own.
        let worst = grid.prefix_len() + 2 * payload_len;
        if out.capacity() < worst {
            reserve_output(out, worst);
        }
        write_varint(out, blocks_coded.into());

        // Pass 2: the changed blocks, delta-coded row by row off the
        // reference (now this frame) and run-length coded as one stream.
        let mut rle = RleWriter::begin(out, payload_len);
        let mut deltas = [0u8; BLOCK * 4];
        for by in 0..grid.blocks_y {
            for bx in 0..grid.blocks_x {
                if !bit(&out[bitmap_at..], by * grid.blocks_x + bx) {
                    continue;
                }
                let (x0, x1) = grid.block_columns(bx);
                for y in grid.block_rows(by) {
                    let row = &self.reference[y * stride + x0..y * stride + x1];
                    let deltas = &mut deltas[..row.len()];
                    left_deltas(deltas, row);
                    rle.feed(out, deltas);
                }
            }
        }
        rle.finish(out);

        let kind = if intra {
            FrameKind::Intra
        } else {
            FrameKind::Predicted
        };
        (kind, blocks_coded)
    }

    /// Frames encoded so far.
    #[must_use]
    pub fn frames_encoded(&self) -> u64 {
        self.frames
    }
}

/// The decoder: reconstructs frames and keeps the reference for predicted
/// frames.
#[derive(Clone, Debug)]
pub struct Decoder {
    grid: BlockGrid,
    /// The last decoded frame; deltas are applied onto it in place.
    reference: Vec<u8>,
    /// Whether `reference` holds a completely decoded frame: false until
    /// the first intra frame, and again after a decode failed part-way,
    /// so no predicted frame builds on a half-applied one.
    valid: bool,
}

impl Decoder {
    /// Creates a decoder for `width`×`height` RGBA frames.
    ///
    /// # Panics
    ///
    /// Panics if a dimension is zero.
    #[must_use]
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "empty frame");
        let grid = BlockGrid::new(width, height);
        Decoder {
            grid,
            reference: vec![0; grid.frame_bytes()],
            valid: false,
        }
    }

    /// Decodes one bitstream into an RGBA frame of its own; see
    /// [`Decoder::decode_in_place`] for the form that does not copy.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] for malformed input or a predicted frame
    /// with no reference.
    pub fn decode(&mut self, data: &[u8]) -> Result<Vec<u8>, DecodeError> {
        self.decode_in_place(data).map(<[u8]>::to_vec)
    }

    /// Decodes one bitstream onto the decoder's own reference frame and
    /// lends it out; nothing is allocated or copied.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] for malformed input or a predicted frame
    /// with no reference. An error found after deltas were applied leaves
    /// the decoder without a reference: predicted frames fail with
    /// [`DecodeError::MissingReference`] until the next intra frame.
    pub fn decode_in_place(&mut self, data: &[u8]) -> Result<&[u8], DecodeError> {
        let grid = self.grid;
        if data.len() < 12 || data[0..2] != MAGIC.to_le_bytes() {
            return Err(DecodeError::BadHeader);
        }
        let predicted = match data[2] {
            0 => false,
            1 => true,
            _ => return Err(DecodeError::BadHeader),
        };
        let width = u32::from_le_bytes([data[4], data[5], data[6], data[7]]);
        let height = u32::from_le_bytes([data[8], data[9], data[10], data[11]]);
        if width != grid.width || height != grid.height {
            return Err(DecodeError::DimensionMismatch);
        }

        let mut pos = 12;
        let bitmap = data
            .get(pos..pos + grid.bitmap_len())
            .ok_or(DecodeError::Corrupt)?;
        pos += grid.bitmap_len();
        let _blocks_coded = read_varint(data, &mut pos).ok_or(DecodeError::Corrupt)?;

        // The payload length follows from the bitmap and our own
        // dimensions; a stream that claims anything else is rejected
        // here, before its claim sizes anything.
        let (flagged, expected) = grid.coded(bitmap);
        let mut rle = RleReader::begin(data, pos, expected).ok_or(DecodeError::Corrupt)?;

        if predicted && !self.valid {
            return Err(DecodeError::MissingReference);
        }
        self.valid = false;
        if !predicted && flagged as usize != grid.blocks_x * grid.blocks_y {
            // An intra frame starts from black where it codes no block.
            self.reference.fill(0);
        }

        let stride = grid.stride();
        for by in 0..grid.blocks_y {
            for bx in 0..grid.blocks_x {
                if !bit(bitmap, by * grid.blocks_x + bx) {
                    continue;
                }
                let (x0, x1) = grid.block_columns(bx);
                for y in grid.block_rows(by) {
                    let row = &mut self.reference[y * stride + x0..y * stride + x1];
                    rle.read(row).ok_or(DecodeError::Corrupt)?;
                    undo_left_deltas(row);
                }
            }
        }
        self.valid = true;
        Ok(&self.reference)
    }
}

/// The longest bitstream a `width`×`height` frame can encode to: an
/// output buffer of this capacity never grows in
/// [`Encoder::encode_into`].
#[must_use]
pub fn max_encoded_len(width: u32, height: u32) -> usize {
    BlockGrid::new(width, height).max_encoded_len()
}

/// How a `width`×`height` frame divides into [`BLOCK`]-pixel blocks.
#[derive(Clone, Copy, Debug)]
struct BlockGrid {
    width: u32,
    height: u32,
    blocks_x: usize,
    blocks_y: usize,
}

impl BlockGrid {
    fn new(width: u32, height: u32) -> Self {
        BlockGrid {
            width,
            height,
            blocks_x: (width as usize).div_ceil(BLOCK),
            blocks_y: (height as usize).div_ceil(BLOCK),
        }
    }

    /// Bytes in one row of pixels.
    fn stride(&self) -> usize {
        self.width as usize * 4
    }

    fn frame_bytes(&self) -> usize {
        self.stride() * self.height as usize
    }

    fn bitmap_len(&self) -> usize {
        (self.blocks_x * self.blocks_y).div_ceil(8)
    }

    /// Byte columns `x0..x1` of block column `bx` within a row.
    fn block_columns(&self, bx: usize) -> (usize, usize) {
        (bx * BLOCK * 4, ((bx + 1) * BLOCK * 4).min(self.stride()))
    }

    /// Pixel rows of block row `by`.
    fn block_rows(&self, by: usize) -> core::ops::Range<usize> {
        by * BLOCK..((by + 1) * BLOCK).min(self.height as usize)
    }

    /// How many blocks `bitmap` flags, and their payload bytes in all
    /// (edge blocks are smaller).
    fn coded(&self, bitmap: &[u8]) -> (u32, usize) {
        let (mut blocks, mut bytes) = (0u32, 0usize);
        for by in 0..self.blocks_y {
            for bx in 0..self.blocks_x {
                if bit(bitmap, by * self.blocks_x + bx) {
                    let (x0, x1) = self.block_columns(bx);
                    blocks += 1;
                    bytes += (x1 - x0) * self.block_rows(by).len();
                }
            }
        }
        (blocks, bytes)
    }

    /// Everything ahead of the run-length pairs: header, bitmap and two
    /// varints.
    fn prefix_len(&self) -> usize {
        12 + self.bitmap_len() + 2 * MAX_VARINT_LEN
    }

    /// The longest bitstream a frame can encode to: every block coded,
    /// every payload byte a run of its own.
    fn max_encoded_len(&self) -> usize {
        self.prefix_len() + 2 * self.frame_bytes()
    }
}

/// Bit `idx` of a changed-block bitmap.
fn bit(bitmap: &[u8], idx: usize) -> bool {
    bitmap[idx / 8] & (1 << (idx % 8)) != 0
}

/// Growth of an output buffer that is too small for the frame at hand;
/// kept out of line so the steady-state [`Encoder::encode_into`], handed
/// a buffer of [`max_encoded_len`], never allocates.
#[cold]
fn reserve_output(out: &mut Vec<u8>, capacity: usize) {
    out.reserve(capacity.saturating_sub(out.len()));
}

/// Replaces `reference` with `source & mask`; did it change?
#[inline]
fn requantise(reference: &mut [u8], source: &[u8], mask: u8) -> bool {
    let mut diff = 0u8;
    for (&r, &s) in reference.iter().zip(source) {
        diff |= r ^ (s & mask);
    }
    // Most segments of most frames are unchanged: leave their cache
    // lines clean.
    if diff != 0 {
        for (r, &s) in reference.iter_mut().zip(source) {
            *r = s & mask;
        }
    }
    diff != 0
}

/// One block row as left-neighbour deltas (wrapping), per channel.
#[inline]
fn left_deltas(deltas: &mut [u8], row: &[u8]) {
    let head = row.len().min(4);
    deltas[..head].copy_from_slice(&row[..head]);
    for ((d, &cur), &left) in deltas[head..].iter_mut().zip(&row[head..]).zip(row) {
        *d = cur.wrapping_sub(left);
    }
}

/// Reverses [`left_deltas`] in place, a pixel (four channels) at a time.
#[inline]
fn undo_left_deltas(row: &mut [u8]) {
    let mut left = 0u32;
    for px in row.chunks_exact_mut(4) {
        let delta = u32::from_le_bytes([px[0], px[1], px[2], px[3]]);
        // Four wrapping byte additions in one word: add the low seven
        // bits of each byte, then fold the top bits in without a carry.
        left = ((left & 0x7f7f_7f7f) + (delta & 0x7f7f_7f7f)) ^ ((left ^ delta) & 0x8080_8080);
        px.copy_from_slice(&left.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradient_frame(w: u32, h: u32) -> Vec<u8> {
        let mut f = Vec::with_capacity((w * h * 4) as usize);
        for y in 0..h {
            for x in 0..w {
                f.push((x * 255 / w) as u8);
                f.push((y * 255 / h) as u8);
                f.push(((x + y) % 256) as u8);
                f.push(0xff);
            }
        }
        f
    }

    #[test]
    fn lossless_roundtrip_at_zero_quant() {
        let frame = gradient_frame(80, 48);
        let mut enc = Encoder::new(80, 48, 0);
        let mut dec = Decoder::new(80, 48);
        let encoded = enc.encode(&frame);
        let decoded = dec.decode(&encoded.data).expect("decode");
        assert_eq!(decoded, frame);
    }

    #[test]
    fn quantised_roundtrip_matches_quantised_source() {
        let frame = gradient_frame(64, 64);
        let mut enc = Encoder::new(64, 64, 3);
        let mut dec = Decoder::new(64, 64);
        let decoded = dec.decode(&enc.encode(&frame).data).expect("decode");
        let mask = !0u8 << 3;
        let expect: Vec<u8> = frame.iter().map(|&b| b & mask).collect();
        assert_eq!(decoded, expect);
    }

    #[test]
    fn static_scene_pframes_are_tiny() {
        let frame = gradient_frame(128, 128);
        let mut enc = Encoder::new(128, 128, 2);
        let i = enc.encode(&frame);
        let p = enc.encode(&frame);
        assert_eq!(i.kind, FrameKind::Intra);
        assert_eq!(p.kind, FrameKind::Predicted);
        assert_eq!(p.blocks_coded, 0);
        assert!(
            p.data.len() < 100,
            "static P-frame was {} bytes",
            p.data.len()
        );
    }

    #[test]
    fn partial_update_codes_only_changed_blocks() {
        let mut frame = gradient_frame(128, 128);
        let mut enc = Encoder::new(128, 128, 2);
        let mut dec = Decoder::new(128, 128);
        dec.decode(&enc.encode(&frame).data).expect("intra");

        // Touch one pixel: exactly one block should be re-coded.
        frame[4 * (30 * 128 + 40)] ^= 0xf0;
        let p = enc.encode(&frame);
        assert_eq!(p.blocks_coded, 1);
        let decoded = dec.decode(&p.data).expect("p-frame");
        let mask = !0u8 << 2;
        assert_eq!(
            decoded,
            frame.iter().map(|&b| b & mask).collect::<Vec<u8>>()
        );
    }

    #[test]
    fn iframe_cadence_is_respected() {
        let frame = gradient_frame(32, 32);
        let mut enc = Encoder::new(32, 32, 0).with_iframe_interval(4);
        let kinds: Vec<FrameKind> = (0..8).map(|_| enc.encode(&frame).kind).collect();
        assert_eq!(kinds[0], FrameKind::Intra);
        assert_eq!(kinds[4], FrameKind::Intra);
        assert!(kinds[1..4].iter().all(|&k| k == FrameKind::Predicted));
        assert_eq!(enc.frames_encoded(), 8);
    }

    #[test]
    fn decoder_rejects_garbage() {
        let mut dec = Decoder::new(32, 32);
        assert_eq!(dec.decode(&[1, 2, 3]), Err(DecodeError::BadHeader));
        let mut junk = vec![0u8; 64];
        junk[0..2].copy_from_slice(&MAGIC.to_le_bytes());
        junk[2] = 9; // invalid frame type
        assert_eq!(dec.decode(&junk), Err(DecodeError::BadHeader));
    }

    #[test]
    fn decoder_rejects_wrong_dimensions() {
        let frame = gradient_frame(64, 32);
        let mut enc = Encoder::new(64, 32, 0);
        let encoded = enc.encode(&frame);
        let mut dec = Decoder::new(32, 64);
        assert_eq!(
            dec.decode(&encoded.data),
            Err(DecodeError::DimensionMismatch)
        );
    }

    #[test]
    fn predicted_without_reference_fails() {
        let frame = gradient_frame(32, 32);
        let mut enc = Encoder::new(32, 32, 0);
        let _ = enc.encode(&frame); // intra, discarded
        let p = enc.encode(&frame); // predicted
        let mut dec = Decoder::new(32, 32);
        assert_eq!(dec.decode(&p.data), Err(DecodeError::MissingReference));
    }

    #[test]
    fn truncated_payload_is_corrupt() {
        let frame = gradient_frame(48, 48);
        let mut enc = Encoder::new(48, 48, 0);
        let encoded = enc.encode(&frame);
        let mut dec = Decoder::new(48, 48);
        let cut = &encoded.data[..encoded.data.len() / 2];
        assert_eq!(dec.decode(cut), Err(DecodeError::Corrupt));
    }

    /// Frame `t` of a synthetic sequence: a static gradient, a noisy
    /// square that moves every frame but each seventh, and a flat bar
    /// that grows.
    fn sequence_frame(w: u32, h: u32, t: u32) -> Vec<u8> {
        let mut frame = Vec::with_capacity((w * h * 4) as usize);
        let step = t - t / 7; // stands still on every seventh frame
        let (sx, sy) = ((step * 3) % w, (step * 2) % h);
        let mut noise = 0x9e37_79b9u32.wrapping_mul(step + 1);
        for y in 0..h {
            for x in 0..w {
                let in_square = x.wrapping_sub(sx) < 20 && y.wrapping_sub(sy) < 12;
                let in_bar = y == h / 2 && x < step % w;
                let px = if in_square {
                    noise = noise.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                    [
                        (noise >> 24) as u8,
                        (noise >> 16) as u8,
                        (noise >> 8) as u8,
                        0xff,
                    ]
                } else if in_bar {
                    [0xf0, 0xf0, 0x10, 0xff]
                } else {
                    [
                        (x * 255 / w) as u8,
                        (y * 255 / h) as u8,
                        ((x + y) % 256) as u8,
                        0xff,
                    ]
                };
                frame.extend_from_slice(&px);
            }
        }
        frame
    }

    fn fnv(hash: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *hash ^= u64::from(b);
            *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    #[test]
    fn bitstream_and_pixels_match_the_seed_codec() {
        // FNV-1a digests of 130 frames (across the 120-frame intra
        // cadence) of a 70×43 sequence, as the codec of PR 11 — whole-frame
        // quantise, `Vec<bool>` change map, collected payload, one-shot
        // RLE, cloned references — encoded and decoded them: (quant,
        // digest of blocks_coded + length + bitstream, digest of pixels).
        const SEED: [(u8, u64, u64); 3] = [
            (0, 0x9ea6_a52e_4e33_ca80, 0x07d1_ed6c_87af_71c9),
            (2, 0x8156_9577_459e_4ffc, 0xd69e_8a03_6f7b_3355),
            (4, 0x91b4_8cf9_9d97_589b, 0x53dd_abe1_8b5d_23c5),
        ];
        for (quant, seed_stream, seed_pixels) in SEED {
            let (w, h) = (70, 43);
            let mut enc = Encoder::new(w, h, quant);
            let mut wrapped = Encoder::new(w, h, quant);
            let mut dec = Decoder::new(w, h);
            let mut copying = Decoder::new(w, h);
            let (mut stream, mut pixels) = (0xcbf2_9ce4_8422_2325u64, 0xcbf2_9ce4_8422_2325u64);
            let mut data = Vec::new();
            for t in 0..130 {
                let frame = sequence_frame(w, h, t);
                let (kind, blocks_coded) = enc.encode_into(&frame, &mut data);
                assert_eq!(kind == FrameKind::Intra, t % 120 == 0, "frame {t}");
                fnv(&mut stream, &blocks_coded.to_le_bytes());
                fnv(&mut stream, &(data.len() as u32).to_le_bytes());
                fnv(&mut stream, &data);

                let one_shot = wrapped.encode(&frame);
                assert_eq!((one_shot.kind, one_shot.blocks_coded), (kind, blocks_coded));
                assert_eq!(
                    one_shot.data, data,
                    "encode and encode_into differ at frame {t}"
                );

                let copied = copying.decode(&data).expect("decode");
                let lent = dec.decode_in_place(&data).expect("decode_in_place");
                assert_eq!(
                    lent, copied,
                    "decode and decode_in_place differ at frame {t}"
                );
                let mask = !0u8 << quant;
                assert!(
                    lent.iter().zip(&frame).all(|(&d, &s)| d == s & mask),
                    "frame {t}"
                );
                fnv(&mut pixels, lent);
            }
            assert_eq!(stream, seed_stream, "bitstream digest, quant {quant}");
            assert_eq!(pixels, seed_pixels, "pixel digest, quant {quant}");
        }
    }

    #[test]
    fn encode_into_reuses_its_buffer() {
        let (w, h) = (70, 43);
        let mut enc = Encoder::new(w, h, 0);
        let mut data = Vec::new();
        enc.encode_into(&sequence_frame(w, h, 0), &mut data);
        let (ptr, capacity) = (data.as_ptr(), data.capacity());
        for t in 1..130 {
            // Noise everywhere: as large as a frame of this size gets.
            let mut frame = sequence_frame(w, h, t);
            let mut noise = t;
            for b in &mut frame {
                noise = noise.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                *b = (noise >> 24) as u8;
            }
            enc.encode_into(&frame, &mut data);
            assert_eq!(
                (data.as_ptr(), data.capacity()),
                (ptr, capacity),
                "frame {t}"
            );
        }
    }

    /// Header, all-clear bitmap and `blocks_coded` of a predicted 32×32
    /// frame, ready for a payload.
    fn predicted_prefix() -> Vec<u8> {
        let mut data = MAGIC.to_le_bytes().to_vec();
        data.extend_from_slice(&[1, 0]);
        data.extend_from_slice(&32u32.to_le_bytes());
        data.extend_from_slice(&32u32.to_le_bytes());
        data.push(0); // four blocks, none changed
        write_varint(&mut data, 0);
        data
    }

    #[test]
    fn hostile_payload_length_is_rejected_unsized() {
        let frame = gradient_frame(32, 32);
        let mut enc = Encoder::new(32, 32, 0);
        let mut dec = Decoder::new(32, 32);
        dec.decode_in_place(&enc.encode(&frame).data)
            .expect("intra");

        // No block changed, yet the payload claims 2^28 bytes in one run:
        // six bytes that used to cost the client a 268 MB allocation.
        let mut hostile = predicted_prefix();
        write_varint(&mut hostile, 1 << 28);
        write_varint(&mut hostile, 1 << 28);
        hostile.push(0x55);
        assert_eq!(
            dec.decode_in_place(&hostile).err(),
            Some(DecodeError::Corrupt)
        );
        // ... and the same with the one block's worth it may claim.
        let mut hostile = predicted_prefix();
        write_varint(&mut hostile, 1024);
        assert_eq!(
            dec.decode_in_place(&hostile).err(),
            Some(DecodeError::Corrupt)
        );

        // Rejected before anything was applied: the reference stands.
        let still = enc.encode(&frame);
        assert_eq!(
            dec.decode_in_place(&still.data).expect("p-frame"),
            &frame[..]
        );
    }

    #[test]
    fn failed_decode_invalidates_the_reference_until_the_next_intra() {
        let (w, h) = (64, 48);
        let mut enc = Encoder::new(w, h, 0).with_iframe_interval(4);
        let mut dec = Decoder::new(w, h);
        let frames: Vec<Vec<u8>> = (0..6).map(|t| sequence_frame(w, h, t)).collect();
        let encoded: Vec<EncodedFrame> = frames.iter().map(|f| enc.encode(f)).collect();

        dec.decode_in_place(&encoded[0].data).expect("intra");
        // Cut mid-payload: some blocks are applied before the stream ends.
        let cut = &encoded[1].data[..encoded[1].data.len() - 40];
        assert_eq!(dec.decode_in_place(cut).err(), Some(DecodeError::Corrupt));
        // Nothing may build on the half-applied frame ...
        for p in &encoded[1..4] {
            assert_eq!(
                dec.decode_in_place(&p.data).err(),
                Some(DecodeError::MissingReference)
            );
        }
        // ... until an intra frame replaces it.
        assert_eq!(encoded[4].kind, FrameKind::Intra);
        assert_eq!(
            dec.decode_in_place(&encoded[4].data).expect("intra"),
            &frames[4][..]
        );
        assert_eq!(
            dec.decode_in_place(&encoded[5].data).expect("p-frame"),
            &frames[5][..]
        );
    }

    #[test]
    fn sparse_intra_frame_starts_from_black() {
        // An intra frame that codes no block (no encoder of ours writes
        // one) must not show through to the previous frame.
        let mut dec = Decoder::new(32, 32);
        let mut enc = Encoder::new(32, 32, 0);
        dec.decode_in_place(&enc.encode(&gradient_frame(32, 32)).data)
            .expect("intra");
        let mut sparse = predicted_prefix();
        sparse[2] = 0; // intra
        write_varint(&mut sparse, 0);
        let out = dec.decode_in_place(&sparse).expect("sparse intra");
        assert!(out.iter().all(|&b| b == 0));
    }

    #[test]
    fn non_block_aligned_dimensions() {
        // 70×43 is not a multiple of 16 in either dimension.
        let frame = gradient_frame(70, 43);
        let mut enc = Encoder::new(70, 43, 0);
        let mut dec = Decoder::new(70, 43);
        let decoded = dec.decode(&enc.encode(&frame).data).expect("decode");
        assert_eq!(decoded, frame);
    }

    #[test]
    fn quantisation_shrinks_output() {
        let frame = gradient_frame(128, 128);
        let coarse = Encoder::new(128, 128, 4).encode_once(&frame);
        let fine = Encoder::new(128, 128, 0).encode_once(&frame);
        assert!(coarse < fine, "coarse {coarse} vs fine {fine}");
    }

    impl Encoder {
        fn encode_once(mut self, frame: &[u8]) -> usize {
            self.encode(frame).data.len()
        }
    }

    #[test]
    #[should_panic(expected = "frame size mismatch")]
    fn wrong_input_size_panics() {
        let mut enc = Encoder::new(16, 16, 0);
        let _ = enc.encode(&[0u8; 10]);
    }
}
