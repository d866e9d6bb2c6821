//! Byte-oriented bitstream primitives: varints and run-length coding.

/// The longest LEB128 encoding of a `u64`.
pub(crate) const MAX_VARINT_LEN: usize = 10;

/// Writes `value` as a LEB128 varint at the start of `buf`; returns its
/// length.
#[inline]
fn put_varint(buf: &mut [u8], mut value: u64) -> usize {
    let mut len = 0;
    while value >= 0x80 {
        buf[len] = value as u8 | 0x80;
        value >>= 7;
        len += 1;
    }
    buf[len] = value as u8;
    len + 1
}

/// Appends `value` as a LEB128 varint.
pub(crate) fn write_varint(out: &mut Vec<u8>, value: u64) {
    let mut bytes = [0u8; MAX_VARINT_LEN];
    let len = put_varint(&mut bytes, value);
    out.extend_from_slice(&bytes[..len]);
}

/// Reads a LEB128 varint from `data` starting at `*pos`, advancing `*pos`.
///
/// Returns `None` on truncated or oversized (> 10 byte) input.
#[must_use]
pub(crate) fn read_varint(data: &[u8], pos: &mut usize) -> Option<u64> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *data.get(*pos)?;
        *pos += 1;
        if shift >= 64 {
            return None;
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(value);
        }
        shift += 7;
    }
}

/// How many bytes [`RleWriter`] looks at at a time: one row of a block.
const PIECE: usize = 64;

/// Run-length encodes a byte stream, fed in pieces, as a varint total
/// followed by `(varint run_length, value)` pairs; runs continue across
/// pieces, so the output does not depend on how the stream was cut.
pub(crate) struct RleWriter {
    value: u8,
    /// Length of the run of `value` not yet written; 0 before the first
    /// byte.
    run: usize,
}

impl RleWriter {
    /// Starts a stream of `total` bytes at the end of `out`.
    pub(crate) fn begin(out: &mut Vec<u8>, total: usize) -> Self {
        write_varint(out, total as u64);
        RleWriter { value: 0, run: 0 }
    }

    /// Appends the next piece of the stream.
    #[inline]
    pub(crate) fn feed(&mut self, out: &mut Vec<u8>, bytes: &[u8]) {
        for piece in bytes.chunks(PIECE) {
            self.feed_piece(out, piece);
        }
    }

    /// Appends at most [`PIECE`] bytes. The runs that end inside the piece
    /// — the pending one, of any length, then ones shorter than 128 —
    /// are gathered on the stack and appended in one go; the run that
    /// reaches the piece's end becomes the pending one.
    #[inline]
    fn feed_piece(&mut self, out: &mut Vec<u8>, piece: &[u8]) {
        let mut ended = [0u8; MAX_VARINT_LEN + 1 + 2 * PIECE];
        let mut len = 0;
        let (mut value, mut run) = (self.value, self.run);
        let mut i = 0;
        while let Some(&b) = piece.get(i) {
            if b == value {
                run += 1;
                // Inside a run: the long ones are rows of flat colour
                // (all-zero deltas), so look eight bytes ahead at a time.
                while piece.get(i + 1..i + 9) == Some(&[value; 8][..]) {
                    i += 8;
                    run += 8;
                }
            } else {
                if run > 0 {
                    len += put_varint(&mut ended[len..], run as u64);
                    ended[len] = value;
                    len += 1;
                }
                (value, run) = (b, 1);
            }
            i += 1;
        }
        out.extend_from_slice(&ended[..len]);
        (self.value, self.run) = (value, run);
    }

    /// Ends the stream: writes the pending run.
    pub(crate) fn finish(self, out: &mut Vec<u8>) {
        if self.run > 0 {
            write_varint(out, self.run as u64);
            out.extend_from_slice(&[self.value]);
        }
    }
}

/// Decodes an [`RleWriter`] stream piece by piece, into buffers the
/// caller sizes: the stream's own length claim allocates nothing.
pub(crate) struct RleReader<'a> {
    data: &'a [u8],
    pos: usize,
    value: u8,
    /// Bytes of the current run not yet read.
    run: usize,
    /// Bytes of the stream not yet covered by a run header.
    unclaimed: usize,
}

impl<'a> RleReader<'a> {
    /// Opens the stream at `data[pos..]`; `None` unless it declares
    /// exactly `expected` bytes.
    pub(crate) fn begin(data: &'a [u8], mut pos: usize, expected: usize) -> Option<Self> {
        let total = read_varint(data, &mut pos)?;
        (total == expected as u64).then_some(RleReader {
            data,
            pos,
            value: 0,
            run: 0,
            unclaimed: expected,
        })
    }

    /// Fills `out` with the next bytes of the stream; `None` on a
    /// malformed or exhausted stream.
    #[inline]
    pub(crate) fn read(&mut self, mut out: &mut [u8]) -> Option<()> {
        while !out.is_empty() {
            if self.run == 0 {
                let run = usize::try_from(read_varint(self.data, &mut self.pos)?).ok()?;
                if run == 0 || run > self.unclaimed {
                    return None;
                }
                self.value = *self.data.get(self.pos)?;
                self.pos += 1;
                self.run = run;
                self.unclaimed -= run;
            }
            let take = self.run.min(out.len());
            let (head, tail) = out.split_at_mut(take);
            match head {
                // Most runs are a byte or two: not worth a `memset` call.
                [a] => *a = self.value,
                [a, b] => (*a, *b) = (self.value, self.value),
                _ => head.fill(self.value),
            }
            self.run -= take;
            out = tail;
        }
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run-length encodes `bytes`, fed in `piece`-byte pieces.
    fn rle_encode_pieces(out: &mut Vec<u8>, bytes: &[u8], piece: usize) {
        let mut rle = RleWriter::begin(out, bytes.len());
        for chunk in bytes.chunks(piece) {
            rle.feed(out, chunk);
        }
        rle.finish(out);
    }

    fn rle_encode(out: &mut Vec<u8>, bytes: &[u8]) {
        rle_encode_pieces(out, bytes, usize::MAX);
    }

    /// Decodes a stream expected to hold `expected` bytes, reading it in
    /// 7-byte pieces; advances `pos` past it.
    fn rle_decode(data: &[u8], pos: &mut usize, expected: usize) -> Option<Vec<u8>> {
        let mut rle = RleReader::begin(data, *pos, expected)?;
        let mut out = vec![0xEEu8; expected];
        for piece in out.chunks_mut(7) {
            rle.read(piece)?;
        }
        *pos = rle.pos;
        Some(out)
    }

    #[test]
    fn varint_roundtrip() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &values {
            write_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_varint(&buf, &mut pos), Some(v));
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn varint_truncated_is_none() {
        let buf = vec![0x80, 0x80]; // continuation bits with no terminator
        let mut pos = 0;
        assert_eq!(read_varint(&buf, &mut pos), None);
    }

    #[test]
    fn rle_roundtrip_runs() {
        let data = [0u8, 0, 0, 5, 5, 9, 0, 0, 0, 0];
        let mut buf = Vec::new();
        rle_encode(&mut buf, &data);
        let mut pos = 0;
        assert_eq!(
            rle_decode(&buf, &mut pos, data.len()).as_deref(),
            Some(&data[..])
        );
        assert_eq!(pos, buf.len());
        assert_eq!(buf, [10, 3, 0, 2, 5, 1, 9, 4, 0]);
    }

    #[test]
    fn rle_output_does_not_depend_on_how_the_stream_is_cut() {
        let data: Vec<u8> = (0..600u32)
            .map(|i| (i / 7 % 3) as u8 * (i % 200 / 150) as u8)
            .collect();
        let mut whole = Vec::new();
        rle_encode(&mut whole, &data);
        for piece in [1, 2, 3, 64, 599] {
            let mut cut = Vec::new();
            rle_encode_pieces(&mut cut, &data, piece);
            assert_eq!(cut, whole, "pieces of {piece}");
        }
    }

    #[test]
    fn rle_long_runs_use_multi_byte_lengths() {
        let mut data = vec![3u8; 127];
        data.extend_from_slice(&[4u8; 128]);
        data.extend_from_slice(&[5u8; 20_000]);
        let mut buf = Vec::new();
        rle_encode(&mut buf, &data);
        assert_eq!(
            buf,
            [0x9f, 0x9e, 0x01, 127, 3, 0x80, 0x01, 4, 0xa0, 0x9c, 0x01, 5]
        );
        let mut pos = 0;
        assert_eq!(rle_decode(&buf, &mut pos, data.len()), Some(data));
    }

    #[test]
    fn rle_compresses_constant_input() {
        let data = vec![7u8; 10_000];
        let mut buf = Vec::new();
        rle_encode(&mut buf, &data);
        assert!(
            buf.len() < 10,
            "constant run should collapse: {}",
            buf.len()
        );
    }

    #[test]
    fn rle_empty() {
        let mut buf = Vec::new();
        rle_encode(&mut buf, &[]);
        let mut pos = 0;
        assert_eq!(rle_decode(&buf, &mut pos, 0), Some(Vec::new()));
    }

    #[test]
    fn rle_malformed_run_is_none() {
        // Claims 5 bytes but provides a run of 200.
        let mut buf = Vec::new();
        write_varint(&mut buf, 5);
        write_varint(&mut buf, 200);
        buf.push(1);
        let mut pos = 0;
        assert_eq!(rle_decode(&buf, &mut pos, 5), None);
        // A zero-length run would never terminate.
        assert_eq!(rle_decode(&[5, 0, 1], &mut 0, 5), None);
        // Runs that stop short of the declared total.
        assert_eq!(rle_decode(&[5, 3, 1], &mut 0, 5), None);
    }

    #[test]
    fn rle_rejects_a_length_it_was_not_told_to_expect() {
        // 2^28 bytes in one run, as six hostile bytes: the reader is
        // never opened, so nothing is sized from the claim.
        let mut buf = Vec::new();
        write_varint(&mut buf, 1 << 28);
        write_varint(&mut buf, 1 << 28);
        buf.push(7);
        assert!(RleReader::begin(&buf, 0, 1 << 28).is_some());
        assert!(RleReader::begin(&buf, 0, 4096).is_none());
        assert!(RleReader::begin(&buf, 0, 0).is_none());
    }

    #[test]
    fn rle_worst_case_alternating() {
        let data: Vec<u8> = (0..512).map(|i| (i % 2) as u8).collect();
        let mut buf = Vec::new();
        rle_encode(&mut buf, &data);
        let mut pos = 0;
        assert_eq!(
            rle_decode(&buf, &mut pos, data.len()).as_deref(),
            Some(&data[..])
        );
    }
}
