//! The versioned, length-prefixed wire protocol.
//!
//! Every message on the socket is `[body_len: u32 LE][type: u8][payload]`
//! where `body_len` counts the type byte plus the payload. The client
//! opens with [`Message::Hello`] (magic + protocol version) and
//! [`Message::Config`]; the server answers [`Message::Accept`] or
//! [`Message::Reject`]; then inputs flow client→server as
//! [`Message::Input`] and frames server→client as [`Message::Frame`];
//! either side ends the session with [`Message::Bye`], after which the
//! server sends a final [`Message::Report`].
//!
//! # Robustness contract
//!
//! Decoding adversarial bytes must yield a typed error, never a panic and
//! never an attacker-sized allocation: body lengths are capped at
//! [`MAX_BODY`] *before* any buffer is sized — at CONFIG's length on the
//! server, which reads nothing longer — every field read is
//! bounds-checked, and unknown message types or invalid field values are
//! [`WireError`]s (which convert into [`OdrError::Protocol`] at the
//! session boundary).
//!
//! # Hot path
//!
//! The per-frame header and input-event codecs —
//! [`FrameHeader::to_bytes`] / [`FrameHeader::from_bytes`] and
//! [`InputEvent::to_bytes`] / [`InputEvent::from_bytes`] — run once per
//! frame and per input inside the session framing loops. They operate on
//! fixed-size arrays with literal indices only and are registered in
//! `hotpaths.txt` as alloc/block/panic-free roots. The message-level
//! codec (control frames, whole-payload framing) is not hot.

use std::io::{IoSlice, Read, Write};

use odr_core::OdrError;
use odr_runtime::Regulation;

/// Protocol magic carried by HELLO: `"ODRS"` as a little-endian u32.
pub const MAGIC: u32 = 0x4F44_5253;

/// Protocol version carried by HELLO; bumped on any layout change.
pub const VERSION: u16 = 1;

/// Upper bound on a message body (type byte + payload): 64 MiB. A
/// corrupt length prefix is rejected before any allocation is sized by
/// it.
pub const MAX_BODY: u32 = 1 << 26;

/// Upper bound on the body of a message a client sends. CONFIG (type
/// byte, two dimensions, regulation kind and rate, quantiser, two scene
/// counts) is the longest of HELLO, CONFIG, INPUT and BYE, so the server
/// rejects any longer length prefix before it buffers a byte of the body.
pub(crate) const MAX_CLIENT_BODY: u32 = 1 + 4 + 4 + 1 + 8 + 1 + 4 + 4;

/// Serialized size of a [`FrameHeader`].
pub const FRAME_HEADER_LEN: usize = 29;

/// Everything [`write_frame`] sends ahead of the payload: the length
/// prefix, the type byte and the header.
const FRAME_PREFIX_LEN: usize = 4 + 1 + FRAME_HEADER_LEN;

/// Serialized size of an [`InputEvent`].
pub const INPUT_EVENT_LEN: usize = 16;

/// Upper bound on a REJECT reason string.
const MAX_REASON: usize = 4096;

/// [`FrameHeader::flags`] bit: the frame was flushed as a PriorityFrame.
pub const FLAG_PRIORITY: u8 = 1;

/// [`FrameHeader::flags`] bit: the frame answers an input; `input_id` /
/// `client_ts_ns` are meaningful.
pub const FLAG_TAGGED: u8 = 2;

/// Message type tags on the wire.
mod tag {
    pub(crate) const HELLO: u8 = 1;
    pub(crate) const CONFIG: u8 = 2;
    pub(crate) const ACCEPT: u8 = 3;
    pub(crate) const REJECT: u8 = 4;
    pub(crate) const INPUT: u8 = 5;
    pub(crate) const FRAME: u8 = 6;
    pub(crate) const BYE: u8 = 7;
    pub(crate) const REPORT: u8 = 8;
}

/// Every way a byte stream can violate the protocol. `Copy` so the hot
/// decode path can return it without allocating; the session boundary
/// converts it into [`OdrError::Protocol`] with a formatted message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The stream ended inside a message.
    Truncated,
    /// HELLO carried the wrong magic.
    BadMagic,
    /// HELLO carried an unsupported protocol version.
    Version(u16),
    /// Unknown message type tag.
    UnknownType(u8),
    /// The length prefix exceeds the reader's cap: [`MAX_BODY`], or the
    /// longest client message on the server.
    Oversized {
        /// The body length the prefix announced.
        len: u32,
        /// The cap it broke.
        cap: u32,
    },
    /// The length prefix is zero or disagrees with the payload layout.
    BadLength,
    /// A field value is outside its domain (flags, enum discriminants,
    /// non-finite floats, invalid UTF-8).
    BadField,
    /// A fixed-layout message carried extra bytes.
    TrailingBytes,
}

impl From<WireError> for OdrError {
    fn from(e: WireError) -> OdrError {
        match e {
            WireError::Truncated => OdrError::protocol("stream truncated inside a message"),
            WireError::BadMagic => OdrError::protocol("bad HELLO magic"),
            WireError::Version(v) => {
                OdrError::protocol(format!("unsupported protocol version {v} (want {VERSION})"))
            }
            WireError::UnknownType(t) => OdrError::protocol(format!("unknown message type {t}")),
            WireError::Oversized { len, cap } => {
                OdrError::protocol(format!("body length {len} exceeds cap {cap}"))
            }
            WireError::BadLength => OdrError::protocol("length prefix disagrees with payload"),
            WireError::BadField => OdrError::protocol("field value outside its domain"),
            WireError::TrailingBytes => OdrError::protocol("trailing bytes after message"),
        }
    }
}

/// One user input crossing client→server, stamped on the *client's*
/// monotonic clock so motion-to-photon latency is measured end to end on
/// one clock and needs no cross-host synchronisation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InputEvent {
    /// Client-assigned input sequence number.
    pub id: u64,
    /// Client monotonic timestamp at send, in nanoseconds.
    pub client_ts_ns: u64,
}

impl InputEvent {
    /// Serializes the event (hot: literal-indexed, no allocation).
    #[must_use]
    pub fn to_bytes(&self) -> [u8; INPUT_EVENT_LEN] {
        let i = self.id.to_le_bytes();
        let t = self.client_ts_ns.to_le_bytes();
        [
            i[0], i[1], i[2], i[3], i[4], i[5], i[6], i[7], t[0], t[1], t[2], t[3], t[4], t[5],
            t[6], t[7],
        ]
    }

    /// Deserializes an event (hot: literal-indexed, infallible on a
    /// correctly sized buffer).
    #[must_use]
    pub fn from_bytes(b: &[u8; INPUT_EVENT_LEN]) -> InputEvent {
        InputEvent {
            id: u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]),
            client_ts_ns: u64::from_le_bytes([
                b[8], b[9], b[10], b[11], b[12], b[13], b[14], b[15],
            ]),
        }
    }
}

/// The fixed-size header preceding every frame payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameHeader {
    /// Render sequence number.
    pub seq: u64,
    /// Id of the oldest input this frame answers ([`FLAG_TAGGED`]).
    pub input_id: u64,
    /// That input's client-clock send timestamp ([`FLAG_TAGGED`]).
    pub client_ts_ns: u64,
    /// [`FLAG_PRIORITY`] | [`FLAG_TAGGED`].
    pub flags: u8,
    /// Length of the payload that follows this header.
    pub payload_len: u32,
}

impl FrameHeader {
    /// Builds a header, rejecting undefined flag bits.
    fn validated(
        seq: u64,
        input_id: u64,
        client_ts_ns: u64,
        flags: u8,
        payload_len: u32,
    ) -> Result<FrameHeader, WireError> {
        if flags & !(FLAG_PRIORITY | FLAG_TAGGED) != 0 {
            return Err(WireError::BadField);
        }
        Ok(FrameHeader {
            seq,
            input_id,
            client_ts_ns,
            flags,
            payload_len,
        })
    }

    /// `true` when the frame answers an input.
    #[must_use]
    pub fn tagged(&self) -> bool {
        self.flags & FLAG_TAGGED != 0
    }

    /// `true` when the frame was a PriorityFrame flush.
    #[must_use]
    pub fn priority(&self) -> bool {
        self.flags & FLAG_PRIORITY != 0
    }

    /// Serializes the header (hot: literal-indexed, no allocation).
    #[must_use]
    pub fn to_bytes(&self) -> [u8; FRAME_HEADER_LEN] {
        let s = self.seq.to_le_bytes();
        let i = self.input_id.to_le_bytes();
        let t = self.client_ts_ns.to_le_bytes();
        let l = self.payload_len.to_le_bytes();
        [
            s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], i[0], i[1], i[2], i[3], i[4], i[5],
            i[6], i[7], t[0], t[1], t[2], t[3], t[4], t[5], t[6], t[7], self.flags, l[0], l[1],
            l[2], l[3],
        ]
    }

    /// Deserializes a header (hot: literal-indexed, no allocation),
    /// rejecting undefined flag bits.
    ///
    /// # Errors
    ///
    /// [`WireError::BadField`] when undefined flag bits are set.
    pub fn from_bytes(b: &[u8; FRAME_HEADER_LEN]) -> Result<FrameHeader, WireError> {
        FrameHeader::validated(
            u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]),
            u64::from_le_bytes([b[8], b[9], b[10], b[11], b[12], b[13], b[14], b[15]]),
            u64::from_le_bytes([b[16], b[17], b[18], b[19], b[20], b[21], b[22], b[23]]),
            b[24],
            u32::from_le_bytes([b[25], b[26], b[27], b[28]]),
        )
    }
}

/// A session request: what the client asks the server to run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SessionConfig {
    /// Frame width in pixels.
    pub width: u32,
    /// Frame height in pixels.
    pub height: u32,
    /// Regulation to run server-side.
    pub regulation: Regulation,
    /// Codec quantisation (bits dropped per channel, 0..=7).
    pub quant_bits: u8,
    /// Baseline scene complexity (object count).
    pub base_objects: u32,
    /// Complexity swing (see `odr_raster::Scene`).
    pub object_swing: u32,
}

impl Default for SessionConfig {
    fn default() -> SessionConfig {
        SessionConfig {
            width: 320,
            height: 180,
            regulation: Regulation::Odr {
                target_fps: Some(60.0),
            },
            quant_bits: 2,
            base_objects: 12,
            object_swing: 14,
        }
    }
}

/// Largest frame dimension a session may request; keeps a hostile CONFIG
/// from sizing server-side framebuffers arbitrarily.
pub const MAX_DIMENSION: u32 = 8192;

/// Largest `base_objects` and `object_swing` a session may request. The
/// renderer draws every object inside one frame, where no stop flag is
/// read, so an unbounded count would pin the session's app thread (and
/// the server's shutdown, which joins it) for as long as the client likes.
pub const MAX_OBJECTS: u32 = 1024;

impl SessionConfig {
    fn validated(self) -> Result<SessionConfig, WireError> {
        let dims_ok =
            (1..=MAX_DIMENSION).contains(&self.width) && (1..=MAX_DIMENSION).contains(&self.height);
        let scene_ok = self.base_objects <= MAX_OBJECTS && self.object_swing <= MAX_OBJECTS;
        let reg_ok = match self.regulation {
            Regulation::NoReg | Regulation::Odr { target_fps: None } => true,
            Regulation::Interval { fps }
            | Regulation::Odr {
                target_fps: Some(fps),
            } => fps.is_finite() && fps > 0.0 && fps <= 1000.0,
        };
        if dims_ok && scene_ok && reg_ok && self.quant_bits <= 7 {
            Ok(self)
        } else {
            Err(WireError::BadField)
        }
    }
}

/// What the server tells an admitted client about the operating point it
/// was admitted at (the colocation fixed point over all residents
/// including this one).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AcceptInfo {
    /// Server-assigned session id.
    pub session: u32,
    /// Resident count after this admission.
    pub residents: u32,
    /// Converged DRAM slowdown at the new fixed point.
    pub slowdown: f64,
    /// Predicted client FPS for this session at the fixed point.
    pub predicted_fps: f64,
    /// Predicted motion-to-photon latency in milliseconds.
    pub predicted_mtp_ms: f64,
}

/// The server's final accounting for one departed session.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DepartureReport {
    /// Server-assigned session id.
    pub session: u32,
    /// Frames the app stage rendered.
    pub frames_rendered: u64,
    /// Frames the proxy stage encoded.
    pub frames_encoded: u64,
    /// Frames written to the socket.
    pub frames_sent: u64,
    /// Frames discarded unsent (overwrites, flushes, obsolete frames).
    pub frames_dropped: u64,
    /// PriorityFrames rendered.
    pub priority_frames: u64,
    /// Inputs received from the client.
    pub inputs: u64,
    /// Payload bytes written to the socket (headers excluded).
    pub bytes_sent: u64,
    /// Session wall-clock lifetime in milliseconds.
    pub elapsed_ms: u64,
}

/// Every message of the protocol.
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    /// Client→server opening: magic is implicit (checked on decode),
    /// version negotiates the layout.
    Hello {
        /// The client's protocol version.
        version: u16,
    },
    /// Client→server session request.
    Config(SessionConfig),
    /// Server→client admission grant.
    Accept(AcceptInfo),
    /// Server→client admission denial; the connection closes after.
    Reject {
        /// Why admission failed.
        reason: String,
    },
    /// Client→server user input.
    Input(InputEvent),
    /// Server→client rendered frame.
    Frame {
        /// Fixed-size frame metadata.
        header: FrameHeader,
        /// Encoded frame bytes (`header.payload_len` long).
        payload: Vec<u8>,
    },
    /// Either side: end the session (client: stop; server: drained).
    Bye,
    /// Server→client final per-session accounting, after BYE.
    Report(DepartureReport),
}

/// Bounds-checked little-endian field reader over a message body.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        let s = self.buf.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        let s = self.take(1)?;
        Ok(s[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let s = self.take(2)?;
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let s = self.take(8)?;
        Ok(u64::from_le_bytes([
            s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7],
        ]))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Fails with [`WireError::TrailingBytes`] unless the body was
    /// consumed exactly.
    fn finish(&self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes)
        }
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Regulation discriminants on the wire.
const REG_NOREG: u8 = 0;
const REG_INTERVAL: u8 = 1;
const REG_ODR_MAX: u8 = 2;
const REG_ODR_TARGET: u8 = 3;

fn encode_regulation(out: &mut Vec<u8>, reg: Regulation) {
    let (kind, fps) = match reg {
        Regulation::NoReg => (REG_NOREG, 0.0),
        Regulation::Interval { fps } => (REG_INTERVAL, fps),
        Regulation::Odr { target_fps: None } => (REG_ODR_MAX, 0.0),
        Regulation::Odr {
            target_fps: Some(fps),
        } => (REG_ODR_TARGET, fps),
    };
    out.push(kind);
    put_f64(out, fps);
}

fn decode_regulation(r: &mut Reader<'_>) -> Result<Regulation, WireError> {
    let kind = r.u8()?;
    let fps = r.f64()?;
    match kind {
        REG_NOREG => Ok(Regulation::NoReg),
        REG_INTERVAL => Ok(Regulation::Interval { fps }),
        REG_ODR_MAX => Ok(Regulation::Odr { target_fps: None }),
        REG_ODR_TARGET => Ok(Regulation::Odr {
            target_fps: Some(fps),
        }),
        _ => Err(WireError::BadField),
    }
}

/// Encodes a message as `[body_len][type][payload]` bytes.
#[must_use]
pub fn encode(msg: &Message) -> Vec<u8> {
    let mut body = Vec::new();
    let tag = match msg {
        Message::Hello { version } => {
            put_u32(&mut body, MAGIC);
            put_u16(&mut body, *version);
            tag::HELLO
        }
        Message::Config(cfg) => {
            put_u32(&mut body, cfg.width);
            put_u32(&mut body, cfg.height);
            encode_regulation(&mut body, cfg.regulation);
            body.push(cfg.quant_bits);
            put_u32(&mut body, cfg.base_objects);
            put_u32(&mut body, cfg.object_swing);
            tag::CONFIG
        }
        Message::Accept(a) => {
            put_u32(&mut body, a.session);
            put_u32(&mut body, a.residents);
            put_f64(&mut body, a.slowdown);
            put_f64(&mut body, a.predicted_fps);
            put_f64(&mut body, a.predicted_mtp_ms);
            tag::ACCEPT
        }
        Message::Reject { reason } => {
            let bytes = reason.as_bytes();
            let n = bytes.len().min(MAX_REASON);
            put_u32(&mut body, n as u32);
            body.extend_from_slice(&bytes[..n]);
            tag::REJECT
        }
        Message::Input(ev) => {
            body.extend_from_slice(&ev.to_bytes());
            tag::INPUT
        }
        Message::Frame { header, payload } => {
            body.extend_from_slice(&header.to_bytes());
            body.extend_from_slice(payload);
            tag::FRAME
        }
        Message::Bye => tag::BYE,
        Message::Report(rep) => {
            put_u32(&mut body, rep.session);
            put_u64(&mut body, rep.frames_rendered);
            put_u64(&mut body, rep.frames_encoded);
            put_u64(&mut body, rep.frames_sent);
            put_u64(&mut body, rep.frames_dropped);
            put_u64(&mut body, rep.priority_frames);
            put_u64(&mut body, rep.inputs);
            put_u64(&mut body, rep.bytes_sent);
            put_u64(&mut body, rep.elapsed_ms);
            tag::REPORT
        }
    };
    let mut out = Vec::with_capacity(5 + body.len());
    put_u32(&mut out, body.len() as u32 + 1);
    out.push(tag);
    out.extend_from_slice(&body);
    out
}

/// Parses one message body (the bytes after the length prefix: type byte
/// plus payload).
///
/// # Errors
///
/// Any [`WireError`]: truncated/oversized bodies, unknown types, invalid
/// field values, trailing bytes.
pub fn parse_body(body: &[u8]) -> Result<Message, WireError> {
    let (&tag, payload) = body.split_first().ok_or(WireError::BadLength)?;
    let mut r = Reader::new(payload);
    let msg = match tag {
        tag::HELLO => {
            if r.u32()? != MAGIC {
                return Err(WireError::BadMagic);
            }
            let version = r.u16()?;
            if version != VERSION {
                return Err(WireError::Version(version));
            }
            Message::Hello { version }
        }
        tag::CONFIG => {
            let width = r.u32()?;
            let height = r.u32()?;
            let regulation = decode_regulation(&mut r)?;
            let quant_bits = r.u8()?;
            let base_objects = r.u32()?;
            let object_swing = r.u32()?;
            Message::Config(
                SessionConfig {
                    width,
                    height,
                    regulation,
                    quant_bits,
                    base_objects,
                    object_swing,
                }
                .validated()?,
            )
        }
        tag::ACCEPT => {
            let a = AcceptInfo {
                session: r.u32()?,
                residents: r.u32()?,
                slowdown: r.f64()?,
                predicted_fps: r.f64()?,
                predicted_mtp_ms: r.f64()?,
            };
            if !(a.slowdown.is_finite()
                && a.predicted_fps.is_finite()
                && a.predicted_mtp_ms.is_finite())
            {
                return Err(WireError::BadField);
            }
            Message::Accept(a)
        }
        tag::REJECT => {
            let n = r.u32()? as usize;
            if n > MAX_REASON {
                return Err(WireError::BadField);
            }
            let bytes = r.take(n)?;
            let reason = std::str::from_utf8(bytes)
                .map_err(|_| WireError::BadField)?
                .to_string();
            Message::Reject { reason }
        }
        tag::INPUT => {
            let s = r.take(INPUT_EVENT_LEN)?;
            let mut b = [0u8; INPUT_EVENT_LEN];
            b.copy_from_slice(s);
            Message::Input(InputEvent::from_bytes(&b))
        }
        tag::FRAME => {
            let s = r.take(FRAME_HEADER_LEN)?;
            let mut b = [0u8; FRAME_HEADER_LEN];
            b.copy_from_slice(s);
            let header = FrameHeader::from_bytes(&b)?;
            let payload = r.take(header.payload_len as usize)?.to_vec();
            Message::Frame { header, payload }
        }
        tag::BYE => Message::Bye,
        tag::REPORT => Message::Report(DepartureReport {
            session: r.u32()?,
            frames_rendered: r.u64()?,
            frames_encoded: r.u64()?,
            frames_sent: r.u64()?,
            frames_dropped: r.u64()?,
            priority_frames: r.u64()?,
            inputs: r.u64()?,
            bytes_sent: r.u64()?,
            elapsed_ms: r.u64()?,
        }),
        other => return Err(WireError::UnknownType(other)),
    };
    r.finish()?;
    Ok(msg)
}

/// Decodes the first complete message from a byte buffer.
///
/// Returns `Ok(None)` when the buffer holds only a message prefix so far
/// (a stream consumer should read more bytes), `Ok(Some((msg, consumed)))`
/// on success.
///
/// # Errors
///
/// Any [`WireError`] for malformed bytes; never panics, never allocates
/// more than the (capped) body length.
pub fn decode(buf: &[u8]) -> Result<Option<(Message, usize)>, WireError> {
    decode_within(buf, MAX_BODY)
}

/// [`decode`] with bodies capped at `max_body`: a longer length prefix is
/// an error as soon as its four bytes are in, however few of the body's
/// have arrived.
pub(crate) fn decode_within(
    buf: &[u8],
    max_body: u32,
) -> Result<Option<(Message, usize)>, WireError> {
    let Some(len_bytes) = buf.get(0..4) else {
        return Ok(None);
    };
    let body_len = checked_body_len(
        [len_bytes[0], len_bytes[1], len_bytes[2], len_bytes[3]],
        max_body,
    )?;
    let total = 4 + body_len as usize;
    let Some(body) = buf.get(4..total) else {
        return Ok(None);
    };
    Ok(Some((parse_body(body)?, total)))
}

/// The body length a prefix announces, if it is one a reader capped at
/// `max_body` accepts.
fn checked_body_len(prefix: [u8; 4], max_body: u32) -> Result<u32, WireError> {
    match u32::from_le_bytes(prefix) {
        0 => Err(WireError::BadLength),
        len if len > max_body => Err(WireError::Oversized { len, cap: max_body }),
        len => Ok(len),
    }
}

/// Writes one message to a stream.
///
/// # Errors
///
/// [`OdrError::Io`] when the underlying write fails.
pub fn write_message(w: &mut impl Write, msg: &Message) -> Result<(), OdrError> {
    w.write_all(&encode(msg))
        .map_err(|e| OdrError::io("socket", e))
}

/// Writes a FRAME message to a stream without re-buffering the payload:
/// `[body_len][FRAME][header bytes][payload]`, with `body_len` covering
/// the type byte, header, and payload.
///
/// The header's `payload_len` must equal `payload.len()`.
///
/// # Errors
///
/// [`OdrError::Protocol`] on a header/payload length mismatch,
/// [`OdrError::Io`] when the underlying write fails.
pub fn write_frame(
    w: &mut impl Write,
    header: &FrameHeader,
    payload: &[u8],
) -> Result<(), OdrError> {
    if header.payload_len as usize != payload.len() {
        return Err(OdrError::protocol(format!(
            "frame header declares {} payload bytes but {} were supplied",
            header.payload_len,
            payload.len()
        )));
    }
    let body_len = 1 + FRAME_HEADER_LEN as u32 + header.payload_len;
    let mut prefix = [0u8; FRAME_PREFIX_LEN];
    prefix[..4].copy_from_slice(&body_len.to_le_bytes());
    prefix[4] = tag::FRAME;
    prefix[5..].copy_from_slice(&header.to_bytes());

    // One vectored write for prefix + payload (one syscall and, on a
    // `TCP_NODELAY` socket, no 4-, 1- and 29-byte segments of their own);
    // a short write resumes where it stopped.
    let (mut head, mut body) = (&prefix[..], payload);
    while !head.is_empty() || !body.is_empty() {
        match w.write_vectored(&[IoSlice::new(head), IoSlice::new(body)]) {
            Ok(0) => {
                return Err(OdrError::io(
                    "socket",
                    std::io::Error::from(std::io::ErrorKind::WriteZero),
                ))
            }
            Ok(n) => {
                let from_head = n.min(head.len());
                head = &head[from_head..];
                body = &body[n - from_head..];
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(OdrError::io("socket", e)),
        }
    }
    Ok(())
}

/// Reads one message from a stream.
///
/// Returns `Ok(None)` on a clean end-of-stream at a message boundary.
///
/// # Errors
///
/// [`OdrError::Protocol`] for malformed bytes or a stream that ends
/// mid-message, [`OdrError::Io`] for transport failures.
pub fn read_message(r: &mut impl Read) -> Result<Option<Message>, OdrError> {
    read_message_within(r, MAX_BODY)
}

/// [`read_message`] with bodies capped at `max_body`: the body buffer is
/// sized only after the prefix passed the cap.
pub(crate) fn read_message_within(
    r: &mut impl Read,
    max_body: u32,
) -> Result<Option<Message>, OdrError> {
    let mut len_bytes = [0u8; 4];
    let mut got = 0;
    while got < len_bytes.len() {
        match r.read(&mut len_bytes[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(WireError::Truncated.into()),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(OdrError::io("socket", e)),
        }
    }
    let mut body = vec![0u8; checked_body_len(len_bytes, max_body)? as usize];
    r.read_exact(&mut body).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated.into()
        } else {
            OdrError::io("socket", e)
        }
    })?;
    Ok(Some(parse_body(&body)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: &Message) {
        let bytes = encode(msg);
        let (decoded, used) = decode(&bytes).expect("decode").expect("complete message");
        assert_eq!(used, bytes.len());
        assert_eq!(&decoded, msg);
    }

    #[test]
    fn control_messages_round_trip() {
        roundtrip(&Message::Hello { version: VERSION });
        roundtrip(&Message::Config(SessionConfig::default()));
        roundtrip(&Message::Accept(AcceptInfo {
            session: 3,
            residents: 4,
            slowdown: 1.25,
            predicted_fps: 58.5,
            predicted_mtp_ms: 71.0,
        }));
        roundtrip(&Message::Reject {
            reason: "predicted fps 12.0 below SLO 30.0".to_string(),
        });
        roundtrip(&Message::Bye);
        roundtrip(&Message::Report(DepartureReport {
            session: 9,
            frames_rendered: 100,
            frames_encoded: 90,
            frames_sent: 80,
            frames_dropped: 10,
            priority_frames: 3,
            inputs: 7,
            bytes_sent: 123_456,
            elapsed_ms: 2_000,
        }));
    }

    #[test]
    fn data_messages_round_trip() {
        roundtrip(&Message::Input(InputEvent {
            id: 42,
            client_ts_ns: 1_000_000,
        }));
        roundtrip(&Message::Frame {
            header: FrameHeader {
                seq: 7,
                input_id: 42,
                client_ts_ns: 5,
                flags: FLAG_PRIORITY | FLAG_TAGGED,
                payload_len: 3,
            },
            payload: vec![1, 2, 3],
        });
    }

    #[test]
    fn incomplete_prefix_asks_for_more() {
        let bytes = encode(&Message::Bye);
        for cut in 0..bytes.len() {
            let r = decode(&bytes[..cut]).expect("prefix is not an error");
            assert!(r.is_none(), "cut {cut} decoded early");
        }
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut bytes = Vec::new();
        put_u32(&mut bytes, MAX_BODY + 1);
        bytes.push(tag::BYE);
        assert_eq!(
            decode(&bytes),
            Err(WireError::Oversized {
                len: MAX_BODY + 1,
                cap: MAX_BODY
            })
        );
    }

    #[test]
    fn no_client_message_outgrows_the_client_cap() {
        let client = [
            Message::Hello { version: VERSION },
            Message::Config(SessionConfig::default()),
            Message::Input(InputEvent {
                id: u64::MAX,
                client_ts_ns: u64::MAX,
            }),
            Message::Bye,
        ];
        let longest = client.iter().map(|m| encode(m).len() - 4).max();
        assert_eq!(longest, Some(MAX_CLIENT_BODY as usize));
        for msg in &client {
            let bytes = encode(msg);
            assert!(decode_within(&bytes, MAX_CLIENT_BODY).is_ok(), "{msg:?}");
        }
        // One byte over is refused from the prefix alone, stream or buffer.
        let prefix = (MAX_CLIENT_BODY + 1).to_le_bytes();
        assert_eq!(
            decode_within(&prefix, MAX_CLIENT_BODY),
            Err(WireError::Oversized {
                len: MAX_CLIENT_BODY + 1,
                cap: MAX_CLIENT_BODY
            })
        );
        let err = read_message_within(&mut &prefix[..], MAX_CLIENT_BODY).expect_err("oversized");
        assert!(matches!(err, OdrError::Protocol { .. }), "{err}");
        assert!(
            err.to_string()
                .contains(&format!("exceeds cap {MAX_CLIENT_BODY}")),
            "{err}"
        );
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let mut hello = encode(&Message::Hello { version: VERSION });
        hello[5] ^= 0xFF; // corrupt the magic
        assert_eq!(decode(&hello), Err(WireError::BadMagic));

        let mut body = Vec::new();
        put_u32(&mut body, MAGIC);
        put_u16(&mut body, VERSION + 1);
        let mut bytes = Vec::new();
        put_u32(&mut bytes, body.len() as u32 + 1);
        bytes.push(tag::HELLO);
        bytes.extend_from_slice(&body);
        assert_eq!(decode(&bytes), Err(WireError::Version(VERSION + 1)));
    }

    #[test]
    fn unknown_type_and_trailing_bytes_are_typed() {
        let bytes = [4u32.to_le_bytes().to_vec(), vec![0xEE, 0, 0, 0]].concat();
        assert_eq!(decode(&bytes), Err(WireError::UnknownType(0xEE)));

        let mut bye = encode(&Message::Bye);
        bye[0] = 2; // claim one extra payload byte...
        bye.push(0); // ...and provide it
        assert_eq!(decode(&bye), Err(WireError::TrailingBytes));
    }

    #[test]
    fn corrupt_frame_header_flags_are_rejected() {
        let msg = Message::Frame {
            header: FrameHeader {
                seq: 1,
                input_id: 0,
                client_ts_ns: 0,
                flags: 0,
                payload_len: 1,
            },
            payload: vec![9],
        };
        let mut bytes = encode(&msg);
        // flags byte sits at 4 (len) + 1 (tag) + 24 = 29.
        bytes[29] = 0xF0;
        assert_eq!(decode(&bytes), Err(WireError::BadField));
    }

    #[test]
    fn frame_header_array_codec_round_trips() {
        let h = FrameHeader {
            seq: u64::MAX,
            input_id: 17,
            client_ts_ns: 1 << 40,
            flags: FLAG_TAGGED,
            payload_len: 4096,
        };
        assert_eq!(FrameHeader::from_bytes(&h.to_bytes()), Ok(h));
        assert!(h.tagged());
        assert!(!h.priority());
        let ev = InputEvent {
            id: 5,
            client_ts_ns: 77,
        };
        assert_eq!(InputEvent::from_bytes(&ev.to_bytes()), ev);
    }

    #[test]
    fn invalid_session_config_fields_are_rejected() {
        for bad in [
            SessionConfig {
                width: 0,
                ..SessionConfig::default()
            },
            SessionConfig {
                height: MAX_DIMENSION + 1,
                ..SessionConfig::default()
            },
            SessionConfig {
                base_objects: MAX_OBJECTS + 1,
                ..SessionConfig::default()
            },
            SessionConfig {
                object_swing: u32::MAX,
                ..SessionConfig::default()
            },
            SessionConfig {
                quant_bits: 8,
                ..SessionConfig::default()
            },
            SessionConfig {
                regulation: Regulation::Odr {
                    target_fps: Some(f64::NAN),
                },
                ..SessionConfig::default()
            },
            SessionConfig {
                regulation: Regulation::Interval { fps: -1.0 },
                ..SessionConfig::default()
            },
        ] {
            let bytes = encode(&Message::Config(bad));
            assert_eq!(decode(&bytes), Err(WireError::BadField), "{bad:?}");
        }
    }

    #[test]
    fn stream_io_round_trips_and_reports_clean_eof() {
        let msgs = [
            Message::Hello { version: VERSION },
            Message::Config(SessionConfig::default()),
            Message::Bye,
        ];
        let mut wire = Vec::new();
        for m in &msgs {
            write_message(&mut wire, m).expect("write");
        }
        let mut cursor = std::io::Cursor::new(wire);
        for m in &msgs {
            let got = read_message(&mut cursor).expect("read").expect("message");
            assert_eq!(&got, m);
        }
        assert_eq!(read_message(&mut cursor).expect("read"), None);
    }

    /// A writer that takes at most `limit` bytes per call, counts the
    /// calls, and is interrupted before every third one.
    struct Dribble {
        limit: usize,
        calls: usize,
        got: Vec<u8>,
    }

    impl Write for Dribble {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(3) {
                return Err(std::io::ErrorKind::Interrupted.into());
            }
            let mut room = self.limit;
            for buf in bufs {
                let n = buf.len().min(room);
                self.got.extend_from_slice(&buf[..n]);
                room -= n;
            }
            Ok(self.limit - room)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_frame_is_one_write_and_survives_short_ones() {
        let payload: Vec<u8> = (0..1000u32).map(|i| (i * 7) as u8).collect();
        let header = FrameHeader {
            seq: 9,
            input_id: 3,
            client_ts_ns: 1234,
            flags: FLAG_TAGGED | FLAG_PRIORITY,
            payload_len: payload.len() as u32,
        };
        let expect = encode(&Message::Frame {
            header,
            payload: payload.clone(),
        });
        // A writer with room takes prefix and payload in a single call.
        let mut roomy = Dribble {
            limit: usize::MAX,
            calls: 0,
            got: Vec::new(),
        };
        write_frame(&mut roomy, &header, &payload).expect("write");
        assert_eq!((roomy.calls, &roomy.got), (1, &expect));
        // Short writes that split the prefix, straddle the boundary and
        // chop the payload all resume where they stopped.
        for limit in [1, 3, 33, 34, 35, 100, 999] {
            let mut w = Dribble {
                limit,
                calls: 0,
                got: Vec::new(),
            };
            write_frame(&mut w, &header, &payload).expect("write");
            assert_eq!(w.got, expect, "limit {limit}");
        }
        // A writer that accepts nothing is an error, not a spin.
        let mut stuck = Dribble {
            limit: 0,
            calls: 0,
            got: Vec::new(),
        };
        assert!(matches!(
            write_frame(&mut stuck, &header, &payload),
            Err(OdrError::Io { .. })
        ));
    }

    #[test]
    fn mid_message_eof_is_a_protocol_error() {
        let bytes = encode(&Message::Config(SessionConfig::default()));
        let mut cursor = std::io::Cursor::new(&bytes[..bytes.len() - 1]);
        let err = read_message(&mut cursor).expect_err("truncated");
        assert!(matches!(err, OdrError::Protocol { .. }), "{err}");
    }

    #[test]
    fn wire_errors_format_as_protocol_errors() {
        let e: OdrError = WireError::Oversized {
            len: MAX_BODY + 1,
            cap: MAX_BODY,
        }
        .into();
        assert!(
            e.to_string().contains(&format!("exceeds cap {MAX_BODY}")),
            "{e}"
        );
        let e: OdrError = WireError::Version(9).into();
        assert!(e.to_string().contains("version 9"), "{e}");
    }
}
