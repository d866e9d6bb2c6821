//! Property-based wire-format suite: every frame type round-trips, and
//! no byte stream — truncated, oversized, or corrupted — can make the
//! decoder panic or allocate unboundedly. Failures must surface as typed
//! [`WireError`]s (or `Ok(None)` for an incomplete prefix), because the
//! server feeds these decoders bytes an arbitrary network peer chose.
//!
//! The strategy engine is the std-only shim in `shims/proptest` so the
//! suite runs fully offline.

use odr_runtime::Regulation;
use odr_serve::wire::{
    decode, encode, parse_body, read_message, AcceptInfo, DepartureReport, FrameHeader, InputEvent,
    Message, SessionConfig, WireError, FLAG_PRIORITY, FLAG_TAGGED, MAX_BODY, MAX_DIMENSION,
    MAX_OBJECTS, VERSION,
};
use proptest::prelude::*;

/// Builds one valid message of the protocol from drawn fields; `kind`
/// selects the frame type so a single property covers all eight.
#[allow(clippy::too_many_arguments)]
fn build_message(
    kind: u8,
    a: u64,
    b: u64,
    c: u32,
    d: u32,
    fps: f64,
    flags: u8,
    text: &[u8],
    payload: Vec<u8>,
) -> Message {
    match kind % 8 {
        0 => Message::Hello { version: VERSION },
        1 => Message::Config(SessionConfig {
            width: 1 + c % MAX_DIMENSION,
            height: 1 + d % MAX_DIMENSION,
            regulation: match kind % 4 {
                0 => Regulation::NoReg,
                1 => Regulation::Interval { fps },
                2 => Regulation::Odr { target_fps: None },
                _ => Regulation::Odr {
                    target_fps: Some(fps),
                },
            },
            quant_bits: (a % 8) as u8,
            base_objects: c % (MAX_OBJECTS + 1),
            object_swing: d % (MAX_OBJECTS + 1),
        }),
        2 => Message::Accept(AcceptInfo {
            session: c,
            residents: d,
            slowdown: 1.0 + fps / 1000.0,
            predicted_fps: fps,
            predicted_mtp_ms: fps * 2.0,
        }),
        3 => Message::Reject {
            // Printable ASCII keeps the reason valid UTF-8 by construction.
            reason: text.iter().map(|&ch| (b' ' + ch % 95) as char).collect(),
        },
        4 => Message::Input(InputEvent {
            id: a,
            client_ts_ns: b,
        }),
        5 => Message::Frame {
            header: FrameHeader {
                seq: a,
                input_id: b,
                client_ts_ns: a ^ b,
                flags: flags & (FLAG_PRIORITY | FLAG_TAGGED),
                payload_len: payload.len() as u32,
            },
            payload,
        },
        6 => Message::Bye,
        _ => Message::Report(DepartureReport {
            session: c,
            frames_rendered: a,
            frames_encoded: b,
            frames_sent: a.min(b),
            frames_dropped: a.max(b) - a.min(b),
            priority_frames: a % 97,
            inputs: b % 89,
            bytes_sent: a,
            elapsed_ms: b,
        }),
    }
}

proptest! {
    /// Every frame type survives encode → decode bit-exactly, consuming
    /// exactly its own bytes.
    #[test]
    fn every_frame_type_roundtrips(
        kind in any::<u8>(),
        a in any::<u64>(),
        b in any::<u64>(),
        c in any::<u32>(),
        d in any::<u32>(),
        fps in 0.1f64..1000.0,
        flags in any::<u8>(),
        text in prop::collection::vec(any::<u8>(), 0..64),
        payload in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let msg = build_message(kind, a, b, c, d, fps, flags, &text, payload);
        let bytes = encode(&msg);
        let (back, used) = decode(&bytes)
            .expect("valid encoding decodes")
            .expect("complete message");
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(back, msg);
    }

    /// Any strict prefix of a valid encoding is "incomplete", never an
    /// error and never a panic: a stream consumer just reads more bytes.
    #[test]
    fn truncated_messages_are_incomplete_not_errors(
        kind in any::<u8>(),
        a in any::<u64>(),
        b in any::<u64>(),
        c in any::<u32>(),
        d in any::<u32>(),
        fps in 0.1f64..1000.0,
        flags in any::<u8>(),
        payload in prop::collection::vec(any::<u8>(), 0..128),
        cut in any::<u64>(),
    ) {
        let msg = build_message(kind, a, b, c, d, fps, flags, &[], payload);
        let bytes = encode(&msg);
        let cut = (cut as usize) % bytes.len();
        prop_assert!(matches!(decode(&bytes[..cut]), Ok(None)));
    }

    /// Flipping any single byte of a valid encoding yields a clean
    /// outcome: a successful decode (the flip hit a don't-care bit), an
    /// incomplete, or a typed error — never a panic.
    #[test]
    fn corrupted_bytes_never_panic(
        kind in any::<u8>(),
        a in any::<u64>(),
        b in any::<u64>(),
        c in any::<u32>(),
        d in any::<u32>(),
        fps in 0.1f64..1000.0,
        flags in any::<u8>(),
        payload in prop::collection::vec(any::<u8>(), 0..128),
        pos in any::<u64>(),
        flip in 1u8..255,
    ) {
        let msg = build_message(kind, a, b, c, d, fps, flags, &[], payload);
        let mut bytes = encode(&msg);
        let pos = (pos as usize) % bytes.len();
        bytes[pos] ^= flip;
        match decode(&bytes) {
            Ok(Some((_, used))) => prop_assert!(used <= bytes.len()),
            Ok(None) | Err(_) => {}
        }
    }

    /// Arbitrary bytes through both decoder entry points yield typed
    /// outcomes only; `read_message` maps them into `OdrError`.
    #[test]
    fn random_bytes_yield_typed_errors(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        match decode(&bytes) {
            Ok(Some((_, used))) => prop_assert!(used <= bytes.len()),
            Ok(None) | Err(_) => {}
        }
        let _ = parse_body(&bytes);
        let mut cursor = std::io::Cursor::new(bytes);
        match read_message(&mut cursor) {
            Ok(_) => {}
            Err(err) => prop_assert!(
                matches!(err, odr_core::OdrError::Protocol { .. }),
                "unexpected error class: {}",
                err
            ),
        }
    }

    /// A hostile length prefix larger than `MAX_BODY` is rejected before
    /// any allocation is sized from it.
    #[test]
    fn oversized_prefix_is_rejected_up_front(
        excess in any::<u32>(),
        tail in prop::collection::vec(any::<u8>(), 0..32),
    ) {
        let huge = MAX_BODY
            .saturating_add(1)
            .saturating_add(excess % (u32::MAX - MAX_BODY - 1));
        let mut bytes = huge.to_le_bytes().to_vec();
        bytes.extend_from_slice(&tail);
        let want = WireError::Oversized { len: huge, cap: MAX_BODY };
        prop_assert_eq!(decode(&bytes), Err(want));
    }

    /// The fixed-size hot codecs round-trip for all field values.
    #[test]
    fn fixed_codecs_roundtrip(
        id in any::<u64>(),
        ts in any::<u64>(),
        seq in any::<u64>(),
        len in any::<u32>(),
        flags in any::<u8>(),
    ) {
        let ev = InputEvent { id, client_ts_ns: ts };
        prop_assert_eq!(InputEvent::from_bytes(&ev.to_bytes()), ev);
        let header = FrameHeader {
            seq,
            input_id: id,
            client_ts_ns: ts,
            flags: flags & (FLAG_PRIORITY | FLAG_TAGGED),
            payload_len: len,
        };
        prop_assert_eq!(
            FrameHeader::from_bytes(&header.to_bytes()).expect("valid flags"),
            header
        );
        // Undefined flag bits are rejected, not silently carried.
        if flags & !(FLAG_PRIORITY | FLAG_TAGGED) != 0 {
            let mut bytes = header.to_bytes();
            bytes[24] = flags;
            prop_assert!(matches!(
                FrameHeader::from_bytes(&bytes),
                Err(WireError::BadField)
            ));
        }
    }
}
