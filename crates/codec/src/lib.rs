//! A small block-based video codec.
//!
//! The paper's modified TurboVNC transmits rendered frames as a video
//! stream (Section 5.4). This crate provides the codec the real-time
//! runtime uses for that role: RGBA frames are split into 16×16 blocks;
//! an **I-frame** encodes every block, a **P-frame** encodes only the
//! blocks that changed against the previous reconstructed frame. Blocks
//! are quantised (configurable bit depth), delta-coded against the left
//! neighbour pixel, and run-length + varint entropy coded.
//!
//! The design goals mirror what the regulation layer observes of a real
//! encoder: encode cost grows with frame complexity (more changed blocks),
//! P-frames are much smaller than I-frames, and decode exactly reconstructs
//! the quantised signal (so the client's frame is deterministic).

mod bitstream;
pub mod codec;

pub use codec::{max_encoded_len, Decoder, EncodedFrame, Encoder, FrameKind};
