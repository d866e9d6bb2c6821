//! A real-time helper with no nondeterminism source of its own: calling
//! it from pure-sim code is still a finding, because the real-time layer
//! is one of the sources.

pub fn frame_deadline(start: u64) -> u64 {
    start + 16
}
