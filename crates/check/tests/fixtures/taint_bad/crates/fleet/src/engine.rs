//! Pure-sim crate reaching wall-clock state through another crate's
//! helper. The direct call (`stamp_ns`) and the transitive one
//! (`elapsed_ms`, which never names `Instant` itself) must both be
//! flagged — the second is the case a token-level pass cannot see — and
//! so must the call into the real-time layer (`frame_deadline`, which
//! reads no clock at all).

use odr_metrics::timing::{elapsed_ms, stamp_ns};
use odr_runtime::pacer::frame_deadline;

pub fn tick() -> u64 {
    stamp_ns() // BAD: taint/wall-clock
}

pub fn frame_budget(start: u64) -> u64 {
    elapsed_ms(start) // BAD: taint/wall-clock
}

pub fn next_frame(start: u64) -> u64 {
    frame_deadline(start) // BAD: taint/realtime-layer
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_edges_are_exempt() {
        let _ = super::tick();
    }
}
