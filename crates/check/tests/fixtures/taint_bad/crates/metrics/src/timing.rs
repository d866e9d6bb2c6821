//! A "helper crate" wall-clock leak: `stamp_ns` reads `Instant::now`
//! directly (clippy's ban, not this pass's), and `elapsed_ms` is only
//! *transitively* tainted through it, a finding on the intra-crate call
//! edge since `metrics` is pure-sim too. The pure-sim call edges into
//! both in `fleet/src/engine.rs` are findings as well.

pub fn stamp_ns() -> u64 {
    let t = std::time::Instant::now();
    t.elapsed().as_nanos() as u64
}

pub fn elapsed_ms(start: u64) -> u64 {
    (stamp_ns() - start) / 1_000_000 // BAD: taint/wall-clock
}
