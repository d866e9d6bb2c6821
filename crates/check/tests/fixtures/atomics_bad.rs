//! Seeded atomics-discipline defects. Every line carrying a BAD
//! marker must be reported by `atomics_rules`, at exactly that line,
//! under the rule the marker names. Lines without a marker must stay
//! silent — the literal flag store and the Release writer are legal.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

static mut SCRATCH: u64 = 0; // BAD: atomics/static-mut

pub struct Ring {
    head: AtomicUsize,
    seq: AtomicU64,
    stop: AtomicBool,
}

impl Ring {
    pub fn publish(&self, idx: usize) {
        self.head.store(idx, Ordering::Relaxed); // BAD: atomics/relaxed-publish
    }

    pub fn writer(&self, v: u64) {
        self.seq.store(v, Ordering::Release);
    }

    pub fn reader(&self) -> u64 {
        self.seq.load(Ordering::Relaxed) // BAD: atomics/acquire-release-pair
    }

    pub fn claim(&self, old: usize, new: usize) -> bool {
        self.head.compare_exchange(old, new, Ordering::Relaxed, Ordering::Relaxed).is_ok() // BAD: atomics/relaxed-publish
    }

    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }
}
