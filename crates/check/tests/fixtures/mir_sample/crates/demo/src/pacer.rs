//! A module of the sample crate.

use std::sync::Mutex;

/// A pacer whose frame start takes a lock.
pub struct Pacer {
    next: Mutex<u64>,
}

impl Pacer {
    pub fn frame_start(&self) -> u64 {
        let next = *self.next.lock().unwrap_or_else(|e| e.into_inner());
        super::helper(next)
    }
}
