//! A crate-local helper module, reached from `driver.rs` through a
//! `use crate::…` path.

pub fn twice(x: u64) -> u64 {
    x * 2
}
