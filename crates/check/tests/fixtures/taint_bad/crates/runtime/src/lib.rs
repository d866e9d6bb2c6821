//! The real-time crate's root.

pub mod pacer;
