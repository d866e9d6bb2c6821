//! The pure-sim crate's root.

pub mod engine;
