//! The helper crate's root.

pub mod timing;
