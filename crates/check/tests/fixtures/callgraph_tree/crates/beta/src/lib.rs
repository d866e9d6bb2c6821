//! The caller crate's root.

pub mod driver;
pub mod util;
