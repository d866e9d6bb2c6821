//! The hot crate's root.

pub mod sim;
