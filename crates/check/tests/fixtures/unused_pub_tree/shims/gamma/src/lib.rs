//! Stand-in for an external crate: shims are not judged.

pub fn shim_only() {}
