//! Caller crate for the call-graph fixture tree: calls across crates,
//! through `crate::` within one, on constructed and parameter
//! receivers, and from a test module (no edge: a library's MIR has no
//! tests).

use alpha::{zero, Gauge};
use crate::util::{twice};

pub fn drive() -> u64 {
    let mut g = Gauge::new();
    g.reset();
    g.read() + zero()
}

pub fn sample(g: &Gauge) -> u64 {
    g.read()
}

pub fn doubled() -> u64 {
    twice(zero())
}

#[cfg(test)]
mod tests {
    #[test]
    fn drives() {
        let _ = super::drive();
    }
}
