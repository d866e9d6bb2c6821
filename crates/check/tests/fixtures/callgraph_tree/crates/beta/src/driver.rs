//! Caller crate for the call-graph fixture tree: exercises use-map
//! resolution (across crates, and through `crate::` within one),
//! constructor-pinned and parameter-pinned receivers, and a test-only
//! edge (present in the graph, excluded from the render).

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
