//! Callee crate for the call-graph fixture tree: a free function, an
//! impl with a constructor and methods, an intra-crate call, and a caller
//! whose return type is an array.

pub struct Gauge {
    value: u64,
}

impl Gauge {
    pub fn new() -> Gauge {
        Gauge { value: 0 }
    }

    pub fn read(&self) -> u64 {
        self.value
    }

    pub fn reset(&mut self) {
        self.value = zero();
    }
}

pub fn zero() -> u64 {
    0
}

pub fn zeros() -> [u64; 4] {
    [zero(); 4]
}
