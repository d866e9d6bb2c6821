//! The source of the committed MIR sample (`demo.mir` beside `crates/`):
//! one call of each shape the MIR reader tells apart.

pub mod pacer;

use std::ops::Add;

/// A time with an operator impl.
#[derive(Clone, Copy)]
pub struct Stamp(pub u64);

impl Add<u64> for Stamp {
    type Output = Stamp;
    fn add(self, d: u64) -> Stamp {
        Stamp(self.0 + d)
    }
}

/// Something that records a sample.
pub trait Sink {
    fn record(&self, v: u64);
}

/// A sink.
pub struct Ring;

impl Sink for Ring {
    fn record(&self, _v: u64) {}
}

/// How a frame is paced.
pub enum Pace {
    Free,
    Interval(pacer::Pacer),
}

/// A loop with an optional sink.
pub struct Cycle {
    pub sink: Option<Ring>,
    pub pace: Pace,
    pub ring: Ring,
}

impl Cycle {
    pub fn step(&self, t: Stamp) -> Stamp {
        if let Some(ring) = &self.sink {
            ring.record(1);
        }
        let d = match &self.pace {
            Pace::Free => 0,
            Pace::Interval(p) => p.frame_start(),
        };
        let twice = |x: u64| helper(x) * 2;
        let r = self.ring();
        r.record(d);
        t + twice(d)
    }

    fn ring(&self) -> &Ring {
        &self.ring
    }
}

/// Two types with one method name.
pub struct A;
impl A {
    pub fn go(&self) {}
}

/// The other one.
pub struct B;
impl B {
    pub fn go(&self) {}
}

/// A struct sharing its name and its field's name with `twin::S`.
pub struct S {
    pub q: A,
}

/// The other `S`, whose `q` is a `B`.
pub mod twin {
    pub struct S {
        pub q: super::B,
    }
}

/// The receivers' types pick among same-named methods and fields.
pub fn drive(s: &S, t: &twin::S, b: &B) {
    s.q.go();
    t.q.go();
    b.go();
}

fn helper(x: u64) -> u64 {
    x
}

pub fn generic(s: &impl Sink, d: &dyn Sink, f: fn(u64) -> u64) -> u64 {
    s.record(1);
    d.record(2);
    f(3)
}

pub fn fail() -> ! {
    panic!("stop")
}
