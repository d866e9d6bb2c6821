//! Deterministic simulation-time substrate for the ODR reproduction.
//!
//! This crate provides the three primitives every simulated component builds
//! on:
//!
//! * [`SimTime`] — a virtual clock instant with nanosecond resolution,
//!   paired with [`core::time::Duration`] for spans.
//! * [`Rng`] — a seedable, splittable SplitMix64 generator plus the
//!   distributions the workload models need (uniform, normal, log-normal,
//!   exponential, Bernoulli, Pareto).
//! * [`EventQueue`] — a totally-ordered discrete-event queue: ties in time
//!   are broken by insertion sequence, which makes every simulation that
//!   uses it bit-for-bit reproducible for a given seed.
//!
//! Nothing in this crate knows about rendering or networks; it is a pure
//! substrate, kept dependency-free so the determinism guarantees are easy to
//! audit.

mod event;
mod rng;
pub mod time;

pub use event::EventQueue;
pub use rng::Rng;
pub use time::SimTime;

/// Convenience re-export so downstream crates can `use odr_simtime::Duration`.
pub use core::time::Duration;
