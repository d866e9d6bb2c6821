//! Fleet-scale simulation: many independent ODR sessions, one report.
//!
//! The paper's capacity claims (Section 6.5, Figure 14) are statements
//! about *fleets*: how many regulated sessions a server hosts, what the
//! distribution of per-session FPS and motion-to-photon latency looks
//! like across those sessions, and how much energy the fleet draws. One
//! discrete-event run answers none of that — this crate scales the
//! single-session simulator in [`odr_pipeline`] out to N sessions and
//! reduces their measurements into a single [`FleetReport`].
//!
//! # Determinism contract
//!
//! The fleet engine is *bit-identical across thread counts*: for a fixed
//! base seed and session count, every field of the [`FleetReport`]
//! (every `f64` down to its bit pattern, every line of
//! [`FleetReport::to_text`]) is the same whether the fleet ran on one
//! worker thread or sixteen. Three mechanisms make this hold:
//!
//! * **seeding** — each session's seed is a pure function of the base
//!   seed and the session index ([`session_seed`]), never of which
//!   worker picked the session up;
//! * **scheduling** — workers claim session indices from a shared atomic
//!   counter, so the *assignment* of sessions to threads is racy, but no
//!   session's inputs depend on it;
//! * **reduction** — per-session results are collected after all workers
//!   join, sorted by session index, and folded in index order. CDF
//!   merges are exactly associative (see [`odr_metrics::Cdf::merge`]) and
//!   the remaining floating-point sums always fold in the same order.
//!
//! # Quick start
//!
//! ```
//! use odr_core::{FpsGoal, RegulationSpec};
//! use odr_fleet::{run_fleet, FleetConfig};
//! use odr_simtime::Duration;
//! use odr_workload::{Benchmark, Platform, Resolution, Scenario};
//!
//! let fleet = FleetConfig::builder(
//!     Scenario::new(Benchmark::InMind, Resolution::R720p, Platform::PrivateCloud),
//!     RegulationSpec::odr(FpsGoal::Target(60.0)),
//! )
//! .sessions(4)
//! .threads(2)
//! .base(|b| b.duration(Duration::from_secs(2)))
//! .build();
//! let report = run_fleet(&fleet);
//! assert_eq!(report.sessions, 4);
//! assert_eq!(report.per_session.len(), 4);
//! ```

pub mod analytic;
pub mod capacity;
mod class;
pub mod config;
pub mod engine;
pub mod report;

pub use capacity::{
    capacity_curve, curve_to_text, mixed_fixed_point, uncontended_coefficients, CapacityPoint,
};
pub use class::{ClassCache, ClassCalibration, SessionClass, CALIBRATION_SESSIONS};
pub use config::{session_seed, FleetConfig, FleetConfigBuilder};
pub use engine::{run_fleet, run_outcomes};
pub use report::{FleetReport, SessionOutcome, SessionRow};
