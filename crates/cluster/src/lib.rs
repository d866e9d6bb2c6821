//! Deterministic cluster scheduling over the ODR fleet engine.
//!
//! The paper's capacity argument (Section 6.5) is served-per-server: FPS
//! regulation frees enough GPU and memory bandwidth that a server hosts
//! 30–60 % more sessions at the same QoS. This crate lifts that claim
//! from one server to a *cluster*: a pool of nodes serving a churning
//! session population — Poisson arrivals, log-normal residencies, a
//! weighted mix of regulation policies per session — under an explicit
//! admission SLO, with pluggable placement, bounded retry/load-shedding,
//! and scheduled node failures that displace and re-place residents.
//!
//! # Architecture
//!
//! * [`ClusterConfig`] / [`ChurnConfig`] / [`PolicyMix`] / [`Slo`] /
//!   [`RetryPolicy`] — the run description ([`config`]).
//! * [`generate_arrivals`] — the index-seeded churn schedule
//!   ([`churn`]).
//! * [`Node`] / [`NodeState`] / [`SessionLoad`] — per-node resident sets
//!   and the heterogeneous co-location fixed point
//!   ([`odr_fleet::mixed_fixed_point`]) that predicts QoS for admission
//!   ([`node`]).
//! * [`NodePool`] — the nodes plus everything an admission answer
//!   depends on; keeps each (node, class) [`Quote`] until that node's
//!   residents change, and picks over the quotes: first-fit, best-fit or
//!   ODR-aware by [`PlacementKind`] ([`placement`]).
//! * [`run_cluster`] — calibration → serial control-plane DES → optional
//!   per-node measured sub-fleets ([`engine`]).
//! * [`ClusterReport`] — the mergeable, byte-deterministic result
//!   ([`report`]).
//!
//! # Determinism contract
//!
//! Like [`odr_fleet`]: for a fixed [`ClusterConfig`], every byte of
//! [`ClusterReport::to_text`] is identical whether the run used one
//! worker thread or sixteen. The control plane is serial; parallelism
//! only exists inside [`odr_fleet::run_outcomes`], whose reduction is
//! session-index-ordered. [`ClusterReport::merge`] is exactly
//! commutative and associative, so sharded runs (disjoint
//! [`ClusterConfig::first_node_id`] ranges) reduce in any order.
//!
//! # Quick start
//!
//! ```
//! use odr_cluster::{run_cluster, ChurnConfig, ClusterConfig, PolicyMix};
//! use odr_core::{FpsGoal, RegulationSpec};
//! use odr_simtime::Duration;
//! use odr_workload::{Benchmark, Platform, Resolution, Scenario};
//!
//! let scenario = Scenario::new(Benchmark::InMind, Resolution::R720p, Platform::PrivateCloud);
//! let churn = ChurnConfig::new(0.5, PolicyMix::uniform(RegulationSpec::odr(FpsGoal::Target(60.0))))
//!     .with_mean_session(Duration::from_secs(10));
//! let cfg = ClusterConfig::builder(scenario, churn)
//!     .nodes(2)
//!     .horizon(Duration::from_secs(15))
//!     .calibration(Duration::from_secs(2))
//!     .measure(false)
//!     .build();
//! let run = run_cluster(&cfg);
//! assert_eq!(run.report.nodes, 2);
//! assert_eq!(
//!     run.report.arrivals,
//!     run.report.admitted + run.report.shed + run.report.waiting_at_end
//! );
//! ```

pub mod churn;
pub mod config;
pub mod engine;
pub mod node;
pub mod placement;
pub mod report;

pub use config::{
    ChurnConfig, ClusterConfig, ClusterConfigBuilder, NodeKill, PlacementKind, PolicyChoice,
    PolicyMix, RetryPolicy, Slo,
};
pub use engine::{assert_conservation, run_cluster, ClusterRun};
pub use node::{Node, NodeState, Resident, SessionLoad};
pub use placement::{NodePool, Quote};
pub use report::{ClusterReport, NodeRow};
