//! Deterministic cluster scheduling over the ODR fleet engine.
//!
//! The paper's capacity argument (Section 6.5) is served-per-server: FPS
//! regulation frees enough GPU and memory bandwidth that a server hosts
//! 30–60 % more sessions at the same QoS. This crate lifts that claim
//! from one server to a *cluster*: a pool of nodes serving a churning
//! session population — Poisson arrivals, log-normal residencies, a
//! weighted mix of regulation policies per session — under an explicit
//! admission SLO, with first-fit placement, bounded retry/load-shedding,
//! and scheduled node failures that displace and re-place residents.
//!
//! # Architecture
//!
//! * [`ClusterConfig`] / [`ChurnConfig`] / [`PolicyMix`] / [`Slo`] — the
//!   run description ([`config`]).
//! * [`generate_arrivals`] — the index-seeded churn schedule
//!   ([`churn`]).
//! * [`Node`] — a node's resident set and cached operating point
//!   ([`node`]). [`NodeState`], [`Resident`] and [`SessionLoad`] are the
//!   co-location model's, re-exported from [`odr_pipeline::colocation`]:
//!   [`NodeState::solve`] is the fixed point that predicts QoS for
//!   admission.
//! * [`NodePool`] — the nodes plus everything an admission answer
//!   depends on; keeps each (node, class) answer until that node's
//!   residents change, and places on the lowest-indexed node whose answer
//!   admits ([`placement`]).
//! * [`run_cluster`] — calibration → serial control-plane DES → optional
//!   per-node measured sub-fleets ([`engine`]).
//! * [`ClusterReport`] — the byte-deterministic result
//!   ([`report`]).
//!
//! # Determinism contract
//!
//! Like [`odr_fleet`]: for a fixed [`ClusterConfig`], every byte of
//! [`ClusterReport::to_text`] is identical whether the run used one
//! worker thread or sixteen. The control plane is serial; parallelism
//! only exists inside [`odr_fleet::run_outcomes`], whose claim loops run
//! on the kept workers of [`odr_core::workers`] and whose reduction is
//! session-index-ordered, and the measured spans are reduced once, in
//! (node, session, span) order. A node's id is its index.
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

mod churn;
mod config;
mod engine;
mod node;
mod placement;
mod report;

pub use config::{
    ChurnConfig, ClusterConfig, ClusterConfigBuilder, NodeKill, PolicyChoice, PolicyMix,
};
pub use engine::{assert_conservation, run_cluster, ClusterRun};
pub use node::Node;
pub use odr_pipeline::colocation::{NodeState, Resident, SessionLoad, Slo};
pub use placement::NodePool;
pub use report::{ClusterReport, NodeRow};
