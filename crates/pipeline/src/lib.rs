//! Discrete-event simulation of a cloud 3D pipeline (Figure 2 of the ODR
//! paper) with pluggable FPS regulation.
//!
//! The simulator models the complete seven-step loop of a cloud 3D system:
//! client input capture → uplink → server proxy → 3D application → GPU
//! rendering → framebuffer copy → video encoding → downlink transmission →
//! client decoding, with the memory-contention feedback of `odr-memsim`
//! coupling concurrently active stages to each other, and the FIFO
//! bandwidth/queueing link model of `odr-netsim` in between.
//!
//! Each [`ExperimentConfig`] pairs a workload [`odr_workload::Scenario`]
//! with a [`odr_core::RegulationSpec`] and produces a [`Report`] containing
//! every quantity the paper's evaluation reports: windowed render / encode
//! / client FPS and the FPS gap (Table 2, Figures 1, 3, 9a, 10),
//! motion-to-photon latency (Figures 6, 9b, 11), DRAM / IPC / power
//! (Figures 7, 12, 13), network statistics, and, with capture on, the
//! stage spans and the per-frame traces folded from them (Figures 4, 5).
//!
//! The simulation is fully deterministic: a fixed seed reproduces a report
//! bit-for-bit.

pub mod colocation;
mod config;
pub mod export;
mod frame;
mod local;
mod report;
mod scratch;
mod sim;
pub mod suite;
pub mod timeline;

pub use config::{ClientDisplay, ExperimentConfig, ExperimentConfigBuilder};
pub use frame::FrameTrace;
pub use report::Report;
pub use sim::run_experiment;
pub use suite::{run_suite, SuiteResult};
