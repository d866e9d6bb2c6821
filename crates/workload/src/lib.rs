//! Workload models for the six Pictor cloud-3D benchmarks.
//!
//! The ODR paper evaluates on the Pictor benchmark suite (Liu et al.,
//! MICRO'20): SuperTuxKart, 0 A.D., Red Eclipse, DoTA 2, InMind, and
//! IMHOTEP, at 720p and 1080p, on a private cloud and on Google Compute
//! Engine. We cannot run those proprietary binaries against a real GPU, so
//! this crate models each benchmark by the quantities the regulation
//! problem actually depends on:
//!
//! * per-stage processing-time distributions (render, copy, encode,
//!   decode) with the heavy spike tails of the paper's Figure 4 —
//!   log-normal bodies plus Pareto-multiplier spikes ([`StageModel`]);
//! * encoded frame sizes with periodic I-frames ([`FrameSizeModel`]);
//! * a user-input process with the paper's 2–5 priority inputs per second
//!   ([`InputModel`]);
//! * platform effects: link characteristics, GPU/CPU speed factors, DRAM
//!   and power parameters ([`Platform`], [`Scenario`]).
//!
//! Calibration targets are the paper's measured rates: e.g. InMind at 720p
//! on the private cloud renders at ~189 FPS unregulated while the client
//! only decodes ~93 FPS (Figure 3), and 80–90 % of frame times sit below
//! 16.6 ms with a long tail above (Figure 4a). Unit tests in this crate
//! pin those shapes.

pub mod benchmark;
mod empirical;
pub mod frame;
pub mod input;
pub mod scenario;
pub mod stage;

pub use benchmark::Benchmark;
pub use frame::{FrameModel, FrameSizeModel};
pub use input::InputModel;
pub use scenario::{Platform, Resolution, Scenario};
pub use stage::StageModel;
