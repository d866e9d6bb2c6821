//! Measurement primitives shared by the ODR simulator, runtime, and
//! benchmark harness.
//!
//! The paper reports four kinds of numbers, and this crate owns the
//! machinery for each:
//!
//! * distribution statistics — mean and the 1/25/75/99 percentiles used by
//!   the box plots of Figures 10 and 11 ([`Summary`]);
//! * cumulative distribution functions — Figure 4a ([`Cdf`]);
//! * frame rates over fixed windows and the *FPS gap* between pipeline
//!   stages — Figures 1, 3, 9a and Table 2 ([`WindowedRate`], [`FpsGap`]);
//! * time-weighted averages of continuously varying quantities such as the
//!   DRAM row-buffer miss rate — Figures 7, 12, 13 ([`TimeWeighted`]).

mod cdf;
pub mod summary;
mod timeweighted;
mod window;

pub use cdf::Cdf;
pub use summary::Summary;
pub use timeweighted::TimeWeighted;
pub use window::{FpsGap, WindowedRate};
