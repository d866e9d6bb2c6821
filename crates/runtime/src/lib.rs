//! The server-side stage loops of the real-time cloud 3D pipeline.
//!
//! Where `odr-pipeline` *simulates* the paper's system in virtual time,
//! the real pipeline *runs* it: `odr-serve` streams to `odr-client` over
//! a TCP socket. This crate is the part of it that sits between the
//! session's sockets — the 3D application loop (the `odr-raster` software
//! renderer) and the server-proxy loop (the `odr-codec` video encoder plus
//! ODR's Algorithm 1 regulator), one thread each, joined by the
//! [`odr_core::SyncQueue`] multi-buffers the paper places between the
//! application, proxy, and network ([`stages`]) — plus the two types both
//! ends of the socket share: the [`Regulation`] a session asks for and
//! the [`RuntimeReport`] the client measures.
//!
//! Wall-clock numbers depend on the host; the reproduction numbers come
//! from the simulator.

pub mod report;
pub mod stages;

use odr_core::{FpsGoal, RegulationSpec};
pub use report::RuntimeReport;
pub use stages::{EncodedFrame, RawFrame};

/// Which regulation a real-time session applies.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Regulation {
    /// No regulation: the app renders flat out, excessive frames are
    /// overwritten in the app→proxy buffer.
    NoReg,
    /// Interval pacing in the application loop.
    Interval {
        /// Target frames per second.
        fps: f64,
    },
    /// OnDemand Rendering: blocking multi-buffers, the Algorithm 1
    /// regulator in the proxy, and PriorityFrame.
    Odr {
        /// FPS target; `None` = ODRMax (multi-buffer pacing only).
        target_fps: Option<f64>,
    },
}

impl Regulation {
    /// The simulator's name for this regulation: the proxy stage maps it
    /// to a regulator as `odr-pipeline` does ([`odr_core::ProxyCycle::new`]).
    #[must_use]
    pub fn spec(self) -> RegulationSpec {
        match self {
            Regulation::NoReg => RegulationSpec::NoReg,
            Regulation::Interval { fps } => RegulationSpec::interval(fps),
            Regulation::Odr { target_fps } => {
                RegulationSpec::odr(target_fps.map_or(FpsGoal::Max, FpsGoal::Target))
            }
        }
    }
}
