//! odr-serve: a real multi-session TCP serving surface for the ODR
//! pipeline.
//!
//! Everything below the socket is the code the simulator already
//! validates: sessions run the runtime's app/proxy stages over the same
//! Mul-Buf1/Mul-Buf2 [`SyncQueue`]s, admission prices candidates with the
//! cluster engine's colocation fixed point, and observability streams
//! through the same recorder/export machinery. This crate adds only the
//! transport boundary:
//!
//! * [`wire`] — the versioned, length-prefixed frame protocol
//!   (HELLO/CONFIG/ACCEPT/REJECT control plane; INPUT up, FRAME down;
//!   REPORT/BYE on departure). Hot codecs are allocation- and
//!   panic-free.
//! * [`admit`] — [`admit::Admission`] re-applies the simulator's SLO
//!   check ([`odr_cluster::NodeState::solve`]) to the live resident set.
//! * [`session`] — one admitted session: pipeline stages plus reader and
//!   writer framing tasks; socket backpressure maps onto the buffers'
//!   full-policies, never an unbounded queue.
//! * [`server`] — the bounded accept loop, shared admission state, and
//!   graceful drain ([`server::ServerHandle::shutdown`] waits for every
//!   session's [`wire::DepartureReport`]).
//! * [`telemetry`] — live JSONL event streaming via the obs layer's
//!   incremental drain.
//!
//! See `DESIGN.md` §16 for the protocol and backpressure contract, and
//! `odr-client` for the replaying thin client.
//!
//! [`SyncQueue`]: odr_core::SyncQueue

pub mod admit;
pub mod server;
pub mod session;
pub mod telemetry;
pub mod wire;

pub use admit::{session_load, Admission};
pub use server::{ServeConfig, ServeReport, Server, ServerHandle};
pub use telemetry::Telemetry;
pub use wire::{
    AcceptInfo, DepartureReport, FrameHeader, InputEvent, Message, SessionConfig, WireError,
};
