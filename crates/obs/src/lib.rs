//! Deterministic observability for the ODR reproduction (`odr-obs`).
//!
//! The paper's evaluation is built on per-frame timelines of the pipeline's
//! stages and the regulator's decisions (Figures 4–5); this crate is that
//! timeline as a subsystem. Producers record fixed-size [`Event`]s — span
//! begin/end, instants, counter samples — keyed by `&'static str` names
//! into a [`Recorder`] trait object:
//!
//! * hot paths pay one ring-buffer push and never allocate or format;
//! * the disabled path is a [`NullRecorder`], chosen at run time;
//! * analysis — per-stage [`Counters`], the [`find_stalls`] overrun
//!   detector, the JSONL / Chrome `trace_event` exporters — happens after
//!   the run, on the drained list.
//!
//! # Determinism contract
//!
//! Simulated producers stamp events with `odr_simtime::SimTime::as_nanos`,
//! so a seeded run's event stream is bit-reproducible and exporter output
//! is byte-identical across machines and thread counts. The realtime
//! runtime instead shares one [`MonoClock`] origin across its threads —
//! the only wall-clock read in the crate, and the reason `clock.rs` is the
//! single module exempt from `odr-check`'s determinism lints. Reports that
//! must stay byte-identical whether tracing is on or off (pipeline, fleet)
//! keep observability data in side fields that their text renderers never
//! touch.

/// Monotonic wall-clock origin shared by the realtime runtime's threads.
mod clock;
/// Per-stage totals folded from event streams.
mod counters;
/// The fixed-size event model: spans, instants, counters, track names.
mod event;
/// JSONL and Chrome `trace_event` exporters.
mod export;
/// Recording backends: the bounded ring and the disabled null recorder.
pub mod recorder;
/// The drained, analysed per-run observability report.
mod report;
/// The stage-overrun (stall) detector.
mod stall;

pub use clock::MonoClock;
pub use counters::{Counters, StageCounters};
pub use event::{names, track, Event, Kind};
pub use export::{to_chrome_trace, to_jsonl, write_events_jsonl};
pub use recorder::{
    Drained, NullRecorder, Recorder, RingRecorder, DEFAULT_CAPACITY, NULL_RECORDER,
};
pub use report::ObsReport;
pub use stall::Stall;
