//! Reusable per-worker simulation state: the event slab, the SoA frame
//! lanes, and every growable buffer one session needs.
//!
//! A fleet worker simulates thousands of sessions back to back. Before
//! this module each session allocated its own event heap, frame structs,
//! decode queue, input log and display-interval vector, then dropped them
//! all — at a million sessions the allocator was the hot loop. A
//! [`SessionScratch`] owns all of that memory once per worker;
//! [`crate::sim::run_experiment_with`] resets it (cheap: `clear()`s that
//! keep capacity) and reuses the same backing storage for the next
//! session. Reset state is observationally identical to freshly
//! constructed state, so recycling cannot change a single byte of any
//! report — the fleet determinism differentials in `ci.sh` hold this.
//!
//! Per-frame state is stored as a structure-of-arrays ([`FrameLanes`]):
//! one growable lane per field, indexed by [`FrameRef`] (the frame id).
//! Events, buffers and in-flight jobs carry the 4-byte ref instead of a
//! 56-byte frame struct, so the event queue stays compact and the lanes
//! are written append-only in frame-id order — sequential, predictable,
//! and trivially reusable across sessions.

use std::collections::VecDeque;

use odr_core::SlabEventQueue;
use odr_simtime::SimTime;

use crate::frame::FrameTrace;
use crate::sim::Event;

/// A handle to one frame's row in [`FrameLanes`]; the wrapped index is
/// the frame id (frames are created in id order, so lanes never need a
/// free list — a session's rows are reclaimed wholesale at reset).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct FrameRef(u32);

impl FrameRef {
    /// The frame id (lanes row index widened to the public id type).
    #[inline]
    pub(crate) fn id(self) -> u64 {
        u64::from(self.0)
    }
}

/// Structure-of-arrays storage for per-frame state: one lane per field,
/// indexed by [`FrameRef`].
///
/// Only fields that are *read back* after creation get a lane; purely
/// diagnostic timestamps live in the per-frame traces (when tracing is
/// on) and are never stored here.
#[derive(Debug, Default)]
pub(crate) struct FrameLanes {
    /// Input id this frame answers with priority, if any.
    priority_input: Vec<Option<u64>>,
    /// Highest input id applied to the app state before this frame.
    answers_upto: Vec<Option<u64>>,
    /// When rendering completed (consumed by the RVS feedback path).
    render_end: Vec<SimTime>,
    /// Encoded size in bytes (consumed by the network sender).
    size: Vec<u64>,
}

impl FrameLanes {
    /// Appends a frame row and returns its ref. Ids are assigned densely
    /// in creation order; allocation saturates at `u32::MAX - 1` rows
    /// (over four billion frames in one session, unreachable in practice
    /// and flagged by debug builds), after which the sentinel ref reads
    /// back as an empty row.
    pub(crate) fn alloc(
        &mut self,
        priority_input: Option<u64>,
        answers_upto: Option<u64>,
    ) -> FrameRef {
        let Ok(id) = u32::try_from(self.priority_input.len()) else {
            debug_assert!(false, "frame lanes overflow");
            return FrameRef(u32::MAX);
        };
        self.priority_input.push(priority_input);
        self.answers_upto.push(answers_upto);
        self.render_end.push(SimTime::ZERO);
        self.size.push(0);
        FrameRef(id)
    }

    #[inline]
    pub(crate) fn is_priority(&self, frame: FrameRef) -> bool {
        self.priority_input
            .get(frame.0 as usize)
            .is_some_and(Option::is_some)
    }

    #[inline]
    pub(crate) fn answers_upto(&self, frame: FrameRef) -> Option<u64> {
        self.answers_upto.get(frame.0 as usize).copied().flatten()
    }

    #[inline]
    pub(crate) fn render_end(&self, frame: FrameRef) -> SimTime {
        self.render_end
            .get(frame.0 as usize)
            .copied()
            .unwrap_or(SimTime::ZERO)
    }

    #[inline]
    pub(crate) fn set_render_end(&mut self, frame: FrameRef, at: SimTime) {
        if let Some(slot) = self.render_end.get_mut(frame.0 as usize) {
            *slot = at;
        }
    }

    #[inline]
    pub(crate) fn size(&self, frame: FrameRef) -> u64 {
        self.size.get(frame.0 as usize).copied().unwrap_or(0)
    }

    #[inline]
    pub(crate) fn set_size(&mut self, frame: FrameRef, size: u64) {
        if let Some(slot) = self.size.get_mut(frame.0 as usize) {
            *slot = size;
        }
    }

    /// Drops every row, keeping lane capacity for the next session.
    pub(crate) fn reset(&mut self) {
        self.priority_input.clear();
        self.answers_upto.clear();
        self.render_end.clear();
        self.size.clear();
    }
}

/// Reusable scratch state for one simulation worker.
///
/// Holds every growable allocation a session makes: the slab event
/// queue, the SoA frame lanes, the client decode queue, the input
/// creation log, the display-interval samples and (when tracing) the
/// per-frame trace rows. [`crate::sim::run_experiment_with`] resets it at
/// entry, so one instance can be reused for any number of sessions; a
/// fresh instance and a recycled one produce bit-identical reports.
///
/// # Examples
///
/// ```
/// use odr_core::{FpsGoal, RegulationSpec};
/// use odr_pipeline::{run_experiment_with, ExperimentConfig, SessionScratch};
/// use odr_simtime::Duration;
/// use odr_workload::{Benchmark, Platform, Resolution, Scenario};
///
/// let scenario = Scenario::new(Benchmark::InMind, Resolution::R720p, Platform::PrivateCloud);
/// let cfg = ExperimentConfig::builder(scenario, RegulationSpec::odr(FpsGoal::Target(60.0)))
///     .duration(Duration::from_secs(2))
///     .build();
/// let mut scratch = SessionScratch::new();
/// let first = run_experiment_with(&cfg, &mut scratch);
/// let again = run_experiment_with(&cfg, &mut scratch);
/// assert_eq!(first.client_fps.to_bits(), again.client_fps.to_bits());
/// ```
#[derive(Debug, Default)]
pub struct SessionScratch {
    pub(crate) events: SlabEventQueue<Event>,
    pub(crate) lanes: FrameLanes,
    pub(crate) decode_queue: VecDeque<FrameRef>,
    pub(crate) input_created: Vec<SimTime>,
    pub(crate) display_intervals_ms: Vec<f64>,
    pub(crate) traces: Vec<FrameTrace>,
}

impl SessionScratch {
    /// Creates an empty scratch; buffers grow on first use and are kept
    /// across sessions.
    #[must_use]
    pub fn new() -> Self {
        SessionScratch::default()
    }

    /// Returns every buffer to its empty state, keeping capacity.
    pub(crate) fn reset(&mut self) {
        self.events.reset();
        self.lanes.reset();
        self.decode_queue.clear();
        self.input_created.clear();
        self.display_intervals_ms.clear();
        self.traces.clear();
    }
}
