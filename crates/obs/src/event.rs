//! The event model: fixed-size, allocation-free records.
//!
//! Every diagnostic the stack emits — a stage span opening, a frame drop, a
//! regulator decision, a sampled balance — is one [`Event`]: a `Copy` struct
//! of scalars plus a `&'static str` name. Recording an event never allocates
//! and never formats, so the hot path cost is bounded by one ring-buffer
//! push. Interpretation (counter folding, stall detection, export) happens
//! after the run, on the drained event list.

/// What a recorded [`Event`] represents.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A stage span opened (a frame entered the stage).
    SpanBegin,
    /// The matching stage span closed (the frame left the stage).
    SpanEnd,
    /// A point event: a drop, a priority flush, a regulator decision.
    Instant,
    /// A sampled value, e.g. the regulator's `acc_delay` balance.
    Counter,
}

/// One diagnostic record.
///
/// Timestamps are nanoseconds from an origin the *producer* defines: the
/// simulation start ([`odr_simtime::SimTime`]`::as_nanos`) in sim paths, a
/// [`crate::MonoClock`] origin in the realtime runtime. Events from one
/// recorder therefore share a timebase; merging recorders with different
/// origins is only meaningful when the origins coincide (a served session
/// hands one clock to all its threads).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Event {
    /// Nanoseconds since the producer's origin.
    pub ts_ns: u64,
    /// Which logical track (thread/stage lane) the event belongs to; see
    /// [`crate::track`].
    pub track: u32,
    /// The event's role.
    pub kind: Kind,
    /// Static name; the full vocabulary lives in [`crate::names`].
    pub name: &'static str,
    /// Correlation id — the frame id for pipeline spans; `None` when the
    /// event is not tied to a frame.
    pub id: Option<u64>,
    /// Payload for [`Kind::Counter`] samples and counted instants (e.g. how
    /// many frames one flush discarded). Zero when unused.
    pub value: f64,
}

impl Event {
    /// Opens a span named `name` on `track`.
    #[must_use]
    pub fn begin(ts_ns: u64, track: u32, name: &'static str) -> Event {
        Event {
            ts_ns,
            track,
            kind: Kind::SpanBegin,
            name,
            id: None,
            value: 0.0,
        }
    }

    /// Closes the span named `name` on `track`.
    #[must_use]
    pub fn end(ts_ns: u64, track: u32, name: &'static str) -> Event {
        Event {
            ts_ns,
            track,
            kind: Kind::SpanEnd,
            name,
            id: None,
            value: 0.0,
        }
    }

    /// A point event.
    #[must_use]
    pub fn instant(ts_ns: u64, track: u32, name: &'static str) -> Event {
        Event {
            ts_ns,
            track,
            kind: Kind::Instant,
            name,
            id: None,
            value: 0.0,
        }
    }

    /// A sampled value.
    #[must_use]
    pub fn counter(ts_ns: u64, track: u32, name: &'static str, value: f64) -> Event {
        Event {
            ts_ns,
            track,
            kind: Kind::Counter,
            name,
            id: None,
            value,
        }
    }

    /// Attaches a frame/correlation id.
    #[must_use]
    pub fn with_id(mut self, id: u64) -> Event {
        self.id = Some(id);
        self
    }

    /// Attaches a payload value (e.g. a flush count).
    #[must_use]
    pub fn with_value(mut self, value: f64) -> Event {
        self.value = value;
        self
    }
}

/// Track numbers: one lane per pipeline thread plus lanes for the regulator
/// and the two multi-buffers. Exporters map tracks to Chrome trace `tid`s.
pub mod track {
    /// The 3D application / render thread.
    pub const APP: u32 = 0;
    /// The server proxy (copy + encode) thread.
    pub const PROXY: u32 = 1;
    /// The network sender.
    pub const NET: u32 = 2;
    /// The client (decode + present).
    pub const CLIENT: u32 = 3;
    /// The FPS regulator's decision lane.
    pub const REGULATOR: u32 = 4;
    /// Mul-Buf1 (rendered frames, app → proxy).
    pub const BUF1: u32 = 5;
    /// Mul-Buf2 (encoded frames, proxy → sender).
    pub const BUF2: u32 = 6;
    /// The cluster scheduler's control-plane lane (placement, admission,
    /// node failures).
    pub const CLUSTER: u32 = 7;

    /// Human-readable lane name for exporters.
    #[must_use]
    pub fn name(track: u32) -> &'static str {
        match track {
            APP => "app",
            PROXY => "proxy",
            NET => "net",
            CLIENT => "client",
            REGULATOR => "regulator",
            BUF1 => "buf1",
            BUF2 => "buf2",
            CLUSTER => "cluster",
            _ => "track",
        }
    }
}

/// The event-name vocabulary.
///
/// Names are plain static strings, but the counter folder gives suffixes
/// meaning: `"<stage>.drop"` instants count into `<stage>`'s drop column and
/// `"<stage>.priority_flush"` into its flush column (see
/// [`crate::Counters::from_events`]).
pub mod names {
    /// Application render span (per frame).
    pub const RENDER: &str = "render";
    /// Proxy frame-copy span.
    pub const COPY: &str = "copy";
    /// Proxy encode span.
    pub const ENCODE: &str = "encode";
    /// Network transmission span (send → client arrival).
    pub const TRANSMIT: &str = "transmit";
    /// Client decode span.
    pub const DECODE: &str = "decode";
    /// Client presentation instant.
    pub const PRESENT: &str = "present";

    /// A rendered frame discarded from Mul-Buf1 (excessive rendering).
    pub const RENDER_DROP: &str = "render.drop";
    /// Mul-Buf1 frames flushed by a PriorityFrame.
    pub const RENDER_FLUSH: &str = "render.priority_flush";
    /// Mul-Buf2 frames flushed by a PriorityFrame.
    pub const ENCODE_FLUSH: &str = "encode.priority_flush";
    /// A decoded frame that was never shown (display-side replacement).
    pub const PRESENT_DROP: &str = "present.drop";

    /// Producer blocked waiting for buffer space (swap wait).
    pub const WAIT_SPACE: &str = "wait_space";
    /// Consumer blocked waiting for a frame (swap wait).
    pub const WAIT_DATA: &str = "wait_data";
    /// A frame overwritten inside a swap queue (`odr_core::SyncQueue`).
    pub const SWAP_DROP: &str = "swap.drop";
    /// Frames flushed from a swap queue by a priority publish.
    pub const SWAP_FLUSH: &str = "swap.priority_flush";

    /// Regulator granted a sleep (value: seconds slept).
    pub const REG_DELAY: &str = "regulator.delay";
    /// Regulator is accelerating (value: seconds of debt outstanding).
    pub const REG_ACCELERATE: &str = "regulator.accelerate";
    /// Regulator sleep cancelled by a PriorityFrame (value: seconds kept).
    pub const REG_CANCEL: &str = "regulator.priority_cancel";
    /// Sampled `acc_delay` balance after a frame (value: seconds).
    pub const REG_ACC_DELAY: &str = "regulator.acc_delay";

    // Cluster-scheduler instants (track::CLUSTER). The `id` is the global
    // session index (the node index for `cluster.node_kill`); none of the
    // names carries the `.drop`/`.priority_flush` suffixes the counter
    // folder special-cases, so each counts as its own stage.

    /// A session arrived at the cluster (id: session).
    pub const CLUSTER_ARRIVAL: &str = "cluster.arrival";
    /// A session was admitted onto a node (id: session, value: node).
    pub const CLUSTER_ADMIT: &str = "cluster.admit";
    /// A session could not be placed and was requeued with backoff
    /// (id: session, value: attempt number).
    pub const CLUSTER_REQUEUE: &str = "cluster.requeue";
    /// A session was shed — rejected outright or after exhausting its
    /// retries (id: session).
    pub const CLUSTER_SHED: &str = "cluster.shed";
    /// A session completed its residency and departed (id: session,
    /// value: node).
    pub const CLUSTER_DEPART: &str = "cluster.depart";
    /// A node was killed by fault injection (id: node, value: sessions
    /// displaced).
    pub const CLUSTER_KILL: &str = "cluster.node_kill";
    /// A session was displaced by a node failure (id: session, value: the
    /// failed node).
    pub const CLUSTER_DISPLACE: &str = "cluster.displace";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_fill_kind_and_payload() {
        let b = Event::begin(10, track::APP, names::RENDER).with_id(3);
        assert_eq!(b.kind, Kind::SpanBegin);
        assert_eq!(b.id, Some(3));
        assert_eq!(b.value, 0.0);

        let c = Event::counter(20, track::REGULATOR, names::REG_ACC_DELAY, -0.25);
        assert_eq!(c.kind, Kind::Counter);
        assert_eq!(c.value, -0.25);
        assert_eq!(c.id, None);

        let i = Event::instant(30, track::BUF1, names::SWAP_FLUSH).with_value(2.0);
        assert_eq!(i.kind, Kind::Instant);
        assert_eq!(i.value, 2.0);
    }

    #[test]
    fn track_names_are_distinct() {
        let all = [
            track::APP,
            track::PROXY,
            track::NET,
            track::CLIENT,
            track::REGULATOR,
            track::BUF1,
            track::BUF2,
            track::CLUSTER,
        ];
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(track::name(*a), track::name(*b));
            }
        }
        assert_eq!(track::name(999), "track");
    }
}
