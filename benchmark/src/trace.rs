//! In-memory spans for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer (spans inside the program are a later change). Every
//! thread of the generator keeps its own [`Tracer`] — no lock on the
//! measured path — and the tracers are merged and written out as one
//! JSONL file when the workload ends. A disabled tracer records nothing,
//! so the untraced run pays one branch per call site.

use std::fmt::Write as _;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// What a span belongs to: spans of one request share an identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceId {
    /// One frame of one session (`session:seq`).
    Frame {
        /// Generator-side session number.
        session: u32,
        /// The server's render sequence number.
        seq: u64,
    },
    /// One session's lifecycle.
    Session(u32),
    /// A phase of a simulation study or of the layer replay.
    Phase(&'static str),
}

impl TraceId {
    fn render(&self) -> String {
        match self {
            TraceId::Frame { session, seq } => format!("{session}:{seq}"),
            TraceId::Session(session) => session.to_string(),
            TraceId::Phase(phase) => (*phase).to_string(),
        }
    }
}

/// One closed span. `parent` indexes the same span list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span was taken at, e.g. `client.decode`.
    pub name: &'static str,
    /// Start, nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// The request the span belongs to.
    pub trace_id: TraceId,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span list sharing the run's epoch.
#[derive(Clone, Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records when `enabled`, timing from `epoch`.
    #[must_use]
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
        }
    }

    /// Whether spans are kept.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The instant span times count from.
    #[must_use]
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds from the epoch to `at`.
    #[must_use]
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a closed span and returns its index for use as a parent.
    /// Returns `None` (and records nothing) when disabled.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
        trace_id: TraceId,
    ) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            trace_id,
        });
        Some(index)
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        trace_id: TraceId,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.push(name, start, Instant::now(), parent, trace_id);
        out
    }

    /// Widens span `index` to end at `end` (a parent closed after its
    /// children were recorded).
    pub fn close(&mut self, index: Option<u32>, end: Instant) {
        let end_ns = self.ns(end);
        if let Some(span) = index.and_then(|i| self.spans.get_mut(i as usize)) {
            span.end_ns = end_ns;
        }
    }

    /// Appends another thread's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Everything recorded.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of every span called `name`.
    #[must_use]
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Total milliseconds and count of the spans called `name`.
    #[must_use]
    pub fn total_ms(&self, name: &str) -> (f64, usize) {
        let d = self.durations_ms(name);
        (d.iter().sum(), d.len())
    }

    /// Writes one JSON object per span:
    /// `name, start_ns, end_ns, parent, trace_id`.
    ///
    /// # Errors
    ///
    /// Any I/O error, including the final flush.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        let mut line = String::new();
        for span in &self.spans {
            line.clear();
            let _ = write!(
                line,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": ",
                span.name, span.start_ns, span.end_ns
            );
            match span.parent {
                Some(p) => {
                    let _ = write!(line, "{p}");
                }
                None => line.push_str("null"),
            }
            let _ = writeln!(line, ", \"trace_id\": \"{}\"}}", span.trace_id.render());
            out.write_all(line.as_bytes())?;
        }
        out.flush()
    }
}

/// Self time per span: its duration minus the part of that interval its
/// child spans cover (overlapping children are counted once).
#[must_use]
pub fn self_times_ns(spans: &[(u64, u64, Option<usize>)]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for &(start, end, parent) in spans {
        if let Some(p) = parent.filter(|&p| p < spans.len()) {
            let (ps, pe, _) = spans[p];
            let (s, e) = (start.max(ps), end.min(pe));
            if e > s {
                children[p].push((s, e));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(&(start, end, _), kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = start;
            for &(s, e) in kids.iter() {
                let s = s.max(reach);
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            end.saturating_sub(start).saturating_sub(covered)
        })
        .collect()
}

/// Self time in milliseconds summed per span name, largest first.
#[must_use]
pub fn self_time_by_name(tracer: &Tracer) -> Vec<(&'static str, f64, usize)> {
    let raw: Vec<(u64, u64, Option<usize>)> = tracer
        .spans()
        .iter()
        .map(|s| (s.start_ns, s.end_ns, s.parent.map(|p| p as usize)))
        .collect();
    let selfs = self_times_ns(&raw);
    let mut by_name: Vec<(&'static str, f64, usize)> = Vec::new();
    for (span, self_ns) in tracer.spans().iter().zip(selfs) {
        match by_name.iter_mut().find(|(name, _, _)| *name == span.name) {
            Some(row) => {
                row.1 += self_ns as f64 / 1e6;
                row.2 += 1;
            }
            None => by_name.push((span.name, self_ns as f64 / 1e6, 1)),
        }
    }
    by_name.sort_by(|a, b| b.1.total_cmp(&a.1));
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use std::time::Duration;

    /// A span as read back from a trace file.
    #[derive(Clone, Debug, PartialEq)]
    pub struct StoredSpan {
        /// Span name.
        pub name: String,
        /// Start, nanoseconds since the run's epoch.
        pub start_ns: u64,
        /// End, nanoseconds since the run's epoch.
        pub end_ns: u64,
        /// Line index of the parent span.
        pub parent: Option<usize>,
        /// Identifier shared by the spans of one request.
        pub trace_id: String,
    }

    /// Parses a trace file written by [`Tracer::write_jsonl`].
    ///
    /// # Errors
    ///
    /// Names the first line that is not a span.
    pub fn read_jsonl(text: &str) -> Result<Vec<StoredSpan>, String> {
        text.lines()
            .enumerate()
            .map(|(i, line)| {
                let v = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
                let num = |key: &str| {
                    v.get(key)
                        .and_then(Value::as_f64)
                        .ok_or_else(|| format!("line {}: no {key}", i + 1))
                };
                let text = |key: &str| {
                    v.get(key)
                        .and_then(Value::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| format!("line {}: no {key}", i + 1))
                };
                Ok(StoredSpan {
                    name: text("name")?,
                    start_ns: num("start_ns")? as u64,
                    end_ns: num("end_ns")? as u64,
                    parent: v.get("parent").and_then(Value::as_f64).map(|p| p as usize),
                    trace_id: text("trace_id")?,
                })
            })
            .collect()
    }

    fn at(epoch: Instant, us: u64) -> Instant {
        epoch + Duration::from_micros(us)
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // parent 0..100, children 10..30 and 20..50 (overlap) and one
        // sticking out past the parent's end, 90..120.
        let spans = [
            (0, 100, None),
            (10, 30, Some(0)),
            (20, 50, Some(0)),
            (90, 120, Some(0)),
            (12, 18, Some(1)),
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs[0], 100 - 40 - 10);
        assert_eq!(selfs[1], 20 - 6);
        assert_eq!(selfs[2], 30);
        assert_eq!(selfs[4], 6);
    }

    #[test]
    fn parents_resolve_after_merge_and_round_trip() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch);
        let root = a.push(
            "session",
            at(epoch, 0),
            at(epoch, 0),
            None,
            TraceId::Session(0),
        );
        a.push(
            "client.decode",
            at(epoch, 5),
            at(epoch, 9),
            root,
            TraceId::Frame { session: 0, seq: 7 },
        );
        a.close(root, at(epoch, 20));
        let mut b = Tracer::new(true, epoch);
        let root_b = b.push(
            "study.round",
            at(epoch, 1),
            at(epoch, 30),
            None,
            TraceId::Phase("fleet"),
        );
        b.push(
            "fleet.run_fleet",
            at(epoch, 2),
            at(epoch, 12),
            root_b,
            TraceId::Phase("fleet"),
        );
        a.absorb(b);

        let spans = a.spans();
        assert_eq!(spans.len(), 4);
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                let parent = &spans[p as usize];
                assert!((p as usize) < i, "parents precede children");
                assert!(parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns);
            }
        }
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(spans[0].end_ns, 20_000);

        // Tests run from the package root; `out/` is the benchmark's own
        // scratch directory.
        let dir = Path::new("out").join(format!("selftest-{}", std::process::id()));
        let path = dir.join("t.trace.jsonl");
        a.write_jsonl(&path).expect("write");
        let text = std::fs::read_to_string(&path).expect("read");
        let _ = std::fs::remove_dir_all(&dir);
        let stored = read_jsonl(&text).expect("parse");
        assert_eq!(stored.len(), 4);
        assert_eq!(stored[1].trace_id, "0:7");
        assert_eq!(stored[1].parent, Some(0));
        assert_eq!(stored[2].trace_id, "fleet");
        for (s, t) in spans.iter().zip(&stored) {
            assert_eq!(
                (s.name, s.start_ns, s.end_ns),
                (t.name.as_str(), t.start_ns, t.end_ns)
            );
        }
    }

    #[test]
    fn disabled_tracer_keeps_nothing() {
        let epoch = Instant::now();
        let mut t = Tracer::new(false, epoch);
        assert_eq!(t.push("x", epoch, epoch, None, TraceId::Session(1)), None);
        assert_eq!(t.time("y", None, TraceId::Session(1), || 3), 3);
        assert!(t.spans().is_empty());
    }
}
