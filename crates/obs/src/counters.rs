//! Per-stage counters folded from an event stream.
//!
//! Counters are the fleet-safe face of observability: unlike raw event
//! lists (whose ring eviction depends on volume), a session's counters are
//! small, mergeable and deterministic, so `odr-fleet` can fold them in
//! session-index order and stay byte-identical across worker counts.

use crate::event::{Event, Kind};

/// Activity totals for one named stage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageCounters {
    /// Frames that entered the stage (span begins).
    pub begun: u64,
    /// Frames that left the stage (span ends).
    pub completed: u64,
    /// Frames discarded at this stage (`<stage>.drop` instants).
    pub drops: u64,
    /// Spans flagged by the stall detector (filled by
    /// [`crate::ObsReport::from_drained`]).
    pub stalls: u64,
    /// Frames flushed by PriorityFrames (`<stage>.priority_flush`).
    pub priority_flushes: u64,
}

impl StageCounters {
    /// Adds another stage's totals into this one.
    pub fn absorb(&mut self, other: &StageCounters) {
        self.begun += other.begun;
        self.completed += other.completed;
        self.drops += other.drops;
        self.stalls += other.stalls;
        self.priority_flushes += other.priority_flushes;
    }
}

/// A name-sorted table of [`StageCounters`].
///
/// The table is keyed by stage name only (not track): stage names are
/// unique per pipeline, and a name-keyed fold gives fleet reductions a
/// stable order independent of which tracks a session happened to exercise
/// first.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    stages: Vec<(&'static str, StageCounters)>,
}

impl Counters {
    /// Folds an event stream into per-stage totals.
    ///
    /// * `SpanBegin`/`SpanEnd` named `X` count into stage `X`'s
    ///   `begun`/`completed`.
    /// * An `Instant` named `X.drop` adds its value (minimum 1) to stage
    ///   `X.drop`'s own row *and* nothing else — drop rows keep their full
    ///   dotted name so `render.drop` and `swap.drop` stay distinguishable.
    /// * `Instant`s named `X.priority_flush` likewise count flushes under
    ///   their full name.
    /// * Other instants count as `begun`+`completed` occurrences of their
    ///   name (e.g. `present`).
    /// * `Counter` samples are not folded (they are values, not counts).
    #[must_use]
    pub(crate) fn from_events(events: &[Event]) -> Counters {
        let mut counters = Counters::default();
        for ev in events {
            match ev.kind {
                Kind::SpanBegin => counters.entry(ev.name).begun += 1,
                Kind::SpanEnd => counters.entry(ev.name).completed += 1,
                Kind::Instant => {
                    let n = if ev.value >= 1.0 { ev.value as u64 } else { 1 };
                    if ev.name.ends_with(".drop") {
                        counters.entry(ev.name).drops += n;
                    } else if ev.name.ends_with(".priority_flush") {
                        counters.entry(ev.name).priority_flushes += n;
                    } else {
                        let row = counters.entry(ev.name);
                        row.begun += 1;
                        row.completed += 1;
                    }
                }
                Kind::Counter => {}
            }
        }
        counters
    }

    /// The row for `name`, created zeroed on first use. Rows stay sorted
    /// by name.
    pub fn entry(&mut self, name: &'static str) -> &mut StageCounters {
        let at = match self.stages.binary_search_by(|(n, _)| n.cmp(&name)) {
            Ok(at) => at,
            Err(at) => {
                self.stages.insert(at, (name, StageCounters::default()));
                at
            }
        };
        match self.stages.get_mut(at) {
            Some((_, row)) => row,
            // Unreachable by construction (`at` is a search hit or the
            // slot just inserted); hand out a detached row rather than
            // unwind a fleet fold.
            None => Box::leak(Box::new(StageCounters::default())),
        }
    }

    /// Looks up a stage by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&StageCounters> {
        self.stages
            .binary_search_by(|(n, _)| (*n).cmp(name))
            .ok()
            .and_then(|at| self.stages.get(at))
            .map(|(_, row)| row)
    }

    /// The name-sorted rows.
    #[must_use]
    pub fn stages(&self) -> &[(&'static str, StageCounters)] {
        &self.stages
    }

    /// Whether no stage was ever counted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Merges another table into this one, row by row. Used by the fleet's
    /// index-order fold: `absorb` is commutative over disjoint names and
    /// associative, but the fleet still fixes the order for uniformity with
    /// its float folds.
    pub fn absorb(&mut self, other: &Counters) {
        for (name, theirs) in &other.stages {
            self.entry(name).absorb(theirs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{names, track};

    #[test]
    fn spans_count_in_and_out() {
        let events = [
            Event::begin(0, track::APP, names::RENDER),
            Event::end(5, track::APP, names::RENDER),
            Event::begin(6, track::APP, names::RENDER),
        ];
        let c = Counters::from_events(&events);
        let r = c.get(names::RENDER).copied().unwrap_or_default();
        assert_eq!(r.begun, 2);
        assert_eq!(r.completed, 1);
    }

    #[test]
    fn drop_and_flush_suffixes_route_to_columns() {
        let events = [
            Event::instant(1, track::APP, names::RENDER_DROP),
            Event::instant(2, track::APP, names::RENDER_DROP).with_value(3.0),
            Event::instant(3, track::PROXY, names::ENCODE_FLUSH).with_value(2.0),
            Event::instant(4, track::CLIENT, names::PRESENT),
        ];
        let c = Counters::from_events(&events);
        assert_eq!(c.get(names::RENDER_DROP).map(|s| s.drops), Some(4));
        assert_eq!(
            c.get(names::ENCODE_FLUSH).map(|s| s.priority_flushes),
            Some(2)
        );
        let present = c.get(names::PRESENT).copied().unwrap_or_default();
        assert_eq!((present.begun, present.completed), (1, 1));
    }

    #[test]
    fn counter_samples_are_not_counted() {
        let events = [Event::counter(0, track::REGULATOR, names::REG_ACC_DELAY, 1.5)];
        assert!(Counters::from_events(&events).is_empty());
    }

    #[test]
    fn rows_are_name_sorted_and_absorb_merges() {
        let mut a = Counters::default();
        a.entry("zeta").begun = 1;
        a.entry("alpha").drops = 2;
        let mut b = Counters::default();
        b.entry("alpha").drops = 3;
        b.entry("mid").stalls = 1;
        a.absorb(&b);
        let keys: Vec<&str> = a.stages().iter().map(|(n, _)| *n).collect();
        assert_eq!(keys, vec!["alpha", "mid", "zeta"]);
        assert_eq!(a.get("alpha").map(|s| s.drops), Some(5));
        assert_eq!(a.get("mid").map(|s| s.stalls), Some(1));
    }

    #[test]
    fn absorb_is_order_insensitive_here() {
        let mut left = Counters::default();
        left.entry("x").begun = 1;
        let mut right = Counters::default();
        right.entry("y").completed = 2;
        let mut ab = left.clone();
        ab.absorb(&right);
        let mut ba = right.clone();
        ba.absorb(&left);
        assert_eq!(ab, ba);
    }
}
