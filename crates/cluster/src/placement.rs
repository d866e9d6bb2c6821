//! The node pool the control plane places sessions onto, and what an
//! admission answer costs.
//!
//! A session goes to the lowest-indexed *admissible* node: one that keeps
//! every resident (including the newcomer) inside the SLO at the
//! post-placement fixed point ([`check_slo`], which the serving surface's
//! admission control and the capacity table call too). Placement is a
//! pure function of the pool and the session's class, so the simulation
//! stays deterministic.
//!
//! # What an answer depends on, and who owns it
//!
//! Whether a node can take one more session of a policy class is a
//! function of the node's capacity, the DRAM model, the SLO, the class's
//! calibrated load and the node's resident *class sequence* (its
//! residents' classes in admission order, the order the fixed point sums
//! them in) — and for one run only the last of those ever changes.
//! [`NodePool`] owns all of them, and keeps one entry per class sequence
//! a node has held: its own operating point and, per class, the answer
//! [`admissible`] computed for one more session of it.
//! Each node points at the entry for its current sequence. A saturated
//! pool is asked the same question over and over (every arrival and each
//! of its retries scans nodes nobody has joined or left since the last
//! scan), and many nodes hold the same few sequences (every empty node
//! shares one), so the control plane's cost grows with the distinct
//! (sequence, class) pairs a run reaches, not with probes × nodes.
//!
//! An answer cannot go stale, because nothing it depends on changes: a
//! node's residents change only in [`NodePool::admit`],
//! [`NodePool::remove`] and [`NodePool::kill`] (`Node`'s own mutators are
//! crate-private, its `residents` private to `node.rs`, and the pool
//! hands out `&[Node]` only), and each of the three re-points the node at
//! the entry for its new sequence. The quote that priced an admission
//! becomes the own operating point of the sequence it admits into: a
//! probe and the solve after its admission agree bit for bit.

use odr_memsim::MemoryParams;
use odr_pipeline::colocation::{check_slo, NodeState, Resident, ServerCapacity, SessionLoad, Slo};
use odr_simtime::SimTime;

use crate::node::Node;

/// Prices placing `load` on `node`: the post-placement operating point
/// when [`check_slo`] holds at the new fixed point, `None` otherwise.
#[must_use]
fn admissible(node: &Node, mem: &MemoryParams, load: &SessionLoad, slo: &Slo) -> Option<NodeState> {
    #[cfg(test)]
    tally::bump(|t| t.priced += 1);
    let state = node.probe(mem, load);
    check_slo(&state, node.capacity().ceiling, slo, load, node.residents()).ok()?;
    Some(state)
}

/// [`NodeState::solve`], counted by the test-only `tally`: every solve
/// the control plane runs goes through here.
pub(crate) fn solve(
    capacity: &ServerCapacity,
    mem: &MemoryParams,
    residents: &[Resident],
    extra: Option<&SessionLoad>,
) -> NodeState {
    #[cfg(test)]
    tally::bump(|t| t.solved += 1);
    NodeState::solve(capacity, mem, residents, extra)
}

/// The entry for the empty class sequence: where every node starts, and
/// where a killed node goes.
const EMPTY: usize = 0;

/// What the pool knows about one resident class sequence.
#[derive(Debug)]
struct Answer {
    /// The sequence's own operating point, solved (or taken from the quote
    /// that admitted into it) the first time a node holds the sequence.
    state: Option<NodeState>,
    /// The entry for the sequence without its last class, and that class
    /// (both 0 for [`EMPTY`], which has neither).
    up: usize,
    last: usize,
    /// Per class `c`: the entry for this sequence followed by `c`.
    next: Vec<Option<usize>>,
    /// Per class `c`: `None` until priced, then the admission answer for
    /// one more `c` session on a live node holding this sequence (the
    /// post-placement operating point, or `None` when it does not fit).
    quotes: Vec<Option<Option<NodeState>>>,
}

impl Answer {
    fn new(up: usize, last: usize, classes: usize) -> Answer {
        Answer {
            state: None,
            up,
            last,
            next: vec![None; classes],
            quotes: vec![None; classes],
        }
    }
}

/// The pool of nodes one control plane places onto, with everything an
/// admission answer depends on — and therefore the answers themselves.
///
/// `class` arguments index the `loads` the pool was built with (the
/// policy mix's choices, in order).
#[derive(Debug)]
pub struct NodePool {
    nodes: Vec<Node>,
    capacity: ServerCapacity,
    mem: MemoryParams,
    slo: Slo,
    loads: Vec<SessionLoad>,
    /// Per node: the entry in `answers` for its resident class sequence.
    at: Vec<usize>,
    /// One entry per class sequence a node has held or a removal passed
    /// through, [`EMPTY`] first.
    answers: Vec<Answer>,
}

impl NodePool {
    /// An all-empty, all-alive pool of `nodes` nodes of `capacity`, ids
    /// `0..nodes` (a node's id is its index), placing sessions of the
    /// calibrated classes `loads` under `slo`.
    #[must_use]
    pub fn new(
        nodes: u32,
        capacity: ServerCapacity,
        mem: MemoryParams,
        slo: Slo,
        loads: Vec<SessionLoad>,
    ) -> NodePool {
        // Every empty node shares one solve.
        let mut answers = vec![Answer::new(EMPTY, 0, loads.len())];
        let empty = *answers[EMPTY]
            .state
            .insert(solve(&capacity, &mem, &[], None));
        let nodes = vec![Node::new(capacity, empty); nodes as usize];
        NodePool {
            at: vec![EMPTY; nodes.len()],
            nodes,
            capacity,
            mem,
            slo,
            loads,
            answers,
        }
    }

    /// The nodes, in pool order (the index every method here takes).
    #[must_use]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The admission answer for one more `class` session on `node` (its
    /// post-placement operating point, or `None` when it does not fit):
    /// looked up, or priced now and kept for every node that holds, or
    /// will hold, `node`'s resident class sequence.
    #[must_use]
    pub fn quote(&mut self, node: usize, class: usize) -> Option<NodeState> {
        #[cfg(test)]
        tally::bump(|t| t.asked += 1);
        if !self.nodes[node].alive() {
            return None;
        }
        let kept = &mut self.answers[self.at[node]].quotes[class];
        if let Some(answer) = *kept {
            return answer;
        }
        let priced = admissible(&self.nodes[node], &self.mem, &self.loads[class], &self.slo);
        *kept = Some(priced);
        priced
    }

    /// Picks the node an arriving `class` session goes to: the
    /// lowest-indexed admissible one (later nodes are not even asked), or
    /// `None` when no node can take it within the SLO.
    #[must_use]
    pub fn choose(&mut self, class: usize) -> Option<usize> {
        (0..self.nodes.len()).find(|&i| self.quote(i, class).is_some())
    }

    /// Places `session`, of `class`, on `node` at `now`.
    pub fn admit(&mut self, now: SimTime, node: usize, session: u32, class: usize) {
        let load = self.loads[class];
        let from = self.at[node];
        let to = self.child(from, class);
        // The quote that allowed this admission has solved the new point.
        let priced = self.answers[from].quotes[class].flatten();
        let residents = self.nodes[node].residents();
        let state = *self.answers[to].state.get_or_insert_with(|| {
            priced.unwrap_or_else(|| solve(&self.capacity, &self.mem, residents, Some(&load)))
        });
        self.at[node] = to;
        self.nodes[node].admit(now, Resident { session, load }, state);
    }

    /// Removes `session` from `node` at `now` (a departure), returning
    /// its residency if it was there.
    pub fn remove(&mut self, now: SimTime, node: usize, session: u32) -> Option<Resident> {
        let residents = self.nodes[node].residents();
        let (pos, len) = (
            residents.iter().position(|r| r.session == session)?,
            residents.len(),
        );
        let to = self.without(self.at[node], len, pos);
        let residents = self.nodes[node].residents();
        let state = *self.answers[to].state.get_or_insert_with(|| {
            let mut rest = residents.to_vec();
            rest.remove(pos);
            solve(&self.capacity, &self.mem, &rest, None)
        });
        self.at[node] = to;
        Some(self.nodes[node].remove(now, pos, state))
    }

    /// Kills `node` at `now`, returning the residents it displaced (in
    /// residency order). Killing a dead node returns nothing.
    pub fn kill(&mut self, now: SimTime, node: usize) -> Vec<Resident> {
        let empty = *self.answers[EMPTY]
            .state
            .get_or_insert_with(|| solve(&self.capacity, &self.mem, &[], None));
        self.at[node] = EMPTY;
        self.nodes[node].kill(now, empty)
    }

    /// Integrates every node's utilisation up to the horizon `end`.
    pub(crate) fn close(&mut self, end: SimTime) {
        for node in &mut self.nodes {
            node.accumulate(end);
        }
    }

    /// The entry for `entry`'s class sequence followed by `class`, made on
    /// first use.
    fn child(&mut self, entry: usize, class: usize) -> usize {
        if let Some(next) = self.answers[entry].next[class] {
            return next;
        }
        let next = self.answers.len();
        self.answers
            .push(Answer::new(entry, class, self.loads.len()));
        self.answers[entry].next[class] = Some(next);
        next
    }

    /// The entry for `entry`'s class sequence, `len` classes long, with
    /// the class at `pos` taken out: back up to the class before it, then
    /// down again through the ones after it.
    fn without(&mut self, entry: usize, len: usize, pos: usize) -> usize {
        let Answer { up, last, .. } = self.answers[entry];
        if pos + 1 == len {
            return up;
        }
        let shorter = self.without(up, len - 1, pos);
        self.child(shorter, last)
    }
}

/// Test-only counters of control-plane work on the calling thread (the
/// control plane is serial), so a test can show the work went away and
/// was not moved.
#[cfg(test)]
pub(crate) mod tally {
    use std::cell::Cell;

    /// What one thread's control plane has done since the last `take`.
    #[derive(Clone, Copy, Debug, Default)]
    pub(crate) struct Tally {
        /// Admission answers asked for ([`super::NodePool::quote`]).
        pub(crate) asked: u64,
        /// Answers computed ([`super::admissible`] calls).
        pub(crate) priced: u64,
        /// Fixed points solved ([`super::solve`] calls).
        pub(crate) solved: u64,
    }

    thread_local! {
        static TALLY: Cell<Tally> = const { Cell::new(Tally { asked: 0, priced: 0, solved: 0 }) };
    }

    pub(crate) fn bump(f: impl FnOnce(&mut Tally)) {
        TALLY.with(|t| {
            let mut v = t.get();
            f(&mut v);
            t.set(v);
        });
    }

    /// Reads and zeroes the calling thread's counters.
    pub(crate) fn take() -> Tally {
        TALLY.with(Cell::take)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odr_workload::{Benchmark, Platform, Resolution, Scenario};

    fn mem() -> MemoryParams {
        Scenario::new(Benchmark::InMind, Resolution::R720p, Platform::PrivateCloud).memory_params()
    }

    fn load() -> SessionLoad {
        SessionLoad {
            coeffs: [0.20, 0.45, 0.05, 0.08],
            fps: 60.0,
            mtp_ms: 60.0,
        }
    }

    /// `n` default nodes placing the one class [`load`] under `slo`.
    fn pool(n: u32, slo: Slo) -> NodePool {
        NodePool::new(n, ServerCapacity::default(), mem(), slo, vec![load()])
    }

    #[test]
    fn first_fit_prefers_low_indices() {
        let mut pool = pool(3, Slo::default());
        assert_eq!(pool.choose(0), Some(0));
    }

    #[test]
    fn dead_nodes_are_never_chosen() {
        let mut pool = pool(2, Slo::default());
        let _ = pool.kill(SimTime::ZERO, 0);
        assert_eq!(pool.choose(0), Some(1));
    }

    #[test]
    fn impossible_slo_rejects_everywhere() {
        let mut pool = pool(
            2,
            Slo {
                min_fps: 10_000.0,
                ..Slo::default()
            },
        );
        assert_eq!(pool.choose(0), None);
    }

    #[test]
    fn admissible_enforces_gpu_and_cpu_bounds() {
        let mem = mem();
        let node = Node::new(ServerCapacity::default(), NodeState::default());
        let slo = Slo {
            max_gpu_load: 0.1,
            ..Slo::default()
        };
        assert!(admissible(&node, &mem, &load(), &slo).is_none());
        // One CPU thread: three saturated CPU stages blow the ceiling.
        let narrow = ServerCapacity {
            cpu_threads: 1.0,
            ..ServerCapacity::default()
        };
        let node = Node::new(narrow, NodeState::default());
        let heavy_cpu = SessionLoad {
            coeffs: [2.0, 0.2, 1.5, 1.5],
            ..load()
        };
        assert!(admissible(&node, &mem, &heavy_cpu, &Slo::default()).is_none());
    }

    /// A quote is kept for the resident class sequence it was priced at:
    /// asking again prices nothing, empty nodes share one answer, an
    /// admission reuses the quote's solve as the node's new operating
    /// point, and a membership change re-prices only a sequence no node
    /// has held before.
    #[test]
    fn a_quote_lives_until_its_node_changes() {
        let mut pool = pool(3, Slo::default());
        // Which of the three nodes would take one more session.
        let fits = |pool: &mut NodePool| {
            (0..3)
                .map(|n| pool.quote(n, 0).is_some())
                .collect::<Vec<_>>()
        };
        let _ = tally::take();
        for _ in 0..5 {
            assert_eq!(fits(&mut pool), [true; 3]);
        }
        let t = tally::take();
        assert_eq!((t.asked, t.priced, t.solved), (15, 1, 1));
        pool.admit(SimTime::ZERO, 2, 0, 0);
        assert_eq!(tally::take().solved, 0);
        assert_eq!(fits(&mut pool), [true; 3]);
        assert_eq!(tally::take().priced, 1);
        assert!(pool.remove(SimTime::ZERO, 2, 0).is_some());
        let _ = pool.kill(SimTime::ZERO, 1);
        assert_eq!(fits(&mut pool), [true, false, true]);
        let t = tally::take();
        assert_eq!((t.priced, t.solved), (0, 0));
    }

    /// Two nodes that reach one class sequence by different histories
    /// share its answers, and a removal from the middle of a sequence
    /// lands on the entry of what is left.
    #[test]
    fn one_sequence_one_answer() {
        let light = SessionLoad {
            coeffs: [0.10, 0.22, 0.03, 0.04],
            fps: 30.0,
            mtp_ms: 70.0,
        };
        let mut pool = NodePool::new(
            2,
            ServerCapacity::default(),
            mem(),
            Slo::default(),
            vec![load(), light],
        );
        // Node 0: [0, 1, 1] then its middle 1 leaves; node 1: [0, 1].
        for (session, class) in [(0, 0), (1, 1), (2, 1)] {
            let _ = pool.quote(0, class);
            pool.admit(SimTime::ZERO, 0, session, class);
        }
        assert!(pool.remove(SimTime::ZERO, 0, 1).is_some());
        let _ = tally::take();
        for (session, class) in [(3, 0), (4, 1)] {
            pool.admit(SimTime::ZERO, 1, session, class);
        }
        assert_eq!(pool.at[0], pool.at[1]);
        assert_eq!(tally::take().solved, 0, "every state was solved before");
        let _ = pool.quote(0, 0);
        let _ = pool.quote(1, 0);
        let t = tally::take();
        assert_eq!(
            (t.priced, t.solved),
            (1, 1),
            "node 1 walked node 0's entries"
        );
    }
}
