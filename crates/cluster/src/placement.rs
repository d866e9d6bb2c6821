//! The node pool the control plane places sessions onto, and what an
//! admission answer costs.
//!
//! All three placement policies share one *admissibility* predicate — a
//! candidate node must keep every resident (including the newcomer)
//! inside the SLO at the post-placement fixed point — and differ only in
//! which admissible node they pick. Every tie breaks toward the lowest
//! node index, so placement is a pure function of the pool and the
//! session's class, and the simulation stays deterministic.
//!
//! # What an answer depends on, and who owns it
//!
//! Whether a node can take one more session of a policy class is a
//! function of the node's resident set, the DRAM model, the SLO and the
//! class's calibrated load — and for one run only the first of those
//! ever changes. [`NodePool`] owns all four, and keeps per (node, class)
//! the [`Quote`] that [`admissible`] computed, until that node's resident
//! set changes. A saturated pool is asked the same question over and
//! over (every arrival and each of its retries scans nodes nobody has
//! joined or left since the last scan), so the control plane's cost grows
//! with membership changes × classes, not with probes × nodes.
//!
//! A quote cannot go stale: a node's residents change only in
//! [`NodePool::admit`], [`NodePool::remove`] and [`NodePool::kill`]
//! (`Node`'s own mutators are crate-private, its `residents` private to
//! `node.rs`, and the pool hands out `&[Node]` only), and each of the
//! three drops that node's quotes before it returns.

use std::ops::Range;

use odr_memsim::MemoryParams;
use odr_pipeline::colocation::ServerCapacity;
use odr_simtime::SimTime;

use crate::config::{PlacementKind, Slo};
use crate::node::{Node, NodeState, Resident, SessionLoad};

/// What placing one more session of a class on a node would do to it:
/// the admission answer for a (node, class) pair that passed the SLO.
#[derive(Clone, Copy, Debug)]
pub struct Quote {
    /// The node's operating point with the newcomer resident.
    pub state: NodeState,
    /// Predicted FPS over [`Slo::min_fps`] of the worst-off session on
    /// the node after placement, newcomer included (≥ 1 by admission).
    pub headroom: f64,
}

/// Prices placing `load` on `node`: the post-placement operating point
/// and worst-resident headroom when the whole node stays inside the SLO,
/// `None` when it does not.
///
/// Checks, in order: the node is alive; the post-placement GPU load stays
/// within [`Slo::max_gpu_load`]; the CPU load stays within the node's
/// utilisation ceiling; and every resident — current ones and the
/// newcomer — still meets [`Slo::min_fps`] and [`Slo::max_mtp_ms`] at the
/// new fixed point.
#[must_use]
fn admissible(node: &Node, mem: &MemoryParams, load: &SessionLoad, slo: &Slo) -> Option<Quote> {
    #[cfg(test)]
    tally::bump(|t| t.priced += 1);
    if !node.alive() {
        return None;
    }
    let state = node.probe(mem, load);
    if state.gpu_load > slo.max_gpu_load {
        return None;
    }
    if state.cpu_load > node.capacity().ceiling {
        return None;
    }
    let mut headroom = f64::INFINITY;
    for l in std::iter::once(load).chain(node.residents().iter().map(|r| &r.load)) {
        let fps = state.predicted_fps(l);
        let holds = fps >= slo.min_fps && state.predicted_mtp_ms(l) <= slo.max_mtp_ms;
        if !holds {
            return None;
        }
        headroom = headroom.min(fps / slo.min_fps);
    }
    Some(Quote { state, headroom })
}

/// The pool of nodes one control plane places onto, with everything an
/// admission answer depends on — and therefore the answers themselves.
///
/// `class` arguments index the `loads` the pool was built with (the
/// policy mix's choices, in order).
#[derive(Debug)]
pub struct NodePool {
    nodes: Vec<Node>,
    mem: MemoryParams,
    slo: Slo,
    loads: Vec<SessionLoad>,
    /// `quotes[node * loads.len() + class]`: `None` until the pair is
    /// priced, `Some(answer)` from then until the node's next membership
    /// change.
    quotes: Vec<Option<Option<Quote>>>,
}

impl NodePool {
    /// An all-empty, all-alive pool: one node of `capacity` per id in
    /// `ids`, placing sessions of the calibrated classes `loads` under
    /// `slo`.
    #[must_use]
    pub fn new(
        ids: Range<u32>,
        capacity: ServerCapacity,
        mem: MemoryParams,
        slo: Slo,
        loads: Vec<SessionLoad>,
    ) -> NodePool {
        let nodes: Vec<Node> = ids.map(|id| Node::new(id, capacity, &mem)).collect();
        NodePool {
            quotes: vec![None; nodes.len() * loads.len()],
            nodes,
            mem,
            slo,
            loads,
        }
    }

    /// The nodes, in pool order (the index every method here takes).
    #[must_use]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The admission answer for one more `class` session on `node`:
    /// looked up, or priced now and kept until `node`'s residents change.
    #[must_use]
    pub fn quote(&mut self, node: usize, class: usize) -> Option<Quote> {
        #[cfg(test)]
        tally::bump(|t| t.asked += 1);
        let slot = node * self.loads.len() + class;
        if let Some(kept) = self.quotes[slot] {
            return kept;
        }
        let priced = admissible(&self.nodes[node], &self.mem, &self.loads[class], &self.slo);
        self.quotes[slot] = Some(priced);
        priced
    }

    /// Picks the node an arriving `class` session goes to under `kind`,
    /// or `None` when no node can take it within the SLO.
    #[must_use]
    pub fn choose(&mut self, kind: PlacementKind, class: usize) -> Option<usize> {
        let mut candidates =
            (0..self.nodes.len()).filter_map(|i| self.quote(i, class).map(|q| (i, q)));
        match kind {
            // The lowest-indexed admissible node; later nodes are not
            // even asked.
            PlacementKind::FirstFit => candidates.next().map(|(i, _)| i),
            // The tightest pack: highest post-placement GPU load, keeping
            // whole nodes free for heavy sessions and for node failures.
            PlacementKind::BestFit => first_max(candidates.map(|(i, q)| (i, q.state.gpu_load))),
            // The node whose *worst* resident keeps the most FPS headroom
            // over the SLO — the policy that exploits the regulator's
            // reduced rendering to pack without QoS cliffs.
            PlacementKind::OdrAware => first_max(candidates.map(|(i, q)| (i, q.headroom))),
        }
    }

    /// Places `session`, of `class`, on `node` at `now`.
    pub fn admit(&mut self, now: SimTime, node: usize, session: u32, class: usize) {
        let load = self.loads[class];
        self.nodes[node].admit(now, Resident { session, load }, &self.mem);
        self.drop_quotes(node);
    }

    /// Removes `session` from `node` at `now` (a departure), returning
    /// its residency if it was there.
    pub fn remove(&mut self, now: SimTime, node: usize, session: u32) -> Option<Resident> {
        let removed = self.nodes[node].remove(now, session, &self.mem);
        self.drop_quotes(node);
        removed
    }

    /// Kills `node` at `now`, returning the residents it displaced (in
    /// residency order). Killing a dead node returns nothing.
    pub fn kill(&mut self, now: SimTime, node: usize) -> Vec<Resident> {
        let displaced = self.nodes[node].kill(now, &self.mem);
        self.drop_quotes(node);
        displaced
    }

    /// Integrates every node's utilisation up to the horizon `end`.
    pub(crate) fn close(&mut self, end: SimTime) {
        for node in &mut self.nodes {
            node.accumulate(end);
        }
    }

    fn drop_quotes(&mut self, node: usize) {
        let classes = self.loads.len();
        self.quotes[node * classes..(node + 1) * classes].fill(None);
    }
}

/// The index with the largest score; strictly-greater keeps ties on the
/// lowest index.
fn first_max(scored: impl Iterator<Item = (usize, f64)>) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, score) in scored {
        if best.is_none_or(|(_, so_far)| score > so_far) {
            best = Some((i, score));
        }
    }
    best.map(|(i, _)| i)
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
        /// Fixed points solved ([`crate::NodeState::solve`] calls).
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

    const KINDS: [PlacementKind; 3] = [
        PlacementKind::FirstFit,
        PlacementKind::BestFit,
        PlacementKind::OdrAware,
    ];

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
        NodePool::new(0..n, ServerCapacity::default(), mem(), slo, vec![load()])
    }

    #[test]
    fn first_fit_prefers_low_indices() {
        let mut pool = pool(3, Slo::default());
        assert_eq!(pool.choose(PlacementKind::FirstFit, 0), Some(0));
    }

    #[test]
    fn dead_nodes_are_never_chosen() {
        let mut pool = pool(2, Slo::default());
        let _ = pool.kill(SimTime::ZERO, 0);
        for kind in KINDS {
            assert_eq!(pool.choose(kind, 0), Some(1), "{}", kind.label());
        }
    }

    #[test]
    fn best_fit_packs_the_loaded_node() {
        let mut pool = pool(2, Slo::default());
        pool.admit(SimTime::ZERO, 1, 0, 0);
        assert_eq!(pool.choose(PlacementKind::BestFit, 0), Some(1));
        // First-fit would have chosen the empty node 0 instead.
        assert_eq!(pool.choose(PlacementKind::FirstFit, 0), Some(0));
    }

    #[test]
    fn odr_aware_spreads_for_headroom() {
        let mut pool = pool(2, Slo::default());
        pool.admit(SimTime::ZERO, 1, 0, 0);
        // The empty node leaves the newcomer more FPS headroom.
        assert_eq!(pool.choose(PlacementKind::OdrAware, 0), Some(0));
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
        for kind in KINDS {
            assert_eq!(pool.choose(kind, 0), None, "{}", kind.label());
        }
    }

    #[test]
    fn admissible_enforces_gpu_and_cpu_bounds() {
        let mem = mem();
        let node = Node::new(0, ServerCapacity::default(), &mem);
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
        let node = Node::new(0, narrow, &mem);
        let heavy_cpu = SessionLoad {
            coeffs: [2.0, 0.2, 1.5, 1.5],
            ..load()
        };
        assert!(admissible(&node, &mem, &heavy_cpu, &Slo::default()).is_none());
    }

    /// A quote is kept exactly until its own node's residents change:
    /// asking again prices nothing, and a membership change on one node
    /// re-prices that node alone.
    #[test]
    fn a_quote_lives_until_its_node_changes() {
        let mut pool = pool(3, Slo::default());
        let _ = tally::take();
        for _ in 0..5 {
            assert_eq!(pool.choose(PlacementKind::BestFit, 0), Some(0));
        }
        let t = tally::take();
        assert_eq!((t.asked, t.priced), (15, 3));
        pool.admit(SimTime::ZERO, 2, 0, 0);
        assert_eq!(pool.choose(PlacementKind::BestFit, 0), Some(2));
        assert_eq!(tally::take().priced, 1);
        assert!(pool.remove(SimTime::ZERO, 2, 0).is_some());
        let _ = pool.kill(SimTime::ZERO, 1);
        assert_eq!(pool.choose(PlacementKind::BestFit, 0), Some(0));
        assert_eq!(tally::take().priced, 2);
    }
}
