//! A cluster node: its residents, its cached operating point, and its
//! time-integrated utilisation.
//!
//! A node is a server from the paper's capacity study: one GPU, a small
//! pool of heavy CPU threads, DRAM shared by every resident's memory
//! streams. Its operating point is the co-location model's
//! [`NodeState::solve`] over its residents' calibrated loads; the node
//! pool keeps it up to date on every membership change, and the node
//! integrates it over simulated time for the utilisation report.

use odr_memsim::MemoryParams;
use odr_pipeline::colocation::{NodeState, Resident, ServerCapacity, SessionLoad};
use odr_simtime::SimTime;

/// One server of the cluster: its residents, its cached operating point,
/// and time-integrated utilisation accumulators.
///
/// Every mutation (admit, remove, kill) first integrates the *old* state
/// over the span since the last change, so the reported means are exact
/// step-function integrals regardless of event interleaving, then takes
/// the operating point of the new resident set from its caller. The
/// three mutators are crate-private and `residents` is private to this
/// module: outside the crate a node is read-only, and inside it the only
/// caller is [`NodePool`](crate::NodePool), which keeps one operating
/// point per resident class sequence and re-points the node at its new
/// one in the same breath.
#[derive(Clone, Debug)]
pub struct Node {
    capacity: ServerCapacity,
    alive: bool,
    killed_at: Option<SimTime>,
    residents: Vec<Resident>,
    state: NodeState,
    last_change: SimTime,
    gpu_load_dt: f64,
    sessions_dt: f64,
    slowdown_dt: f64,
    admitted_total: u64,
    peak_sessions: u32,
}

impl Node {
    /// Creates an empty, alive node at `empty`, the operating point of no
    /// residents.
    #[must_use]
    pub(crate) fn new(capacity: ServerCapacity, empty: NodeState) -> Node {
        Node {
            capacity,
            alive: true,
            killed_at: None,
            residents: Vec::new(),
            state: empty,
            last_change: SimTime::ZERO,
            gpu_load_dt: 0.0,
            sessions_dt: 0.0,
            slowdown_dt: 0.0,
            admitted_total: 0,
            peak_sessions: 0,
        }
    }

    /// The node's execution resources.
    #[must_use]
    pub fn capacity(&self) -> &ServerCapacity {
        &self.capacity
    }

    /// Whether the node is still serving (not killed).
    #[must_use]
    pub fn alive(&self) -> bool {
        self.alive
    }

    /// Current residents, in admission order.
    #[must_use]
    pub fn residents(&self) -> &[Resident] {
        &self.residents
    }

    /// The cached operating point for the current resident set.
    #[must_use]
    pub fn state(&self) -> &NodeState {
        &self.state
    }

    /// The instant of the last membership change (utilisation has been
    /// integrated up to here).
    #[must_use]
    pub(crate) fn last_change(&self) -> SimTime {
        self.last_change
    }

    /// Sessions ever admitted onto this node.
    #[must_use]
    pub(crate) fn admitted_total(&self) -> u64 {
        self.admitted_total
    }

    /// Largest simultaneous resident count the node reached.
    #[must_use]
    pub(crate) fn peak_sessions(&self) -> u32 {
        self.peak_sessions
    }

    /// Solves the operating point the node would reach with `extra`
    /// placed on it, without mutating anything.
    #[must_use]
    pub(crate) fn probe(&self, mem: &MemoryParams, extra: &SessionLoad) -> NodeState {
        crate::placement::solve(&self.capacity, mem, &self.residents, Some(extra))
    }

    /// Integrates the current state over the span since the last change.
    /// Dead nodes integrate nothing (their span ended at the kill).
    pub(crate) fn accumulate(&mut self, now: SimTime) {
        if self.alive {
            let dt = now.saturating_since(self.last_change).as_secs_f64();
            self.gpu_load_dt += self.state.gpu_load * dt;
            self.sessions_dt += self.residents.len() as f64 * dt;
            self.slowdown_dt += self.state.slowdown * dt;
        }
        self.last_change = now;
    }

    /// Places a resident on the node at `now`; `state` is the operating
    /// point with it placed.
    pub(crate) fn admit(&mut self, now: SimTime, resident: Resident, state: NodeState) {
        self.accumulate(now);
        self.residents.push(resident);
        self.admitted_total += 1;
        self.peak_sessions = self.peak_sessions.max(self.residents.len() as u32);
        self.state = state;
    }

    /// Removes the resident at `pos` (a departure) at `now` and returns
    /// it; `state` is the operating point without it.
    pub(crate) fn remove(&mut self, now: SimTime, pos: usize, state: NodeState) -> Resident {
        self.accumulate(now);
        self.state = state;
        self.residents.remove(pos)
    }

    /// Kills the node at `now`: integrates its final span, marks it dead
    /// and drains its residents (in residency order) for re-placement;
    /// `empty` is the operating point of no residents. Killing a dead node
    /// returns nothing.
    pub(crate) fn kill(&mut self, now: SimTime, empty: NodeState) -> Vec<Resident> {
        if !self.alive {
            return Vec::new();
        }
        self.accumulate(now);
        self.alive = false;
        self.killed_at = Some(now);
        self.state = empty;
        core::mem::take(&mut self.residents)
    }

    /// The span the node served over, ending at the kill or at `end`.
    #[must_use]
    pub(crate) fn served_span(&self, end: SimTime) -> SimTime {
        self.killed_at.unwrap_or(end)
    }

    /// Lifetime means `(sessions, gpu_load, slowdown)` over the node's
    /// served span, assuming [`accumulate`](Node::accumulate) ran at the
    /// horizon. A zero-length span yields zeros.
    #[must_use]
    pub(crate) fn means(&self, end: SimTime) -> (f64, f64, f64) {
        let span = self.served_span(end).as_secs_f64();
        if span <= 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (
            self.sessions_dt / span,
            self.gpu_load_dt / span,
            self.slowdown_dt / span,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odr_simtime::Duration;
    use odr_workload::{Benchmark, Platform, Resolution, Scenario};

    fn mem() -> MemoryParams {
        Scenario::new(Benchmark::InMind, Resolution::R720p, Platform::PrivateCloud).memory_params()
    }

    fn load(render: f64) -> SessionLoad {
        SessionLoad {
            coeffs: [0.25, render, 0.06, 0.10],
            fps: 60.0,
            mtp_ms: 50.0,
        }
    }

    /// An empty default node.
    fn node(mem: &MemoryParams) -> Node {
        let capacity = ServerCapacity::default();
        Node::new(capacity, NodeState::solve(&capacity, mem, &[], None))
    }

    /// Admits `session` of `load` at `now`, at the operating point its
    /// probe solves (as the pool does with the quote that admitted it).
    fn admit(n: &mut Node, now: SimTime, session: u32, load: SessionLoad, mem: &MemoryParams) {
        let state = n.probe(mem, &load);
        n.admit(now, Resident { session, load }, state);
    }

    #[test]
    fn empty_node_is_idle() {
        let mem = mem();
        let n = node(&mem);
        assert!(n.alive());
        assert_eq!(n.state().gpu_demand, 0.0);
        assert_eq!(n.state().gpu_share, 1.0);
        assert_eq!(n.state().cpu_load, 0.0);
    }

    #[test]
    fn admit_and_remove_round_trip() {
        let mem = mem();
        let mut n = node(&mem);
        let empty = *n.state();
        admit(&mut n, SimTime::from_secs(1), 7, load(0.5), &mem);
        assert_eq!(n.residents().len(), 1);
        assert!(n.state().gpu_load > 0.0);
        assert_eq!(n.admitted_total(), 1);
        assert_eq!(n.peak_sessions(), 1);
        let r = n.remove(SimTime::from_secs(2), 0, empty);
        assert_eq!(r.session, 7);
        assert!(n.residents().is_empty());
        assert_eq!(n.state().gpu_load, 0.0);
    }

    #[test]
    fn oversubscribed_gpu_shares_proportionally() {
        let mem = mem();
        let mut n = node(&mem);
        for s in 0..3 {
            admit(&mut n, SimTime::ZERO, s, load(0.9), &mem);
        }
        let st = *n.state();
        assert!(st.gpu_demand > 1.0);
        assert!(st.gpu_share < 1.0);
        assert!((st.gpu_share - 1.0 / st.gpu_demand).abs() < 1e-12);
        let l = load(0.9);
        assert!(st.predicted_fps(&l) < l.fps);
        assert!(st.predicted_mtp_ms(&l) > l.mtp_ms);
    }

    #[test]
    fn kill_drains_residents_and_freezes_accounting() {
        let mem = mem();
        let mut n = node(&mem);
        let empty = *n.state();
        admit(&mut n, SimTime::ZERO, 0, load(0.5), &mem);
        let displaced = n.kill(SimTime::from_secs(10), empty);
        assert_eq!(displaced.len(), 1);
        assert!(!n.alive());
        assert_eq!(n.killed_at, Some(SimTime::from_secs(10)));
        assert!(n.kill(SimTime::from_secs(11), empty).is_empty());
        // Means divide by the 10 s served span, not the 60 s horizon.
        let end = SimTime::from_secs(60);
        n.accumulate(end);
        let (mean_sessions, _, _) = n.means(end);
        assert!((mean_sessions - 1.0).abs() < 1e-9, "{mean_sessions}");
    }

    #[test]
    fn accumulate_integrates_step_functions() {
        let mem = mem();
        let mut n = node(&mem);
        // 10 s empty, 10 s with one resident, horizon 20 s.
        admit(&mut n, SimTime::from_secs(10), 0, load(0.5), &mem);
        let end = SimTime::ZERO + Duration::from_secs(20);
        n.accumulate(end);
        let (mean_sessions, mean_gpu, _) = n.means(end);
        assert!((mean_sessions - 0.5).abs() < 1e-9);
        assert!((mean_gpu - n.state().gpu_load / 2.0).abs() < 1e-9);
    }

    #[test]
    fn probe_does_not_mutate() {
        let mem = mem();
        let n = node(&mem);
        let st = n.probe(&mem, &load(0.5));
        assert!(st.gpu_demand > 0.0);
        assert!(n.residents().is_empty());
        assert_eq!(n.state().gpu_demand, 0.0);
    }
}
