//! Node state: residents, the co-location fixed point, and QoS
//! prediction for admission control.
//!
//! A node is a server from the paper's capacity study
//! ([`odr_pipeline::colocation`]): one GPU, a small pool of heavy CPU
//! threads, DRAM shared by every resident's memory streams. The cluster
//! engine keeps each node's *predicted* operating point — the
//! heterogeneous mean-field fixed point over its residents' calibrated
//! activity coefficients ([`odr_fleet::mixed_fixed_point`]) — up to date
//! on every membership change, and integrates it over simulated time for
//! the utilisation report.

use odr_fleet::capacity::mixed_fixed_point;
use odr_memsim::MemoryParams;
use odr_pipeline::colocation::ServerCapacity;
use odr_simtime::SimTime;

/// GPU position in the per-stage coefficient array
/// ([`odr_memsim::MemClient::ALL`] order: AppLogic, Render, Copy,
/// Encode).
const RENDER: usize = 1;

/// One policy class's calibrated load: uncontended per-stage activity
/// coefficients plus the uncontended baseline QoS, all measured by a
/// dedicated-server DES run of that policy.
#[derive(Clone, Copy, Debug)]
pub struct SessionLoad {
    /// Uncontended per-stage activity coefficients (from
    /// [`odr_fleet::uncontended_coefficients`]), in
    /// [`odr_memsim::MemClient::ALL`] order.
    pub coeffs: [f64; 4],
    /// Uncontended mean client FPS of the policy.
    pub fps: f64,
    /// Uncontended mean motion-to-photon latency in milliseconds.
    pub mtp_ms: f64,
}

/// One session resident on a node.
#[derive(Clone, Copy, Debug)]
pub struct Resident {
    /// Global session index.
    pub session: u32,
    /// The session's calibrated load class.
    pub load: SessionLoad,
}

/// A node's predicted operating point at the current resident set.
#[derive(Clone, Copy, Debug, Default)]
pub struct NodeState {
    /// Expected concurrently active memory streams at the fixed point.
    pub streams: f64,
    /// Converged DRAM slowdown shared by every resident.
    pub slowdown: f64,
    /// Raw GPU demand: the sum of residents' render-stage busy fractions
    /// (may exceed the node's GPU).
    pub gpu_demand: f64,
    /// GPU demand as a multiple of [`ServerCapacity::gpu`] (the quantity
    /// the SLO's `max_gpu_load` bounds).
    pub gpu_load: f64,
    /// Fraction of its demanded GPU time each resident actually gets
    /// (1.0 when the GPU is not oversubscribed).
    pub gpu_share: f64,
    /// Shared-CPU load as a fraction of [`ServerCapacity::cpu_threads`].
    pub cpu_load: f64,
}

impl NodeState {
    /// Solves the operating point for an explicit resident set (plus an
    /// optional candidate the admission controller is probing).
    #[must_use]
    pub fn solve(
        capacity: &ServerCapacity,
        mem: &MemoryParams,
        residents: &[Resident],
        extra: Option<&SessionLoad>,
    ) -> NodeState {
        #[cfg(test)]
        crate::placement::tally::bump(|t| t.solved += 1);
        // Residents in admission order, the candidate last: the order
        // `admit` leaves them in, so a probe and the solve after the
        // admission it allowed agree bit for bit.
        let sets = || {
            let resident = residents.iter().map(|r| r.load.coeffs);
            resident.chain(extra.map(|load| load.coeffs))
        };
        let (streams, slowdown) = mixed_fixed_point(mem, sets);
        let mut gpu_demand = 0.0;
        let mut cpu_busy = 0.0;
        for coeffs in sets() {
            gpu_demand += (coeffs[RENDER] * slowdown).min(1.0);
            for (stage, c) in coeffs.iter().enumerate() {
                if stage != RENDER {
                    cpu_busy += (c * slowdown).min(1.0);
                }
            }
        }
        let gpu_share = if gpu_demand > capacity.gpu {
            capacity.gpu / gpu_demand
        } else {
            1.0
        };
        NodeState {
            streams,
            slowdown,
            gpu_demand,
            gpu_load: gpu_demand / capacity.gpu,
            gpu_share,
            cpu_load: cpu_busy / capacity.cpu_threads,
        }
    }

    /// Predicts a resident's client FPS at this operating point: the
    /// uncontended FPS scaled by stage saturation (render and the
    /// copy+encode proxy thread) and by the GPU share when the GPU is
    /// oversubscribed.
    #[must_use]
    pub fn predicted_fps(&self, load: &SessionLoad) -> f64 {
        let render_busy = load.coeffs[RENDER] * self.slowdown;
        let render_cap = if render_busy > 1.0 {
            1.0 / render_busy
        } else {
            1.0
        };
        let proxy_busy = (load.coeffs[2] + load.coeffs[3]) * self.slowdown;
        let proxy_cap = if proxy_busy > 1.0 {
            1.0 / proxy_busy
        } else {
            1.0
        };
        load.fps * render_cap.min(proxy_cap) * self.gpu_share
    }

    /// Predicts a resident's motion-to-photon latency at this operating
    /// point: the uncontended MtP stretched by the DRAM slowdown and the
    /// GPU share.
    #[must_use]
    pub fn predicted_mtp_ms(&self, load: &SessionLoad) -> f64 {
        load.mtp_ms * self.slowdown / self.gpu_share.max(1e-9)
    }
}

/// One server of the cluster: its residents, its cached operating point,
/// and time-integrated utilisation accumulators.
///
/// Every mutation (admit, remove, kill) first integrates the *old* state
/// over the span since the last change, so the reported means are exact
/// step-function integrals regardless of event interleaving. The three
/// mutators are crate-private and `residents` is private to this module:
/// outside the crate a node is read-only, and inside it the only caller
/// is [`NodePool`](crate::NodePool), which drops the node's admission
/// quotes in the same breath.
#[derive(Clone, Debug)]
pub struct Node {
    id: u32,
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
    /// Creates an empty, alive node.
    #[must_use]
    pub(crate) fn new(id: u32, capacity: ServerCapacity, mem: &MemoryParams) -> Node {
        Node {
            id,
            capacity,
            alive: true,
            killed_at: None,
            residents: Vec::new(),
            state: NodeState::solve(&capacity, mem, &[], None),
            last_change: SimTime::ZERO,
            gpu_load_dt: 0.0,
            sessions_dt: 0.0,
            slowdown_dt: 0.0,
            admitted_total: 0,
            peak_sessions: 0,
        }
    }

    /// The node's cluster-wide id.
    #[must_use]
    pub fn id(&self) -> u32 {
        self.id
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

    /// When fault injection killed the node, if it did.
    #[must_use]
    pub fn killed_at(&self) -> Option<SimTime> {
        self.killed_at
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
    pub fn last_change(&self) -> SimTime {
        self.last_change
    }

    /// Sessions ever admitted onto this node.
    #[must_use]
    pub fn admitted_total(&self) -> u64 {
        self.admitted_total
    }

    /// Largest simultaneous resident count the node reached.
    #[must_use]
    pub fn peak_sessions(&self) -> u32 {
        self.peak_sessions
    }

    /// Solves the operating point the node would reach with `extra`
    /// placed on it, without mutating anything.
    #[must_use]
    pub(crate) fn probe(&self, mem: &MemoryParams, extra: &SessionLoad) -> NodeState {
        NodeState::solve(&self.capacity, mem, &self.residents, Some(extra))
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

    /// Places a resident on the node at `now` and re-solves the operating
    /// point.
    pub(crate) fn admit(&mut self, now: SimTime, resident: Resident, mem: &MemoryParams) {
        self.accumulate(now);
        self.residents.push(resident);
        self.admitted_total += 1;
        self.peak_sessions = self.peak_sessions.max(self.residents.len() as u32);
        self.state = NodeState::solve(&self.capacity, mem, &self.residents, None);
    }

    /// Removes a resident (departure or displacement re-place) at `now`,
    /// returning it if it was present, and re-solves the operating point.
    pub(crate) fn remove(
        &mut self,
        now: SimTime,
        session: u32,
        mem: &MemoryParams,
    ) -> Option<Resident> {
        self.accumulate(now);
        let pos = self.residents.iter().position(|r| r.session == session)?;
        let resident = self.residents.remove(pos);
        self.state = NodeState::solve(&self.capacity, mem, &self.residents, None);
        Some(resident)
    }

    /// Kills the node at `now`: integrates its final span, marks it dead
    /// and drains its residents (in residency order) for re-placement.
    /// Killing a dead node returns nothing.
    pub(crate) fn kill(&mut self, now: SimTime, mem: &MemoryParams) -> Vec<Resident> {
        if !self.alive {
            return Vec::new();
        }
        self.accumulate(now);
        self.alive = false;
        self.killed_at = Some(now);
        let displaced = core::mem::take(&mut self.residents);
        self.state = NodeState::solve(&self.capacity, mem, &[], None);
        displaced
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

    #[test]
    fn empty_node_is_idle() {
        let mem = mem();
        let n = Node::new(3, ServerCapacity::default(), &mem);
        assert_eq!(n.id(), 3);
        assert!(n.alive());
        assert_eq!(n.state().gpu_demand, 0.0);
        assert_eq!(n.state().gpu_share, 1.0);
        assert_eq!(n.state().cpu_load, 0.0);
    }

    #[test]
    fn admit_and_remove_round_trip() {
        let mem = mem();
        let mut n = Node::new(0, ServerCapacity::default(), &mem);
        n.admit(
            SimTime::from_secs(1),
            Resident {
                session: 7,
                load: load(0.5),
            },
            &mem,
        );
        assert_eq!(n.residents().len(), 1);
        assert!(n.state().gpu_load > 0.0);
        assert_eq!(n.admitted_total(), 1);
        assert_eq!(n.peak_sessions(), 1);
        let r = n.remove(SimTime::from_secs(2), 7, &mem);
        assert_eq!(r.map(|r| r.session), Some(7));
        assert!(n.residents().is_empty());
        assert_eq!(n.remove(SimTime::from_secs(2), 7, &mem).map(|r| r.session), None);
    }

    #[test]
    fn oversubscribed_gpu_shares_proportionally() {
        let mem = mem();
        let mut n = Node::new(0, ServerCapacity::default(), &mem);
        for s in 0..3 {
            n.admit(
                SimTime::ZERO,
                Resident {
                    session: s,
                    load: load(0.9),
                },
                &mem,
            );
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
        let mut n = Node::new(0, ServerCapacity::default(), &mem);
        n.admit(
            SimTime::ZERO,
            Resident {
                session: 0,
                load: load(0.5),
            },
            &mem,
        );
        let displaced = n.kill(SimTime::from_secs(10), &mem);
        assert_eq!(displaced.len(), 1);
        assert!(!n.alive());
        assert_eq!(n.killed_at(), Some(SimTime::from_secs(10)));
        assert!(n.kill(SimTime::from_secs(11), &mem).is_empty());
        // Means divide by the 10 s served span, not the 60 s horizon.
        let end = SimTime::from_secs(60);
        n.accumulate(end);
        let (mean_sessions, _, _) = n.means(end);
        assert!((mean_sessions - 1.0).abs() < 1e-9, "{mean_sessions}");
    }

    #[test]
    fn accumulate_integrates_step_functions() {
        let mem = mem();
        let mut n = Node::new(0, ServerCapacity::default(), &mem);
        // 10 s empty, 10 s with one resident, horizon 20 s.
        n.admit(
            SimTime::from_secs(10),
            Resident {
                session: 0,
                load: load(0.5),
            },
            &mem,
        );
        let end = SimTime::ZERO + Duration::from_secs(20);
        n.accumulate(end);
        let (mean_sessions, mean_gpu, _) = n.means(end);
        assert!((mean_sessions - 0.5).abs() < 1e-9);
        assert!((mean_gpu - n.state().gpu_load / 2.0).abs() < 1e-9);
    }

    #[test]
    fn probe_does_not_mutate() {
        let mem = mem();
        let n = Node::new(0, ServerCapacity::default(), &mem);
        let st = n.probe(&mem, &load(0.5));
        assert!(st.gpu_demand > 0.0);
        assert!(n.residents().is_empty());
        assert_eq!(n.state().gpu_demand, 0.0);
    }
}
