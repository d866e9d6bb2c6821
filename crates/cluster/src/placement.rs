//! Pluggable placement policies behind one trait.
//!
//! All three built-in policies share the same *admissibility* predicate —
//! a candidate node must keep every resident (including the newcomer)
//! inside the SLO at the post-placement fixed point — and differ only in
//! which admissible node they pick. Every tie breaks toward the lowest
//! node index, so placement is a pure function of `(nodes, load, slo)`
//! and the simulation stays deterministic.

use odr_memsim::MemoryParams;

use crate::config::{PlacementKind, Slo};
use crate::node::{Node, NodeState, SessionLoad};

/// A placement policy: picks which node (by index into the pool) should
/// host an arriving session, or `None` when no node can take it within
/// the SLO.
pub trait Placement: Sync {
    /// Stable policy name (reports, CLI).
    fn name(&self) -> &'static str;

    /// Chooses a node index for `load`, or `None` when no placement is
    /// admissible.
    fn choose(
        &self,
        nodes: &[Node],
        mem: &MemoryParams,
        load: &SessionLoad,
        slo: &Slo,
    ) -> Option<usize>;
}

/// Evaluates whether placing `load` on `node` keeps the whole node inside
/// the SLO, returning the post-placement operating point when it does.
///
/// Checks, in order: the node is alive; the post-placement GPU load stays
/// within [`Slo::max_gpu_load`]; the CPU load stays within the node's
/// utilisation ceiling; and every resident — current ones and the
/// newcomer — still meets [`Slo::min_fps`] and [`Slo::max_mtp_ms`] at the
/// new fixed point.
#[must_use]
pub(crate) fn admissible(
    node: &Node,
    mem: &MemoryParams,
    load: &SessionLoad,
    slo: &Slo,
) -> Option<NodeState> {
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
    let holds = |l: &SessionLoad| {
        state.predicted_fps(l) >= slo.min_fps && state.predicted_mtp_ms(l) <= slo.max_mtp_ms
    };
    if !holds(load) || !node.residents().iter().all(|r| holds(&r.load)) {
        return None;
    }
    Some(state)
}

/// First-fit: the lowest-indexed admissible node.
#[derive(Clone, Copy, Debug, Default)]
pub struct FirstFit;

impl Placement for FirstFit {
    fn name(&self) -> &'static str {
        PlacementKind::FirstFit.label()
    }

    fn choose(
        &self,
        nodes: &[Node],
        mem: &MemoryParams,
        load: &SessionLoad,
        slo: &Slo,
    ) -> Option<usize> {
        nodes
            .iter()
            .position(|node| admissible(node, mem, load, slo).is_some())
    }
}

/// Best-fit: the admissible node with the highest post-placement GPU
/// load (tightest pack, keeping whole nodes free for heavy sessions and
/// for surviving node failures).
#[derive(Clone, Copy, Debug, Default)]
pub struct BestFit;

impl Placement for BestFit {
    fn name(&self) -> &'static str {
        PlacementKind::BestFit.label()
    }

    fn choose(
        &self,
        nodes: &[Node],
        mem: &MemoryParams,
        load: &SessionLoad,
        slo: &Slo,
    ) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (i, node) in nodes.iter().enumerate() {
            if let Some(state) = admissible(node, mem, load, slo) {
                // Strictly-greater keeps ties on the lowest index.
                if best.is_none_or(|(_, load_so_far)| state.gpu_load > load_so_far) {
                    best = Some((i, state.gpu_load));
                }
            }
        }
        best.map(|(i, _)| i)
    }
}

/// ODR-aware: the admissible node whose *worst* resident keeps the most
/// FPS headroom over the SLO after placement — the policy that exploits
/// the regulator's reduced rendering to pack without QoS cliffs.
#[derive(Clone, Copy, Debug, Default)]
pub struct OdrAware;

impl Placement for OdrAware {
    fn name(&self) -> &'static str {
        PlacementKind::OdrAware.label()
    }

    fn choose(
        &self,
        nodes: &[Node],
        mem: &MemoryParams,
        load: &SessionLoad,
        slo: &Slo,
    ) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (i, node) in nodes.iter().enumerate() {
            if let Some(state) = admissible(node, mem, load, slo) {
                let mut headroom = state.predicted_fps(load) / slo.min_fps;
                for r in node.residents() {
                    headroom = headroom.min(state.predicted_fps(&r.load) / slo.min_fps);
                }
                if best.is_none_or(|(_, h)| headroom > h) {
                    best = Some((i, headroom));
                }
            }
        }
        best.map(|(i, _)| i)
    }
}

impl PlacementKind {
    /// The policy object this kind names.
    #[must_use]
    pub fn placement(self) -> &'static dyn Placement {
        match self {
            PlacementKind::FirstFit => &FirstFit,
            PlacementKind::BestFit => &BestFit,
            PlacementKind::OdrAware => &OdrAware,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Resident;
    use odr_pipeline::colocation::ServerCapacity;
    use odr_simtime::SimTime;
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

    fn pool(n: usize, mem: &MemoryParams) -> Vec<Node> {
        (0..n)
            .map(|i| Node::new(i as u32, ServerCapacity::default(), mem))
            .collect()
    }

    #[test]
    fn first_fit_prefers_low_indices() {
        let mem = mem();
        let nodes = pool(3, &mem);
        let slo = Slo::default();
        assert_eq!(FirstFit.choose(&nodes, &mem, &load(), &slo), Some(0));
    }

    #[test]
    fn dead_nodes_are_never_chosen() {
        let mem = mem();
        let mut nodes = pool(2, &mem);
        let _ = nodes[0].kill(SimTime::ZERO, &mem);
        let slo = Slo::default();
        assert_eq!(FirstFit.choose(&nodes, &mem, &load(), &slo), Some(1));
        assert_eq!(BestFit.choose(&nodes, &mem, &load(), &slo), Some(1));
        assert_eq!(OdrAware.choose(&nodes, &mem, &load(), &slo), Some(1));
    }

    #[test]
    fn best_fit_packs_the_loaded_node() {
        let mem = mem();
        let mut nodes = pool(2, &mem);
        nodes[1].admit(
            SimTime::ZERO,
            Resident {
                session: 0,
                load: load(),
            },
            &mem,
        );
        let slo = Slo::default();
        assert_eq!(BestFit.choose(&nodes, &mem, &load(), &slo), Some(1));
        // First-fit would have chosen the empty node 0 instead.
        assert_eq!(FirstFit.choose(&nodes, &mem, &load(), &slo), Some(0));
    }

    #[test]
    fn odr_aware_spreads_for_headroom() {
        let mem = mem();
        let mut nodes = pool(2, &mem);
        nodes[1].admit(
            SimTime::ZERO,
            Resident {
                session: 0,
                load: load(),
            },
            &mem,
        );
        let slo = Slo::default();
        // The empty node leaves the newcomer more FPS headroom.
        assert_eq!(OdrAware.choose(&nodes, &mem, &load(), &slo), Some(0));
    }

    #[test]
    fn impossible_slo_rejects_everywhere() {
        let mem = mem();
        let nodes = pool(2, &mem);
        let slo = Slo {
            min_fps: 10_000.0,
            ..Slo::default()
        };
        assert_eq!(FirstFit.choose(&nodes, &mem, &load(), &slo), None);
        assert_eq!(BestFit.choose(&nodes, &mem, &load(), &slo), None);
        assert_eq!(OdrAware.choose(&nodes, &mem, &load(), &slo), None);
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
}
