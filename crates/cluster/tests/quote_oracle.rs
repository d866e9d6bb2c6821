//! The pool's kept admission answers against a from-scratch oracle.
//!
//! [`NodePool`] keeps each (node, class) quote until that node's
//! residents change. Over random place / admit / remove / kill / probe
//! sequences, after every step, every quote must equal what solving the
//! node's fixed point from scratch and checking the SLO gives — bit for
//! bit — and every placement policy must pick the node a full uncached
//! scan of the pool picks. The oracle below is that scan as the control
//! plane ran it before it kept anything.

use odr_cluster::{Node, NodePool, NodeState, PlacementKind, SessionLoad, Slo};
use odr_memsim::MemoryParams;
use odr_pipeline::colocation::ServerCapacity;
use odr_simtime::SimTime;
use odr_workload::{Benchmark, Platform, Resolution, Scenario};
use proptest::prelude::*;

const NODES: usize = 3;
const KINDS: [PlacementKind; 3] = [
    PlacementKind::FirstFit,
    PlacementKind::BestFit,
    PlacementKind::OdrAware,
];

fn mem() -> MemoryParams {
    Scenario::new(Benchmark::InMind, Resolution::R720p, Platform::PrivateCloud).memory_params()
}

/// Four classes from light (a 30 FPS regulated session) to heavy (an
/// unregulated one), so nodes fill after two to five residents and the
/// binding SLO term varies: FPS floor, MtP ceiling, GPU load.
fn loads() -> Vec<SessionLoad> {
    vec![
        SessionLoad {
            coeffs: [0.10, 0.22, 0.03, 0.04],
            fps: 30.0,
            mtp_ms: 70.0,
        },
        SessionLoad {
            coeffs: [0.20, 0.45, 0.05, 0.08],
            fps: 60.0,
            mtp_ms: 60.0,
        },
        SessionLoad {
            coeffs: [0.25, 0.60, 0.06, 0.10],
            fps: 60.0,
            mtp_ms: 110.0,
        },
        SessionLoad {
            coeffs: [0.45, 0.98, 0.20, 0.30],
            fps: 140.0,
            mtp_ms: 45.0,
        },
    ]
}

/// The admission answer from scratch: operating point and worst-resident
/// headroom when `load` fits on `node`, `None` when it does not.
fn oracle_quote(
    node: &Node,
    mem: &MemoryParams,
    load: &SessionLoad,
    slo: &Slo,
) -> Option<(NodeState, f64)> {
    if !node.alive() {
        return None;
    }
    let state = NodeState::solve(node.capacity(), mem, node.residents(), Some(load));
    if state.gpu_load > slo.max_gpu_load || state.cpu_load > node.capacity().ceiling {
        return None;
    }
    let holds = |l: &SessionLoad| {
        state.predicted_fps(l) >= slo.min_fps && state.predicted_mtp_ms(l) <= slo.max_mtp_ms
    };
    if !holds(load) || !node.residents().iter().all(|r| holds(&r.load)) {
        return None;
    }
    let mut headroom = state.predicted_fps(load) / slo.min_fps;
    for r in node.residents() {
        headroom = headroom.min(state.predicted_fps(&r.load) / slo.min_fps);
    }
    Some((state, headroom))
}

/// The node a scan of every node picks; ties go to the lowest index.
fn oracle_choice(
    kind: PlacementKind,
    nodes: &[Node],
    mem: &MemoryParams,
    load: &SessionLoad,
    slo: &Slo,
) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, node) in nodes.iter().enumerate() {
        let Some((state, headroom)) = oracle_quote(node, mem, load, slo) else {
            continue;
        };
        let score = match kind {
            PlacementKind::FirstFit => return Some(i),
            PlacementKind::BestFit => state.gpu_load,
            PlacementKind::OdrAware => headroom,
        };
        if best.is_none_or(|(_, so_far)| score > so_far) {
            best = Some((i, score));
        }
    }
    best.map(|(i, _)| i)
}

fn bits(state: &NodeState, headroom: f64) -> [u64; 7] {
    [
        state.streams,
        state.slowdown,
        state.gpu_demand,
        state.gpu_load,
        state.gpu_share,
        state.cpu_load,
        headroom,
    ]
    .map(f64::to_bits)
}

proptest! {
    #[test]
    fn quotes_and_choices_match_a_from_scratch_scan(
        steps in prop::collection::vec((0u8..20, 0usize..NODES, 0usize..4, 0usize..3), 1..48),
    ) {
        let (mem, slo, loads) = (mem(), Slo::default(), loads());
        let mut pool =
            NodePool::new(0..NODES as u32, ServerCapacity::default(), mem, slo, loads.clone());
        let mut next_session = 0u32;
        for (step, &(action, node, class, kind)) in steps.iter().enumerate() {
            let now = SimTime::from_secs(step as u64);
            match action {
                // Place as the control plane does: where the policy says.
                0..=9 => {
                    if let Some(chosen) = pool.choose(KINDS[kind], class) {
                        pool.admit(now, chosen, next_session, class);
                        next_session += 1;
                    }
                }
                // Admit past the SLO too: a quote must be right about an
                // overloaded node, not only about a healthy one.
                10..=11 => {
                    if pool.nodes()[node].alive() {
                        pool.admit(now, node, next_session, class);
                        next_session += 1;
                    }
                }
                // A departure: the node's longest-standing resident, or
                // its newest, or a session that is not there at all.
                12..=16 => {
                    let residents = pool.nodes()[node].residents();
                    let session = match (action, residents.first(), residents.last()) {
                        (12..=13, Some(first), _) => first.session,
                        (14..=15, _, Some(last)) => last.session,
                        _ => u32::MAX,
                    };
                    let was_there = residents.iter().any(|r| r.session == session);
                    prop_assert_eq!(pool.remove(now, node, session).is_some(), was_there);
                }
                // A probe and nothing else.
                17..=18 => {
                    let _ = pool.quote(node, class);
                }
                _ => {
                    let held = pool.nodes()[node].residents().len();
                    prop_assert_eq!(pool.kill(now, node).len(), held);
                    prop_assert!(!pool.nodes()[node].alive());
                }
            }
            for (c, load) in loads.iter().enumerate() {
                for n in 0..NODES {
                    let kept = pool.quote(n, c).map(|q| bits(&q.state, q.headroom));
                    let fresh = oracle_quote(&pool.nodes()[n], &mem, load, &slo)
                        .map(|(state, headroom)| bits(&state, headroom));
                    prop_assert_eq!(kept, fresh, "step {} node {} class {}", step, n, c);
                }
                for kind in KINDS {
                    prop_assert_eq!(
                        pool.choose(kind, c),
                        oracle_choice(kind, pool.nodes(), &mem, load, &slo),
                        "step {} class {} {}", step, c, kind.label()
                    );
                }
            }
        }
    }
}
