//! The pool's kept admission answers against a from-scratch oracle.
//!
//! [`NodePool`] keeps one operating point and one quote per class for
//! each resident class sequence, shared by every node that holds it.
//! Over random place / admit / remove / kill / probe sequences, and over
//! the two histories below, after every step, every quote and every
//! node's own operating point must equal what solving the node's fixed
//! point from scratch (and checking the SLO) gives — bit for bit — and
//! placement must pick the first admissible node of a full uncached scan
//! of the pool. The oracle below is that scan as the control plane ran it
//! before it kept anything.

use odr_cluster::{Node, NodePool, NodeState, SessionLoad, Slo};
use odr_memsim::MemoryParams;
use odr_pipeline::colocation::ServerCapacity;
use odr_simtime::SimTime;
use odr_workload::{Benchmark, Platform, Resolution, Scenario};
use proptest::prelude::*;

const NODES: usize = 3;

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

/// The admission answer from scratch: the operating point when `load`
/// fits on `node`, `None` when it does not.
fn oracle_quote(
    node: &Node,
    mem: &MemoryParams,
    load: &SessionLoad,
    slo: &Slo,
) -> Option<NodeState> {
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
    Some(state)
}

/// Every quote and node state of `pool` against the oracle, and the
/// pool's choice against the first admissible node of the scan, for
/// every class.
fn assert_matches_oracle(pool: &mut NodePool, mem: &MemoryParams, slo: &Slo, at: &str) {
    for (n, node) in pool.nodes().iter().enumerate() {
        let fresh = NodeState::solve(node.capacity(), mem, node.residents(), None);
        assert_eq!(bits(node.state()), bits(&fresh), "{at}: node {n} state");
    }
    for (c, load) in loads().iter().enumerate() {
        for n in 0..NODES {
            let kept = pool.quote(n, c).as_ref().map(bits);
            let fresh = oracle_quote(&pool.nodes()[n], mem, load, slo)
                .as_ref()
                .map(bits);
            assert_eq!(kept, fresh, "{at}: node {n} class {c}");
        }
        let scan = (0..NODES).find(|&n| oracle_quote(&pool.nodes()[n], mem, load, slo).is_some());
        assert_eq!(pool.choose(c), scan, "{at}: class {c}");
    }
}

fn bits(state: &NodeState) -> [u64; 6] {
    [
        state.streams,
        state.slowdown,
        state.gpu_demand,
        state.gpu_load,
        state.gpu_share,
        state.cpu_load,
    ]
    .map(f64::to_bits)
}

proptest! {
    #[test]
    fn quotes_and_choices_match_a_from_scratch_scan(
        steps in prop::collection::vec((0u8..20, 0usize..NODES, 0usize..4), 1..48),
    ) {
        let (mem, slo, loads) = (mem(), Slo::default(), loads());
        let mut pool =
            NodePool::new(NODES as u32, ServerCapacity::default(), mem, slo, loads.clone());
        let mut next_session = 0u32;
        for (step, &(action, node, class)) in steps.iter().enumerate() {
            let now = SimTime::from_secs(step as u64);
            match action {
                // Place as the control plane does: on the first node that
                // admits.
                0..=9 => {
                    if let Some(chosen) = pool.choose(class) {
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
            assert_matches_oracle(&mut pool, &mem, &slo, &format!("step {step}"));
        }
    }
}

/// Admits `(session, class)` pairs onto `node` in order.
fn admit_all(pool: &mut NodePool, node: usize, sessions: &[(u32, usize)]) {
    for &(session, class) in sessions {
        pool.admit(SimTime::ZERO, node, session, class);
        assert_matches_oracle(pool, &mem(), &Slo::default(), &format!("admit {session}"));
    }
}

/// Node 0 reaches `[0, 2]` by admitting `[0, 1, 2]` and losing the 1;
/// node 1 by admitting `[2, 0]` and losing the first 2, then admitting a
/// 2; node 2 directly. All three share the one answer, so each must be
/// right for all three.
#[test]
fn nodes_reaching_one_sequence_by_different_histories_share_its_answers() {
    let mut pool = NodePool::new(
        NODES as u32,
        ServerCapacity::default(),
        mem(),
        Slo::default(),
        loads(),
    );
    admit_all(&mut pool, 0, &[(0, 0), (1, 1), (2, 2)]);
    assert!(pool.remove(SimTime::ZERO, 0, 1).is_some());
    admit_all(&mut pool, 1, &[(3, 2), (4, 0)]);
    assert!(pool.remove(SimTime::ZERO, 1, 3).is_some());
    admit_all(&mut pool, 1, &[(5, 2)]);
    admit_all(&mut pool, 2, &[(6, 0), (7, 2)]);
    assert_matches_oracle(&mut pool, &mem(), &Slo::default(), "shared");
    let quotes: Vec<_> = (0..NODES)
        .map(|n| pool.quote(n, 0).as_ref().map(bits))
        .collect();
    assert!(quotes.windows(2).all(|w| w[0] == w[1]), "{quotes:?}");
}

/// Removals from the middle of a sequence, one after another, each
/// landing on the entry for what is left (some of them never held).
#[test]
fn a_removal_from_the_middle_lands_on_what_is_left() {
    let mut pool = NodePool::new(
        NODES as u32,
        ServerCapacity::default(),
        mem(),
        Slo::default(),
        loads(),
    );
    admit_all(&mut pool, 0, &[(0, 0), (1, 1), (2, 0), (3, 2), (4, 1)]);
    for session in [2, 1, 3] {
        assert!(pool.remove(SimTime::ZERO, 0, session).is_some());
        assert_matches_oracle(
            &mut pool,
            &mem(),
            &Slo::default(),
            &format!("remove {session}"),
        );
    }
    let left: Vec<u32> = pool.nodes()[0]
        .residents()
        .iter()
        .map(|r| r.session)
        .collect();
    assert_eq!(left, [0, 4]);
}
