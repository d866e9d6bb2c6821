//! Regression corpus for the swap-protocol model checker: replay
//! known-bad interleavings of the lock-free swap protocol and of its
//! blocking wait edge, and assert the checker still catches the classic
//! bugs of both.
//!
//! The traces below were found by `amodel::explore_dfs` and are pinned
//! here so any change to the checker (or to the protocol's memory
//! orderings, or to the driver's wait edge) that would stop detecting
//! these bugs — or that perturbs deterministic replay — fails loudly.
//! The two wait-edge pins carry on the two condvar pins of the retired
//! mutex/condvar model: a wake-up taken on trust, and a signal that is
//! never sent.

use odr_check::amodel::{explore_dfs, replay, AScenario, WaitEdge};
use odr_core::atomic_swap::OrderingProfile;
use odr_core::queue::FullPolicy;

/// Trace of the "Relaxed publish" bug: the producer's seq-word store
/// that marks a slot FULL carries no release edge, so the consumer
/// observes the slot as FULL before the payload write is visible and
/// pops the uninitialised sentinel. This is the schedule DFS finds
/// first — the torn read needs no adversarial reordering at all.
const RELAXED_PUBLISH_TRACE: &[u32] = &[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];

/// Trace of the "blind claim" bug (missing CAS / generation check on
/// the consumer's FULL -> READING transition): the producer reclaims
/// the slot for an overwrite, republishes a new frame, and the consumer
/// — which never re-validated the sequence word it saw before the
/// overwrite — delivers the dropped stale payload instead of the
/// republished one. The first nine decisions are the trace as it was
/// pinned while a publish and its signal were one step; the three zeros
/// after them are the producer's waiter-count checks (after the
/// republish, and on both gates after its close), which are now steps
/// of their own and which replay used to supply past the end of the
/// shorter trace.
const BLIND_CLAIM_TRACE: &[u32] = &[0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0];

fn relaxed_publish_scenario(profile: OrderingProfile) -> AScenario {
    AScenario::lockfree(
        "regression/relaxed-publish",
        FullPolicy::Block,
        1,
        1,
        false,
    )
    .with_profile(profile)
}

fn blind_claim_scenario(profile: OrderingProfile) -> AScenario {
    let mut s = AScenario::lockfree(
        "regression/blind-claim",
        FullPolicy::Overwrite,
        1,
        1,
        true,
    )
    .with_profile(profile);
    s.prefill = 1;
    s
}

#[test]
fn replaying_known_bad_trace_reproduces_the_torn_publish() {
    let failure = replay(
        &relaxed_publish_scenario(OrderingProfile::relaxed_publish()),
        RELAXED_PUBLISH_TRACE,
    )
    .expect("pinned trace must still reproduce the bug");
    assert!(
        failure.contains("torn/stale pop") && failure.contains("uninitialised payload"),
        "unexpected failure: {failure}"
    );
}

#[test]
fn replaying_known_bad_trace_reproduces_the_stale_claim() {
    let failure = replay(
        &blind_claim_scenario(OrderingProfile::skip_claim_cas()),
        BLIND_CLAIM_TRACE,
    )
    .expect("pinned trace must still reproduce the bug");
    assert!(
        failure.contains("torn/stale pop"),
        "unexpected failure: {failure}"
    );
}

#[test]
fn shipped_orderings_survive_both_bad_traces() {
    assert_eq!(
        replay(
            &relaxed_publish_scenario(OrderingProfile::shipped()),
            RELAXED_PUBLISH_TRACE,
        ),
        None
    );
    assert_eq!(
        replay(
            &blind_claim_scenario(OrderingProfile::shipped()),
            BLIND_CLAIM_TRACE,
        ),
        None
    );
}

#[test]
fn exploration_rediscovers_the_relaxed_publish_deterministically() {
    let a = explore_dfs(
        &relaxed_publish_scenario(OrderingProfile::relaxed_publish()),
        2_000_000,
    );
    let b = explore_dfs(
        &relaxed_publish_scenario(OrderingProfile::relaxed_publish()),
        2_000_000,
    );
    let fa = a.failure.expect("DFS must find the relaxed publish");
    let fb = b.failure.expect("DFS must find the relaxed publish");
    // Seed-free deterministic search: identical first failure.
    assert_eq!(fa.trace, fb.trace);
    assert_eq!(fa.trace, RELAXED_PUBLISH_TRACE);
}

#[test]
fn exploration_rediscovers_the_blind_claim() {
    let r = explore_dfs(
        &blind_claim_scenario(OrderingProfile::skip_claim_cas()),
        2_000_000,
    );
    let f = r.failure.expect("DFS must find the blind claim");
    assert_eq!(f.trace, BLIND_CLAIM_TRACE);
    assert!(f.message.contains("torn/stale pop"));
}

#[test]
fn shipped_orderings_are_clean_under_both_regression_scenarios() {
    for s in [
        relaxed_publish_scenario(OrderingProfile::shipped()),
        blind_claim_scenario(OrderingProfile::shipped()),
    ] {
        let r = explore_dfs(&s, 2_000_000);
        assert!(r.complete, "{}: budget too small", s.name);
        assert!(
            r.failure.is_none(),
            "{}: {:?}",
            s.name,
            r.failure.map(|f| (f.message, f.trace))
        );
    }
}

/// Trace of the "park without recheck" bug. The producer parks on the
/// full buffer, is woken by the consumer's pop and publishes; the
/// consumer takes that frame too, looks again, finds the buffer empty
/// and still open, and decides to wait. Before it registers, the
/// producer closes the queue and checks the data gate's waiter count,
/// sees nobody and skips the epoch bump. The consumer then registers
/// and parks — without the recheck that would have seen the close — on
/// an epoch that will never move.
const PARK_WITHOUT_RECHECK_TRACE: &[u32] = &[
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0,
];

/// Trace of the "missing space signal" bug: the producer registers,
/// rechecks, still finds the buffer full and parks — correctly; the
/// consumer pops and never rings the space gate, so the producer sleeps
/// on although there is room, and the consumer parks behind it waiting
/// for a frame that cannot come.
const MISSING_SPACE_SIGNAL_TRACE: &[u32] = &[0, 0, 0, 0, 0];

/// One-slot blocking buffer that starts full; the producer has one more
/// frame to publish and then closes. Both waits (producer on space,
/// consumer on data) are on the schedule's path.
fn wait_edge_scenario(wait_edge: WaitEdge) -> AScenario {
    let mut s = AScenario::lockfree("regression/wait-edge", FullPolicy::Block, 1, 1, true);
    s.prefill = 1;
    s.wait_edge = wait_edge;
    s
}

#[test]
fn replaying_known_bad_traces_reproduces_both_wait_edge_deadlocks() {
    for (edge, trace) in [
        (WaitEdge::ParkWithoutRecheck, PARK_WITHOUT_RECHECK_TRACE),
        (WaitEdge::MissingSpaceSignal, MISSING_SPACE_SIGNAL_TRACE),
    ] {
        let failure = replay(&wait_edge_scenario(edge), trace)
            .expect("pinned trace must still reproduce the bug");
        assert!(
            failure.contains("deadlock / lost wakeup"),
            "{edge:?}: unexpected failure: {failure}"
        );
    }
}

#[test]
fn shipped_wait_edge_survives_both_bad_traces() {
    for trace in [PARK_WITHOUT_RECHECK_TRACE, MISSING_SPACE_SIGNAL_TRACE] {
        assert_eq!(replay(&wait_edge_scenario(WaitEdge::Shipped), trace), None);
    }
}

#[test]
fn exploration_rediscovers_both_wait_edge_bugs_deterministically() {
    for (edge, trace) in [
        (WaitEdge::ParkWithoutRecheck, PARK_WITHOUT_RECHECK_TRACE),
        (WaitEdge::MissingSpaceSignal, MISSING_SPACE_SIGNAL_TRACE),
    ] {
        let a = explore_dfs(&wait_edge_scenario(edge), 2_000_000);
        let b = explore_dfs(&wait_edge_scenario(edge), 2_000_000);
        let fa = a.failure.expect("DFS must find the wait-edge bug");
        let fb = b.failure.expect("DFS must find the wait-edge bug");
        // Seed-free deterministic search: identical first failure.
        assert_eq!(fa.trace, fb.trace, "{edge:?}");
        assert_eq!(fa.trace, trace, "{edge:?}");
        assert!(fa.message.contains("deadlock"), "{edge:?}: {}", fa.message);
    }
}

#[test]
fn shipped_wait_edge_is_clean_under_the_regression_scenario() {
    let s = wait_edge_scenario(WaitEdge::Shipped);
    let r = explore_dfs(&s, 2_000_000);
    assert!(r.complete, "{}: budget too small", s.name);
    assert!(
        r.failure.is_none(),
        "{}: {:?}",
        s.name,
        r.failure.map(|f| (f.message, f.trace))
    );
}
