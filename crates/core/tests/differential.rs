//! Differential property test: `SyncQueue` against its sequential
//! specification, [`SwapState`], for any single-threaded schedule of
//! publish/pop/priority/close operations, in both full-buffer policies.
//!
//! `SwapState` is the DES's `FrameQueue` plus a closed flag, with no
//! synchronisation in it. Driven sequentially there is no contention, so
//! every `SyncQueue` operation is deterministic and the comparison is
//! exact: same outcome enum, same popped values, same drop counter, same
//! occupancy after every step. What the queue does when two threads
//! interleave is the `odr-check` model checker's job (`amodel`); this
//! test nails what each operation means.

use odr_core::queue::FullPolicy;
use odr_core::swap::{SwapState, TryPop, TryPublish};
use odr_core::SyncQueue;
use proptest::prelude::*;

/// One operation of an arbitrary schedule.
#[derive(Clone, Copy, Debug)]
enum Op {
    TryPublish,
    TryPop,
    Priority,
    Close,
}

fn op_from(code: u8) -> Op {
    match code % 8 {
        // Bias toward publish/pop so schedules exercise full and empty
        // buffers; close is rare (it is absorbing for publishes).
        0 | 1 | 2 => Op::TryPublish,
        3 | 4 | 5 => Op::TryPop,
        6 => Op::Priority,
        _ => Op::Close,
    }
}

/// Applies `ops` to the specification and the queue in lockstep,
/// asserting every observable matches at every step.
fn run_differential(policy: FullPolicy, codes: &[u8]) -> Result<(), TestCaseError> {
    let mut spec: SwapState<u64> = SwapState::new(policy);
    let queue: SyncQueue<u64> = match policy {
        FullPolicy::Block => SyncQueue::new_blocking(1),
        FullPolicy::Overwrite => SyncQueue::new_overwriting(1),
    };

    let mut token: u64 = 0;
    for (i, &code) in codes.iter().enumerate() {
        match op_from(code) {
            Op::TryPublish => {
                token += 1;
                let a: TryPublish<u64> = spec.try_publish(token);
                let b: TryPublish<u64> = queue.try_publish(token);
                prop_assert_eq!(&a, &b, "step {}: try_publish({}) diverged", i, token);
            }
            Op::TryPop => {
                let a: TryPop<u64> = spec.try_pop();
                let b: TryPop<u64> = queue.try_pop_outcome();
                prop_assert_eq!(&a, &b, "step {}: try_pop diverged", i);
            }
            Op::Priority => {
                token += 1;
                let a = spec.try_publish_priority(token);
                let b = queue.publish_priority(token);
                prop_assert_eq!(a, b, "step {}: publish_priority({}) diverged", i, token);
            }
            Op::Close => {
                spec.close();
                queue.close();
            }
        }
        prop_assert_eq!(
            spec.is_closed(),
            queue.is_closed(),
            "step {}: is_closed diverged",
            i
        );
        prop_assert_eq!(spec.drops(), queue.drops(), "step {}: drops diverged", i);
        prop_assert_eq!(spec.len(), queue.len(), "step {}: len diverged", i);
        prop_assert_eq!(
            spec.is_empty(),
            queue.is_empty(),
            "step {}: is_empty diverged",
            i
        );
    }

    // Drain both to the end: the tails must agree too.
    loop {
        let a = spec.try_pop();
        let b = queue.try_pop_outcome();
        prop_assert_eq!(&a, &b, "drain diverged");
        match a {
            TryPop::Frame(_) => {}
            TryPop::Drained | TryPop::MustWait => break,
        }
    }
    Ok(())
}

proptest! {
    /// Overwrite mode: arbitrary schedules through the one slot.
    #[test]
    fn queue_matches_specification_in_overwrite_mode(
        codes in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        run_differential(FullPolicy::Overwrite, &codes)?;
    }

    /// Blocking mode: arbitrary schedules through the one slot. `try_*`
    /// surfaces the would-block edges as `MustWait`, so full/empty
    /// boundary behaviour is compared without any actual blocking.
    #[test]
    fn queue_matches_specification_in_block_mode(
        codes in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        run_differential(FullPolicy::Block, &codes)?;
    }
}
