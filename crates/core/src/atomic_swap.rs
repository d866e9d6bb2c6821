//! Lock-free multi-buffer swap path: an atomic slot-exchange queue with
//! generation-counted slots (seqlock/triple-buffer style publication).
//!
//! This module is the engine under [`crate::sync_queue`], in both
//! full-buffer policies: the producer publishes a frame by claiming a
//! slot, writing the payload, and releasing the slot's *sequence word*
//! (`4·position + tag`); the consumer claims a `FULL` slot with a CAS,
//! reads the payload, and recycles the word for the next lap. Overwrite
//! mode is fully lock-free; blocking mode keeps a condvar only on the
//! `MustWait` edge (the [`Gate`] eventcount), exactly where the paper's
//! convergence argument needs the producer to pause.
//!
//! # One copy of the truth
//!
//! Every protocol transition is written as an explicit, resumable *step
//! machine* ([`PublishM`], [`PopM`], [`PriorityM`]) generic over
//! [`SwapMem`], the abstract shared memory. Two implementations exist:
//!
//! * [`AtomicSwap`] runs the machines over real `AtomicU64`s and
//!   `UnsafeCell` payload slots (production);
//! * the `odr-check` atomics-aware model checker runs the *same*
//!   machines over a virtual memory with message histories and
//!   acquire/release view propagation, exploring every bounded
//!   interleaving of the individual steps.
//!
//! Each `step()` call performs at most one *observable* shared-memory
//! operation, so the checker's interleavings are exactly the hardware's
//! (operations on `HEAD`, which only the single producer thread writes
//! and reads, are merged into adjacent steps — see the field docs).
//!
//! # Threading contract
//!
//! Single producer, single consumer. Priority publishes run on the
//! *producer* thread (in the runtime the 3D-app thread performs both
//! normal and priority publishes), so `HEAD` has exactly one writer and
//! `EMPTY` slots are claimed with a plain store instead of a CAS.
//! `TAIL` is written by whichever thread claimed the position at the
//! tail (consumer pop or producer-side priority flush); claims are
//! serialized per position by the seq-word CAS, so `TAIL` stores stay
//! monotone without contention.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::gate::Gate;
use crate::queue::FullPolicy;
use crate::swap::{TryPop, TryPublish};

/// Slot sequence-word tags: `seq = 4·position + tag`.
const TAG_EMPTY: u64 = 0;
const TAG_WRITING: u64 = 1;
const TAG_FULL: u64 = 2;
const TAG_READING: u64 = 3;

/// Builds the sequence word for `position` in state `tag`.
fn seq_word(position: u64, tag: u64) -> u64 {
    position.wrapping_mul(4).wrapping_add(tag)
}

/// Memory orderings of the abstract swap memory, mirroring
/// `std::sync::atomic::Ordering` so the model checker can interpret
/// them symbolically (a `Relaxed` store publishes no view, so stale
/// payload reads become observable interleavings).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemOrd {
    /// No synchronisation; only the value itself is transferred.
    Relaxed,
    /// Load half of an acquire/release pair.
    Acquire,
    /// Store half of an acquire/release pair.
    Release,
    /// Read-modify-write with both halves.
    AcqRel,
    /// Sequentially consistent.
    SeqCst,
}

/// The abstract shared memory the swap protocol runs against: a small
/// array of atomic `u64` control words plus `capacity` payload slots.
/// Implemented by the production [`AtomicSwap`] driver (real atomics)
/// and by the `odr-check` virtual memory (message histories with
/// acquire/release views).
pub trait SwapMem {
    /// Atomically loads the control word at `loc`.
    fn load(&mut self, loc: usize, ord: MemOrd) -> u64;
    /// Atomically stores `val` into the control word at `loc`.
    fn store(&mut self, loc: usize, val: u64, ord: MemOrd);
    /// Atomic compare-and-exchange on the control word at `loc`:
    /// `Ok(previous)` when `previous == current` (the store happened),
    /// `Err(actual)` otherwise.
    fn compare_exchange(
        &mut self,
        loc: usize,
        current: u64,
        new: u64,
        success: MemOrd,
        failure: MemOrd,
    ) -> Result<u64, u64>;
    /// Atomic fetch-add on the control word at `loc`; returns the
    /// previous value.
    fn fetch_add(&mut self, loc: usize, add: u64, ord: MemOrd) -> u64;
    /// Moves the staged frame into payload slot `slot`. `token`
    /// identifies the frame to the model checker's ghost state; the
    /// production driver ignores it.
    fn payload_write(&mut self, slot: usize, token: u64);
    /// Moves payload slot `slot` into the staging area, returning the
    /// token last written there (the model may return a *stale* token
    /// when the slot's publication was insufficiently ordered).
    fn payload_read(&mut self, slot: usize) -> u64;
    /// Drops the frame in payload slot `slot` (priority flush).
    fn payload_discard(&mut self, slot: usize);
}

/// Maps control-word indices: four scalar words followed by one
/// sequence word per slot.
#[derive(Clone, Copy, Debug)]
pub struct SlotLayout {
    capacity: usize,
}

impl SlotLayout {
    /// Close flag: 0 open, 1 closed.
    pub(crate) const CLOSED: usize = 0;
    /// Next publish position (written only by the producer thread).
    pub(crate) const HEAD: usize = 1;
    /// Next consume position (written by whichever thread claimed it).
    pub(crate) const TAIL: usize = 2;
    /// Frames dropped by overwrites or priority flushes.
    pub const DROPS: usize = 3;

    /// Layout for a queue of `capacity` slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "multi-buffer capacity must be at least 1");
        SlotLayout { capacity }
    }

    /// Number of slots.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total number of control words (`4 + capacity`).
    #[must_use]
    pub fn words(&self) -> usize {
        4 + self.capacity
    }

    /// Control-word index of slot `slot`'s sequence word.
    #[must_use]
    pub fn seq(&self, slot: usize) -> usize {
        4 + slot
    }

    /// Slot index for absolute position `pos`.
    ///
    /// `capacity` is validated nonzero at construction, so the checked
    /// remainder never misses; an (impossible) zero capacity maps to
    /// slot 0 instead of dividing by zero.
    #[must_use]
    pub fn slot(&self, pos: u64) -> usize {
        usize::try_from(pos.checked_rem(self.capacity as u64).unwrap_or(0)).unwrap_or(0)
    }

    /// Initial value of the control word at `loc`: zero for the scalar
    /// words, `4·slot` (EMPTY at position `slot`) for sequence words.
    #[must_use]
    pub fn initial(&self, loc: usize) -> u64 {
        if loc >= 4 {
            seq_word((loc - 4) as u64, TAG_EMPTY)
        } else {
            0
        }
    }
}

/// The memory orderings the protocol publishes frames with. The shipped
/// profile is the proven one; the other constructors *seed* classic
/// lock-free bugs for the model-checker regression corpus — they are
/// never used by production constructors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OrderingProfile {
    /// Ordering of the store that flips a slot's sequence word to
    /// `FULL` (the publication store). Shipped: `Release`. The seeded
    /// bug uses `Relaxed`, making a torn (stale) payload read
    /// observable on the consumer side.
    pub publish: MemOrd,
    /// Whether the consumer claims a `FULL` slot with a CAS on the
    /// generation-counted sequence word. Shipped: `true`. The seeded
    /// bug uses a plain store (the classic missing-generation-check /
    /// ABA race against the priority flusher).
    pub claim_cas: bool,
}

impl OrderingProfile {
    /// The proven production profile: `Release` publication, CAS claim.
    #[must_use]
    pub fn shipped() -> Self {
        OrderingProfile {
            publish: MemOrd::Release,
            claim_cas: true,
        }
    }

    /// Seeded bug 1: the publication store is `Relaxed`, so the payload
    /// write is not ordered before the slot becoming visible as `FULL`.
    #[must_use]
    pub fn relaxed_publish() -> Self {
        OrderingProfile {
            publish: MemOrd::Relaxed,
            claim_cas: true,
        }
    }

    /// Seeded bug 2: the consumer claims with a blind store instead of
    /// a generation-checked CAS, racing the priority flusher.
    #[must_use]
    pub fn skip_claim_cas() -> Self {
        OrderingProfile {
            publish: MemOrd::Release,
            claim_cas: false,
        }
    }
}

impl Default for OrderingProfile {
    fn default() -> Self {
        OrderingProfile::shipped()
    }
}

/// One protocol step either yields control (another shared-memory
/// operation remains) or completes with an outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step<O> {
    /// The machine performed (at most) one shared-memory operation and
    /// must be stepped again.
    Pending,
    /// The machine finished; it must not be stepped again.
    Done(O),
}

/// Linearization-point side effects, drained by the model checker's
/// ghost queue after every step. Emitted in the same step as the
/// memory operation that commits them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Effect {
    /// A frame with this token became visible to consumers.
    Published(u64),
    /// Overwrite mode reclaimed the newest pending frame.
    DroppedNewest,
    /// The priority flusher claimed the oldest pending frame.
    FlushedOldest,
    /// The consumer claimed the oldest pending frame.
    PopClaimed,
}

/// Outcome of a publish machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PublishOut {
    /// Frame stored; `dropped` is 1 if it replaced the newest pending
    /// frame (overwrite mode), else 0. Drivers signal "data".
    Accepted {
        /// Frames dropped by this publish (0 or 1).
        dropped: u64,
    },
    /// Queue closed; the frame was discarded.
    Closed,
    /// Blocking mode, buffer full: park on the space gate, then retry
    /// with a fresh machine.
    MustWait,
    /// Another thread is mid-operation on the slot we need: spin (or,
    /// in the model, wait for any write) and retry with a fresh machine.
    Busy,
}

/// Outcome of a pop machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PopOut {
    /// A frame was consumed; its token (the payload itself travels
    /// through [`SwapMem::payload_read`]). Drivers signal "space".
    Frame(u64),
    /// Queue closed and drained.
    Drained,
    /// Nothing pending: park on the data gate, then retry.
    MustWait,
    /// Another thread is mid-operation: spin/wait-for-write and retry.
    Busy,
}

/// Outcome of a priority-publish machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PriorityOut {
    /// Flushed `flushed` obsolete frames and stored this one. Drivers
    /// signal both gates.
    Accepted {
        /// Pending frames discarded before the store.
        flushed: usize,
    },
    /// Queue closed; the frame was discarded.
    Closed,
    /// The consumer is mid-claim on the frame we want to flush:
    /// spin/wait-for-write, then retry (accumulating
    /// [`PriorityM::flushed_so_far`]). Priority never blocks.
    Busy,
}

/// The protocol configuration shared by every machine: layout, full
/// policy, and the ordering profile under test.
#[derive(Clone, Copy, Debug)]
pub struct Protocol {
    lay: SlotLayout,
    policy: FullPolicy,
    profile: OrderingProfile,
}

impl Protocol {
    /// Production protocol: shipped orderings.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize, policy: FullPolicy) -> Self {
        Protocol::with_profile(capacity, policy, OrderingProfile::shipped())
    }

    /// Protocol with an explicit ordering profile (model-checker
    /// regression fixtures use the seeded-bug profiles).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn with_profile(capacity: usize, policy: FullPolicy, profile: OrderingProfile) -> Self {
        Protocol {
            lay: SlotLayout::new(capacity),
            policy,
            profile,
        }
    }

    /// The control-word layout.
    #[must_use]
    pub fn layout(&self) -> SlotLayout {
        self.lay
    }

    /// The full-buffer policy.
    #[must_use]
    pub fn policy(&self) -> FullPolicy {
        self.policy
    }

    /// Starts a publish of the frame identified by `token`.
    #[must_use]
    pub fn publish(&self, token: u64) -> PublishM {
        PublishM {
            proto: *self,
            token,
            state: PubState::CheckClosed,
            head: 0,
            effect: None,
        }
    }

    /// Starts a pop.
    #[must_use]
    pub fn pop(&self) -> PopM {
        PopM {
            proto: *self,
            state: PopState::LoadTail,
            tail: 0,
            token: None,
            effect: None,
        }
    }

    /// Starts a priority publish of the frame identified by `token`.
    #[must_use]
    pub fn publish_priority(&self, token: u64) -> PriorityM {
        PriorityM {
            proto: *self,
            token,
            state: PrState::CheckClosed,
            tail: 0,
            flushed: 0,
            publish: None,
            effect: None,
        }
    }

    /// Closes the queue: a single sequentially consistent store. The
    /// driver must wake all waiters on both gates afterwards.
    pub fn close<M: SwapMem>(&self, mem: &mut M) {
        mem.store(SlotLayout::CLOSED, 1, MemOrd::SeqCst);
    }
}

#[derive(Clone, Copy, Debug)]
enum PubState {
    CheckClosed,
    LoadSeq,
    ClaimWrite,
    WritePayload,
    PublishSlot,
    ClaimNewest,
    OverwritePayload,
    RepublishSlot,
    Finished,
}

/// Resumable publish machine. Step it until [`Step::Done`]; drain
/// [`PublishM::take_effect`] after every step.
#[derive(Debug)]
pub struct PublishM {
    proto: Protocol,
    token: u64,
    state: PubState,
    head: u64,
    effect: Option<Effect>,
}

impl PublishM {
    /// Takes the side effect committed by the most recent step, if any.
    pub fn take_effect(&mut self) -> Option<Effect> {
        self.effect.take()
    }

    /// Performs one protocol step (at most one observable shared-memory
    /// operation).
    pub fn step<M: SwapMem>(&mut self, mem: &mut M) -> Step<PublishOut> {
        let lay = self.proto.lay;
        let cap = lay.capacity() as u64;
        match self.state {
            PubState::CheckClosed => {
                if mem.load(SlotLayout::CLOSED, MemOrd::Acquire) != 0 {
                    self.state = PubState::Finished;
                    return Step::Done(PublishOut::Closed);
                }
                self.state = PubState::LoadSeq;
                Step::Pending
            }
            PubState::LoadSeq => {
                // HEAD is written and read only by this (producer)
                // thread, so its load is unobservable and merged with
                // the seq load.
                self.head = mem.load(SlotLayout::HEAD, MemOrd::Acquire);
                let h = self.head;
                let seq = mem.load(lay.seq(lay.slot(h)), MemOrd::Acquire);
                if seq == seq_word(h, TAG_EMPTY) {
                    self.state = PubState::ClaimWrite;
                    return Step::Pending;
                }
                if h >= cap && seq == seq_word(h - cap, TAG_FULL) {
                    // Buffer full: the oldest lap of this slot has not
                    // been consumed yet.
                    return match self.proto.policy {
                        FullPolicy::Block => {
                            self.state = PubState::Finished;
                            Step::Done(PublishOut::MustWait)
                        }
                        FullPolicy::Overwrite => {
                            self.state = PubState::ClaimNewest;
                            Step::Pending
                        }
                    };
                }
                // READING on the previous lap: the consumer is
                // mid-claim and will write again (tail advance,
                // recycle) before finishing.
                self.state = PubState::Finished;
                Step::Done(PublishOut::Busy)
            }
            PubState::ClaimWrite => {
                // Plain store, not CAS: EMPTY slots at HEAD are claimed
                // only by the single producer thread (see module docs).
                let h = self.head;
                mem.store(lay.seq(lay.slot(h)), seq_word(h, TAG_WRITING), MemOrd::Release);
                self.state = PubState::WritePayload;
                Step::Pending
            }
            PubState::WritePayload => {
                mem.payload_write(lay.slot(self.head), self.token);
                self.state = PubState::PublishSlot;
                Step::Pending
            }
            PubState::PublishSlot => {
                let h = self.head;
                // HEAD advance merged with the publication store (HEAD
                // is producer-private, see module docs). The seq store
                // uses the profile's publication ordering — this is the
                // store the Relaxed-publish seeded bug weakens.
                mem.store(SlotLayout::HEAD, h + 1, MemOrd::Release);
                mem.store(
                    lay.seq(lay.slot(h)),
                    seq_word(h, TAG_FULL),
                    self.proto.profile.publish,
                );
                self.effect = Some(Effect::Published(self.token));
                self.state = PubState::Finished;
                Step::Done(PublishOut::Accepted { dropped: 0 })
            }
            PubState::ClaimNewest => {
                // Overwrite mode: reclaim the newest pending frame
                // (position head−1) via a generation-checked CAS — the
                // consumer may be claiming the same slot from the tail
                // side when capacity is 1.
                let q = self.head - 1;
                let loc = lay.seq(lay.slot(q));
                match mem.compare_exchange(
                    loc,
                    seq_word(q, TAG_FULL),
                    seq_word(q, TAG_WRITING),
                    MemOrd::AcqRel,
                    MemOrd::Acquire,
                ) {
                    Ok(_) => {
                        self.effect = Some(Effect::DroppedNewest);
                        self.state = PubState::OverwritePayload;
                        Step::Pending
                    }
                    Err(_) => {
                        // The newest frame was consumed meanwhile, so
                        // the buffer has space again: retake the fast
                        // path. (No park: the other thread may already
                        // be done writing.)
                        self.state = PubState::LoadSeq;
                        Step::Pending
                    }
                }
            }
            PubState::OverwritePayload => {
                // The old payload is replaced in place; the drop counter
                // bump is merged (the counter is monotonic statistics,
                // never part of a protocol decision).
                let q = self.head - 1;
                mem.fetch_add(SlotLayout::DROPS, 1, MemOrd::Relaxed);
                mem.payload_write(lay.slot(q), self.token);
                self.state = PubState::RepublishSlot;
                Step::Pending
            }
            PubState::RepublishSlot => {
                let q = self.head - 1;
                mem.store(
                    lay.seq(lay.slot(q)),
                    seq_word(q, TAG_FULL),
                    self.proto.profile.publish,
                );
                self.effect = Some(Effect::Published(self.token));
                self.state = PubState::Finished;
                Step::Done(PublishOut::Accepted { dropped: 1 })
            }
            PubState::Finished => Step::Done(PublishOut::Busy),
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum PopState {
    LoadTail,
    LoadSeq,
    Claim,
    ReadPayload,
    AdvanceTail,
    Recycle,
    CheckClosed,
    RecheckSeq,
    Finished,
}

/// Resumable pop machine. Step it until [`Step::Done`]; drain
/// [`PopM::take_effect`] after every step.
#[derive(Debug)]
pub struct PopM {
    proto: Protocol,
    state: PopState,
    tail: u64,
    token: Option<u64>,
    effect: Option<Effect>,
}

impl PopM {
    /// Takes the side effect committed by the most recent step, if any.
    pub fn take_effect(&mut self) -> Option<Effect> {
        self.effect.take()
    }

    /// Performs one protocol step (at most one observable shared-memory
    /// operation).
    pub fn step<M: SwapMem>(&mut self, mem: &mut M) -> Step<PopOut> {
        let lay = self.proto.lay;
        let cap = lay.capacity() as u64;
        match self.state {
            PopState::LoadTail => {
                self.tail = mem.load(SlotLayout::TAIL, MemOrd::Acquire);
                self.state = PopState::LoadSeq;
                Step::Pending
            }
            PopState::LoadSeq => {
                let t = self.tail;
                let seq = mem.load(lay.seq(lay.slot(t)), MemOrd::Acquire);
                if seq == seq_word(t, TAG_FULL) {
                    self.state = PopState::Claim;
                    Step::Pending
                } else if seq == seq_word(t, TAG_EMPTY) || seq == seq_word(t, TAG_WRITING) {
                    // Nothing published at the tail yet: decide between
                    // MustWait and Drained from the close flag.
                    self.state = PopState::CheckClosed;
                    Step::Pending
                } else if seq == seq_word(t, TAG_READING) {
                    // The priority flusher holds the claim and will
                    // write again before releasing it: wait for a write.
                    self.state = PopState::Finished;
                    Step::Done(PopOut::Busy)
                } else {
                    // Stale tail (the flusher advanced it): reload. No
                    // park — the flusher may already be done writing.
                    self.state = PopState::LoadTail;
                    Step::Pending
                }
            }
            PopState::Claim => {
                let t = self.tail;
                let loc = lay.seq(lay.slot(t));
                if self.proto.profile.claim_cas {
                    match mem.compare_exchange(
                        loc,
                        seq_word(t, TAG_FULL),
                        seq_word(t, TAG_READING),
                        MemOrd::AcqRel,
                        MemOrd::Acquire,
                    ) {
                        Ok(_) => {
                            self.effect = Some(Effect::PopClaimed);
                            self.state = PopState::ReadPayload;
                            Step::Pending
                        }
                        Err(_) => {
                            // Lost the claim race (priority flush):
                            // restart from a fresh tail.
                            self.state = PopState::LoadTail;
                            Step::Pending
                        }
                    }
                } else {
                    // Seeded bug 2: blind store instead of a
                    // generation-checked CAS — the flusher may have
                    // claimed and recycled this position since LoadSeq.
                    mem.store(loc, seq_word(t, TAG_READING), MemOrd::Release);
                    self.effect = Some(Effect::PopClaimed);
                    self.state = PopState::ReadPayload;
                    Step::Pending
                }
            }
            PopState::ReadPayload => {
                self.token = Some(mem.payload_read(lay.slot(self.tail)));
                self.state = PopState::AdvanceTail;
                Step::Pending
            }
            PopState::AdvanceTail => {
                mem.store(SlotLayout::TAIL, self.tail + 1, MemOrd::Release);
                self.state = PopState::Recycle;
                Step::Pending
            }
            PopState::Recycle => {
                let t = self.tail;
                mem.store(
                    lay.seq(lay.slot(t)),
                    seq_word(t + cap, TAG_EMPTY),
                    MemOrd::Release,
                );
                self.state = PopState::Finished;
                Step::Done(PopOut::Frame(self.token.unwrap_or(0)))
            }
            PopState::CheckClosed => {
                if mem.load(SlotLayout::CLOSED, MemOrd::Acquire) != 0 {
                    // Closed — but our earlier seq read may predate
                    // publishes that happened before the close. The
                    // acquire load above synchronises with the close
                    // store, so re-reading the seq word now is
                    // guaranteed to see every pre-close publish:
                    // `Drained` is exact when the producer closes its
                    // own queue.
                    self.state = PopState::RecheckSeq;
                    Step::Pending
                } else {
                    self.state = PopState::Finished;
                    Step::Done(PopOut::MustWait)
                }
            }
            PopState::RecheckSeq => {
                let t = self.tail;
                let seq = mem.load(lay.seq(lay.slot(t)), MemOrd::Acquire);
                if seq == seq_word(t, TAG_FULL) {
                    self.state = PopState::Claim;
                    Step::Pending
                } else if seq == seq_word(t, TAG_EMPTY) || seq == seq_word(t, TAG_WRITING) {
                    // Nothing (fully) published before the close. A
                    // WRITING word can only be a publish racing the
                    // close itself; its frame counts as queue remainder.
                    self.state = PopState::Finished;
                    Step::Done(PopOut::Drained)
                } else if seq == seq_word(t, TAG_READING) {
                    self.state = PopState::Finished;
                    Step::Done(PopOut::Busy)
                } else {
                    self.state = PopState::LoadTail;
                    Step::Pending
                }
            }
            PopState::Finished => Step::Done(PopOut::Busy),
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum PrState {
    CheckClosed,
    LoadTail,
    LoadSeq,
    Claim,
    Discard,
    AdvanceTail,
    Recycle,
    Publishing,
    Finished,
}

/// Resumable priority-publish machine: flushes every pending (obsolete)
/// frame from the tail, then publishes its own frame through an
/// embedded [`PublishM`]. Runs on the producer thread (see the module
/// threading contract) and never blocks — a `Busy` outcome hands the
/// accumulated [`PriorityM::flushed_so_far`] back to the driver, which
/// retries with a fresh machine.
#[derive(Debug)]
pub struct PriorityM {
    proto: Protocol,
    token: u64,
    state: PrState,
    tail: u64,
    flushed: usize,
    publish: Option<PublishM>,
    effect: Option<Effect>,
}

impl PriorityM {
    /// Frames flushed by this machine so far (survives a `Busy` exit so
    /// the driver can accumulate across restarts).
    #[must_use]
    pub(crate) fn flushed_so_far(&self) -> usize {
        self.flushed
    }

    /// Takes the side effect committed by the most recent step, if any.
    pub fn take_effect(&mut self) -> Option<Effect> {
        if let Some(e) = self.effect.take() {
            return Some(e);
        }
        self.publish.as_mut().and_then(PublishM::take_effect)
    }

    /// Performs one protocol step (at most one observable shared-memory
    /// operation).
    pub fn step<M: SwapMem>(&mut self, mem: &mut M) -> Step<PriorityOut> {
        let lay = self.proto.lay;
        let cap = lay.capacity() as u64;
        match self.state {
            PrState::CheckClosed => {
                if mem.load(SlotLayout::CLOSED, MemOrd::Acquire) != 0 {
                    self.state = PrState::Finished;
                    return Step::Done(PriorityOut::Closed);
                }
                self.state = PrState::LoadTail;
                Step::Pending
            }
            PrState::LoadTail => {
                self.tail = mem.load(SlotLayout::TAIL, MemOrd::Acquire);
                self.state = PrState::LoadSeq;
                Step::Pending
            }
            PrState::LoadSeq => {
                let t = self.tail;
                let seq = mem.load(lay.seq(lay.slot(t)), MemOrd::Acquire);
                if seq == seq_word(t, TAG_FULL) {
                    self.state = PrState::Claim;
                    Step::Pending
                } else if seq == seq_word(t, TAG_EMPTY) {
                    // Queue drained: publish our own frame.
                    self.publish = Some(self.proto.publish(self.token));
                    self.state = PrState::Publishing;
                    Step::Pending
                } else if seq == seq_word(t, TAG_READING) {
                    // Consumer mid-claim; it will write again (tail
                    // advance, recycle) before finishing.
                    self.state = PrState::Finished;
                    Step::Done(PriorityOut::Busy)
                } else {
                    // Stale tail (consumer advanced it) or a WRITING
                    // word from an unfinished lap: reload the tail.
                    self.state = PrState::LoadTail;
                    Step::Pending
                }
            }
            PrState::Claim => {
                let t = self.tail;
                let loc = lay.seq(lay.slot(t));
                match mem.compare_exchange(
                    loc,
                    seq_word(t, TAG_FULL),
                    seq_word(t, TAG_READING),
                    MemOrd::AcqRel,
                    MemOrd::Acquire,
                ) {
                    Ok(_) => {
                        self.effect = Some(Effect::FlushedOldest);
                        self.flushed += 1;
                        self.state = PrState::Discard;
                        Step::Pending
                    }
                    Err(_) => {
                        // The consumer claimed it first: restart from a
                        // fresh tail (no park — it may be done writing).
                        self.state = PrState::LoadTail;
                        Step::Pending
                    }
                }
            }
            PrState::Discard => {
                // Payload drop merged with the statistics counter bump
                // (the counter never feeds a protocol decision).
                let t = self.tail;
                mem.payload_discard(lay.slot(t));
                mem.fetch_add(SlotLayout::DROPS, 1, MemOrd::Relaxed);
                self.state = PrState::AdvanceTail;
                Step::Pending
            }
            PrState::AdvanceTail => {
                mem.store(SlotLayout::TAIL, self.tail + 1, MemOrd::Release);
                self.state = PrState::Recycle;
                Step::Pending
            }
            PrState::Recycle => {
                let t = self.tail;
                mem.store(
                    lay.seq(lay.slot(t)),
                    seq_word(t + cap, TAG_EMPTY),
                    MemOrd::Release,
                );
                // Keep flushing until the tail runs dry.
                self.state = PrState::LoadTail;
                Step::Pending
            }
            PrState::Publishing => {
                let out = match &mut self.publish {
                    Some(p) => p.step(mem),
                    None => Step::Done(PublishOut::Busy),
                };
                match out {
                    Step::Pending => Step::Pending,
                    Step::Done(PublishOut::Accepted { .. }) => {
                        self.state = PrState::Finished;
                        Step::Done(PriorityOut::Accepted {
                            flushed: self.flushed,
                        })
                    }
                    Step::Done(PublishOut::Closed) => {
                        self.state = PrState::Finished;
                        Step::Done(PriorityOut::Closed)
                    }
                    // MustWait cannot happen (we just drained the queue
                    // and we are the only publisher); treat it like
                    // Busy so a driver retry stays safe.
                    Step::Done(PublishOut::MustWait) | Step::Done(PublishOut::Busy) => {
                        self.state = PrState::Finished;
                        Step::Done(PriorityOut::Busy)
                    }
                }
            }
            PrState::Finished => Step::Done(PriorityOut::Busy),
        }
    }
}

/// The shared memory of a production queue: one cache-friendly array of
/// atomic control words plus `capacity` payload cells handed between
/// threads by the seq-word protocol.
struct Shared<T> {
    cells: Box<[AtomicU64]>,
    payload: Box<[UnsafeCell<Option<T>>]>,
}

// A payload cell is only ever accessed by the thread that currently
// holds its slot's claim (WRITING on the publish side, READING on the
// consume side); the claim hand-off happens through acquire/release
// operations on the slot's sequence word, which is what the odr-check
// atomics model verifies.
// SAFETY: slot claims serialize payload access; `T: Send` because frames move between threads.
unsafe impl<T: Send> Sync for Shared<T> {}

/// [`SwapMem`] over real atomics: the production memory. `stage` is the
/// frame in transit — publish moves it into the claimed slot, pop moves
/// the slot's frame out into it.
struct StdMem<'a, T> {
    shared: &'a Shared<T>,
    stage: Option<T>,
}

/// Maps the protocol's symbolic ordering onto the hardware one.
fn ord_of(ord: MemOrd) -> Ordering {
    match ord {
        MemOrd::Relaxed => Ordering::Relaxed,
        MemOrd::Acquire => Ordering::Acquire,
        MemOrd::Release => Ordering::Release,
        MemOrd::AcqRel => Ordering::AcqRel,
        MemOrd::SeqCst => Ordering::SeqCst,
    }
}

/// CAS failure orderings cannot be Release/AcqRel on real hardware.
fn load_ord_of(ord: MemOrd) -> Ordering {
    match ord {
        MemOrd::Relaxed => Ordering::Relaxed,
        MemOrd::Acquire | MemOrd::Release | MemOrd::AcqRel => Ordering::Acquire,
        MemOrd::SeqCst => Ordering::SeqCst,
    }
}

impl<T> SwapMem for StdMem<'_, T> {
    fn load(&mut self, loc: usize, ord: MemOrd) -> u64 {
        self.shared.cells[loc].load(ord_of(ord))
    }

    fn store(&mut self, loc: usize, val: u64, ord: MemOrd) {
        self.shared.cells[loc].store(val, ord_of(ord));
    }

    fn compare_exchange(
        &mut self,
        loc: usize,
        current: u64,
        new: u64,
        success: MemOrd,
        failure: MemOrd,
    ) -> Result<u64, u64> {
        self.shared.cells[loc].compare_exchange(current, new, ord_of(success), load_ord_of(failure))
    }

    fn fetch_add(&mut self, loc: usize, add: u64, ord: MemOrd) -> u64 {
        self.shared.cells[loc].fetch_add(add, ord_of(ord))
    }

    fn payload_write(&mut self, slot: usize, _token: u64) {
        // The protocol grants this thread exclusive access to the slot
        // while its seq word is WRITING (claimed above).
        // SAFETY: exclusive access while the seq word is WRITING.
        unsafe {
            *self.shared.payload[slot].get() = self.stage.take();
        }
    }

    fn payload_read(&mut self, slot: usize) -> u64 {
        // SAFETY: exclusive access while the seq word is READING.
        self.stage = unsafe { (*self.shared.payload[slot].get()).take() };
        0
    }

    fn payload_discard(&mut self, slot: usize) {
        // SAFETY: exclusive access while the seq word is READING.
        unsafe {
            *self.shared.payload[slot].get() = None;
        }
    }
}

/// Result of a blocking publish on [`AtomicSwap`], with the
/// observability facts the caller needs (drop count, whether it parked).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Published {
    /// `false` when the queue was closed (frame discarded).
    pub accepted: bool,
    /// Frames dropped by this publish (overwrite mode).
    pub dropped: u64,
    /// Whether the call parked on the space gate at least once.
    pub waited: bool,
}

/// The lock-free multi-buffer: the production driver around the
/// [`Protocol`] step machines. Overwrite mode never takes a lock;
/// blocking mode touches the [`Gate`] mutex only on the `MustWait`
/// edge. Single producer, single consumer; priority publishes must be
/// issued from the producer thread (see the module docs).
pub struct AtomicSwap<T> {
    proto: Protocol,
    shared: Shared<T>,
    /// Parked producers waiting for space (blocking mode only).
    gate_space: Gate,
    /// Parked consumers waiting for data.
    gate_data: Gate,
}

// All payload hand-off is mediated by the seq-word protocol; the gates
// are `Sync` by construction.
// SAFETY: see `Shared` — slot claims serialize payload access.
unsafe impl<T: Send> Sync for AtomicSwap<T> {}

impl<T> AtomicSwap<T> {
    /// Creates a queue of `capacity` slots with the given full policy.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize, policy: FullPolicy) -> Self {
        let proto = Protocol::new(capacity, policy);
        let lay = proto.layout();
        let cells = (0..lay.words())
            .map(|loc| AtomicU64::new(lay.initial(loc)))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        let payload = (0..capacity)
            .map(|_| UnsafeCell::new(None))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        AtomicSwap {
            proto,
            shared: Shared { cells, payload },
            gate_space: Gate::new(),
            gate_data: Gate::new(),
        }
    }

    fn mem(&self, stage: Option<T>) -> StdMem<'_, T> {
        StdMem {
            shared: &self.shared,
            stage,
        }
    }

    fn run_publish(&self, mem: &mut StdMem<'_, T>) -> PublishOut {
        let mut m = self.proto.publish(0);
        loop {
            if let Step::Done(out) = m.step(mem) {
                return out;
            }
        }
    }

    fn run_pop(&self, mem: &mut StdMem<'_, T>) -> PopOut {
        let mut m = self.proto.pop();
        loop {
            if let Step::Done(out) = m.step(mem) {
                return out;
            }
        }
    }

    /// Non-blocking publish. In overwrite mode this never returns
    /// `MustWait`; in blocking mode a full buffer hands the frame back.
    pub fn try_publish(&self, frame: T) -> TryPublish<T> {
        let mut mem = self.mem(Some(frame));
        loop {
            match self.run_publish(&mut mem) {
                PublishOut::Accepted { .. } => {
                    self.gate_data.signal_all();
                    return TryPublish::Accepted;
                }
                PublishOut::Closed => return TryPublish::Closed,
                PublishOut::MustWait => {
                    return match mem.stage.take() {
                        Some(frame) => TryPublish::MustWait(frame),
                        // Unreachable: MustWait never consumes the stage.
                        None => TryPublish::Closed,
                    };
                }
                PublishOut::Busy => std::hint::spin_loop(),
            }
        }
    }

    /// Publishes a frame, parking while the buffer is full (blocking
    /// mode). `on_first_wait` fires once, just before the first park —
    /// the observability hook for `wait_space` spans.
    pub(crate) fn publish_blocking_with(
        &self,
        frame: T,
        mut on_first_wait: impl FnMut(),
    ) -> Published {
        let mut mem = self.mem(Some(frame));
        let mut waited = false;
        loop {
            match self.run_publish(&mut mem) {
                PublishOut::Accepted { dropped } => {
                    self.gate_data.signal_all();
                    return Published {
                        accepted: true,
                        dropped,
                        waited,
                    };
                }
                PublishOut::Closed => {
                    return Published {
                        accepted: false,
                        dropped: 0,
                        waited,
                    };
                }
                PublishOut::Busy => std::hint::spin_loop(),
                PublishOut::MustWait => {
                    let seen = self.gate_space.prepare_wait();
                    // Recheck after registering as a waiter: either the
                    // consumer's signal sees us, or we see its pop.
                    match self.run_publish(&mut mem) {
                        PublishOut::Accepted { dropped } => {
                            self.gate_space.cancel_wait();
                            self.gate_data.signal_all();
                            return Published {
                                accepted: true,
                                dropped,
                                waited,
                            };
                        }
                        PublishOut::Closed => {
                            self.gate_space.cancel_wait();
                            return Published {
                                accepted: false,
                                dropped: 0,
                                waited,
                            };
                        }
                        PublishOut::Busy => self.gate_space.cancel_wait(),
                        PublishOut::MustWait => {
                            if !waited {
                                waited = true;
                                on_first_wait();
                            }
                            self.gate_space.park(seen);
                            self.gate_space.cancel_wait();
                        }
                    }
                }
            }
        }
    }

    /// Publishes a frame, parking while full. Returns `false` if the
    /// queue was closed (frame discarded).
    pub fn publish_blocking(&self, frame: T) -> bool {
        self.publish_blocking_with(frame, || {}).accepted
    }

    /// Pops the oldest frame, parking while the buffer is empty.
    /// Returns `(frame, waited)`; the frame is `None` once the queue is
    /// closed and drained. `on_first_wait` fires once, just before the
    /// first park — the observability hook for `wait_data` spans.
    pub(crate) fn pop_blocking_with(&self, mut on_first_wait: impl FnMut()) -> (Option<T>, bool) {
        let mut mem = self.mem(None);
        let mut waited = false;
        loop {
            match self.run_pop(&mut mem) {
                PopOut::Frame(_) => {
                    self.gate_space.signal_all();
                    return (mem.stage.take(), waited);
                }
                PopOut::Drained => return (None, waited),
                PopOut::Busy => std::hint::spin_loop(),
                PopOut::MustWait => {
                    let seen = self.gate_data.prepare_wait();
                    match self.run_pop(&mut mem) {
                        PopOut::Frame(_) => {
                            self.gate_data.cancel_wait();
                            self.gate_space.signal_all();
                            return (mem.stage.take(), waited);
                        }
                        PopOut::Drained => {
                            self.gate_data.cancel_wait();
                            return (None, waited);
                        }
                        PopOut::Busy => self.gate_data.cancel_wait(),
                        PopOut::MustWait => {
                            if !waited {
                                waited = true;
                                on_first_wait();
                            }
                            self.gate_data.park(seen);
                            self.gate_data.cancel_wait();
                        }
                    }
                }
            }
        }
    }

    /// Pops the oldest frame, parking while empty. `None` once closed
    /// and drained.
    pub fn pop_blocking(&self) -> Option<T> {
        self.pop_blocking_with(|| {}).0
    }

    /// Attempts to pop without parking.
    pub fn try_pop(&self) -> Option<T> {
        let mut mem = self.mem(None);
        loop {
            match self.run_pop(&mut mem) {
                PopOut::Frame(_) => {
                    self.gate_space.signal_all();
                    return mem.stage.take();
                }
                PopOut::Drained | PopOut::MustWait => return None,
                PopOut::Busy => std::hint::spin_loop(),
            }
        }
    }

    /// Non-blocking pop transition with the protocol's full vocabulary
    /// (what the differential test compares against the sequential
    /// specification step by step).
    pub fn try_pop_outcome(&self) -> TryPop<T> {
        let mut mem = self.mem(None);
        loop {
            match self.run_pop(&mut mem) {
                PopOut::Frame(_) => {
                    self.gate_space.signal_all();
                    return match mem.stage.take() {
                        Some(frame) => TryPop::Frame(frame),
                        // Unreachable: a claimed FULL slot always holds
                        // a frame.
                        None => TryPop::Drained,
                    };
                }
                PopOut::Drained => return TryPop::Drained,
                PopOut::MustWait => return TryPop::MustWait,
                PopOut::Busy => std::hint::spin_loop(),
            }
        }
    }

    /// Priority publish: flushes every pending frame, stores this one,
    /// never parks. Returns the flush count, `None` if closed. Must be
    /// called from the producer thread.
    pub fn publish_priority(&self, frame: T) -> Option<usize> {
        let mut mem = self.mem(Some(frame));
        let mut flushed = 0usize;
        loop {
            let mut m = self.proto.publish_priority(0);
            let out = loop {
                if let Step::Done(out) = m.step(&mut mem) {
                    break out;
                }
            };
            flushed += m.flushed_so_far();
            match out {
                PriorityOut::Accepted { .. } => {
                    self.gate_data.signal_all();
                    self.gate_space.signal_all();
                    return Some(flushed);
                }
                PriorityOut::Closed => return None,
                PriorityOut::Busy => std::hint::spin_loop(),
            }
        }
    }

    /// Closes the queue and wakes every parked thread.
    pub fn close(&self) {
        let mut mem = self.mem(None);
        self.proto.close(&mut mem);
        self.gate_data.signal_all();
        self.gate_space.signal_all();
    }

    /// Loads the scalar control word at `loc`. The scalar words occupy
    /// indices 0–3 of the `4 + capacity` control array, so the lookup
    /// never misses; a missing word reads as 0.
    fn word(&self, loc: usize) -> u64 {
        self.shared
            .cells
            .get(loc)
            .map_or(0, |w| w.load(Ordering::Acquire))
    }

    /// Returns `true` once [`AtomicSwap::close`] has been called.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.word(SlotLayout::CLOSED) != 0
    }

    /// Total frames dropped by overwrites or priority flushes.
    #[must_use]
    pub fn drops(&self) -> u64 {
        self.word(SlotLayout::DROPS)
    }

    /// Pending frame count. Advisory under concurrency: head and tail
    /// are loaded separately.
    #[must_use]
    pub fn len(&self) -> usize {
        let head = self.word(SlotLayout::HEAD);
        let tail = self.word(SlotLayout::TAIL);
        head.saturating_sub(tail) as usize
    }

    /// Returns `true` if no frames are pending (advisory, see
    /// [`AtomicSwap::len`]).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Queue capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.proto.layout().capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn spsc_transfers_all_frames_in_order() {
        let q = Arc::new(AtomicSwap::new(2, FullPolicy::Block));
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                for i in 0..10_000u32 {
                    assert!(q.publish_blocking(i));
                }
                q.close();
            })
        };
        let mut expected = 0u32;
        while let Some(v) = q.pop_blocking() {
            assert_eq!(v, expected);
            expected += 1;
        }
        assert_eq!(expected, 10_000);
        producer.join().expect("producer");
        assert_eq!(q.drops(), 0);
    }

    #[test]
    fn overwrite_mode_drops_newest_and_never_waits() {
        let q = AtomicSwap::new(1, FullPolicy::Overwrite);
        for i in 0..100u32 {
            let p = q.publish_blocking_with(i, || panic!("overwrite must not wait"));
            assert!(p.accepted);
        }
        assert_eq!(q.try_pop(), Some(99));
        assert_eq!(q.drops(), 99);
    }

    #[test]
    fn overwrite_spsc_pops_are_monotonic() {
        let q = Arc::new(AtomicSwap::new(1, FullPolicy::Overwrite));
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                for i in 0..50_000u64 {
                    assert!(q.publish_blocking(i));
                }
                q.close();
            })
        };
        let mut last = None;
        let mut received = 0u64;
        while let Some(v) = q.pop_blocking() {
            if let Some(prev) = last {
                assert!(v > prev, "pop went backwards: {prev} then {v}");
            }
            last = Some(v);
            received += 1;
        }
        producer.join().expect("producer");
        assert_eq!(received + q.drops(), 50_000);
    }

    #[test]
    fn close_unblocks_producer() {
        let q = Arc::new(AtomicSwap::new(1, FullPolicy::Block));
        assert!(q.publish_blocking(1u8));
        let blocked = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.publish_blocking(2))
        };
        thread::sleep(Duration::from_millis(50));
        q.close();
        assert!(
            !blocked.join().expect("thread"),
            "publish after close must fail"
        );
    }

    #[test]
    fn close_unblocks_consumer_after_drain() {
        let q = AtomicSwap::new(4, FullPolicy::Block);
        assert!(q.publish_blocking(1u8));
        q.close();
        assert_eq!(q.pop_blocking(), Some(1));
        assert_eq!(q.pop_blocking(), None);
    }

    #[test]
    fn priority_publish_flushes_obsolete() {
        let q = AtomicSwap::new(3, FullPolicy::Block);
        assert!(q.publish_blocking(1u8));
        assert!(q.publish_blocking(2));
        assert_eq!(q.publish_priority(99), Some(2));
        assert_eq!(q.try_pop(), Some(99));
        assert_eq!(q.try_pop(), None);
        assert_eq!(q.drops(), 2);
    }

    #[test]
    fn priority_races_consumer_without_loss() {
        // The flusher and the consumer fight over the oldest slot; every
        // frame must end up either received or counted as dropped.
        let q = Arc::new(AtomicSwap::new(2, FullPolicy::Block));
        let consumer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut received = 0u64;
                while q.pop_blocking().is_some() {
                    received += 1;
                }
                received
            })
        };
        let mut accepted = 0u64;
        for i in 0..20_000u32 {
            if i % 7 == 0 {
                if q.publish_priority(i).is_some() {
                    accepted += 1;
                }
            } else if q.publish_blocking(i) {
                accepted += 1;
            }
        }
        q.close();
        let received = consumer.join().expect("consumer");
        assert_eq!(received + q.drops(), accepted);
    }

    #[test]
    fn try_publish_hands_frame_back_when_full() {
        let q = AtomicSwap::new(1, FullPolicy::Block);
        assert_eq!(q.try_publish(1u8), TryPublish::Accepted);
        assert_eq!(q.try_publish(2), TryPublish::MustWait(2));
        assert_eq!(q.try_pop(), Some(1));
        assert_eq!(q.try_publish(2), TryPublish::Accepted);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn seq_word_encoding_round_trips() {
        let lay = SlotLayout::new(3);
        assert_eq!(lay.words(), 7);
        assert_eq!(lay.slot(7), 1);
        assert_eq!(lay.initial(lay.seq(2)), seq_word(2, TAG_EMPTY));
        assert_eq!(seq_word(5, TAG_FULL), 22);
    }
}

