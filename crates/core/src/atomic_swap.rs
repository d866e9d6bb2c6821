//! Lock-free multi-buffer swap path: the paper's front/back pair as one
//! slot handed between two threads through one state word.
//!
//! This module is the engine under [`crate::sync_queue`], in both
//! full-buffer policies. At most one frame waits in the buffer while the
//! consumer works on the other, as in the paper's front/back pair, and
//! that is decided here, once: the shared state is the close flag, the
//! drop counter and one *state word* holding the slot's tag. The producer
//! claims the `EMPTY` slot, writes the payload and releases the word as
//! `FULL`; the consumer claims a `FULL` word with a CAS (`READING`),
//! reads the payload and recycles the word as `EMPTY`. Only the producer
//! writes `FULL`, and every claim of a `FULL` word is a CAS taken before
//! the payload is touched, so a claim takes the frame pending at its CAS
//! even when the word was read before an overwrite, or before a flush
//! and republish: the tag alone is enough.
//! Overwrite mode is fully lock-free; blocking mode keeps a condvar only
//! on the `MustWait` edge (the [`Gate`] eventcount), exactly where the
//! paper's convergence argument needs the producer to pause.
//!
//! # One copy of the truth
//!
//! Every protocol transition is written as an explicit, resumable *step
//! machine* ([`PublishM`], [`PopM`], [`PriorityM`]) generic over
//! [`SwapMem`], the abstract shared memory. Two implementations exist:
//!
//! * [`AtomicSwap`] runs the machines over real `AtomicU64`s and an
//!   `UnsafeCell` payload slot (production);
//! * the `odr-check` atomics-aware model checker runs the *same*
//!   machines over a virtual memory with message histories and
//!   acquire/release view propagation, exploring every bounded
//!   interleaving of the individual steps.
//!
//! Each `step()` call performs at most one *observable* shared-memory
//! operation, so the checker's interleavings are exactly the hardware's.
//!
//! # Threading contract
//!
//! Single producer, single consumer. Priority publishes run on the
//! *producer* thread (in the runtime the 3D-app thread performs both
//! normal and priority publishes), so only one thread ever fills the
//! slot: an `EMPTY` word is claimed with a plain store instead of a CAS,
//! and a priority publish that has flushed the pending frame finds the
//! slot still empty when it fills it.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::gate::Gate;
use crate::queue::FullPolicy;
use crate::swap::{TryPop, TryPublish};

/// The state word's tags: the slot is empty, being filled by the
/// producer, holding a published frame, or claimed by a consumer or a
/// flush.
const EMPTY: u64 = 0;
const WRITING: u64 = 1;
const FULL: u64 = 2;
const READING: u64 = 3;

/// The swap's control words. Each starts at 0: open, nothing dropped,
/// the slot `EMPTY`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Word {
    /// The close flag (0 open, 1 closed).
    Closed,
    /// Frames dropped by overwrites or priority flushes. It is
    /// statistics: no protocol decision reads it.
    Drops,
    /// The slot's state: one of the tags.
    State,
}

/// Number of control words (the [`Word`] variants).
pub const WORDS: usize = 3;

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

/// The abstract shared memory the swap protocol runs against: the
/// atomic `u64` control [`Word`]s plus the one payload slot.
/// Implemented by the production [`AtomicSwap`] driver (real atomics)
/// and by the `odr-check` virtual memory (message histories with
/// acquire/release views).
pub trait SwapMem {
    /// Atomically loads control word `word`.
    fn load(&mut self, word: Word, ord: MemOrd) -> u64;
    /// Atomically stores `val` into control word `word`.
    fn store(&mut self, word: Word, val: u64, ord: MemOrd);
    /// Atomic compare-and-exchange on control word `word`:
    /// `Ok(previous)` when `previous == current` (the store happened),
    /// `Err(actual)` otherwise.
    fn compare_exchange(
        &mut self,
        word: Word,
        current: u64,
        new: u64,
        success: MemOrd,
        failure: MemOrd,
    ) -> Result<u64, u64>;
    /// Atomic fetch-add on control word `word`; returns the previous
    /// value.
    fn fetch_add(&mut self, word: Word, add: u64, ord: MemOrd) -> u64;
    /// Moves the staged frame into the payload slot. `token` identifies
    /// the frame to the model checker's ghost state; the production
    /// driver ignores it.
    fn payload_write(&mut self, token: u64);
    /// Moves the payload slot into the staging area, returning the token
    /// last written there (the model may return a *stale* token when the
    /// slot's publication was insufficiently ordered).
    fn payload_read(&mut self) -> u64;
    /// Drops the frame in the payload slot (priority flush).
    fn payload_discard(&mut self);
}

/// The memory orderings the protocol publishes frames with. The shipped
/// profile is the proven one; the other constructors *seed* classic
/// lock-free bugs for the model-checker regression corpus — they are
/// never used by production constructors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OrderingProfile {
    /// Ordering of the store that flips the state word to `FULL` (the
    /// publication store). Shipped: `Release`. The seeded bug uses
    /// `Relaxed`, making a torn (stale) payload read observable on the
    /// consumer side.
    pub publish: MemOrd,
    /// Whether the consumer claims a `FULL` word with a CAS. Shipped:
    /// `true`. The seeded bug claims with a blind store, which neither
    /// checks that the word is still `FULL` nor acquires the publish
    /// that made it so: racing the overwriting producer, the consumer
    /// reads the payload of the frame the overwrite dropped.
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
    /// a CAS, racing the overwriting producer.
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
    /// Overwrite mode reclaimed the pending frame.
    DroppedNewest,
    /// The priority flusher claimed the pending frame.
    FlushedOldest,
    /// The consumer claimed the pending frame.
    PopClaimed,
}

/// Outcome of a publish machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PublishOut {
    /// Frame stored; `dropped` is 1 if it replaced the pending frame
    /// (overwrite mode), else 0. Drivers signal "data".
    Accepted {
        /// Frames dropped by this publish (0 or 1).
        dropped: u64,
    },
    /// Queue closed; the frame was discarded.
    Closed,
    /// Blocking mode, buffer full: park on the space gate, then retry
    /// with a fresh machine.
    MustWait,
    /// The consumer is mid-claim on the slot: spin (or, in the model,
    /// wait for any write) and retry with a fresh machine.
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
    /// Flushed `flushed` obsolete frames (0 or 1) and stored this one.
    /// Drivers signal both gates.
    Accepted {
        /// Pending frames discarded before the store.
        flushed: usize,
    },
    /// Queue closed; the frame was discarded.
    Closed,
    /// The consumer is mid-claim on the frame we want to flush:
    /// spin/wait-for-write, then retry with a fresh machine. Priority
    /// never blocks.
    Busy,
}

/// The protocol configuration shared by every machine: the full policy
/// and the ordering profile under test.
#[derive(Clone, Copy, Debug)]
pub struct Protocol {
    policy: FullPolicy,
    profile: OrderingProfile,
}

impl Protocol {
    /// Production protocol: shipped orderings.
    #[must_use]
    pub fn new(policy: FullPolicy) -> Self {
        Protocol::with_profile(policy, OrderingProfile::shipped())
    }

    /// Protocol with an explicit ordering profile (model-checker
    /// regression fixtures use the seeded-bug profiles).
    #[must_use]
    pub fn with_profile(policy: FullPolicy, profile: OrderingProfile) -> Self {
        Protocol { policy, profile }
    }

    /// Starts a publish of the frame identified by `token`.
    #[must_use]
    pub fn publish(&self, token: u64) -> PublishM {
        PublishM {
            proto: *self,
            token,
            state: PubState::CheckClosed,
            dropped: 0,
            effect: None,
        }
    }

    /// Starts a pop.
    #[must_use]
    pub fn pop(&self) -> PopM {
        PopM {
            proto: *self,
            state: PopState::LoadState,
            closed: false,
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
            flushed: 0,
            publish: None,
            effect: None,
        }
    }

    /// Closes the queue: a single sequentially consistent store. The
    /// driver must wake all waiters on both gates afterwards.
    pub fn close<M: SwapMem>(&self, mem: &mut M) {
        mem.store(Word::Closed, 1, MemOrd::SeqCst);
    }
}

#[derive(Clone, Copy, Debug)]
enum PubState {
    CheckClosed,
    LoadState,
    ClaimWrite,
    ClaimNewest,
    WritePayload,
    PublishSlot,
    Finished,
}

/// Resumable publish machine. Step it until [`Step::Done`]; drain
/// [`PublishM::take_effect`] after every step.
#[derive(Debug)]
pub struct PublishM {
    proto: Protocol,
    token: u64,
    state: PubState,
    /// 1 once the claim reclaimed a pending frame (overwrite mode).
    dropped: u64,
    effect: Option<Effect>,
}

impl PublishM {
    /// Takes the side effect committed by the most recent step, if any.
    pub fn take_effect(&mut self) -> Option<Effect> {
        self.effect.take()
    }

    /// Acts on a state word just read (by a load or a failed claim).
    fn observe(&mut self, word: u64) -> Step<PublishOut> {
        match word {
            EMPTY => {
                self.state = PubState::ClaimWrite;
                Step::Pending
            }
            FULL => match self.proto.policy {
                FullPolicy::Block => {
                    self.state = PubState::Finished;
                    Step::Done(PublishOut::MustWait)
                }
                FullPolicy::Overwrite => {
                    self.state = PubState::ClaimNewest;
                    Step::Pending
                }
            },
            // READING: the consumer is mid-claim and will write again
            // (the recycle) before finishing. WRITING is only ever this
            // thread's own and is never read here.
            _ => {
                self.state = PubState::Finished;
                Step::Done(PublishOut::Busy)
            }
        }
    }

    /// Performs one protocol step (at most one observable shared-memory
    /// operation).
    pub fn step<M: SwapMem>(&mut self, mem: &mut M) -> Step<PublishOut> {
        match self.state {
            PubState::CheckClosed => {
                if mem.load(Word::Closed, MemOrd::Acquire) != 0 {
                    self.state = PubState::Finished;
                    return Step::Done(PublishOut::Closed);
                }
                self.state = PubState::LoadState;
                Step::Pending
            }
            PubState::LoadState => {
                let word = mem.load(Word::State, MemOrd::Acquire);
                self.observe(word)
            }
            PubState::ClaimWrite => {
                // Plain store, not CAS: only the single producer thread
                // fills the slot (see module docs).
                mem.store(Word::State, WRITING, MemOrd::Release);
                self.state = PubState::WritePayload;
                Step::Pending
            }
            PubState::ClaimNewest => {
                // Overwrite mode: reclaim the pending frame via a CAS —
                // the consumer may be claiming it at the same time.
                match mem.compare_exchange(
                    Word::State,
                    FULL,
                    WRITING,
                    MemOrd::AcqRel,
                    MemOrd::Acquire,
                ) {
                    Ok(_) => {
                        self.effect = Some(Effect::DroppedNewest);
                        self.dropped = 1;
                        self.state = PubState::WritePayload;
                        Step::Pending
                    }
                    // The pending frame was claimed meanwhile: act on
                    // what the consumer left (no park: it may already
                    // be done writing).
                    Err(word) => self.observe(word),
                }
            }
            PubState::WritePayload => {
                // An overwrite replaces the old payload in place; its
                // drop counter bump is merged (the counter is monotonic
                // statistics, never part of a protocol decision).
                if self.dropped > 0 {
                    mem.fetch_add(Word::Drops, 1, MemOrd::Relaxed);
                }
                mem.payload_write(self.token);
                self.state = PubState::PublishSlot;
                Step::Pending
            }
            PubState::PublishSlot => {
                // The publication store: the profile's ordering, which
                // the Relaxed-publish seeded bug weakens.
                mem.store(Word::State, FULL, self.proto.profile.publish);
                self.effect = Some(Effect::Published(self.token));
                self.state = PubState::Finished;
                Step::Done(PublishOut::Accepted {
                    dropped: self.dropped,
                })
            }
            PubState::Finished => Step::Done(PublishOut::Busy),
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum PopState {
    LoadState,
    Claim,
    ReadPayload,
    Recycle,
    CheckClosed,
    Finished,
}

/// Resumable pop machine. Step it until [`Step::Done`]; drain
/// [`PopM::take_effect`] after every step.
#[derive(Debug)]
pub struct PopM {
    proto: Protocol,
    state: PopState,
    /// The close flag was seen set: an empty slot now means drained.
    closed: bool,
    token: Option<u64>,
    effect: Option<Effect>,
}

impl PopM {
    /// Takes the side effect committed by the most recent step, if any.
    pub fn take_effect(&mut self) -> Option<Effect> {
        self.effect.take()
    }

    /// Acts on a state word just read (by a load or a failed claim).
    fn observe(&mut self, word: u64) -> Step<PopOut> {
        match word {
            FULL => {
                self.state = PopState::Claim;
                Step::Pending
            }
            // Nothing (fully) published. Before the close flag was seen
            // set, decide between MustWait and Drained from it; after,
            // the queue is drained — a WRITING word can only be a
            // publish racing the close itself, and its frame counts as
            // queue remainder.
            EMPTY | WRITING if self.closed => {
                self.state = PopState::Finished;
                Step::Done(PopOut::Drained)
            }
            EMPTY | WRITING => {
                self.state = PopState::CheckClosed;
                Step::Pending
            }
            // READING: the priority flusher holds the claim and will
            // write again before releasing it: wait for a write.
            _ => {
                self.state = PopState::Finished;
                Step::Done(PopOut::Busy)
            }
        }
    }

    /// Performs one protocol step (at most one observable shared-memory
    /// operation).
    pub fn step<M: SwapMem>(&mut self, mem: &mut M) -> Step<PopOut> {
        match self.state {
            PopState::LoadState => {
                let word = mem.load(Word::State, MemOrd::Acquire);
                self.observe(word)
            }
            PopState::Claim => {
                if self.proto.profile.claim_cas {
                    match mem.compare_exchange(
                        Word::State,
                        FULL,
                        READING,
                        MemOrd::AcqRel,
                        MemOrd::Acquire,
                    ) {
                        Ok(_) => {
                            self.effect = Some(Effect::PopClaimed);
                            self.state = PopState::ReadPayload;
                            Step::Pending
                        }
                        // Lost the claim race (priority flush or
                        // overwrite): act on what the winner left.
                        Err(word) => self.observe(word),
                    }
                } else {
                    // Seeded bug 2: blind store instead of a CAS — the
                    // producer may have reclaimed the slot since the
                    // word was read.
                    mem.store(Word::State, READING, MemOrd::Release);
                    self.effect = Some(Effect::PopClaimed);
                    self.state = PopState::ReadPayload;
                    Step::Pending
                }
            }
            PopState::ReadPayload => {
                self.token = Some(mem.payload_read());
                self.state = PopState::Recycle;
                Step::Pending
            }
            PopState::Recycle => {
                mem.store(Word::State, EMPTY, MemOrd::Release);
                self.state = PopState::Finished;
                Step::Done(PopOut::Frame(self.token.unwrap_or(0)))
            }
            PopState::CheckClosed => {
                if mem.load(Word::Closed, MemOrd::Acquire) != 0 {
                    // Closed — but the state word read earlier may
                    // predate publishes that happened before the close.
                    // The acquire load above synchronises with the close
                    // store, so re-reading the state word now sees every
                    // pre-close publish: `Drained` is exact when the
                    // producer closes its own queue.
                    self.closed = true;
                    self.state = PopState::LoadState;
                    Step::Pending
                } else {
                    self.state = PopState::Finished;
                    Step::Done(PopOut::MustWait)
                }
            }
            PopState::Finished => Step::Done(PopOut::Busy),
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum PrState {
    CheckClosed,
    LoadState,
    Claim,
    Discard,
    Recycle,
    Publishing,
    Finished,
}

/// Resumable priority-publish machine: flushes the pending (obsolete)
/// frame, if any, then publishes its own frame through an embedded
/// [`PublishM`]. Runs on the producer thread (see the module threading
/// contract) and never blocks — a `Busy` outcome, which comes before any
/// flush, sends the driver round again with a fresh machine.
#[derive(Debug)]
pub struct PriorityM {
    proto: Protocol,
    token: u64,
    state: PrState,
    flushed: usize,
    publish: Option<PublishM>,
    effect: Option<Effect>,
}

impl PriorityM {
    /// Takes the side effect committed by the most recent step, if any.
    pub fn take_effect(&mut self) -> Option<Effect> {
        if let Some(e) = self.effect.take() {
            return Some(e);
        }
        self.publish.as_mut().and_then(PublishM::take_effect)
    }

    /// Hands over to the embedded publish of this machine's own frame.
    fn start_publish(&mut self) -> Step<PriorityOut> {
        self.publish = Some(self.proto.publish(self.token));
        self.state = PrState::Publishing;
        Step::Pending
    }

    /// Acts on a state word just read (by a load or a failed claim).
    fn observe(&mut self, word: u64) -> Step<PriorityOut> {
        match word {
            FULL => {
                self.state = PrState::Claim;
                Step::Pending
            }
            // Nothing pending: publish our own frame.
            EMPTY => self.start_publish(),
            // READING: the consumer is mid-claim and will write again
            // (the recycle) before finishing. WRITING is only ever this
            // thread's own and is never read here.
            _ => {
                self.state = PrState::Finished;
                Step::Done(PriorityOut::Busy)
            }
        }
    }

    /// Performs one protocol step (at most one observable shared-memory
    /// operation).
    pub fn step<M: SwapMem>(&mut self, mem: &mut M) -> Step<PriorityOut> {
        match self.state {
            PrState::CheckClosed => {
                if mem.load(Word::Closed, MemOrd::Acquire) != 0 {
                    self.state = PrState::Finished;
                    return Step::Done(PriorityOut::Closed);
                }
                self.state = PrState::LoadState;
                Step::Pending
            }
            PrState::LoadState => {
                let word = mem.load(Word::State, MemOrd::Acquire);
                self.observe(word)
            }
            PrState::Claim => {
                match mem.compare_exchange(
                    Word::State,
                    FULL,
                    READING,
                    MemOrd::AcqRel,
                    MemOrd::Acquire,
                ) {
                    Ok(_) => {
                        self.effect = Some(Effect::FlushedOldest);
                        self.flushed += 1;
                        self.state = PrState::Discard;
                        Step::Pending
                    }
                    // The consumer claimed it first: act on what it
                    // left (no park — it may be done writing).
                    Err(word) => self.observe(word),
                }
            }
            PrState::Discard => {
                // Payload drop merged with the statistics counter bump
                // (the counter never feeds a protocol decision).
                mem.payload_discard();
                mem.fetch_add(Word::Drops, 1, MemOrd::Relaxed);
                self.state = PrState::Recycle;
                Step::Pending
            }
            PrState::Recycle => {
                mem.store(Word::State, EMPTY, MemOrd::Release);
                // The slot stays empty until this thread fills it: only
                // the producer publishes.
                self.start_publish()
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
                    // MustWait and Busy cannot happen (the slot is empty
                    // and we are the only publisher); treat them like
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

/// The shared memory of a production queue: the control words plus the
/// payload cell handed between threads by the state-word protocol.
struct Shared<T> {
    closed: AtomicU64,
    drops: AtomicU64,
    state: AtomicU64,
    payload: UnsafeCell<Option<T>>,
}

impl<T> Shared<T> {
    fn atomic(&self, word: Word) -> &AtomicU64 {
        match word {
            Word::Closed => &self.closed,
            Word::Drops => &self.drops,
            Word::State => &self.state,
        }
    }
}

// The payload cell is only ever accessed by the thread that currently
// holds the slot's claim (WRITING on the publish side, READING on the
// consume side); the claim hand-off happens through acquire/release
// operations on the state word, which is what the odr-check atomics
// model verifies.
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
    fn load(&mut self, word: Word, ord: MemOrd) -> u64 {
        self.shared.atomic(word).load(ord_of(ord))
    }

    fn store(&mut self, word: Word, val: u64, ord: MemOrd) {
        self.shared.atomic(word).store(val, ord_of(ord));
    }

    fn compare_exchange(
        &mut self,
        word: Word,
        current: u64,
        new: u64,
        success: MemOrd,
        failure: MemOrd,
    ) -> Result<u64, u64> {
        self.shared.atomic(word).compare_exchange(
            current,
            new,
            ord_of(success),
            load_ord_of(failure),
        )
    }

    fn fetch_add(&mut self, word: Word, add: u64, ord: MemOrd) -> u64 {
        self.shared.atomic(word).fetch_add(add, ord_of(ord))
    }

    fn payload_write(&mut self, _token: u64) {
        // The protocol grants this thread exclusive access to the slot
        // while the state word is WRITING (claimed above).
        // SAFETY: exclusive access while the state word is WRITING.
        unsafe {
            *self.shared.payload.get() = self.stage.take();
        }
    }

    fn payload_read(&mut self) -> u64 {
        // SAFETY: exclusive access while the state word is READING.
        self.stage = unsafe { (*self.shared.payload.get()).take() };
        0
    }

    fn payload_discard(&mut self) {
        // SAFETY: exclusive access while the state word is READING.
        unsafe {
            *self.shared.payload.get() = None;
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

// All payload hand-off is mediated by the state-word protocol; the gates
// are `Sync` by construction.
// SAFETY: see `Shared` — slot claims serialize payload access.
unsafe impl<T: Send> Sync for AtomicSwap<T> {}

impl<T> AtomicSwap<T> {
    /// Creates the one-slot multi-buffer with the given full policy.
    #[must_use]
    pub fn new(policy: FullPolicy) -> Self {
        AtomicSwap {
            proto: Protocol::new(policy),
            shared: Shared {
                closed: AtomicU64::new(0),
                drops: AtomicU64::new(0),
                state: AtomicU64::new(EMPTY),
                payload: UnsafeCell::new(None),
            },
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

    /// Pops the pending frame, parking while the buffer is empty.
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

    /// Pops the pending frame, parking while empty. `None` once closed
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

    /// Priority publish: flushes the pending frame, stores this one,
    /// never parks. Returns the flush count (0 or 1), `None` if closed.
    /// Must be called from the producer thread.
    pub fn publish_priority(&self, frame: T) -> Option<usize> {
        let mut mem = self.mem(Some(frame));
        loop {
            let mut m = self.proto.publish_priority(0);
            let out = loop {
                if let Step::Done(out) = m.step(&mut mem) {
                    break out;
                }
            };
            match out {
                PriorityOut::Accepted { flushed } => {
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

    /// Loads control word `word`.
    fn word(&self, word: Word) -> u64 {
        self.shared.atomic(word).load(Ordering::Acquire)
    }

    /// Returns `true` once [`AtomicSwap::close`] has been called.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.word(Word::Closed) != 0
    }

    /// Total frames dropped by overwrites or priority flushes.
    #[must_use]
    pub fn drops(&self) -> u64 {
        self.word(Word::Drops)
    }

    /// Pending frame count: 1 while a published frame waits in the slot
    /// unclaimed, else 0. Advisory under concurrency.
    #[must_use]
    pub fn len(&self) -> usize {
        usize::from(self.word(Word::State) == FULL)
    }

    /// Returns `true` if no frame is pending (advisory, see
    /// [`AtomicSwap::len`]).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
        let q = Arc::new(AtomicSwap::new(FullPolicy::Block));
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
        let q = AtomicSwap::new(FullPolicy::Overwrite);
        for i in 0..100u32 {
            let p = q.publish_blocking_with(i, || panic!("overwrite must not wait"));
            assert!(p.accepted);
        }
        assert_eq!(q.try_pop(), Some(99));
        assert_eq!(q.drops(), 99);
    }

    #[test]
    fn overwrite_spsc_pops_are_monotonic() {
        let q = Arc::new(AtomicSwap::new(FullPolicy::Overwrite));
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
        let q = Arc::new(AtomicSwap::new(FullPolicy::Block));
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
        let q = AtomicSwap::new(FullPolicy::Block);
        assert!(q.publish_blocking(1u8));
        q.close();
        assert_eq!(q.pop_blocking(), Some(1));
        assert_eq!(q.pop_blocking(), None);
    }

    #[test]
    fn priority_publish_flushes_obsolete() {
        let q = AtomicSwap::new(FullPolicy::Block);
        assert!(q.publish_blocking(1u8));
        assert_eq!(q.publish_priority(99), Some(1));
        assert_eq!(q.try_pop(), Some(99));
        assert_eq!(q.try_pop(), None);
        assert_eq!(q.publish_priority(100), Some(0));
        assert_eq!(q.drops(), 1);
    }

    #[test]
    fn priority_races_consumer_without_loss() {
        // The flusher and the consumer fight over the pending frame;
        // every frame must end up either received or counted as dropped.
        let q = Arc::new(AtomicSwap::new(FullPolicy::Block));
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
        let q = AtomicSwap::new(FullPolicy::Block);
        assert_eq!(q.try_publish(1u8), TryPublish::Accepted);
        assert_eq!(q.try_publish(2), TryPublish::MustWait(2));
        assert_eq!(q.try_pop(), Some(1));
        assert_eq!(q.try_publish(2), TryPublish::Accepted);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn every_completed_call_leaves_the_slot_empty_or_full() {
        let q = AtomicSwap::new(FullPolicy::Overwrite);
        assert_eq!(q.word(Word::State), EMPTY);
        assert!(q.publish_blocking(1u8));
        assert_eq!(q.word(Word::State), FULL, "publish");
        assert!(q.publish_blocking(2));
        assert_eq!(q.word(Word::State), FULL, "overwrite");
        assert_eq!(q.try_pop(), Some(2));
        assert_eq!(q.word(Word::State), EMPTY, "pop");
        assert_eq!(q.publish_priority(3), Some(0));
        assert_eq!(q.word(Word::State), FULL, "priority on an empty slot");
        assert_eq!(q.publish_priority(4), Some(1));
        assert_eq!(q.word(Word::State), FULL, "priority flush and publish");
        assert_eq!(q.try_pop(), Some(4));
        assert_eq!(q.word(Word::State), EMPTY, "pop after a flush");
        assert_eq!(q.drops(), 2);
    }
}
