//! `odr-check`: in-repo correctness tooling for the ODR simulator.
//!
//! One entry point (`cargo run -p odr-check`), several layers:
//!
//! * [`lex`] / [`items`] — a std-only Rust lexer (strings, raw strings,
//!   char literals, nested block comments) and a lightweight item
//!   extractor; every analysis pass is built on these, so no rule ever
//!   fires inside a string literal or comment;
//! * [`lint`] — the driver and the per-file rules: the time-unit suffix
//!   audit (see `DESIGN.md` §7 for the catalogue and
//!   each rule's invariant, `odr-check.allow` for the suppression
//!   format);
//! * [`locks`] — the lock-discipline pass: guard-scope tracking over the
//!   blocking runtime modules, flagging blocking calls made while a lock
//!   guard is live;
//! * [`graph`] / [`mir`] — the intra-workspace call graph: the item
//!   extractor's functions as nodes, and as edges the calls rustc's MIR
//!   of every target makes between them, the base layer of the taint,
//!   effect and lock passes;
//! * [`atomics`] — the atomics-discipline pass: publication-store
//!   ordering, acquire/release pairing and `static mut` bans;
//! * [`taint`] — the determinism pass: nondeterminism sources (wall
//!   clock, sleeps, OS entropy, hash iteration order, thread identity,
//!   environment) and the real-time layer, forbidden to pure-sim code
//!   through any chain of calls;
//! * [`effects`] — the whole-program effect analysis: per-function
//!   panic/alloc/blocking classification propagated over the call
//!   graph, enforced against the `hotpaths.txt` hot-root manifest,
//!   serialized into the committed `effect-surface.txt` snapshot, and
//!   read by the lock pass for calls made under a guard;
//! * [`api`] — the API surface: every `pub` item in the workspace
//!   rendered into a sorted, byte-deterministic `api-surface.txt`, and
//!   the `api/unused-pub` rule that flags a `pub` item nothing outside
//!   its crate uses;
//! * [`snapshot`] — the one check / update / print-drift mechanism both
//!   committed snapshots (`api-surface.txt`, `effect-surface.txt`) use;
//! * [`amodel`] — the swap-protocol model checker: a virtual memory of
//!   per-location message histories with acquire/release view
//!   propagation and a virtual eventcount, exhaustively exploring the
//!   real [`odr_core::atomic_swap`] step machines and the blocking
//!   driver's register → recheck → park wait edge, asserting the paper's
//!   multi-buffer semantics (no deadlock, no lost wake-up, no
//!   reordering, conservation, bounded occupancy) — so an under-ordered
//!   publication surfaces as a torn pop and a broken wait edge as a
//!   deadlock, each with a replayable trace.

#![allow(clippy::disallowed_types, reason = "a tool outside the layering")]

pub mod amodel;
pub mod api;
pub mod atomics;
pub mod effects;
pub mod graph;
mod items;
mod lex;
pub mod lint;
pub mod locks;
pub mod mir;
pub mod snapshot;
pub mod taint;
