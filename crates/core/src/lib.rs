//! OnDemand Rendering (ODR): the paper's core mechanisms, plus the baseline
//! FPS regulators it is evaluated against.
//!
//! ODR (EuroSys'24) regulates the frame rate of a cloud 3D pipeline with
//! three cooperating mechanisms:
//!
//! 1. **Multi-buffering** ([`FrameQueue`], [`SyncQueue`]) — bounded
//!    front/back frame buffers between the 3D application and the server
//!    proxy (Mul-Buf1) and between the proxy and the network (Mul-Buf2).
//!    Producers *block* on a full buffer instead of overwriting, so every
//!    stage naturally paces itself to the slowest stage without collecting
//!    any timing feedback.
//! 2. **FPS regulation** ([`FpsRegulator`], the paper's Algorithm 1) — an
//!    accumulated-delay pacing loop in the proxy that sleeps when encoding
//!    runs ahead of the target interval and — unlike prior regulators —
//!    *accelerates* (runs back-to-back) when behind, so the target is met
//!    over every small window despite processing-time spikes. The proxy
//!    loop around it is the step machine [`ProxyCycle`].
//! 3. **PriorityFrame** — frames triggered by user inputs cancel the
//!    rendering delay, flush obsolete buffered frames, and skip the
//!    regulator sleep, keeping motion-to-photon latency low. The
//!    application loop that decides it, with pacing and the room rule, is
//!    the step machine [`AppCycle`].
//!
//! The baselines the paper compares against live here too, so that the
//! simulator and the real-time runtime share one implementation:
//! interval-based regulation (the crate-private `IntervalPacer`), its
//! FPS-maximising adaptive variant ([`AdaptiveIntervalPacer`]), and
//! Remote VSync ([`RvsRegulator`]).
//!
//! Everything in this crate is expressed over [`odr_simtime::SimTime`] and
//! plain state machines, so the same code drives both the discrete-event
//! simulator (`odr-pipeline`) and the real-thread runtime (`odr-runtime`,
//! via [`SyncQueue`]).

/// The application loop's step machine: pacing, ODR's room rule and
/// PriorityFrame.
mod app;
/// The old name of [`odr_simtime::EventQueue`], for the benchmark.
pub mod arena;
/// The multi-buffer swap engine: a lock-free one-slot exchange through
/// one tagged state word, step machines shared with the `odr-check`
/// model checker.
pub mod atomic_swap;
/// The unified [`error::OdrError`] every fallible crate boundary returns.
mod error;
/// The [`gate::Gate`] eventcount: the park/ring edge of the swap
/// engine and of every wakeable wait in the real-thread runtime.
mod gate;
/// The fleet engine's execution options: [`options::FidelityMode`] and
/// [`options::SimOptions`], embedded by `FleetConfig`.
mod options;
/// Interval-based frame pacers: the paper's fixed-interval baseline and
/// its FPS-maximising adaptive variant.
mod pacer;
/// The bounded multi-buffer [`queue::FrameQueue`] with the paper's
/// block/overwrite full-buffer policies.
pub mod queue;
/// The ODR frame-rate regulator that caps rendering at the display's
/// consumption rate, and the proxy loop that runs it.
mod regulator;
/// Remote VSync baseline: client-driven render triggering.
pub mod rvs;
/// Display/refresh specifications shared by simulator and runtime.
mod spec;
/// The swap protocol's sequential specification ([`swap::SwapState`],
/// the oracle [`sync_queue::SyncQueue`] is differentially tested
/// against) and the outcome vocabulary the engine shares with it.
pub mod swap;
/// [`sync_queue::SyncQueue`]: the swap engine plus observability, the
/// multi-buffer the runtime's stages talk to.
mod sync_queue;
/// Threads that outlive their jobs, the one way a library gets a thread.
pub mod workers;

pub use app::{AppCycle, AppStep};
pub use atomic_swap::AtomicSwap;
pub use error::{OdrError, OdrResult};
pub use gate::Gate;
pub use options::{FidelityMode, SimOptions};
pub use pacer::AdaptiveIntervalPacer;
pub use queue::{FrameQueue, Publish};
pub use regulator::{FpsRegulator, ProxyCycle};
pub use rvs::RvsRegulator;
pub use spec::{FpsGoal, OdrOptions, RegulationSpec};
pub use swap::{SwapState, TryPop, TryPublish};
pub use sync_queue::{QueueObs, SyncQueue};
