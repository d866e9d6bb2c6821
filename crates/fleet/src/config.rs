//! Fleet configuration and per-session seed derivation.

use odr_core::{FidelityMode, SimOptions};
use odr_pipeline::ExperimentConfig;

/// Weyl-sequence increment from SplitMix64 (same constant
/// `odr_simtime::Rng` uses for stream forking): multiplying the session
/// index by it spreads consecutive indices across the 64-bit seed space.
const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// Derives session `index`'s RNG seed from the fleet's base seed.
///
/// The derivation is a pure function of `(base, index)` — never of
/// thread assignment — and is the identity at `index == 0`, so a fleet
/// of one session reproduces the serial single-session run exactly.
///
/// # Examples
///
/// ```
/// use odr_fleet::session_seed;
///
/// assert_eq!(session_seed(42, 0), 42);
/// assert_ne!(session_seed(42, 1), session_seed(42, 2));
/// ```
#[must_use]
pub fn session_seed(base: u64, index: u32) -> u64 {
    base ^ u64::from(index).wrapping_mul(GOLDEN_GAMMA)
}

/// A fleet of N sessions sharing one experiment shape.
///
/// Every session runs the same scenario, policy, duration and display
/// mode as `base`; only the seed differs per session (derived with
/// [`session_seed`]). `sim` carries the execution options: the worker
/// pool size (no effect on any reported number — see the crate-level
/// determinism contract) and the [`FidelityMode`] (FullDes measures
/// every session; Analytic calibrates the session class once and
/// replays the rest through the calibrated distributions).
#[derive(Clone, Copy, Debug)]
pub struct FleetConfig {
    /// Template configuration for every session.
    pub base: ExperimentConfig,
    /// Number of independent sessions to simulate.
    pub sessions: u32,
    /// Execution options: fidelity mode and worker-pool size (threads
    /// are clamped to `1..=sessions` when the fleet runs).
    pub sim: SimOptions,
}

impl FleetConfig {
    /// Creates a fleet of `sessions` copies of `base` with default
    /// execution options (FullDes, single-threaded).
    #[must_use]
    pub fn new(base: ExperimentConfig, sessions: u32) -> Self {
        FleetConfig {
            base,
            sessions,
            sim: SimOptions::new(),
        }
    }

    /// Starts a typed builder: one session, one worker thread, and the
    /// session-shape defaults of [`ExperimentConfig::builder`].
    ///
    /// # Examples
    ///
    /// ```
    /// use odr_core::{FpsGoal, RegulationSpec};
    /// use odr_fleet::FleetConfig;
    /// use odr_simtime::Duration;
    /// use odr_workload::{Benchmark, Platform, Resolution, Scenario};
    ///
    /// let scenario = Scenario::new(Benchmark::InMind, Resolution::R720p, Platform::PrivateCloud);
    /// let fleet = FleetConfig::builder(scenario, RegulationSpec::odr(FpsGoal::Target(60.0)))
    ///     .sessions(8)
    ///     .threads(4)
    ///     .base(|b| b.duration(Duration::from_secs(10)))
    ///     .build();
    /// assert_eq!(fleet.sessions, 8);
    /// assert_eq!(fleet.base.duration, Duration::from_secs(10));
    /// ```
    #[must_use]
    pub fn builder(
        scenario: odr_workload::Scenario,
        spec: odr_core::RegulationSpec,
    ) -> FleetConfigBuilder {
        FleetConfigBuilder {
            base: ExperimentConfig::builder(scenario, spec),
            sessions: 1,
            sim: SimOptions::new(),
        }
    }

    /// The configuration session `index` runs with.
    #[must_use]
    pub(crate) fn session_config(&self, index: u32) -> ExperimentConfig {
        ExperimentConfig {
            seed: session_seed(self.base.seed, index),
            ..self.base
        }
    }

    /// Worker threads actually used: at least one, at most one per
    /// session.
    #[must_use]
    pub fn effective_threads(&self) -> usize {
        self.sim.threads.clamp(1, (self.sessions.max(1)) as usize)
    }
}

/// Typed builder for [`FleetConfig`], delegating the per-session shape
/// to [`odr_pipeline::ExperimentConfigBuilder`].
///
/// Obtained from [`FleetConfig::builder`]; `build` is infallible.
#[derive(Clone, Copy, Debug)]
pub struct FleetConfigBuilder {
    base: odr_pipeline::ExperimentConfigBuilder,
    sessions: u32,
    sim: SimOptions,
}

impl FleetConfigBuilder {
    /// Sets the number of independent sessions (default: 1).
    #[must_use]
    pub fn sessions(mut self, sessions: u32) -> Self {
        self.sessions = sessions;
        self
    }

    /// Sets the worker-pool size (default: 1; clamped to
    /// `1..=sessions` when the fleet runs).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.sim.threads = threads;
        self
    }

    /// Sets the fidelity mode (default: [`FidelityMode::FullDes`]).
    #[must_use]
    pub fn fidelity(mut self, fidelity: FidelityMode) -> Self {
        self.sim.fidelity = fidelity;
        self
    }

    /// Adjusts the per-session experiment shape through its own builder.
    #[must_use]
    pub fn base(
        mut self,
        f: impl FnOnce(odr_pipeline::ExperimentConfigBuilder) -> odr_pipeline::ExperimentConfigBuilder,
    ) -> Self {
        self.base = f(self.base);
        self
    }

    /// Finishes the builder.
    #[must_use]
    pub fn build(self) -> FleetConfig {
        FleetConfig {
            base: self.base.build(),
            sessions: self.sessions,
            sim: self.sim,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odr_core::{FpsGoal, RegulationSpec};
    use odr_workload::{Benchmark, Platform, Resolution, Scenario};

    fn base() -> ExperimentConfig {
        ExperimentConfig::new(
            Scenario::new(Benchmark::InMind, Resolution::R720p, Platform::PrivateCloud),
            RegulationSpec::odr(FpsGoal::Target(60.0)),
        )
    }

    #[test]
    fn builder_defaults_match_new() {
        let scenario = Scenario::new(Benchmark::InMind, Resolution::R720p, Platform::PrivateCloud);
        let spec = RegulationSpec::odr(FpsGoal::Target(60.0));
        let built = FleetConfig::builder(scenario, spec).build();
        let legacy = FleetConfig::new(ExperimentConfig::new(scenario, spec), 1);
        assert_eq!(built.sessions, legacy.sessions);
        assert_eq!(built.sim, legacy.sim);
        assert_eq!(built.sim.fidelity, FidelityMode::FullDes);
        assert_eq!(built.base.seed, legacy.base.seed);
        assert_eq!(built.base.duration, legacy.base.duration);
        assert_eq!(built.base.warmup, legacy.base.warmup);
    }

    #[test]
    fn builder_delegates_base_shape() {
        let scenario = Scenario::new(Benchmark::InMind, Resolution::R720p, Platform::PrivateCloud);
        let fleet = FleetConfig::builder(scenario, RegulationSpec::NoReg)
            .sessions(6)
            .threads(3)
            .fidelity(FidelityMode::Analytic)
            .base(|b| b.seed(11).obs(true))
            .build();
        assert_eq!(fleet.sessions, 6);
        assert_eq!(fleet.sim.threads, 3);
        assert_eq!(fleet.sim.fidelity, FidelityMode::Analytic);
        assert_eq!(fleet.base.seed, 11);
        assert!(fleet.base.obs);
    }

    #[test]
    fn seed_is_identity_at_index_zero() {
        for base in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            assert_eq!(session_seed(base, 0), base);
        }
    }

    #[test]
    fn seeds_are_distinct_across_sessions() {
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..256 {
            assert!(seen.insert(session_seed(0x0D12_5EED, i)), "dup at {i}");
        }
    }

    #[test]
    fn session_config_only_changes_the_seed() {
        let cfg = FleetConfig::new(base(), 4);
        let s0 = cfg.session_config(0);
        let s3 = cfg.session_config(3);
        assert_eq!(s0.seed, cfg.base.seed);
        assert_ne!(s3.seed, cfg.base.seed);
        assert_eq!(s0.label(), s3.label());
        assert_eq!(s0.duration, s3.duration);
    }

    #[test]
    fn effective_threads_clamps() {
        let effective = |sessions, threads| {
            FleetConfig {
                sim: SimOptions::new().with_threads(threads),
                ..FleetConfig::new(base(), sessions)
            }
            .effective_threads()
        };
        assert_eq!(effective(4, 0), 1);
        assert_eq!(effective(4, 9), 4);
        assert_eq!(effective(0, 9), 1);
        assert_eq!(effective(16, 8), 8);
    }
}
