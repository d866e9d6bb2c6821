//! Experiment configuration.

use odr_core::RegulationSpec;
use odr_netsim::LinkParams;
use odr_simtime::Duration;
use odr_workload::Scenario;

/// How the simulated client presents decoded frames.
///
/// The paper measures at decode completion (the Pictor client) and leaves
/// display-side optimisation as future work ("high frequency displays with
/// FreeSync/GSync are designed to reduce lag by allowing frames to arrive
/// at high but varying rates", Section 5.2). These modes let experiments
/// quantify that: fixed-rate VSync coalesces late frames onto vblanks and
/// adds scan-out wait, variable refresh presents on arrival down to a
/// minimum refresh interval.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ClientDisplay {
    /// Present at decode completion (the paper's measurement point).
    Immediate,
    /// Fixed-rate display: frames present at the next vblank; if a newer
    /// frame decodes before the vblank, the older one is never shown.
    VSync {
        /// Display refresh rate in Hz.
        refresh_hz: f64,
    },
    /// Variable-refresh display (FreeSync/G-Sync): frames present on
    /// arrival, but no faster than the panel's maximum refresh rate.
    FreeSync {
        /// Maximum refresh rate in Hz (minimum frame-to-frame spacing).
        max_hz: f64,
    },
}

/// One simulated run: a workload scenario under a regulation policy.
#[derive(Clone, Copy, Debug)]
pub struct ExperimentConfig {
    /// The workload (benchmark × resolution × platform).
    pub scenario: Scenario,
    /// The FPS regulation under test.
    pub spec: RegulationSpec,
    /// Simulated run length, excluding warm-up.
    pub duration: Duration,
    /// Initial span excluded from all rate/latency metrics (queues filling,
    /// adaptive regulators converging).
    pub warmup: Duration,
    /// RNG seed; equal seeds reproduce identical reports.
    pub seed: u64,
    /// Collect per-frame traces (needed by Figures 4 and 5; costs memory).
    pub trace: bool,
    /// Client presentation model.
    pub display: ClientDisplay,
    /// Overrides the platform's downlink (capacity sweeps and what-if
    /// studies); `None` uses the scenario's platform link.
    pub downlink_override: Option<LinkParams>,
    /// Record structured observability events (stage spans, drops,
    /// regulator decisions) into [`Report::obs`]; off by default so the
    /// simulation pays nothing for the subsystem.
    ///
    /// [`Report::obs`]: crate::Report::obs
    pub obs: bool,
}

impl ExperimentConfig {
    /// Default evaluation length used throughout the harness: 120 s of
    /// simulated play after a 5 s warm-up, matching the order of the
    /// paper's per-configuration runs.
    pub(crate) const DEFAULT_DURATION: Duration = Duration::from_secs(120);

    /// Default warm-up span.
    pub(crate) const DEFAULT_WARMUP: Duration = Duration::from_secs(5);

    /// Creates a config with the default duration, warm-up and seed.
    #[must_use]
    pub fn new(scenario: Scenario, spec: RegulationSpec) -> Self {
        ExperimentConfig {
            scenario,
            spec,
            duration: Self::DEFAULT_DURATION,
            warmup: Self::DEFAULT_WARMUP,
            seed: 0x0D12_5EED ^ scenario.stream_id(),
            trace: false,
            display: ClientDisplay::Immediate,
            downlink_override: None,
            obs: false,
        }
    }

    /// Starts a typed builder with the same defaults as [`ExperimentConfig::new`]:
    /// [`DEFAULT_DURATION`](Self::DEFAULT_DURATION) of simulated play,
    /// [`DEFAULT_WARMUP`](Self::DEFAULT_WARMUP) excluded from metrics,
    /// the scenario-derived seed, [`ClientDisplay::Immediate`], and
    /// tracing/observability off.
    #[must_use]
    pub fn builder(scenario: Scenario, spec: RegulationSpec) -> ExperimentConfigBuilder {
        ExperimentConfigBuilder {
            cfg: ExperimentConfig::new(scenario, spec),
        }
    }

    /// The effective downlink for this experiment.
    #[must_use]
    pub fn downlink(&self) -> LinkParams {
        self.downlink_override
            .unwrap_or_else(|| self.scenario.downlink())
    }

    /// Total simulated time (warm-up + measured duration).
    #[must_use]
    pub(crate) fn total_time(&self) -> Duration {
        self.warmup + self.duration
    }

    /// A human-readable label, e.g. `"IM/720p/Priv ODR60"`.
    #[must_use]
    pub fn label(&self) -> String {
        format!("{} {}", self.scenario.label(), self.spec.label())
    }
}

/// Typed builder for [`ExperimentConfig`].
///
/// Obtained from [`ExperimentConfig::builder`]; every setter documents
/// the default it replaces. [`build`](Self::build) is infallible — every
/// combination of the typed fields is a runnable experiment.
///
/// # Examples
///
/// ```
/// use odr_core::{FpsGoal, RegulationSpec};
/// use odr_pipeline::ExperimentConfig;
/// use odr_simtime::Duration;
/// use odr_workload::{Benchmark, Platform, Resolution, Scenario};
///
/// let scenario = Scenario::new(Benchmark::InMind, Resolution::R720p, Platform::PrivateCloud);
/// let cfg = ExperimentConfig::builder(scenario, RegulationSpec::odr(FpsGoal::Target(60.0)))
///     .duration(Duration::from_secs(20))
///     .seed(42)
///     .build();
/// assert_eq!(cfg.duration, Duration::from_secs(20));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct ExperimentConfigBuilder {
    cfg: ExperimentConfig,
}

impl ExperimentConfigBuilder {
    /// Sets the measured duration (default:
    /// [`ExperimentConfig::DEFAULT_DURATION`], 120 s).
    #[must_use]
    pub fn duration(mut self, duration: Duration) -> Self {
        self.cfg.duration = duration;
        self
    }

    /// Sets the warm-up span excluded from metrics (default:
    /// [`ExperimentConfig::DEFAULT_WARMUP`], 5 s).
    #[must_use]
    pub fn warmup(mut self, warmup: Duration) -> Self {
        self.cfg.warmup = warmup;
        self
    }

    /// Sets the RNG seed (default: derived from the scenario so distinct
    /// scenarios draw independent streams).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Enables per-frame tracing (default: off).
    #[must_use]
    pub fn trace(mut self, trace: bool) -> Self {
        self.cfg.trace = trace;
        self
    }

    /// Selects the client presentation model (default:
    /// [`ClientDisplay::Immediate`]).
    #[must_use]
    pub fn display(mut self, display: ClientDisplay) -> Self {
        self.cfg.display = display;
        self
    }

    /// Overrides the platform downlink (default: the scenario's link).
    #[must_use]
    pub fn downlink_override(mut self, link: LinkParams) -> Self {
        self.cfg.downlink_override = Some(link);
        self
    }

    /// Enables structured observability capture (default: off).
    #[must_use]
    pub fn obs(mut self, obs: bool) -> Self {
        self.cfg.obs = obs;
        self
    }

    /// Finishes the builder. Infallible: the defaults are always valid and
    /// every setter preserves validity.
    #[must_use]
    pub fn build(self) -> ExperimentConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odr_core::FpsGoal;
    use odr_workload::{Benchmark, Platform, Resolution};

    #[test]
    fn defaults_and_builders() {
        let scenario = Scenario::new(Benchmark::InMind, Resolution::R720p, Platform::PrivateCloud);
        let cfg = ExperimentConfig::builder(scenario, RegulationSpec::odr(FpsGoal::Max))
            .duration(Duration::from_secs(10))
            .seed(7)
            .trace(true)
            .build();
        assert_eq!(cfg.duration, Duration::from_secs(10));
        assert_eq!(cfg.seed, 7);
        assert!(cfg.trace);
        assert_eq!(cfg.total_time(), Duration::from_secs(15));
        assert_eq!(cfg.label(), "IM/720p/Priv ODRMax");
    }

    #[test]
    fn builder_defaults_match_new() {
        let scenario = Scenario::new(Benchmark::Dota2, Resolution::R1080p, Platform::Gce);
        let spec = RegulationSpec::odr(FpsGoal::Target(60.0));
        let built = ExperimentConfig::builder(scenario, spec).build();
        let legacy = ExperimentConfig::new(scenario, spec);
        assert_eq!(built.duration, legacy.duration);
        assert_eq!(built.warmup, legacy.warmup);
        assert_eq!(built.seed, legacy.seed);
        assert_eq!(built.trace, legacy.trace);
        assert_eq!(built.display, legacy.display);
        assert!(built.downlink_override.is_none() && legacy.downlink_override.is_none());
        assert_eq!(built.obs, legacy.obs);
    }

    #[test]
    fn builder_setters_cover_every_field() {
        let scenario = Scenario::new(Benchmark::InMind, Resolution::R720p, Platform::PrivateCloud);
        let link = scenario.downlink();
        let cfg = ExperimentConfig::builder(scenario, RegulationSpec::NoReg)
            .duration(Duration::from_secs(9))
            .warmup(Duration::from_secs(2))
            .seed(99)
            .trace(true)
            .display(ClientDisplay::VSync { refresh_hz: 75.0 })
            .downlink_override(link)
            .obs(true)
            .build();
        assert_eq!(cfg.duration, Duration::from_secs(9));
        assert_eq!(cfg.warmup, Duration::from_secs(2));
        assert_eq!(cfg.seed, 99);
        assert!(cfg.trace);
        assert_eq!(cfg.display, ClientDisplay::VSync { refresh_hz: 75.0 });
        assert!(cfg.downlink_override.is_some());
        assert!(cfg.obs);
    }

    #[test]
    fn default_seeds_differ_per_scenario() {
        let a = ExperimentConfig::new(
            Scenario::new(Benchmark::InMind, Resolution::R720p, Platform::PrivateCloud),
            RegulationSpec::NoReg,
        );
        let b = ExperimentConfig::new(
            Scenario::new(Benchmark::Dota2, Resolution::R720p, Platform::PrivateCloud),
            RegulationSpec::NoReg,
        );
        assert_ne!(a.seed, b.seed);
    }
}
