//! Session classes and per-class calibration.
//!
//! Fleets and clusters run huge numbers of sessions that differ *only*
//! in their RNG seed: same scenario, same policy, same link, same SLO
//! parameters. That shared shape is the session's **class**
//! ([`SessionClass`]), and everything expensive the analytic fast path
//! needs — FPS/MtP/energy distributions, per-stage busy fractions —
//! depends on the class, not the individual session. [`calibrate`]
//! therefore measures a class with one small FullDes fleet
//! ([`CALIBRATION_SESSIONS`] sessions), whose [`FleetReport`] is the
//! calibration. Its consumers are the analytic fleet replay and the
//! analytic capacity sweep, each calibrating once per run; the cluster's
//! calibration phase folds its own runs at the same seeds with the same
//! [`FleetReport::reduce`].
//!
//! Calibration seeds are the fleet's own: session `i` of the calibration
//! fleet runs with [`session_seed`](crate::session_seed)`(base.seed, i)`,
//! exactly the seeds the first [`CALIBRATION_SESSIONS`] FullDes sessions
//! of the same fleet would use, so a calibration is a pure function of
//! its base configuration.

use odr_core::SimOptions;
use odr_pipeline::ExperimentConfig;

use crate::config::FleetConfig;
use crate::engine::run_fleet;
use crate::report::FleetReport;

/// FullDes sessions per class calibration.
///
/// Eight sessions give every calibrated distribution a few hundred
/// window samples (FPS) and a few hundred input samples (MtP) while
/// keeping calibration cost around ten seconds of simulated fleet time;
/// the analytic-vs-full differential tests pin the resulting tolerance.
pub const CALIBRATION_SESSIONS: u32 = 8;

/// The equivalence class of sessions that differ only by RNG seed.
///
/// Two configurations are in the same class when every field except the
/// seed is equal: scenario, policy, SLO/goal parameters, duration,
/// warmup, display, link shape, tracing flags. The key is the
/// `Debug` rendering of the configuration with the seed zeroed — the
/// configuration is a plain data struct, so its `Debug` output is a
/// total, canonical description of the shape.
///
/// # Examples
///
/// ```
/// use odr_core::{FpsGoal, RegulationSpec};
/// use odr_fleet::SessionClass;
/// use odr_pipeline::ExperimentConfig;
/// use odr_workload::{Benchmark, Platform, Resolution, Scenario};
///
/// let scenario = Scenario::new(Benchmark::InMind, Resolution::R720p, Platform::PrivateCloud);
/// let a = ExperimentConfig::new(scenario, RegulationSpec::odr(FpsGoal::Target(60.0)));
/// let b = ExperimentConfig { seed: a.seed ^ 0xFFFF, ..a };
/// let c = ExperimentConfig::new(scenario, RegulationSpec::NoReg);
/// assert_eq!(SessionClass::of(&a), SessionClass::of(&b));
/// assert_ne!(SessionClass::of(&a), SessionClass::of(&c));
/// ```
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionClass {
    key: String,
}

impl SessionClass {
    /// The class of `cfg`: its full shape with the seed erased.
    #[must_use]
    pub fn of(cfg: &ExperimentConfig) -> SessionClass {
        let mut canon = *cfg;
        canon.seed = 0;
        SessionClass {
            key: format!("{canon:?}"),
        }
    }

    /// The canonical key string (stable within one build of the crate).
    #[must_use]
    pub fn key(&self) -> &str {
        &self.key
    }
}

/// Calibrates `base`'s class: the [`FleetReport`] of a
/// [`CALIBRATION_SESSIONS`]-session FullDes fleet of `base` (seeds
/// `session_seed(base.seed, 0..n)`) on `threads` workers — the same fold
/// as every other fleet, read by the analytic paths as means
/// (`busy / sessions`, ...) and per-session samples (`per_session`).
pub(crate) fn calibrate(base: &ExperimentConfig, threads: usize) -> FleetReport {
    run_fleet(&FleetConfig {
        sim: SimOptions::new().with_threads(threads),
        ..FleetConfig::new(*base, CALIBRATION_SESSIONS)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::session_seed;
    use crate::engine::run_outcomes;
    use odr_core::{FpsGoal, RegulationSpec};
    use odr_simtime::Duration;
    use odr_workload::{Benchmark, Platform, Resolution, Scenario};

    fn base() -> ExperimentConfig {
        ExperimentConfig::builder(
            Scenario::new(Benchmark::InMind, Resolution::R720p, Platform::PrivateCloud),
            RegulationSpec::odr(FpsGoal::Target(60.0)),
        )
        .duration(Duration::from_secs(2))
        .build()
    }

    #[test]
    fn class_ignores_seed_but_nothing_else() {
        let a = base();
        let reseeded = ExperimentConfig { seed: 999, ..a };
        assert_eq!(SessionClass::of(&a), SessionClass::of(&reseeded));
        let longer = ExperimentConfig {
            duration: Duration::from_secs(3),
            ..a
        };
        assert_ne!(SessionClass::of(&a), SessionClass::of(&longer));
        let other_policy = ExperimentConfig::builder(a.scenario, RegulationSpec::NoReg)
            .duration(Duration::from_secs(2))
            .build();
        assert_ne!(SessionClass::of(&a), SessionClass::of(&other_policy));
    }

    #[test]
    fn calibration_is_the_reduce_of_its_seeded_fleet() {
        let cfg = base();
        let configs: Vec<ExperimentConfig> = (0..CALIBRATION_SESSIONS)
            .map(|i| ExperimentConfig {
                seed: session_seed(cfg.seed, i),
                ..cfg
            })
            .collect();
        let fleet = FleetReport::reduce(cfg.label(), &run_outcomes(&configs, 2));
        let cal = calibrate(&cfg, 1).to_text();
        assert_eq!(cal, fleet.to_text());
        assert_eq!(fleet.sessions, CALIBRATION_SESSIONS);
    }
}
