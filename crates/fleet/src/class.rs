//! Session classes and memoised per-class calibration.
//!
//! Fleets and clusters run huge numbers of sessions that differ *only*
//! in their RNG seed: same scenario, same policy, same link, same SLO
//! parameters. That shared shape is the session's **class**
//! ([`SessionClass`]), and everything expensive the analytic fast path
//! needs — FPS/MtP/energy distributions, per-stage busy fractions —
//! depends on the class, not the individual session. A [`ClassCache`]
//! therefore calibrates each class **once per run** with a small FullDes
//! fleet ([`CALIBRATION_SESSIONS`] sessions) and hands the resulting
//! [`ClassCalibration`] to every consumer: the analytic fleet replay,
//! the analytic capacity sweep, and the cluster's calibration phase.
//!
//! Calibration seeds are the fleet's own: session `i` of the calibration
//! fleet runs with [`session_seed`]`(base.seed, i)`, exactly the seeds
//! the first [`CALIBRATION_SESSIONS`] FullDes sessions of the same fleet
//! would use. The cache key includes the base seed, so memoisation can
//! never substitute a calibration measured under different seeds.

use std::collections::BTreeMap;

use odr_metrics::Cdf;
use odr_pipeline::ExperimentConfig;

use crate::config::session_seed;
use crate::engine::run_outcomes;
use crate::report::SessionOutcome;

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

/// What one FullDes calibration fleet learned about a session class.
///
/// Distributions are merged over the calibration sessions; the
/// `*_samples` CDFs hold one *per-session* value each (session means /
/// totals), which is what the analytic replay resamples to synthesise
/// individual sessions. Scalar fields are index-ordered means over the
/// calibration sessions.
#[derive(Clone, Debug)]
pub struct ClassCalibration {
    /// Per-window client FPS distribution over all calibration sessions.
    pub fps_cdf: Cdf,
    /// MtP latency distribution (ms) over all calibration sessions.
    pub mtp_cdf: Cdf,
    /// Per-session mean client FPS (one sample per calibration session).
    pub client_fps_samples: Cdf,
    /// Per-session mean MtP in ms (one sample per calibration session).
    pub mtp_mean_samples: Cdf,
    /// Per-session mean power in watts (one sample per session).
    pub power_samples: Cdf,
    /// Per-session target satisfaction (one sample per session).
    pub satisfaction_samples: Cdf,
    /// Mean of per-session mean client FPS.
    pub client_fps: f64,
    /// Mean of per-session mean MtP in milliseconds.
    pub mtp_mean_ms: f64,
    /// Mean per-session power in watts.
    pub power_w: f64,
    /// Mean per-session energy in joules.
    pub energy_j: f64,
    /// Mean per-session target satisfaction.
    pub target_satisfaction: f64,
    /// Mean per-stage busy fractions, in [`odr_memsim::MemClient::ALL`]
    /// order — the `per_stage` input of the co-location fixed point.
    pub utilisation: [f64; 4],
    /// Mean frames rendered per session.
    pub frames_rendered: f64,
    /// Mean frames displayed per session.
    pub frames_displayed: f64,
    /// Mean frames dropped per session.
    pub frames_dropped: f64,
    /// Mean priority frames per session.
    pub priority_frames: f64,
    /// Mean inputs per session.
    pub inputs: f64,
    /// Number of FullDes sessions the calibration ran.
    pub sessions: u32,
}

impl ClassCalibration {
    /// Runs a [`CALIBRATION_SESSIONS`]-session FullDes fleet of `base`'s
    /// class (seeds `session_seed(base.seed, 0..n)`) and summarises it.
    #[must_use]
    pub fn measure(base: &ExperimentConfig, threads: usize) -> ClassCalibration {
        let configs: Vec<ExperimentConfig> = (0..CALIBRATION_SESSIONS)
            .map(|i| ExperimentConfig {
                seed: session_seed(base.seed, i),
                ..*base
            })
            .collect();
        ClassCalibration::from_outcomes(&run_outcomes(&configs, threads))
    }

    /// Summarises already-measured outcomes (index order) into a
    /// calibration. Exposed so callers that have run FullDes sessions
    /// anyway (the cluster calibration phase) can reuse them.
    #[must_use]
    pub(crate) fn from_outcomes(outcomes: &[SessionOutcome]) -> ClassCalibration {
        let n = outcomes.len().max(1) as f64;
        let mut cal = ClassCalibration {
            fps_cdf: Cdf::from_samples([]),
            mtp_cdf: Cdf::from_samples([]),
            client_fps_samples: Cdf::from_samples(outcomes.iter().map(|o| o.client_fps)),
            mtp_mean_samples: Cdf::from_samples(outcomes.iter().map(|o| o.mtp_mean_ms)),
            power_samples: Cdf::from_samples(outcomes.iter().map(|o| o.power_w)),
            satisfaction_samples: Cdf::from_samples(
                outcomes.iter().map(|o| o.target_satisfaction),
            ),
            client_fps: 0.0,
            mtp_mean_ms: 0.0,
            power_w: 0.0,
            energy_j: 0.0,
            target_satisfaction: 0.0,
            utilisation: [0.0; 4],
            frames_rendered: 0.0,
            frames_displayed: 0.0,
            frames_dropped: 0.0,
            priority_frames: 0.0,
            inputs: 0.0,
            sessions: outcomes.len() as u32,
        };
        let mut fps_cdf = Cdf::from_samples([]);
        let mut mtp_cdf = Cdf::from_samples([]);
        for o in outcomes {
            fps_cdf = fps_cdf.merge(&o.fps_cdf);
            mtp_cdf = mtp_cdf.merge(&o.mtp_cdf);
            cal.client_fps += o.client_fps;
            cal.mtp_mean_ms += o.mtp_mean_ms;
            cal.power_w += o.power_w;
            cal.energy_j += o.energy_j;
            cal.target_satisfaction += o.target_satisfaction;
            for (total, stage) in cal.utilisation.iter_mut().zip(o.utilisation) {
                *total += stage;
            }
            cal.frames_rendered += o.frames_rendered as f64;
            cal.frames_displayed += o.frames_displayed as f64;
            cal.frames_dropped += o.frames_dropped as f64;
            cal.priority_frames += o.priority_frames as f64;
            cal.inputs += o.inputs as f64;
        }
        cal.fps_cdf = fps_cdf;
        cal.mtp_cdf = mtp_cdf;
        cal.client_fps /= n;
        cal.mtp_mean_ms /= n;
        cal.power_w /= n;
        cal.energy_j /= n;
        cal.target_satisfaction /= n;
        cal.utilisation = cal.utilisation.map(|u| u / n);
        cal.frames_rendered /= n;
        cal.frames_displayed /= n;
        cal.frames_dropped /= n;
        cal.priority_frames /= n;
        cal.inputs /= n;
        cal
    }
}

/// Memoises [`ClassCalibration`]s by `(class, base seed)` for one run.
///
/// The seed is part of the key because calibration seeds derive from the
/// base seed; two fleets with the same class but different base seeds
/// calibrate separately, keeping every analytic result a pure function
/// of its own configuration.
#[derive(Debug, Default)]
pub struct ClassCache {
    entries: BTreeMap<(SessionClass, u64), ClassCalibration>,
}

impl ClassCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> ClassCache {
        ClassCache::default()
    }

    /// Returns the calibration for `base`'s class, measuring it with a
    /// FullDes calibration fleet on `threads` workers if this is the
    /// first time the class (under this base seed) is seen.
    pub fn calibrate(&mut self, base: &ExperimentConfig, threads: usize) -> &ClassCalibration {
        let key = (SessionClass::of(base), base.seed);
        self.entries
            .entry(key)
            .or_insert_with(|| ClassCalibration::measure(base, threads))
    }

    /// Number of distinct calibrated classes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if nothing has been calibrated yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn cache_calibrates_each_class_once() {
        let mut cache = ClassCache::new();
        let cfg = base();
        let first = cache.calibrate(&cfg, 1).clone();
        assert_eq!(cache.len(), 1);
        // Same class + seed: served from cache, bit-identical.
        let again = cache.calibrate(&cfg, 4).clone();
        assert_eq!(cache.len(), 1);
        assert_eq!(first.client_fps.to_bits(), again.client_fps.to_bits());
        assert_eq!(first.fps_cdf.samples(), again.fps_cdf.samples());
        // Different seed: a separate entry.
        let other_seed = ExperimentConfig {
            seed: cfg.seed ^ 1,
            ..cfg
        };
        cache.calibrate(&other_seed, 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn calibration_matches_a_hand_rolled_fleet() {
        let cfg = base();
        let configs: Vec<ExperimentConfig> = (0..CALIBRATION_SESSIONS)
            .map(|i| ExperimentConfig {
                seed: session_seed(cfg.seed, i),
                ..cfg
            })
            .collect();
        let outcomes = run_outcomes(&configs, 2);
        let cal = ClassCalibration::measure(&cfg, 1);
        assert_eq!(cal.sessions, CALIBRATION_SESSIONS);
        let mean_fps = outcomes.iter().map(|o| o.client_fps).sum::<f64>()
            / f64::from(CALIBRATION_SESSIONS);
        assert_eq!(cal.client_fps.to_bits(), mean_fps.to_bits());
        assert_eq!(
            cal.fps_cdf.len(),
            outcomes.iter().map(|o| o.fps_cdf.len()).sum::<usize>()
        );
        assert!(cal.power_w > 0.0);
        assert!(cal.utilisation[1] > 0.0, "render stage must be busy");
    }

    #[test]
    fn empty_outcomes_calibrate_to_zeros() {
        let cal = ClassCalibration::from_outcomes(&[]);
        assert_eq!(cal.sessions, 0);
        assert_eq!(cal.client_fps, 0.0);
        assert!(cal.fps_cdf.is_empty());
    }
}
