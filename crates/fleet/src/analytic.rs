//! The analytic fast path: calibrate the session class once, replay
//! every session through the calibrated distributions.
//!
//! [`run_fleet`](crate::run_fleet) dispatches here when the fleet's
//! [`FidelityMode`](odr_core::FidelityMode) is `Analytic`. The replay
//! runs no per-frame events at all: one small FullDes calibration fleet
//! ([`crate::class::CALIBRATION_SESSIONS`] sessions) characterises the
//! class, then each of the N sessions draws its summary statistics from
//! the calibrated distributions by inverse-CDF sampling. A million
//! sessions is a million RNG constructions and a handful of O(1)
//! quantile lookups each — minutes of FullDes time become milliseconds.
//!
//! Determinism: session `i`'s draws come from a dedicated replay stream
//! of `Rng::new(session_seed(base.seed, i))`, a pure function of the
//! fleet configuration, and the aggregate fold runs in session-index
//! order — so the analytic report is bit-identical across runs and
//! worker counts, exactly like the FullDes report.
//!
//! What analytic mode does *not* produce: per-frame traces, per-session
//! report rows (`per_session` stays empty — a million-line table is not
//! a report), and observability counters. Ask for any of those and you
//! want FullDes.

use odr_metrics::Cdf;
use odr_simtime::Rng;

use crate::class::ClassCache;
use crate::config::{session_seed, FleetConfig};
use crate::report::FleetReport;

/// RNG stream id for analytic replay draws. Distinct from every stream
/// the DES forks (1..=8), so analytic draws can never alias a FullDes
/// sample sequence.
const REPLAY_STREAM: u64 = 0xA11C;

/// Runs `cfg` in analytic mode: calibrate the class, then synthesise
/// all `cfg.sessions` sessions from the calibration.
#[must_use]
pub(crate) fn run_fleet_analytic(cfg: &FleetConfig) -> FleetReport {
    if cfg.sessions == 0 {
        return FleetReport::reduce(cfg.base.label(), &[]);
    }
    let mut cache = ClassCache::new();
    let cal = cache.calibrate(&cfg.base, cfg.effective_threads());

    let n = cfg.sessions;
    let duration_secs = cfg.base.duration.as_secs_f64();
    let mut fps_samples = Vec::with_capacity(n as usize);
    let mut mtp_samples = Vec::with_capacity(n as usize);
    let mut energy_samples = Vec::with_capacity(n as usize);

    let mut report = FleetReport::reduce(cfg.base.label(), &[]);
    report.sessions = n;
    for i in 0..n {
        let mut rng = Rng::new(session_seed(cfg.base.seed, i)).fork(REPLAY_STREAM);
        let fps = cal.fps_cdf.quantile(rng.next_f64());
        let mtp = cal.mtp_cdf.quantile(rng.next_f64());
        let power = cal.power_samples.quantile(rng.next_f64());
        let satisfaction = cal.satisfaction_samples.quantile(rng.next_f64());
        let energy = power * duration_secs;
        fps_samples.push(fps);
        mtp_samples.push(mtp);
        energy_samples.push(energy);
        report.total_power_w += power;
        report.total_energy_j += energy;
        report.mean_satisfaction += satisfaction;
        report.des_streams += cal.utilisation.iter().sum::<f64>();
        for (total, stage) in report.busy.iter_mut().zip(cal.utilisation) {
            *total += stage;
        }
        report.gpu_busy += cal.utilisation[1];
    }
    report.mean_satisfaction /= f64::from(n);
    let scale = f64::from(n);
    report.frames_rendered = (cal.frames_rendered * scale).round() as u64;
    report.frames_displayed = (cal.frames_displayed * scale).round() as u64;
    report.frames_dropped = (cal.frames_dropped * scale).round() as u64;
    report.priority_frames = (cal.priority_frames * scale).round() as u64;
    report.inputs = (cal.inputs * scale).round() as u64;
    report.fps_cdf = Cdf::from_samples(fps_samples);
    report.mtp_cdf = Cdf::from_samples(mtp_samples);
    report.energy_cdf = Cdf::from_samples(energy_samples);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_fleet;
    use odr_core::{FidelityMode, FpsGoal, RegulationSpec};
    use odr_simtime::Duration;
    use odr_workload::{Benchmark, Platform, Resolution, Scenario};

    fn fleet(sessions: u32) -> FleetConfig {
        FleetConfig::builder(
            Scenario::new(Benchmark::InMind, Resolution::R720p, Platform::PrivateCloud),
            RegulationSpec::odr(FpsGoal::Target(60.0)),
        )
        .sessions(sessions)
        .fidelity(FidelityMode::Analytic)
        .base(|b| b.duration(Duration::from_secs(2)))
        .build()
    }

    #[test]
    fn analytic_report_is_deterministic_and_thread_independent() {
        let mut cfg = fleet(32);
        let one = run_fleet(&cfg);
        cfg.sim.threads = 8;
        let eight = run_fleet(&cfg);
        assert_eq!(one.to_text(), eight.to_text());
        assert_eq!(one.total_power_w.to_bits(), eight.total_power_w.to_bits());
    }

    #[test]
    fn analytic_tracks_full_des_aggregates() {
        let analytic = run_fleet(&fleet(64));
        let full = run_fleet(&FleetConfig {
            sim: odr_core::SimOptions::new(),
            ..fleet(64)
        });
        assert_eq!(analytic.sessions, full.sessions);
        // Documented tolerances of the analytic mode (see DESIGN.md §14):
        // median FPS within 2%, median MtP within 15%, mean power within
        // 5% of the FullDes fleet.
        let fps_a = analytic.fps_cdf.quantile(0.5);
        let fps_f = full.fps_cdf.quantile(0.5);
        assert!(
            (fps_a - fps_f).abs() / fps_f < 0.02,
            "median fps: analytic {fps_a} vs full {fps_f}"
        );
        let mtp_a = analytic.mtp_cdf.quantile(0.5);
        let mtp_f = full.mtp_cdf.quantile(0.5);
        assert!(
            (mtp_a - mtp_f).abs() / mtp_f < 0.15,
            "median mtp: analytic {mtp_a} vs full {mtp_f}"
        );
        let pw_a = analytic.total_power_w / f64::from(analytic.sessions);
        let pw_f = full.total_power_w / f64::from(full.sessions);
        assert!(
            (pw_a - pw_f).abs() / pw_f < 0.05,
            "mean power: analytic {pw_a} vs full {pw_f}"
        );
    }

    #[test]
    fn analytic_omits_per_session_rows() {
        let r = run_fleet(&fleet(16));
        assert!(r.per_session.is_empty());
        assert!(r.obs.is_empty());
        assert_eq!(r.sessions, 16);
        assert_eq!(r.fps_cdf.len(), 16);
        assert_eq!(r.energy_cdf.len(), 16);
    }

    #[test]
    fn analytic_empty_fleet_matches_full_des_empty_fleet() {
        let analytic = run_fleet(&fleet(0));
        let full = run_fleet(&FleetConfig {
            sim: odr_core::SimOptions::new(),
            ..fleet(0)
        });
        assert_eq!(analytic.to_text(), full.to_text());
    }
}
