//! Capacity-vs-QoS curves: fleet DES measurements against the
//! mean-field co-location model.
//!
//! [`odr_pipeline::colocation`] predicts, analytically, how many
//! regulated sessions a server hosts. The fleet engine measures the same
//! quantities from the discrete-event side: run k independent sessions
//! and sum their per-stage busy fractions. The DES sessions do *not*
//! contend with each other (each simulates a dedicated server), so the
//! raw sums sit at single-session slowdown; to compare against the
//! model's contended prediction, the sweep divides out the slowdown each
//! measurement ran at — busy fractions scale linearly with slowdown —
//! and re-solves the model's fixed point with DES-calibrated
//! coefficients. Model and DES then share only the DRAM contention
//! curve: the model's coefficients come from closed-form stage costs,
//! the DES's from simulated execution, so agreement is a genuine
//! cross-check. The per-k QoS columns (FPS/MtP/satisfaction) put
//! measured quality next to each predicted operating point.

use odr_core::{FidelityMode, SimOptions};
use odr_memsim::MemoryParams;
use odr_pipeline::colocation::{ColocationModel, ColocationResult, ServerCapacity};
use odr_pipeline::ExperimentConfig;

use crate::class::ClassCache;
use crate::config::FleetConfig;
use crate::engine::run_fleet;

/// One operating point on the capacity curve: k sessions, model
/// prediction beside fleet measurement.
#[derive(Clone, Debug)]
pub struct CapacityPoint {
    /// Number of co-located sessions.
    pub sessions: u32,
    /// The mean-field model's prediction at this k.
    pub model: ColocationResult,
    /// Raw DES-measured concurrent memory streams: the sum of busy
    /// fractions over all sessions and stages, at single-session
    /// (uncontended) slowdown.
    pub des_streams: f64,
    /// DES-calibrated *contended* stream count: measured busy fractions
    /// re-solved through the model's fixed point at k sessions. This is
    /// the quantity comparable to
    /// [`ColocationResult::expected_streams`].
    pub des_contended_streams: f64,
    /// Converged slowdown of the DES-calibrated fixed point (comparable
    /// to [`ColocationResult::slowdown`]).
    pub des_slowdown: f64,
    /// DES-calibrated shared-GPU load under contention (comparable to
    /// [`ColocationResult::gpu_load`]).
    pub des_gpu_load: f64,
    /// Fleet power draw in watts (sum of per-session means).
    pub fleet_power_w: f64,
    /// Mean client FPS across the fleet's windows.
    pub mean_client_fps: f64,
    /// Median MtP latency across the fleet in milliseconds.
    pub median_mtp_ms: f64,
    /// Mean per-session target satisfaction.
    pub satisfaction: f64,
}

/// Sweeps session counts `ks`, evaluating the mean-field model beside a
/// DES-calibrated measurement at each k.
///
/// `target_fps` parameterises the model (use the same target the
/// `base` policy regulates to). `sim.threads` sizes each fleet's
/// worker pool and does not affect any reported number. `sim.fidelity`
/// selects how the DES side is obtained:
///
/// * [`FidelityMode::FullDes`] runs a complete k-session fleet DES per
///   sweep point — every column is a fresh measurement;
/// * [`FidelityMode::Analytic`] calibrates `base`'s class **once** (one
///   [`CALIBRATION_SESSIONS`](crate::CALIBRATION_SESSIONS)-session
///   FullDes fleet) and derives every sweep point from that fleet's
///   report through the same co-location fixed point. The QoS columns are then class means — constant across k by
///   construction — while the contention columns still vary with k.
///
/// # Panics
///
/// Panics if `target_fps` is not strictly positive (the model requires
/// a positive target).
#[must_use]
pub fn capacity_curve(
    base: &ExperimentConfig,
    capacity: ServerCapacity,
    target_fps: f64,
    ks: &[u32],
    sim: SimOptions,
) -> Vec<CapacityPoint> {
    let model = ColocationModel::new(base.scenario, target_fps, capacity);
    let mem = base.scenario.memory_params();
    match sim.fidelity {
        FidelityMode::FullDes => ks
            .iter()
            .map(|&k| {
                let fleet = run_fleet(&FleetConfig {
                    sim,
                    ..FleetConfig::new(*base, k)
                });
                let n = f64::from(k.max(1));
                let per_stage = fleet.busy.map(|b| b / n);
                let (des_contended_streams, des_slowdown, contended) =
                    des_fixed_point(&mem, per_stage, f64::from(k));
                CapacityPoint {
                    sessions: k,
                    model: model.evaluate(k),
                    des_streams: fleet.des_streams,
                    des_contended_streams,
                    des_slowdown,
                    des_gpu_load: f64::from(k) * contended[1] / capacity.gpu,
                    fleet_power_w: fleet.total_power_w,
                    mean_client_fps: fleet.per_session.iter().map(|s| s.client_fps).sum::<f64>()
                        / n,
                    median_mtp_ms: fleet.mtp_cdf.quantile(0.5),
                    satisfaction: fleet.mean_satisfaction,
                }
            })
            .collect(),
        FidelityMode::Analytic => {
            let mut cache = ClassCache::default();
            let cal = cache.calibrate(base, sim.threads);
            let n = f64::from(cal.sessions.max(1));
            let per_stage = cal.busy.map(|b| b / n);
            let client_fps = cal.per_session.iter().map(|s| s.client_fps).sum::<f64>() / n;
            ks.iter()
                .map(|&k| {
                    let (des_contended_streams, des_slowdown, contended) =
                        des_fixed_point(&mem, per_stage, f64::from(k));
                    CapacityPoint {
                        sessions: k,
                        model: model.evaluate(k),
                        des_streams: f64::from(k) * per_stage.iter().sum::<f64>(),
                        des_contended_streams,
                        des_slowdown,
                        des_gpu_load: f64::from(k) * contended[1] / capacity.gpu,
                        fleet_power_w: f64::from(k) * (cal.total_power_w / n),
                        mean_client_fps: client_fps,
                        median_mtp_ms: cal.mtp_cdf.quantile(0.5),
                        satisfaction: cal.mean_satisfaction,
                    }
                })
                .collect()
        }
    }
}

/// Re-solves the co-location fixed point from DES-measured busy
/// fractions.
///
/// `per_stage` holds one session's measured busy fractions, taken at the
/// mean-field slowdown of the session's own concurrency (the DES session
/// contends only with itself). Dividing that slowdown out recovers
/// uncontended coefficients; k sessions then solve the same
/// [`MemoryParams::contention_fixed_point`] as
/// [`ColocationModel::evaluate`], with measured coefficients in place of
/// closed-form ones. Returns `(streams, slowdown, per-stage contended
/// busy fractions)`.
fn des_fixed_point(mem: &MemoryParams, per_stage: [f64; 4], k: f64) -> (f64, f64, [f64; 4]) {
    let coeff = uncontended_coefficients(mem, per_stage);
    let (streams, slowdown) = mem.contention_fixed_point(|slowdown| {
        k * coeff.iter().map(|c| (c * slowdown).min(1.0)).sum::<f64>()
    });
    (streams, slowdown, coeff.map(|c| (c * slowdown).min(1.0)))
}

/// Divides the self-contention slowdown out of DES-measured per-stage
/// busy fractions, recovering the *uncontended* activity coefficients the
/// co-location fixed point iterates on.
///
/// A dedicated-server DES session still contends with its own streams:
/// its measured busy fractions are inflated by the mean-field slowdown of
/// its own concurrency. Busy fractions scale linearly with slowdown, so
/// dividing that self-slowdown out yields coefficients comparable across
/// any co-location level. This is the calibration step shared by
/// [`capacity_curve`] and the cluster scheduler's admission model.
#[must_use]
pub fn uncontended_coefficients(mem: &MemoryParams, per_stage: [f64; 4]) -> [f64; 4] {
    let measured: f64 = per_stage.iter().sum();
    let self_slowdown = mem.slowdown_for_streams(measured.max(1.0));
    per_stage.map(|b| b / self_slowdown)
}

/// Solves the co-location fixed point for a *heterogeneous* session set.
///
/// Each item `sets()` yields holds one session's uncontended per-stage
/// coefficients (from [`uncontended_coefficients`]); sessions may run
/// different policies and therefore different coefficient sets — the
/// cluster scheduler's nodes mix ODR, Interval, RVS and NoReg residents.
/// Solves [`MemoryParams::contention_fixed_point`] like
/// [`ColocationModel::evaluate`] and the homogeneous calibration path,
/// summing session contributions in the order `sets()` yields them
/// (bit-reproducible for a fixed order). `sets` is called once per round
/// and walks the caller's sessions where they lie, so a solve allocates
/// nothing. Returns `(streams, slowdown)` at convergence; an empty set
/// yields `(0.0, slowdown_for_streams(1.0))`.
#[must_use]
pub fn mixed_fixed_point<I: Iterator<Item = [f64; 4]>>(
    mem: &MemoryParams,
    sets: impl Fn() -> I,
) -> (f64, f64) {
    mem.contention_fixed_point(|slowdown| {
        sets()
            .map(|coeff| coeff.iter().map(|c| (c * slowdown).min(1.0)).sum::<f64>())
            .sum::<f64>()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use odr_workload::{Benchmark, Platform, Resolution, Scenario};

    fn mem() -> MemoryParams {
        Scenario::new(Benchmark::InMind, Resolution::R720p, Platform::PrivateCloud).memory_params()
    }

    #[test]
    fn mixed_fixed_point_agrees_with_the_homogeneous_solver() {
        let mem = mem();
        let per_stage = [0.30, 0.50, 0.08, 0.12];
        let coeff = uncontended_coefficients(&mem, per_stage);
        for k in [1u32, 4, 8, 16] {
            let (hom_streams, hom_slowdown, _) = des_fixed_point(&mem, per_stage, f64::from(k));
            let sets = vec![coeff; k as usize];
            let (mix_streams, mix_slowdown) = mixed_fixed_point(&mem, || sets.iter().copied());
            assert!(
                (hom_streams - mix_streams).abs() < 1e-6,
                "k={k}: {hom_streams} vs {mix_streams}"
            );
            assert!(
                (hom_slowdown - mix_slowdown).abs() < 1e-6,
                "k={k}: {hom_slowdown} vs {mix_slowdown}"
            );
        }
    }

    #[test]
    fn uncontended_coefficients_divide_out_self_slowdown() {
        let mem = mem();
        let per_stage = [0.2, 0.4, 0.1, 0.1];
        let coeff = uncontended_coefficients(&mem, per_stage);
        let self_slowdown = mem.slowdown_for_streams(0.8f64.max(1.0));
        for (c, b) in coeff.iter().zip(per_stage) {
            assert!((c * self_slowdown - b).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_mixed_set_is_idle() {
        let mem = mem();
        let (streams, slowdown) = mixed_fixed_point(&mem, std::iter::empty);
        assert_eq!(streams, 0.0);
        assert!((slowdown - mem.slowdown_for_streams(1.0)).abs() < 1e-12);
    }

    #[test]
    fn mixed_contention_grows_with_residents() {
        let mem = mem();
        let light = uncontended_coefficients(&mem, [0.2, 0.3, 0.05, 0.08]);
        let heavy = uncontended_coefficients(&mem, [0.5, 0.9, 0.2, 0.25]);
        let (s1, d1) = mixed_fixed_point(&mem, || [light].into_iter());
        let (s2, d2) = mixed_fixed_point(&mem, || [light, heavy].into_iter());
        let (s3, d3) = mixed_fixed_point(&mem, || [light, heavy, heavy].into_iter());
        assert!(s2 > s1 && s3 > s2);
        assert!(d2 >= d1 && d3 >= d2);
    }
}

/// Renders a capacity curve as a deterministic text table (one line per
/// k), for the bench harness and golden comparisons.
#[must_use]
pub fn curve_to_text(points: &[CapacityPoint]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>3} {:>13} {:>13} {:>9} {:>9} {:>10} {:>9} {:>9} {:>8}",
        "k",
        "model_streams",
        "des_streams",
        "model_sd",
        "des_sd",
        "power_w",
        "fps",
        "mtp_ms",
        "feas"
    );
    for p in points {
        let _ = writeln!(
            out,
            "{:>3} {:>13.4} {:>13.4} {:>9.4} {:>9.4} {:>10.2} {:>9.2} {:>9.2} {:>8}",
            p.sessions,
            p.model.expected_streams,
            p.des_contended_streams,
            p.model.slowdown,
            p.des_slowdown,
            p.fleet_power_w,
            p.mean_client_fps,
            p.median_mtp_ms,
            p.model.feasible
        );
    }
    out
}
