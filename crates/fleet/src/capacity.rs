//! Capacity-vs-QoS curves: fleet DES measurements against the
//! mean-field co-location model.
//!
//! [`odr_pipeline::colocation`] predicts, analytically, how many
//! regulated sessions a server hosts: [`ColocationModel::evaluate`]
//! solves k copies of the closed-form [`SessionLoad::at_rate`]. The fleet
//! engine measures the same quantities from the discrete-event side: run
//! k independent sessions and average their per-stage busy fractions. The
//! DES sessions do *not* contend with each other (each simulates a
//! dedicated server), so the measurement sits at single-session slowdown;
//! [`uncontended_coefficients`] divides that slowdown out, and k copies
//! of the measured load are solved by the same [`NodeState::solve`].
//! Model and DES then share only the solve and its DRAM contention
//! curve: the model's coefficients come from closed-form stage costs, the
//! DES's from simulated execution, so agreement is a genuine
//! cross-check. The per-k QoS columns (FPS/MtP/satisfaction) put
//! measured quality next to each predicted operating point.

use odr_core::SimOptions;
use odr_pipeline::colocation::{
    uncontended_coefficients, ColocationModel, ColocationResult, NodeState, Resident,
    ServerCapacity, SessionLoad,
};
use odr_pipeline::ExperimentConfig;

use crate::config::FleetConfig;
use crate::engine::run_fleet;
use crate::report::SessionRow;

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
    /// The DES-calibrated *contended* operating point: k copies of the
    /// measured load solved at k sessions. Comparable field by field to
    /// the model's [`ColocationResult::state`].
    pub des: NodeState,
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
/// fresh k-session FullDes fleet measurement at each k.
///
/// `target_fps` parameterises the model (use the same target the
/// `base` policy regulates to). `threads` sizes each fleet's worker
/// pool and does not affect any reported number.
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
    threads: usize,
) -> Vec<CapacityPoint> {
    let model = ColocationModel::new(base.scenario, target_fps, capacity);
    let mem = base.scenario.memory_params();
    ks.iter()
        .map(|&k| {
            let fleet = run_fleet(&FleetConfig {
                sim: SimOptions::new().with_threads(threads),
                ..FleetConfig::new(*base, k)
            });
            // The model at k beside k copies of one session's measured
            // load (the fleet's per-session means), solved together.
            let n = f64::from(fleet.sessions.max(1));
            let mean = |f: fn(&SessionRow) -> f64| fleet.per_session.iter().map(f).sum::<f64>() / n;
            let load = SessionLoad {
                coeffs: uncontended_coefficients(&mem, fleet.busy.map(|b| b / n)),
                fps: mean(|s| s.client_fps),
                mtp_ms: mean(|s| s.mtp_mean_ms),
            };
            let residents: Vec<Resident> =
                (0..k).map(|session| Resident { session, load }).collect();
            CapacityPoint {
                sessions: k,
                model: model.evaluate(k),
                des_streams: fleet.des_streams,
                des: NodeState::solve(&capacity, &mem, &residents, None),
                fleet_power_w: fleet.total_power_w,
                mean_client_fps: load.fps,
                median_mtp_ms: fleet.mtp_cdf.quantile(0.5),
                satisfaction: fleet.mean_satisfaction,
            }
        })
        .collect()
}
