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

use odr_core::{FidelityMode, SimOptions};
use odr_pipeline::colocation::{
    uncontended_coefficients, ColocationModel, ColocationResult, NodeState, Resident,
    ServerCapacity, SessionLoad,
};
use odr_pipeline::ExperimentConfig;

use crate::class::calibrate;
use crate::config::FleetConfig;
use crate::engine::run_fleet;
use crate::report::{FleetReport, SessionRow};

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
///   report through the same solve. The QoS columns are then class
///   means — constant across k by construction — while the contention
///   columns still vary with k.
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
    // The model at k beside k copies of one session's measured load (the
    // fleet's per-session means), solved together.
    let point = |k: u32, fleet: &FleetReport, des_streams: f64, fleet_power_w: f64| {
        let n = f64::from(fleet.sessions.max(1));
        let mean = |f: fn(&SessionRow) -> f64| fleet.per_session.iter().map(f).sum::<f64>() / n;
        let load = SessionLoad {
            coeffs: uncontended_coefficients(&mem, fleet.busy.map(|b| b / n)),
            fps: mean(|s| s.client_fps),
            mtp_ms: mean(|s| s.mtp_mean_ms),
        };
        let residents: Vec<Resident> = (0..k).map(|session| Resident { session, load }).collect();
        CapacityPoint {
            sessions: k,
            model: model.evaluate(k),
            des_streams,
            des: NodeState::solve(&capacity, &mem, &residents, None),
            fleet_power_w,
            mean_client_fps: load.fps,
            median_mtp_ms: fleet.mtp_cdf.quantile(0.5),
            satisfaction: fleet.mean_satisfaction,
        }
    };
    match sim.fidelity {
        FidelityMode::FullDes => ks
            .iter()
            .map(|&k| {
                let fleet = run_fleet(&FleetConfig {
                    sim,
                    ..FleetConfig::new(*base, k)
                });
                point(k, &fleet, fleet.des_streams, fleet.total_power_w)
            })
            .collect(),
        FidelityMode::Analytic => {
            let cal = calibrate(base, sim.threads);
            let n = f64::from(cal.sessions.max(1));
            let streams = cal.busy.map(|b| b / n).iter().sum::<f64>();
            let power_w = cal.total_power_w / n;
            ks.iter()
                .map(|&k| point(k, &cal, f64::from(k) * streams, f64::from(k) * power_w))
                .collect()
        }
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
            p.model.state.streams,
            p.des.streams,
            p.model.state.slowdown,
            p.des.slowdown,
            p.fleet_power_w,
            p.mean_client_fps,
            p.median_mtp_ms,
            p.model.feasible
        );
    }
    out
}
