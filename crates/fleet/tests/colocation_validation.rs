//! Cross-model validation: the mean-field co-location model against the
//! fleet DES.
//!
//! The model predicts expected concurrent memory streams, DRAM slowdown
//! and GPU load from closed-form stage costs; the fleet measures the
//! same quantities from k simulated sessions. The DES sessions do *not*
//! contend with each other (each simulates a dedicated server), so the
//! fleet's per-session busy fractions sit at single-session slowdown;
//! [`SessionLoad::measured`] divides that out, and k copies of the
//! measured load are solved by the same [`NodeState::solve`]. Model and
//! DES then share only the solve and its DRAM contention curve, so
//! agreement within tolerance validates the model's busy-fraction
//! derivation against simulated execution (the analogue of the paper's
//! Section 6.5 capacity argument).

use odr_core::{FpsGoal, RegulationSpec, SimOptions};
use odr_fleet::{run_fleet, FleetConfig};
use odr_pipeline::colocation::{check_slo, NodeState, Resident, ServerCapacity, SessionLoad, Slo};
use odr_pipeline::ExperimentConfig;
use odr_simtime::Duration;
use odr_workload::{Benchmark, Platform, Resolution, Scenario};

fn scenario() -> Scenario {
    Scenario::new(Benchmark::InMind, Resolution::R720p, Platform::PrivateCloud)
}

/// One operating point on the capacity curve: k ODR60 sessions, model
/// prediction beside fleet measurement.
struct CapacityPoint {
    /// Number of co-located sessions.
    sessions: u32,
    /// The mean-field model's prediction at this k: k copies of
    /// [`SessionLoad::at_rate`] at 60 FPS, solved.
    model: NodeState,
    /// The model's server wall power in watts at that operating point.
    model_power_w: f64,
    /// Raw DES-measured concurrent memory streams: the sum of busy
    /// fractions over all sessions and stages, at single-session
    /// (uncontended) slowdown.
    des_streams: f64,
    /// The DES-calibrated *contended* operating point: k copies of the
    /// measured load solved at k sessions.
    des: NodeState,
    /// Fleet power draw in watts (sum of per-session means).
    fleet_power_w: f64,
    /// Mean client FPS across the fleet's sessions.
    mean_client_fps: f64,
    /// Mean per-session target satisfaction.
    satisfaction: f64,
}

/// Sweeps session counts `ks` of 20 s IM ODR60 sessions on a default
/// server, evaluating the model beside a fresh k-session FullDes fleet
/// at each k. `threads` sizes each fleet's worker pool and does not
/// affect any number.
fn capacity_curve(ks: &[u32], threads: usize) -> Vec<CapacityPoint> {
    let base = ExperimentConfig::builder(scenario(), RegulationSpec::odr(FpsGoal::Target(60.0)))
        .duration(Duration::from_secs(20))
        .build();
    let capacity = ServerCapacity::default();
    let mem = scenario().memory_params();
    ks.iter()
        .map(|&k| {
            let fleet = run_fleet(&FleetConfig {
                sim: SimOptions::new().with_threads(threads),
                ..FleetConfig::new(base, k)
            });
            // k copies of one session's measured load (the fleet's
            // per-session means), solved together.
            let n = f64::from(fleet.sessions.max(1));
            let fps = fleet.per_session.iter().map(|s| s.client_fps).sum::<f64>() / n;
            let mtp_ms = fleet.per_session.iter().map(|s| s.mtp_mean_ms).sum::<f64>() / n;
            let load = SessionLoad::measured(&mem, fleet.busy.map(|b| b / n), fps, mtp_ms);
            let residents: Vec<Resident> =
                (0..k).map(|session| Resident { session, load }).collect();
            let (model, model_power_w) = model_at(&capacity, k);
            CapacityPoint {
                sessions: k,
                model,
                model_power_w,
                des_streams: fleet.des_streams,
                des: NodeState::solve(&capacity, &mem, &residents, None),
                fleet_power_w: fleet.total_power_w,
                mean_client_fps: fps,
                satisfaction: fleet.mean_satisfaction,
            }
        })
        .collect()
}

/// The model at `k` sessions: k copies of the closed-form 60 FPS load
/// solved together, and the server's wall power there (idle plus each
/// activity's dynamic power at the aggregate, capped utilisation, the
/// sublinear law the single-session model uses).
fn model_at(capacity: &ServerCapacity, k: u32) -> (NodeState, f64) {
    let load = SessionLoad::at_rate(&scenario(), 60.0);
    let residents: Vec<Resident> = (0..k).map(|session| Resident { session, load }).collect();
    let state = NodeState::solve(capacity, &scenario().memory_params(), &residents, None);
    let power = scenario().power_params();
    let agg = |c: f64| {
        (f64::from(k) * (c * state.slowdown).min(1.0))
            .min(1.0)
            .powf(power.util_exponent)
    };
    let [app, render, copy, encode] = load.coeffs.map(agg);
    let power_w = power.idle_w
        + power.render_w * render
        + power.app_w * app
        + power.copy_w * copy
        + power.encode_w * encode;
    (state, power_w)
}

/// Whether the model's operating point at `p` passes the admission
/// predicate with every one of its k sessions held to 60 FPS.
fn holds_60(p: &CapacityPoint) -> bool {
    let load = SessionLoad::at_rate(&scenario(), 60.0);
    let residents: Vec<Resident> = (1..p.sessions)
        .map(|session| Resident { session, load })
        .collect();
    let slo = Slo {
        min_fps: 60.0,
        ..Slo::default()
    };
    let ceiling = ServerCapacity::default().ceiling;
    check_slo(&p.model, ceiling, &slo, &load, &residents).is_ok()
}

fn rel(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs().max(1e-12)
}

/// The model against the DES at k = 1, 2, 4, where the GPU has room, and
/// at k = 8, 16, far past it: there the regulated pipelines run
/// throughput-bound and both fixed points sit on the steep part of the
/// DRAM curve, amplifying small busy-fraction gaps. So each tolerance is
/// looser past the GPU: expected streams 25 % / 30 % (an aggregate of
/// four per-stage fractions), DRAM slowdown 25 % / 30 % (the same gap
/// pushed through the curve), GPU load 40 % / 50 % (one coefficient
/// times the slowdown, so the two deviations compound).
#[test]
fn model_tracks_the_fleet_des() {
    let curve = capacity_curve(&[1, 2, 4, 8, 16], 4);
    assert_eq!(curve.len(), 5);

    for p in &curve {
        let k = p.sessions;
        let [streams, slowdown, gpu] = if k <= 4 {
            [0.25, 0.25, 0.40]
        } else {
            [0.30, 0.30, 0.50]
        };
        let (model, des) = (&p.model, &p.des);
        for (what, m, d, tolerance) in [
            ("streams", model.streams, des.streams, streams),
            ("slowdown", model.slowdown, des.slowdown, slowdown),
            ("gpu load", model.gpu_load, des.gpu_load, gpu),
        ] {
            assert!(rel(m, d) < tolerance, "k={k}: model {what} {m} vs DES {d}");
        }
        // QoS sanity where the model holds every session at 60 FPS: the
        // fleet's sessions hold their target. Deep in oversubscription a
        // 60 FPS target cannot hold on one GPU, and the model must say so.
        if holds_60(p) {
            assert!(k <= 4, "k={k}: the model holds 60 FPS past GPU saturation");
            assert!(
                p.mean_client_fps > 0.8 * 60.0,
                "k={k}: the model holds 60 FPS but fleet FPS is {}",
                p.mean_client_fps
            );
            assert!(p.satisfaction > 0.5, "k={k}: sat {}", p.satisfaction);
        }
    }

    // Monotonicity: more sessions, more measured contention and power.
    for w in curve.windows(2) {
        assert!(w[1].des_streams > w[0].des_streams);
        assert!(w[1].fleet_power_w > w[0].fleet_power_w);
        assert!(w[1].model_power_w >= w[0].model_power_w);
    }

    // The per-session DES measurement is independent of k (sessions do
    // not contend in the DES), so measured streams must scale linearly:
    // k sessions carry ~k times the busy fractions of one.
    let per_session = curve[0].des_streams;
    for p in &curve {
        let expected = f64::from(p.sessions) * per_session;
        assert!(
            rel(p.des_streams, expected) < 0.10,
            "k={} streams {} vs {expected}",
            p.sessions,
            p.des_streams
        );
    }
}
