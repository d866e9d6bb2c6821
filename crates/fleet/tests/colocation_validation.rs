//! Cross-model validation: the mean-field co-location model against the
//! fleet DES.
//!
//! The model predicts expected concurrent memory streams, DRAM slowdown
//! and GPU load from closed-form stage costs; the fleet measures the
//! same quantities from k simulated sessions. They share only the DRAM
//! contention curve, so agreement within tolerance validates the model's
//! busy-fraction derivation against simulated execution (the analogue of
//! the paper's Section 6.5 capacity argument).

use odr_core::{FidelityMode, FpsGoal, RegulationSpec, SimOptions};
use odr_fleet::{capacity_curve, curve_to_text};
use odr_pipeline::colocation::ServerCapacity;
use odr_pipeline::ExperimentConfig;
use odr_simtime::Duration;
use odr_workload::{Benchmark, Platform, Resolution, Scenario};

fn rel(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs().max(1e-12)
}

#[test]
fn model_tracks_the_fleet_des_at_k_1_2_4() {
    let base = ExperimentConfig::builder(
        Scenario::new(Benchmark::InMind, Resolution::R720p, Platform::PrivateCloud),
        RegulationSpec::odr(FpsGoal::Target(60.0)),
    )
    .duration(Duration::from_secs(20))
    .build();
    let capacity = ServerCapacity::default();
    let curve = capacity_curve(&base, capacity, 60.0, &[1, 2, 4], SimOptions::new().with_threads(4));
    assert_eq!(curve.len(), 3);

    for p in &curve {
        // Busy-fraction accounting: the model's expected stream count
        // must match the DES-calibrated one (measured busy fractions
        // pushed through the same fixed point — the single-session
        // check of `colocation.rs`, extended to contended fleets).
        assert!(
            rel(p.model.expected_streams, p.des_contended_streams) < 0.25,
            "k={}: model streams {} vs DES {}",
            p.sessions,
            p.model.expected_streams,
            p.des_contended_streams
        );
        // Slowdown: both fixed points must converge close together.
        // The contention curve is steep at higher k, so a stream gap
        // within tolerance can amplify — the slowdown tolerance matches
        // the stream one rather than tightening it.
        assert!(
            rel(p.model.slowdown, p.des_slowdown) < 0.25,
            "k={}: model slowdown {} vs DES {}",
            p.sessions,
            p.model.slowdown,
            p.des_slowdown
        );
        // GPU load: a single stage's busy fraction times the converged
        // slowdown, so the coefficient and slowdown deviations compound
        // multiplicatively — stated tolerance is looser than the
        // aggregate stream check.
        assert!(
            rel(p.model.gpu_load, p.des_gpu_load) < 0.40,
            "k={}: model gpu {} vs DES {}",
            p.sessions,
            p.model.gpu_load,
            p.des_gpu_load
        );
        // QoS sanity at feasible operating points: sessions hold their
        // target.
        if p.model.feasible {
            assert!(
                p.mean_client_fps > 0.8 * 60.0,
                "k={}: feasible but fleet FPS {}",
                p.sessions,
                p.mean_client_fps
            );
            assert!(p.satisfaction > 0.5, "k={}: sat {}", p.sessions, p.satisfaction);
        }
    }

    // Monotonicity: more sessions, more measured contention and power.
    for w in curve.windows(2) {
        assert!(w[1].des_streams > w[0].des_streams);
        assert!(w[1].fleet_power_w > w[0].fleet_power_w);
        assert!(w[1].model.power_w >= w[0].model.power_w);
    }

    // The per-session DES measurement is independent of k (sessions do
    // not contend in the DES), so measured streams must scale linearly:
    // k=4 carries ~4x the busy fractions of k=1.
    let per_session = curve[0].des_streams;
    assert!(
        rel(curve[2].des_streams, 4.0 * per_session) < 0.10,
        "k=4 streams {} vs 4x k=1 {}",
        curve[2].des_streams,
        4.0 * per_session
    );
}

#[test]
fn model_tracks_the_fleet_des_at_k_8_16() {
    // Deep-oversubscription extension of the k <= 4 check: at 8 and 16
    // co-located sessions the node is far past its GPU, so the regulated
    // pipelines run throughput-bound and the contention fixed point sits
    // on the steep part of the DRAM curve. Tolerances are stated per
    // quantity and looser than at k <= 4 because both fixed points
    // amplify small busy-fraction gaps there:
    //
    // * expected streams: 30% (aggregate of four per-stage fractions),
    // * DRAM slowdown: 30% (same gap pushed through the curve),
    // * GPU load: 50% (single coefficient x slowdown, compounding).
    let base = ExperimentConfig::builder(
        Scenario::new(Benchmark::InMind, Resolution::R720p, Platform::PrivateCloud),
        RegulationSpec::odr(FpsGoal::Target(60.0)),
    )
    .duration(Duration::from_secs(20))
    .build();
    let capacity = ServerCapacity::default();
    let curve = capacity_curve(&base, capacity, 60.0, &[8, 16], SimOptions::new().with_threads(8));
    assert_eq!(curve.len(), 2);

    for p in &curve {
        assert!(
            rel(p.model.expected_streams, p.des_contended_streams) < 0.30,
            "k={}: model streams {} vs DES {}",
            p.sessions,
            p.model.expected_streams,
            p.des_contended_streams
        );
        assert!(
            rel(p.model.slowdown, p.des_slowdown) < 0.30,
            "k={}: model slowdown {} vs DES {}",
            p.sessions,
            p.model.slowdown,
            p.des_slowdown
        );
        assert!(
            rel(p.model.gpu_load, p.des_gpu_load) < 0.50,
            "k={}: model gpu {} vs DES {}",
            p.sessions,
            p.model.gpu_load,
            p.des_gpu_load
        );
        // This deep into oversubscription a 60 FPS target cannot hold on
        // one GPU: the model must call the operating point infeasible.
        assert!(
            !p.model.feasible,
            "k={}: model claims 60 FPS is feasible past GPU saturation",
            p.sessions
        );
    }

    // Contention keeps rising from 8 to 16 sessions, and measured
    // streams stay linear in k (DES sessions are independent).
    assert!(curve[1].des_streams > curve[0].des_streams);
    assert!(curve[1].fleet_power_w > curve[0].fleet_power_w);
    assert!(
        rel(curve[1].des_streams, 2.0 * curve[0].des_streams) < 0.10,
        "k=16 streams {} vs 2x k=8 {}",
        curve[1].des_streams,
        2.0 * curve[0].des_streams
    );
}

/// Golden pin of one analytic capacity curve: the analytic path
/// calibrates the class once and derives every operating point in
/// closed form, so its output is a pure function of the config — any
/// byte drift here means the calibration, the class key, or the fixed
/// point changed. Regenerate by printing
/// `curve_to_text(&capacity_curve(...))` with the parameters below.
#[test]
fn analytic_capacity_curve_matches_golden() {
    let base = ExperimentConfig::builder(
        Scenario::new(Benchmark::InMind, Resolution::R720p, Platform::PrivateCloud),
        RegulationSpec::odr(FpsGoal::Target(60.0)),
    )
    .duration(Duration::from_secs(10))
    .build();
    let curve = capacity_curve(
        &base,
        ServerCapacity::default(),
        60.0,
        &[1, 4, 8],
        SimOptions::new().with_fidelity(FidelityMode::Analytic),
    );
    let golden = concat!(
        "  k model_streams   des_streams  model_sd    des_sd    power_w       fps    mtp_ms     feas\n",
        "  1        1.0688        1.1839    1.0033    1.0092     170.52     60.00     20.39     true\n",
        "  4        7.2942        9.4333    1.7117    2.0102     682.09     60.00     20.39    false\n",
        "  8       26.1102       26.4601    4.3472    4.3938    1364.17     60.00     20.39    false\n",
    );
    assert_eq!(curve_to_text(&curve), golden);
}
