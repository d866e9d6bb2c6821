//! Property-based tests over the cluster engine's determinism and
//! report-algebra invariants.
//!
//! The strategy engine is the std-only shim in `shims/proptest` so the
//! suite runs fully offline. See shims/README.md.

use odr_cluster::{
    assert_conservation, run_cluster, ChurnConfig, ClusterConfig, ClusterReport, PlacementKind,
    PolicyChoice, PolicyMix,
};
use odr_core::{FidelityMode, FpsGoal, RegulationSpec};
use odr_simtime::Duration;
use odr_workload::{Benchmark, Platform, Resolution, Scenario};
use proptest::prelude::*;

fn scenario() -> Scenario {
    Scenario::new(Benchmark::InMind, Resolution::R720p, Platform::PrivateCloud)
}

fn placement(idx: u8) -> PlacementKind {
    match idx % 3 {
        0 => PlacementKind::FirstFit,
        1 => PlacementKind::BestFit,
        _ => PlacementKind::OdrAware,
    }
}

/// A small, fast cluster run (prediction only — measurement determinism
/// is covered by the engine's own thread-sweep test).
fn small_cfg(seed: u64, nodes: u32, rate: f64, place: PlacementKind) -> ClusterConfig {
    let churn = ChurnConfig::new(
        rate,
        PolicyMix::uniform(RegulationSpec::odr(FpsGoal::Target(60.0))),
    )
    .with_mean_session(Duration::from_secs(6));
    ClusterConfig::builder(scenario(), churn)
        .nodes(nodes)
        .horizon(Duration::from_secs(12))
        .calibration(Duration::from_secs(1))
        .seed(seed)
        .measure(false)
        .placement(place)
        .build()
}

/// A shard whose node ids are disjoint from every other `shard(i)`.
fn shard(i: u32, seed: u64) -> ClusterReport {
    let cfg = ClusterConfig {
        first_node_id: i * 8,
        ..small_cfg(seed, 2, 0.9, placement(i as u8))
    };
    run_cluster(&cfg).report
}

proptest! {
    /// Replaying the exact same configuration yields a byte-identical
    /// report, whatever the seed, pool size, load or placement policy —
    /// and every run satisfies the session-conservation identities.
    #[test]
    fn same_seed_replay_is_byte_identical(
        seed in any::<u64>(),
        nodes in 1u32..4,
        rate in 0.2f64..1.6,
        place in 0u8..3,
    ) {
        let cfg = small_cfg(seed, nodes, rate, placement(place));
        let a = run_cluster(&cfg);
        let b = run_cluster(&cfg);
        assert_conservation(&a.report);
        prop_assert_eq!(a.report.to_text(), b.report.to_text());
        prop_assert_eq!(format!("{:?}", a.obs), format!("{:?}", b.obs));
    }

    /// `ClusterReport::merge` is commutative: folding two disjoint shards
    /// in either order yields byte-identical text.
    #[test]
    fn merge_is_commutative(seed in any::<u64>()) {
        let a = shard(0, seed);
        let b = shard(1, seed ^ 0x5bd1_e995);
        prop_assert_eq!(a.merge(&b).to_text(), b.merge(&a).to_text());
    }

    /// `ClusterReport::merge` is associative: any grouping of three
    /// disjoint shards reduces to the same bytes, so a sharded reduction
    /// tree may combine partial reports in any shape.
    #[test]
    fn merge_is_associative(seed in any::<u64>()) {
        let a = shard(0, seed);
        let b = shard(1, seed.wrapping_add(1));
        let c = shard(2, seed.wrapping_add(2));
        let left = a.merge(&b).merge(&c);
        let right = a.merge(&b.merge(&c));
        prop_assert_eq!(left.to_text(), right.to_text());
    }

    /// Differential check across random policy mixes: the analytic
    /// fidelity shares the FullDes control plane, so its admission
    /// counts must be *equal*, and its synthetic measurement must track
    /// the span DES it replaces — median measured FPS within 10% and
    /// median MtP within 30% (documented in DESIGN.md §14; the analytic
    /// draws resample the same calibrated class, so only sampling noise
    /// over a handful of short spans separates the two).
    #[test]
    fn analytic_matches_full_des_across_mixes(
        seed in any::<u64>(),
        picks in prop::collection::vec((0usize..5, 1u64..4), 1..4),
    ) {
        let specs = [
            RegulationSpec::odr(FpsGoal::Target(60.0)),
            RegulationSpec::odr(FpsGoal::Target(30.0)),
            RegulationSpec::odr(FpsGoal::Max),
            RegulationSpec::Interval(FpsGoal::Target(60.0)),
            RegulationSpec::NoReg,
        ];
        // Duplicate picks are welcome: they give the mix repeated
        // session classes and exercise the calibration memoisation.
        let mix = PolicyMix::new(
            picks
                .iter()
                .map(|&(i, weight)| PolicyChoice { spec: specs[i], weight })
                .collect(),
        );
        let churn = ChurnConfig::new(0.9, mix).with_mean_session(Duration::from_secs(6));
        // Calibration runs 3 s (not the 1 s the byte-identity tests
        // use): the MtP sketch needs enough input samples that the
        // analytic resampling comparison below measures fidelity, not
        // calibration noise.
        let cfg = ClusterConfig::builder(scenario(), churn)
            .nodes(2)
            .horizon(Duration::from_secs(12))
            .calibration(Duration::from_secs(3))
            .seed(seed);
        let full = run_cluster(&cfg.clone().build());
        let fast = run_cluster(&cfg.fidelity(FidelityMode::Analytic).build());
        assert_conservation(&fast.report);
        prop_assert_eq!(full.report.arrivals, fast.report.arrivals);
        prop_assert_eq!(full.report.admitted, fast.report.admitted);
        prop_assert_eq!(full.report.shed, fast.report.shed);
        prop_assert_eq!(full.report.measured_sessions, fast.report.measured_sessions);
        prop_assert_eq!(full.measured.sessions, fast.measured.sessions);
        if full.measured.sessions > 0 {
            let rel = |x: f64, y: f64| (x - y).abs() / y.abs().max(1e-12);
            let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
            let span_fps = |r: &odr_fleet::FleetReport| {
                mean(&r.per_session.iter().map(|s| s.client_fps).collect::<Vec<_>>())
            };
            let span_mtp = |r: &odr_fleet::FleetReport| {
                mean(&r.per_session.iter().map(|s| s.mtp_mean_ms).collect::<Vec<_>>())
            };
            let (f_fps, a_fps) = (span_fps(&full.measured), span_fps(&fast.measured));
            prop_assert!(
                rel(a_fps, f_fps) < 0.10,
                "mean measured fps {} vs {}", a_fps, f_fps
            );
            let (f_mtp, a_mtp) = (span_mtp(&full.measured), span_mtp(&fast.measured));
            prop_assert!(
                rel(a_mtp, f_mtp) < 0.30,
                "mean measured mtp {} vs {}", a_mtp, f_mtp
            );
        }
    }
}
