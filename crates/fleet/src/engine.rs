//! The deterministic worker pool.

use std::iter;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use odr_core::workers::{self, Job};
use odr_core::FidelityMode;
use odr_pipeline::{run_experiment, ExperimentConfig};

use crate::analytic::run_fleet_analytic;
use crate::config::FleetConfig;
use crate::report::{FleetReport, SessionOutcome};

/// Simulates `cfg.sessions` independent sessions and reduces them into
/// one [`FleetReport`], dispatching on `cfg.sim.fidelity`.
///
/// In [`FidelityMode::FullDes`] every session runs the complete
/// per-frame DES across `cfg.effective_threads()` workers: workers claim
/// session indices from a shared atomic counter (no work stealing, no
/// locks); each runs its sessions to completion and hands back
/// `(index, outcome)` pairs. After every worker joins, outcomes are
/// sorted by session index and folded in that order — the report is
/// bit-identical for any thread count (see the crate-level determinism
/// contract).
///
/// In [`FidelityMode::Analytic`] the session class is calibrated once
/// with a small FullDes fleet and every session is replayed through the
/// calibrated distributions (the private `analytic` module); the report is
/// aggregate-only (`per_session` stays empty) but equally deterministic.
///
/// # Panics
///
/// Re-raises any panic from a worker.
#[must_use]
pub fn run_fleet(cfg: &FleetConfig) -> FleetReport {
    match cfg.sim.fidelity {
        FidelityMode::FullDes => {
            let configs: Vec<ExperimentConfig> =
                (0..cfg.sessions).map(|i| cfg.session_config(i)).collect();
            let outcomes = run_outcomes(&configs, cfg.effective_threads());
            FleetReport::reduce(cfg.base.label(), &outcomes)
        }
        FidelityMode::Analytic => run_fleet_analytic(cfg),
    }
}

/// Simulates one session per entry of `configs` — heterogeneous shapes
/// allowed — and returns the outcomes sorted by index (the position in
/// `configs`).
///
/// This is the primitive under [`run_fleet`] and the entry point other
/// layers (the cluster scheduler's per-node sub-fleets, policy
/// calibration sweeps) use to run a mixed bag of sessions under the same
/// determinism contract: workers claim indices from a shared atomic
/// counter, so thread assignment is racy but no session's inputs depend
/// on it, and the returned order is always `0..configs.len()`. Callers
/// choose the seeds — derive them with
/// [`session_seed`](crate::session_seed) to stay inside the contract.
///
/// Workers claim the heaviest sessions first, so the longest one does not
/// start last and stretch the pool's makespan: unregulated sessions
/// (`spec.goal().target()` is `None`) first, then by target FPS ×
/// `duration`, descending, ties in index order. The claim order decides
/// only which worker runs a session and when, never its inputs.
///
/// `threads` is clamped to `1..=configs.len()` (one worker minimum). The
/// calling thread is one of the workers; the other `threads - 1` are
/// kept [`odr_core::workers`], which park for the next call, and each
/// thread runs its sessions on the scratch it keeps.
///
/// # Panics
///
/// Re-raises any panic from a worker, once every claim loop has ended.
#[must_use]
pub fn run_outcomes(configs: &[ExperimentConfig], threads: usize) -> Vec<SessionOutcome> {
    let total = configs.len() as u32;
    let threads = threads.clamp(1, configs.len().max(1));

    // Frames a session asks to render: unbounded when unregulated.
    let weight = |c: &ExperimentConfig| {
        c.spec
            .goal()
            .target()
            .map_or(f64::INFINITY, |fps| fps * c.duration.as_secs_f64())
    };
    let mut order: Vec<u32> = (0..total).collect();
    // A stable sort: equal weights keep index order.
    order.sort_by(|&a, &b| weight(&configs[b as usize]).total_cmp(&weight(&configs[a as usize])));
    let mut outcomes: Vec<SessionOutcome> = Vec::with_capacity(configs.len());
    let (configs, order): (Arc<[ExperimentConfig]>, Arc<[u32]>) = (configs.into(), order.into());
    let next = Arc::new(AtomicU32::new(0));
    // One claim loop: pull the next index in `order` until none is left.
    let claim_all = move || {
        let mut mine = Vec::new();
        loop {
            let claim = next.fetch_add(1, Ordering::Relaxed);
            let Some(&index) = order.get(claim as usize) else {
                break;
            };
            let session_cfg = &configs[index as usize];
            let report = run_experiment(session_cfg);
            mine.push(SessionOutcome::from_report(index, session_cfg, report));
        }
        mine
    };
    let jobs: Vec<Job<Vec<SessionOutcome>>> = (1..threads)
        .map(|_| workers::spawn(claim_all.clone()))
        .collect();
    let mine = panic::catch_unwind(AssertUnwindSafe(claim_all));
    // Every loop has ended before the first panic is re-raised.
    let ended: Vec<_> = iter::once(mine)
        .chain(jobs.into_iter().map(Job::join))
        .collect();
    for claimed in ended {
        outcomes.extend(claimed.unwrap_or_else(|payload| panic::resume_unwind(payload)));
    }
    outcomes.sort_by_key(|o| o.index);
    debug_assert_eq!(outcomes.len(), total as usize);
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;
    use odr_core::{FpsGoal, RegulationSpec};
    use odr_pipeline::ExperimentConfig;
    use odr_simtime::Duration;
    use odr_workload::{Benchmark, Platform, Resolution, Scenario};

    fn tiny(sessions: u32, threads: usize) -> FleetConfig {
        FleetConfig::builder(
            Scenario::new(Benchmark::InMind, Resolution::R720p, Platform::PrivateCloud),
            RegulationSpec::odr(FpsGoal::Target(60.0)),
        )
        .sessions(sessions)
        .threads(threads)
        .base(|b| b.duration(Duration::from_secs(2)))
        .build()
    }

    #[test]
    fn fleet_runs_every_session() {
        let r = run_fleet(&tiny(3, 2));
        assert_eq!(r.sessions, 3);
        assert_eq!(r.per_session.len(), 3);
        for (i, row) in r.per_session.iter().enumerate() {
            assert_eq!(row.index as usize, i);
            assert!(row.client_fps > 0.0);
        }
    }

    #[test]
    fn empty_fleet_is_fine() {
        let r = run_fleet(&tiny(0, 1));
        assert_eq!(r.sessions, 0);
        assert!(r.per_session.is_empty());
    }

    #[test]
    fn more_threads_than_sessions_is_fine() {
        let r = run_fleet(&tiny(2, 64));
        assert_eq!(r.sessions, 2);
    }

    /// The parallel runs start on the workers a panicking session left
    /// parked: no worker is lost to a session's panic.
    #[test]
    fn run_outcomes_handles_heterogeneous_configs_after_a_panic() {
        let scenario = Scenario::new(Benchmark::InMind, Resolution::R720p, Platform::PrivateCloud);
        let session = |spec, seed| {
            ExperimentConfig::builder(scenario, spec)
                .duration(Duration::from_secs(2))
                .seed(seed)
                .build()
        };
        // Lightest first and the unregulated session last: the claim order
        // is the reverse of the index order.
        let configs = [
            session(RegulationSpec::odr(FpsGoal::Target(30.0)), 6),
            session(RegulationSpec::odr(FpsGoal::Target(60.0)), 7),
            session(RegulationSpec::NoReg, 8),
        ];
        let serial = run_outcomes(&configs, 1);
        assert_eq!(serial.len(), 3);
        // `FpsRegulator::new` panics on a target that is not positive.
        let broken = [session(RegulationSpec::odr(FpsGoal::Target(0.0)), 9)];
        let payload =
            std::panic::catch_unwind(|| run_outcomes(&[&configs[..], &broken].concat(), 3))
                .expect_err("a session's panic re-raises once every claim loop has ended");
        assert_eq!(payload.downcast_ref(), Some(&"target FPS must be positive"));
        for threads in [2, 8] {
            let parallel = run_outcomes(&configs, threads);
            assert_eq!(parallel.len(), serial.len());
            for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
                assert_eq!(b.index as usize, i, "{threads} threads");
                // `Debug` prints every float in full: equal text, equal bits.
                assert_eq!(format!("{a:?}"), format!("{b:?}"), "{threads} threads");
            }
        }
        // The NoReg session renders flat out: measurably faster.
        assert!(serial[2].client_fps > serial[1].client_fps);
        assert!(serial[1].client_fps > serial[0].client_fps);
    }

    #[test]
    fn tracing_does_not_change_the_rendered_report() {
        let plain = run_fleet(&tiny(2, 1));
        let mut traced_cfg = tiny(2, 1);
        traced_cfg.base.obs = true;
        let traced = run_fleet(&traced_cfg);
        assert_eq!(plain.to_text(), traced.to_text());
        assert!(plain.obs.is_empty());
    }

    #[test]
    fn obs_counters_fold_identically_across_thread_counts() {
        let traced_on = |threads| {
            let mut cfg = tiny(4, threads);
            cfg.base.obs = true;
            run_fleet(&cfg)
        };
        let (one, two, eight) = (traced_on(1), traced_on(2), traced_on(8));
        assert!(!one.obs.is_empty(), "capture was on: counters expected");
        assert_eq!(one.obs, two.obs);
        assert_eq!(one.obs, eight.obs);
        assert_eq!(one.to_text(), two.to_text());
        assert_eq!(one.to_text(), eight.to_text());
    }
}
