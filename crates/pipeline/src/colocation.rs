//! Multi-session co-location: how many regulated sessions fit one server.
//!
//! The paper's efficiency argument is ultimately about data-centre
//! capacity: the cycles excessive rendering burns are cycles another
//! session could have used. This module answers "how many sessions can one
//! server host at a given QoS?" with a mean-field model:
//!
//! * each session's per-stage *busy fractions* follow from its FPS target
//!   and the (contended) stage durations;
//! * the expected number of concurrently active memory streams is the sum
//!   of busy fractions over all sessions, which sets the DRAM slowdown
//!   through the same [`odr_memsim::MemoryParams`] curves the
//!   discrete-event simulator uses;
//! * the slowdown feeds back into the stage durations — a fixed point
//!   solved by iteration;
//! * a session set is feasible when the shared GPU and CPU stay under a
//!   utilisation ceiling and every session can hold its target.
//!
//! The model is validated against the single-session DES in this module's
//! tests: at one session its slowdown and utilisations must match the
//! simulator's measurements.

use odr_workload::Scenario;

/// Server execution resources available to co-located sessions.
#[derive(Clone, Copy, Debug)]
pub struct ServerCapacity {
    /// Whole-GPU units (1.0 = the single GPU of the paper's servers).
    pub gpu: f64,
    /// Concurrent heavy CPU threads the host sustains (app logic, copy,
    /// encode workers across sessions).
    pub cpu_threads: f64,
    /// Maximum sustained utilisation before QoS degrades (headroom).
    pub ceiling: f64,
}

impl Default for ServerCapacity {
    fn default() -> Self {
        ServerCapacity {
            gpu: 1.0,
            cpu_threads: 4.0,
            ceiling: 0.90,
        }
    }
}

/// Outcome of a co-location evaluation.
#[derive(Clone, Copy, Debug)]
pub struct ColocationResult {
    /// Number of sessions evaluated.
    pub sessions: u32,
    /// Converged DRAM stage slowdown shared by every session.
    pub slowdown: f64,
    /// Expected concurrently active memory streams.
    pub expected_streams: f64,
    /// Shared-GPU load (fraction of [`ServerCapacity::gpu`]).
    pub gpu_load: f64,
    /// Shared-CPU load (fraction of [`ServerCapacity::cpu_threads`]).
    pub cpu_load: f64,
    /// Whether every session holds the FPS target within capacity.
    pub feasible: bool,
    /// Estimated server wall power in watts.
    pub power_w: f64,
}

/// Mean-field co-location model for one scenario at a fixed FPS target.
#[derive(Clone, Copy, Debug)]
pub struct ColocationModel {
    scenario: Scenario,
    target_fps: f64,
    capacity: ServerCapacity,
}

impl ColocationModel {
    /// Creates a model for `sessions` copies of `scenario`'s benchmark,
    /// each regulated (ODR-style) to `target_fps`.
    ///
    /// # Panics
    ///
    /// Panics if `target_fps` is not strictly positive.
    #[must_use]
    pub fn new(scenario: Scenario, target_fps: f64, capacity: ServerCapacity) -> Self {
        assert!(target_fps > 0.0, "target FPS must be positive");
        ColocationModel {
            scenario,
            target_fps,
            capacity,
        }
    }

    /// Evaluates `sessions` co-located sessions.
    #[must_use]
    pub fn evaluate(&self, sessions: u32) -> ColocationResult {
        let fm = self.scenario.frame_model();
        let mem = self.scenario.memory_params();
        let power = self.scenario.power_params();
        let n = f64::from(sessions);
        let f = self.target_fps;

        // Base per-frame stage costs in seconds.
        let t_render = fm.render.mean_ms() / 1e3;
        let t_copy = fm.copy.mean_ms() / 1e3;
        let t_encode = fm.encode.mean_ms() / 1e3;

        // App logic runs with rendering; render counts twice (AppLogic +
        // Render streams), matching the DES activation pattern.
        let (streams, slowdown) = mem.contention_fixed_point(|slowdown| {
            let b_render = (f * t_render * slowdown).min(1.0);
            let b_copy = (f * t_copy * slowdown).min(1.0);
            let b_encode = (f * t_encode * slowdown).min(1.0);
            n * (2.0 * b_render + b_copy + b_encode)
        });

        let b_render = (f * t_render * slowdown).min(1.0);
        let b_copy = (f * t_copy * slowdown).min(1.0);
        let b_encode = (f * t_encode * slowdown).min(1.0);

        let gpu_load = n * b_render / self.capacity.gpu;
        let cpu_load = n * (b_render + b_copy + b_encode) / self.capacity.cpu_threads;
        // Each session individually must be able to hold the target: no
        // stage may be saturated.
        let per_session_ok = b_render < 0.999 && (b_copy + b_encode) < 0.999;
        let feasible = per_session_ok
            && gpu_load <= self.capacity.ceiling
            && cpu_load <= self.capacity.ceiling;

        // Server power: idle plus per-activity dynamic power at the
        // aggregate (capped) utilisations, the same sublinear law the
        // single-session model uses.
        let agg = |b: f64| (n * b).min(1.0).powf(power.util_exponent);
        let power_w = power.idle_w
            + power.render_w * agg(b_render)
            + power.app_w * agg(b_render)
            + power.copy_w * agg(b_copy)
            + power.encode_w * agg(b_encode);

        ColocationResult {
            sessions,
            slowdown,
            expected_streams: streams,
            gpu_load,
            cpu_load,
            feasible,
            power_w,
        }
    }

    /// The largest session count (up to `limit`) that stays feasible.
    #[must_use]
    pub fn capacity_sessions(&self, limit: u32) -> u32 {
        (1..=limit)
            .take_while(|&n| self.evaluate(n).feasible)
            .last()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_experiment, ExperimentConfig};
    use odr_core::{FpsGoal, RegulationSpec};
    use odr_simtime::Duration;
    use odr_workload::{Benchmark, Platform, Resolution};

    fn scenario() -> Scenario {
        Scenario::new(Benchmark::InMind, Resolution::R720p, Platform::PrivateCloud)
    }

    #[test]
    fn single_session_matches_the_des() {
        let model = ColocationModel::new(scenario(), 60.0, ServerCapacity::default());
        let analytic = model.evaluate(1);
        assert!(analytic.feasible);

        let des = run_experiment(
            &ExperimentConfig::builder(scenario(), RegulationSpec::odr(FpsGoal::Target(60.0)))
                .duration(Duration::from_secs(30))
                .build(),
        );
        // GPU utilisation: DES reports the render client's busy fraction.
        let des_gpu = des.memory.utilisation[1];
        let model_gpu = analytic.gpu_load;
        assert!(
            (model_gpu - des_gpu).abs() / des_gpu < 0.25,
            "model {model_gpu} vs DES {des_gpu}"
        );
        // Power within 10 %.
        assert!(
            (analytic.power_w - des.memory.power_w).abs() / des.memory.power_w < 0.10,
            "model {} vs DES {}",
            analytic.power_w,
            des.memory.power_w
        );
    }

    #[test]
    fn more_sessions_mean_more_contention() {
        let model = ColocationModel::new(scenario(), 60.0, ServerCapacity::default());
        let one = model.evaluate(1);
        let two = model.evaluate(2);
        let three = model.evaluate(3);
        assert!(two.slowdown > one.slowdown);
        assert!(three.slowdown > two.slowdown);
        assert!(three.expected_streams > two.expected_streams);
        assert!(three.power_w >= two.power_w);
    }

    #[test]
    fn capacity_shrinks_with_target() {
        let cap = ServerCapacity::default();
        let at30 = ColocationModel::new(scenario(), 30.0, cap).capacity_sessions(16);
        let at60 = ColocationModel::new(scenario(), 60.0, cap).capacity_sessions(16);
        let at120 = ColocationModel::new(scenario(), 120.0, cap).capacity_sessions(16);
        assert!(at30 > at60, "30fps {at30} vs 60fps {at60}");
        assert!(at60 >= at120, "60fps {at60} vs 120fps {at120}");
        assert!(
            at60 >= 2,
            "a regulated 60fps session must leave room: {at60}"
        );
    }

    #[test]
    fn unregulated_equivalent_fills_the_server() {
        // A NoReg session renders flat out — model it as a target at the
        // rendering capability: it alone saturates the GPU.
        let fm = scenario().frame_model();
        let flat_out = fm.render.mean_rate_hz();
        let model = ColocationModel::new(scenario(), flat_out, ServerCapacity::default());
        assert_eq!(
            model.capacity_sessions(8),
            0,
            "flat-out rendering leaves no headroom"
        );
        let one = model.evaluate(1);
        assert!(one.gpu_load > 0.9, "gpu {}", one.gpu_load);
    }

    #[test]
    fn infeasible_when_stage_saturates() {
        let model = ColocationModel::new(scenario(), 500.0, ServerCapacity::default());
        let r = model.evaluate(1);
        assert!(!r.feasible);
    }

    #[test]
    #[should_panic(expected = "target FPS must be positive")]
    fn zero_target_panics() {
        let _ = ColocationModel::new(scenario(), 0.0, ServerCapacity::default());
    }
}
