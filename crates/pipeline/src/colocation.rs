//! Multi-session co-location: how many sessions fit one server, and at
//! what operating point.
//!
//! The paper's efficiency argument is ultimately about data-centre
//! capacity: the cycles excessive rendering burns are cycles another
//! session could have used. This module holds the one mean-field model
//! and the one admission predicate behind the capacity table, the
//! capacity curves, the cluster scheduler and the server's admission
//! control:
//!
//! * a session is a [`SessionLoad`]: uncontended per-stage activity
//!   coefficients plus its uncontended FPS and MtP. The closed form
//!   [`SessionLoad::at_rate`] prices one from the scenario's stage costs;
//!   [`SessionLoad::measured`] divides a DES run's self-contention out of
//!   its measured busy fractions;
//! * [`NodeState::solve`] sums the residents' busy fractions into the
//!   expected number of concurrently active memory streams, which sets
//!   the DRAM slowdown through the same [`MemoryParams`] curves the
//!   discrete-event simulator uses; the slowdown feeds back into the
//!   busy fractions — a fixed point solved by iteration;
//! * [`check_slo`] is the one answer to "does it fit?": a node's
//!   operating point with a candidate beside its residents either keeps
//!   every session inside the [`Slo`] or names the first bound it
//!   breaches. [`capacity_sessions`] counts how many copies of one load
//!   it admits one after another, the walk the cluster's node pool and
//!   the server's admission make.
//!
//! The model is validated against the single-session DES in this module's
//! tests: at one session its GPU load and power must match the
//! simulator's measurements.

use odr_memsim::MemoryParams;
use odr_workload::Scenario;

/// GPU position in the per-stage coefficient array
/// ([`odr_memsim::MemClient::ALL`] order: AppLogic, Render, Copy,
/// Encode).
const RENDER: usize = 1;

/// Server execution resources available to co-located sessions.
#[derive(Clone, Copy, Debug)]
pub struct ServerCapacity {
    /// Whole-GPU units (1.0 = the single GPU of the paper's servers).
    pub gpu: f64,
    /// Concurrent heavy CPU threads the host sustains (app logic, copy,
    /// encode workers across sessions).
    pub cpu_threads: f64,
    /// Maximum sustained CPU load, as a fraction of `cpu_threads`, before
    /// QoS degrades; [`Slo::max_gpu_load`] bounds the GPU.
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

/// One session's load: uncontended per-stage activity coefficients plus
/// the uncontended baseline QoS, either closed-form
/// ([`SessionLoad::at_rate`]) or measured by a dedicated-server DES run
/// of the session's policy ([`SessionLoad::measured`]).
#[derive(Clone, Copy, Debug)]
pub struct SessionLoad {
    /// Uncontended per-stage activity coefficients (busy fractions at no
    /// DRAM contention), in [`odr_memsim::MemClient::ALL`] order.
    pub coeffs: [f64; 4],
    /// Uncontended mean client FPS of the policy.
    pub fps: f64,
    /// Uncontended mean motion-to-photon latency in milliseconds.
    pub mtp_ms: f64,
}

impl SessionLoad {
    /// The closed-form load of a `scenario` session sustaining `fps`
    /// frames per second, priced as the busy fractions a dedicated-server
    /// DES run of it would measure, handed to [`SessionLoad::measured`].
    ///
    /// Each stage's work is `fps × t_stage` of every second at
    /// `scenario`'s mean stage costs (capped at 1), and app logic rides
    /// with rendering (the DES activation pattern, so render counts
    /// twice). That work is stretched by the DRAM slowdown of the
    /// session's own streams running beside it: render always runs with
    /// app logic (two streams), plus the proxy thread's copy or encode
    /// for the fraction of time that thread is busy (three); the proxy
    /// runs alone, or beside app logic and render for the fraction of
    /// time they are busy. Overlaps are taken as independent. Its QoS
    /// baseline is `fps` and an MtP floor of the pipeline walk plus half
    /// a frame interval of input-phase wait.
    #[must_use]
    pub fn at_rate(scenario: &Scenario, fps: f64) -> SessionLoad {
        let fm = scenario.frame_model();
        let mem = scenario.memory_params();
        let t_render = fm.render.mean_ms() / 1e3;
        let t_copy = fm.copy.mean_ms() / 1e3;
        let t_encode = fm.encode.mean_ms() / 1e3;
        let b_render = (fps * t_render).min(1.0);
        let b_copy = (fps * t_copy).min(1.0);
        let b_encode = (fps * t_encode).min(1.0);
        let proxy_busy = (b_copy + b_encode).min(1.0);
        let stretch = |p: f64, alone: f64, beside: f64| {
            (1.0 - p) * mem.slowdown_for_streams(alone) + p * mem.slowdown_for_streams(beside)
        };
        let render = (b_render * stretch(proxy_busy, 2.0, 3.0)).min(1.0);
        let proxy = stretch(b_render, 1.0, 3.0);
        let busy = [
            render,
            render,
            (b_copy * proxy).min(1.0),
            (b_encode * proxy).min(1.0),
        ];
        let mtp_ms = (t_render + t_copy + t_encode) * 1e3 + 500.0 / fps.max(1e-9);
        SessionLoad::measured(&mem, busy, fps, mtp_ms)
    }

    /// The load of a session a dedicated-server DES run measured: its
    /// per-stage busy fractions `busy` with their self-contention divided
    /// out (see [`uncontended_coefficients`]), and its mean client `fps`
    /// and MtP `mtp_ms`.
    #[must_use]
    pub fn measured(mem: &MemoryParams, busy: [f64; 4], fps: f64, mtp_ms: f64) -> SessionLoad {
        SessionLoad {
            coeffs: uncontended_coefficients(mem, busy),
            fps,
            mtp_ms,
        }
    }
}

/// One session resident on a server.
#[derive(Clone, Copy, Debug)]
pub struct Resident {
    /// Global session index.
    pub session: u32,
    /// The session's load.
    pub load: SessionLoad,
}

/// A server's predicted operating point at one resident set.
#[derive(Clone, Copy, Debug, Default)]
pub struct NodeState {
    /// Expected concurrently active memory streams at the fixed point.
    pub streams: f64,
    /// Converged DRAM slowdown shared by every resident.
    pub slowdown: f64,
    /// Raw GPU demand: the sum of residents' render-stage busy fractions
    /// (may exceed the server's GPU).
    pub gpu_demand: f64,
    /// GPU demand as a multiple of [`ServerCapacity::gpu`] (the quantity
    /// the cluster SLO's `max_gpu_load` bounds).
    pub gpu_load: f64,
    /// Fraction of its demanded GPU time each resident actually gets
    /// (1.0 when the GPU is not oversubscribed).
    pub gpu_share: f64,
    /// Shared-CPU load as a fraction of [`ServerCapacity::cpu_threads`].
    pub cpu_load: f64,
}

impl NodeState {
    /// Solves the operating point for an explicit resident set (plus an
    /// optional candidate an admission controller is probing).
    ///
    /// Sessions may carry different loads (a cluster node mixes ODR,
    /// Interval, RVS and NoReg residents). Contributions are summed in
    /// resident order, the candidate last — the order admission leaves
    /// them in, so a probe and the solve after the admission it allowed
    /// agree bit for bit. The residents are walked where they lie, so a
    /// solve allocates nothing. No residents yield zero streams at
    /// `mem.slowdown_for_streams(1.0)`.
    #[must_use]
    pub fn solve(
        capacity: &ServerCapacity,
        mem: &MemoryParams,
        residents: &[Resident],
        extra: Option<&SessionLoad>,
    ) -> NodeState {
        let sessions = || {
            let resident = residents.iter().map(|r| r.load.coeffs);
            resident.chain(extra.map(|load| load.coeffs))
        };
        let (streams, slowdown) = mem.contention_fixed_point(|slowdown| {
            sessions()
                .map(|coeffs| coeffs.iter().map(|c| (c * slowdown).min(1.0)).sum::<f64>())
                .sum::<f64>()
        });
        let mut gpu_demand = 0.0;
        let mut cpu_busy = 0.0;
        for coeffs in sessions() {
            gpu_demand += (coeffs[RENDER] * slowdown).min(1.0);
            for (stage, c) in coeffs.iter().enumerate() {
                if stage != RENDER {
                    cpu_busy += (c * slowdown).min(1.0);
                }
            }
        }
        let gpu_share = if gpu_demand > capacity.gpu {
            capacity.gpu / gpu_demand
        } else {
            1.0
        };
        NodeState {
            streams,
            slowdown,
            gpu_demand,
            gpu_load: gpu_demand / capacity.gpu,
            gpu_share,
            cpu_load: cpu_busy / capacity.cpu_threads,
        }
    }

    /// Predicts a resident's client FPS at this operating point: the
    /// uncontended FPS scaled by stage saturation (render and the
    /// copy+encode proxy thread) and by the GPU share when the GPU is
    /// oversubscribed.
    #[must_use]
    pub fn predicted_fps(&self, load: &SessionLoad) -> f64 {
        let render_busy = load.coeffs[RENDER] * self.slowdown;
        let render_cap = if render_busy > 1.0 {
            1.0 / render_busy
        } else {
            1.0
        };
        let proxy_busy = (load.coeffs[2] + load.coeffs[3]) * self.slowdown;
        let proxy_cap = if proxy_busy > 1.0 {
            1.0 / proxy_busy
        } else {
            1.0
        };
        load.fps * render_cap.min(proxy_cap) * self.gpu_share
    }

    /// Predicts a resident's motion-to-photon latency at this operating
    /// point: the uncontended MtP stretched by the DRAM slowdown and the
    /// GPU share.
    #[must_use]
    pub fn predicted_mtp_ms(&self, load: &SessionLoad) -> f64 {
        load.mtp_ms * self.slowdown / self.gpu_share.max(1e-9)
    }
}

/// The per-session service-level objective admission enforces.
///
/// A candidate placement is admissible only if, at the *post-placement*
/// fixed point, every resident of the node (including the newcomer)
/// still meets `min_fps` and `max_mtp_ms`, and the node's shared-GPU
/// load stays at or below `max_gpu_load` (in units of the node's GPU;
/// values above 1 permit oversubscription, which the QoS model converts
/// into proportionally shared throughput).
#[derive(Clone, Copy, Debug)]
pub struct Slo {
    /// Minimum predicted per-session client FPS.
    pub min_fps: f64,
    /// Maximum predicted per-session motion-to-photon latency in
    /// milliseconds.
    pub max_mtp_ms: f64,
    /// Maximum shared-GPU load, as a multiple of the node's GPU.
    pub max_gpu_load: f64,
}

impl Default for Slo {
    fn default() -> Self {
        Slo {
            min_fps: 30.0,
            max_mtp_ms: 250.0,
            max_gpu_load: 4.0,
        }
    }
}

/// The first SLO bound a post-placement operating point breaches, with
/// the value that breached it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Breach {
    /// GPU load over [`Slo::max_gpu_load`].
    GpuLoad(f64),
    /// CPU load over the node's utilisation ceiling.
    CpuLoad(f64),
    /// A session's predicted FPS under [`Slo::min_fps`].
    Fps {
        /// The newcomer's prediction rather than a resident's.
        newcomer: bool,
        /// The predicted FPS.
        fps: f64,
    },
    /// A session's predicted motion-to-photon latency over
    /// [`Slo::max_mtp_ms`].
    Mtp {
        /// The newcomer's prediction rather than a resident's.
        newcomer: bool,
        /// The predicted MtP in milliseconds.
        mtp_ms: f64,
    },
}

/// The admission predicate: checks `state`, the operating point a node of
/// CPU ceiling `ceiling` reaches with `candidate` placed beside
/// `residents`, against `slo`. In order: the GPU load bound, the CPU
/// ceiling, then every session's FPS and MtP, the newcomer first.
/// Returns the first [`Breach`], if any. A NaN load or prediction
/// breaches its bound.
pub fn check_slo(
    state: &NodeState,
    ceiling: f64,
    slo: &Slo,
    candidate: &SessionLoad,
    residents: &[Resident],
) -> Result<(), Breach> {
    if state.gpu_load.is_nan() || state.gpu_load > slo.max_gpu_load {
        return Err(Breach::GpuLoad(state.gpu_load));
    }
    if state.cpu_load.is_nan() || state.cpu_load > ceiling {
        return Err(Breach::CpuLoad(state.cpu_load));
    }
    let sessions =
        std::iter::once((true, candidate)).chain(residents.iter().map(|r| (false, &r.load)));
    for (newcomer, load) in sessions {
        let fps = state.predicted_fps(load);
        if fps.is_nan() || fps < slo.min_fps {
            return Err(Breach::Fps { newcomer, fps });
        }
        let mtp_ms = state.predicted_mtp_ms(load);
        if mtp_ms.is_nan() || mtp_ms > slo.max_mtp_ms {
            return Err(Breach::Mtp { newcomer, mtp_ms });
        }
    }
    Ok(())
}

/// How many copies of `load` one server of `capacity` admits under
/// `slo`, up to `limit`: each copy in turn is probed as the candidate
/// beside the copies already admitted, and the first [`check_slo`]
/// breach ends the walk — the walk a one-node cluster pool and the
/// server's admission control make.
#[must_use]
pub fn capacity_sessions(
    capacity: &ServerCapacity,
    mem: &MemoryParams,
    slo: &Slo,
    load: &SessionLoad,
    limit: u32,
) -> u32 {
    let mut residents = Vec::new();
    for session in 0..limit {
        let state = NodeState::solve(capacity, mem, &residents, Some(load));
        if check_slo(&state, capacity.ceiling, slo, load, &residents).is_err() {
            return session;
        }
        residents.push(Resident {
            session,
            load: *load,
        });
    }
    limit
}

/// Divides the self-contention slowdown out of DES-measured per-stage
/// busy fractions, recovering the *uncontended* activity coefficients
/// [`NodeState::solve`] iterates on.
///
/// A dedicated-server DES session still contends with its own streams:
/// its measured busy fractions are inflated by the mean-field slowdown of
/// its own concurrency. Busy fractions scale linearly with slowdown, so
/// dividing that self-slowdown out yields coefficients comparable across
/// any co-location level.
fn uncontended_coefficients(mem: &MemoryParams, per_stage: [f64; 4]) -> [f64; 4] {
    let measured: f64 = per_stage.iter().sum();
    let self_slowdown = mem.slowdown_for_streams(measured.max(1.0));
    per_stage.map(|b| b / self_slowdown)
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

    /// Residents of the given coefficient sets, in order.
    fn residents(sets: &[[f64; 4]]) -> Vec<Resident> {
        (0u32..)
            .zip(sets)
            .map(|(session, &coeffs)| Resident {
                session,
                load: SessionLoad {
                    coeffs,
                    fps: 60.0,
                    mtp_ms: 50.0,
                },
            })
            .collect()
    }

    fn solve(sets: &[[f64; 4]]) -> NodeState {
        let mem = scenario().memory_params();
        NodeState::solve(&ServerCapacity::default(), &mem, &residents(sets), None)
    }

    /// `k` copies of [`SessionLoad::at_rate`] at `fps` solved on a default
    /// server, and the server's wall power there: idle plus each
    /// activity's dynamic power at the aggregate (capped) utilisation,
    /// the sublinear law the single-session model uses.
    fn copies(fps: f64, k: u32) -> (NodeState, f64) {
        let load = SessionLoad::at_rate(&scenario(), fps);
        let residents: Vec<Resident> = (0..k).map(|session| Resident { session, load }).collect();
        let mem = scenario().memory_params();
        let state = NodeState::solve(&ServerCapacity::default(), &mem, &residents, None);
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

    #[test]
    fn single_session_matches_the_des() {
        let cap = ServerCapacity::default();
        let (state, power_w) = copies(60.0, 1);
        let at60 = Slo {
            min_fps: 60.0,
            ..Slo::default()
        };
        let load = SessionLoad::at_rate(&scenario(), 60.0);
        let fits = check_slo(&state, cap.ceiling, &at60, &load, &[]);
        assert!(fits.is_ok(), "{fits:?}");

        let des = run_experiment(
            &ExperimentConfig::builder(scenario(), RegulationSpec::odr(FpsGoal::Target(60.0)))
                .duration(Duration::from_secs(30))
                .build(),
        );
        // GPU utilisation: DES reports the render client's busy fraction.
        let des_gpu = des.memory.utilisation[1];
        let model_gpu = state.gpu_load;
        assert!(
            (model_gpu - des_gpu).abs() / des_gpu < 0.25,
            "model {model_gpu} vs DES {des_gpu}"
        );
        // Power within 10 %.
        assert!(
            (power_w - des.memory.power_w).abs() / des.memory.power_w < 0.10,
            "model {power_w} vs DES {}",
            des.memory.power_w
        );
    }

    #[test]
    fn more_sessions_mean_more_contention() {
        let [one, two, three] = [1, 2, 3].map(|k| copies(60.0, k));
        assert!(two.0.slowdown > one.0.slowdown);
        assert!(three.0.slowdown > two.0.slowdown);
        assert!(three.0.streams > two.0.streams);
        assert!(three.1 >= two.1);
    }

    /// [`capacity_sessions`] over `load` on one default server.
    fn fits(slo: &Slo, load: &SessionLoad) -> u32 {
        let mem = scenario().memory_params();
        capacity_sessions(&ServerCapacity::default(), &mem, slo, load, 16)
    }

    #[test]
    fn capacity_shrinks_with_target() {
        let slo = Slo::default();
        let at = |fps| fits(&slo, &SessionLoad::at_rate(&scenario(), fps));
        let (at30, at60, at120) = (at(30.0), at(60.0), at(120.0));
        assert!(at30 > at60, "30fps {at30} vs 60fps {at60}");
        assert!(at60 >= at120, "60fps {at60} vs 120fps {at120}");
        assert!(
            at60 >= 2,
            "a regulated 60fps session must leave room: {at60}"
        );
    }

    #[test]
    fn unregulated_equivalent_fills_the_server() {
        // A NoReg session renders flat out — priced at the rendering
        // capability, one alone takes most of the GPU, and a second
        // breaks the SLO.
        let flat_out = scenario().frame_model().render.mean_rate_hz();
        let noreg = SessionLoad::at_rate(&scenario(), flat_out);
        assert_eq!(fits(&Slo::default(), &noreg), 1, "flat-out rendering");
        let (one, _) = copies(flat_out, 1);
        assert!(one.gpu_load > 0.9, "gpu {}", one.gpu_load);
    }

    #[test]
    fn refused_when_a_stage_saturates() {
        // No stage can run 500 frames a second: the one session's own
        // prediction falls short of its 500 FPS SLO.
        let mem = scenario().memory_params();
        let cap = ServerCapacity::default();
        let load = SessionLoad::at_rate(&scenario(), 500.0);
        let at500 = Slo {
            min_fps: 500.0,
            ..Slo::default()
        };
        let state = NodeState::solve(&cap, &mem, &[], Some(&load));
        let refused = check_slo(&state, cap.ceiling, &at500, &load, &[]);
        assert!(
            matches!(refused, Err(Breach::Fps { newcomer: true, .. })),
            "{refused:?}"
        );
    }

    #[test]
    fn uncontended_coefficients_divide_out_self_slowdown() {
        let mem = scenario().memory_params();
        let per_stage = [0.2, 0.4, 0.1, 0.1];
        let coeff = uncontended_coefficients(&mem, per_stage);
        let self_slowdown = mem.slowdown_for_streams(0.8f64.max(1.0));
        for (c, b) in coeff.iter().zip(per_stage) {
            assert!((c * self_slowdown - b).abs() < 1e-12);
        }
    }

    #[test]
    fn check_slo_names_the_first_breached_bound() {
        let mem = scenario().memory_params();
        let cap = ServerCapacity::default();
        let load = || SessionLoad {
            coeffs: [0.20, 0.45, 0.05, 0.08],
            fps: 60.0,
            mtp_ms: 60.0,
        };
        let state = NodeState::solve(&cap, &mem, &[], Some(&load()));
        let slo = Slo::default();
        let fits = check_slo(&state, cap.ceiling, &slo, &load(), &[]);
        assert!(fits.is_ok(), "{fits:?}");
        let tight = Slo {
            max_gpu_load: 0.01,
            ..slo
        };
        let gpu = check_slo(&state, cap.ceiling, &tight, &load(), &[]);
        assert!(matches!(gpu, Err(Breach::GpuLoad(_))), "{gpu:?}");
        let cpu = check_slo(&state, 0.0, &slo, &load(), &[]);
        assert!(matches!(cpu, Err(Breach::CpuLoad(_))), "{cpu:?}");
        let resident = Resident {
            session: 0,
            load: SessionLoad {
                mtp_ms: 1e9,
                ..load()
            },
        };
        let mtp = check_slo(&state, cap.ceiling, &slo, &load(), &[resident]);
        assert!(
            matches!(
                mtp,
                Err(Breach::Mtp {
                    newcomer: false,
                    ..
                })
            ),
            "{mtp:?}"
        );
    }

    #[test]
    fn empty_mixed_set_is_idle() {
        let mem = scenario().memory_params();
        let state = solve(&[]);
        assert_eq!(state.streams, 0.0);
        assert_eq!(state.gpu_demand, 0.0);
        assert_eq!(state.cpu_load, 0.0);
        assert_eq!(state.gpu_share, 1.0);
        assert!((state.slowdown - mem.slowdown_for_streams(1.0)).abs() < 1e-12);
    }

    #[test]
    fn mixed_contention_grows_with_residents() {
        let mem = scenario().memory_params();
        let light = uncontended_coefficients(&mem, [0.2, 0.3, 0.05, 0.08]);
        let heavy = uncontended_coefficients(&mem, [0.5, 0.9, 0.2, 0.25]);
        let one = solve(&[light]);
        let two = solve(&[light, heavy]);
        let three = solve(&[light, heavy, heavy]);
        assert!(two.streams > one.streams && three.streams > two.streams);
        assert!(two.slowdown >= one.slowdown && three.slowdown >= two.slowdown);
    }
}
