//! Admission control: the cluster's SLO check, applied to live sessions.
//!
//! The simulator's cluster engine admits a session only when the
//! post-placement colocation fixed point keeps every resident inside the
//! SLO. The serving surface reuses exactly that machinery —
//! [`NodeState::solve`] over the resident set plus the candidate, then
//! the cluster's own admission predicate, [`check_slo`] — so the
//! accept/reject decision a real client sees is the same decision the
//! paper's capacity study models.
//!
//! Candidate loads are derived analytically from the requested regulation
//! with the [`odr_pipeline::colocation`] busy-fraction formulas: a target
//! of `f` FPS busies each stage for `f × t_stage` of every second
//! (uncontended), app logic riding with rendering. An unregulated session
//! is modelled at the scenario's flat-out render rate — which is why
//! NoReg sessions exhaust admission long before regulated ones.

use odr_cluster::{check_slo, Breach, NodeState, Resident, SessionLoad, Slo};
use odr_core::{OdrError, OdrResult};
use odr_memsim::MemoryParams;
use odr_pipeline::colocation::ServerCapacity;
use odr_runtime::Regulation;
use odr_workload::Scenario;

/// Derives a candidate's analytic [`SessionLoad`] from the regulation it
/// requested, using `scenario`'s calibrated stage-time models.
#[must_use]
pub fn session_load(scenario: &Scenario, regulation: Regulation) -> SessionLoad {
    let fm = scenario.frame_model();
    let t_render = fm.render.mean_ms() / 1e3;
    let t_copy = fm.copy.mean_ms() / 1e3;
    let t_encode = fm.encode.mean_ms() / 1e3;
    // The rate the session will actually try to sustain: its target, or
    // the scenario's flat-out render rate when unregulated (NoReg and
    // ODRMax render as fast as the pipeline drains).
    let flat_out = fm.render.mean_rate_hz();
    let fps = match regulation {
        Regulation::NoReg | Regulation::Odr { target_fps: None } => flat_out,
        Regulation::Interval { fps }
        | Regulation::Odr {
            target_fps: Some(fps),
        } => fps.min(flat_out),
    };
    // Uncontended busy fractions; app logic runs alongside rendering
    // (the DES activation pattern the colocation model mirrors).
    let b_render = (fps * t_render).min(1.0);
    let coeffs = [
        b_render,
        b_render,
        (fps * t_copy).min(1.0),
        (fps * t_encode).min(1.0),
    ];
    // Uncontended QoS baseline: the target rate, and an MtP floor of the
    // pipeline walk plus half a frame interval of input-phase wait.
    let mtp_ms = (t_render + t_copy + t_encode) * 1e3 + 500.0 / fps.max(1e-9);
    SessionLoad {
        coeffs,
        fps,
        mtp_ms,
    }
}

/// The admission controller: one node's capacity, the SLO, and the
/// scenario-calibrated DRAM curves the fixed point iterates on.
#[derive(Clone, Debug)]
pub struct Admission {
    capacity: ServerCapacity,
    slo: Slo,
    mem: MemoryParams,
}

impl Admission {
    /// Builds a controller for one server of `capacity` under `slo`,
    /// with DRAM behaviour calibrated from `scenario`.
    #[must_use]
    pub fn new(scenario: &Scenario, capacity: ServerCapacity, slo: Slo) -> Admission {
        Admission {
            capacity,
            slo,
            mem: scenario.memory_params(),
        }
    }

    /// The SLO this controller enforces.
    #[must_use]
    pub fn slo(&self) -> &Slo {
        &self.slo
    }

    /// Probes the operating point the node would reach with `candidate`
    /// resident alongside `residents`, and checks every session —
    /// current residents and the newcomer — against the SLO.
    ///
    /// # Errors
    ///
    /// [`OdrError::Admission`] naming the violated bound: GPU load over
    /// `max_gpu_load`, CPU load over the capacity ceiling, or any
    /// session's predicted FPS/MtP outside the SLO.
    pub fn check(
        &self,
        residents: &[Resident],
        candidate: &SessionLoad,
    ) -> OdrResult<NodeState> {
        let state = NodeState::solve(&self.capacity, &self.mem, residents, Some(candidate));
        let ceiling = self.capacity.ceiling;
        let Err(breach) = check_slo(&state, ceiling, &self.slo, candidate, residents) else {
            return Ok(state);
        };
        let who = |newcomer: bool| if newcomer { "candidate" } else { "resident" };
        let slo = &self.slo;
        Err(OdrError::admission(match breach {
            Breach::GpuLoad(load) => {
                format!("gpu load {load:.2} over SLO bound {:.2}", slo.max_gpu_load)
            }
            Breach::CpuLoad(load) => {
                format!("cpu load {load:.2} over capacity ceiling {ceiling:.2}")
            }
            Breach::Fps { newcomer, fps } => format!(
                "predicted fps {fps:.1} for {} below SLO {:.1}",
                who(newcomer),
                slo.min_fps
            ),
            Breach::Mtp { newcomer, mtp_ms } => format!(
                "predicted MtP {mtp_ms:.1} ms for {} over SLO {:.1} ms",
                who(newcomer),
                slo.max_mtp_ms
            ),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odr_workload::{Benchmark, Platform, Resolution};

    /// Render position in the coefficient array (`MemClient::ALL` order:
    /// AppLogic, Render, Copy, Encode).
    const RENDER: usize = 1;

    fn scenario() -> Scenario {
        Scenario::new(Benchmark::InMind, Resolution::R720p, Platform::PrivateCloud)
    }

    fn controller() -> Admission {
        Admission::new(&scenario(), ServerCapacity::default(), Slo::default())
    }

    #[test]
    fn regulated_sessions_admit_where_noreg_does_not() {
        let adm = controller();
        let odr60 = session_load(
            &scenario(),
            Regulation::Odr {
                target_fps: Some(60.0),
            },
        );
        let noreg = session_load(&scenario(), Regulation::NoReg);
        assert!(noreg.coeffs[RENDER] > odr60.coeffs[RENDER]);

        // Fill the node with regulated residents until one is refused;
        // the same node must refuse NoReg strictly earlier.
        let mut count_odr = 0u32;
        let mut residents = Vec::new();
        while adm.check(&residents, &odr60).is_ok() && count_odr < 64 {
            residents.push(Resident {
                session: count_odr,
                load: odr60,
            });
            count_odr += 1;
        }
        let mut count_noreg = 0u32;
        let mut residents = Vec::new();
        while adm.check(&residents, &noreg).is_ok() && count_noreg < 64 {
            residents.push(Resident {
                session: count_noreg,
                load: noreg,
            });
            count_noreg += 1;
        }
        assert!(count_odr >= 2, "ODR60 count {count_odr}");
        assert!(
            count_odr > count_noreg,
            "ODR60 fits {count_odr}, NoReg fits {count_noreg}"
        );
    }

    #[test]
    fn rejection_names_the_violated_bound() {
        let adm = Admission::new(
            &scenario(),
            ServerCapacity::default(),
            Slo {
                min_fps: 10_000.0,
                ..Slo::default()
            },
        );
        let load = session_load(
            &scenario(),
            Regulation::Odr {
                target_fps: Some(60.0),
            },
        );
        let err = adm.check(&[], &load).expect_err("impossible SLO");
        assert!(matches!(err, OdrError::Admission { .. }), "{err}");
        assert!(err.to_string().contains("below SLO"), "{err}");
    }

    #[test]
    fn a_non_finite_prediction_is_rejected() {
        let load = session_load(
            &scenario(),
            Regulation::Odr {
                target_fps: Some(60.0),
            },
        );
        let nan = SessionLoad {
            fps: f64::NAN,
            ..load
        };
        let err = controller()
            .check(&[], &nan)
            .expect_err("NaN FPS is no prediction");
        assert!(err.to_string().contains("predicted fps NaN"), "{err}");
    }

    #[test]
    fn admitted_state_reports_the_fixed_point() {
        let adm = controller();
        let load = session_load(
            &scenario(),
            Regulation::Odr {
                target_fps: Some(60.0),
            },
        );
        let state = adm.check(&[], &load).expect("one session fits");
        assert!(state.slowdown >= 1.0);
        assert!(state.gpu_load > 0.0);
    }
}
