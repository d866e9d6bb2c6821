//! Admission control: the cluster's SLO check, applied to live sessions.
//!
//! The simulator's cluster engine admits a session only when the
//! post-placement co-location fixed point keeps every resident inside
//! the SLO. The serving surface reuses exactly that machinery —
//! [`NodeState::solve`] over the resident set plus the candidate, then
//! the one admission predicate, [`check_slo`] — so the accept/reject
//! decision a real client sees is the same decision the cluster and the
//! capacity table ([`capacity_sessions`](odr_pipeline::colocation::capacity_sessions))
//! make.
//!
//! A candidate is priced by the co-location model's closed form,
//! [`SessionLoad::at_rate`], at the rate its regulation will try to
//! sustain. An unregulated session is priced at the scenario's flat-out
//! render rate — which is why NoReg sessions exhaust admission long
//! before regulated ones.

use odr_core::{OdrError, OdrResult};
use odr_memsim::MemoryParams;
use odr_pipeline::colocation::{
    check_slo, Breach, NodeState, Resident, ServerCapacity, SessionLoad, Slo,
};
use odr_runtime::Regulation;
use odr_workload::Scenario;

/// Derives a candidate's analytic [`SessionLoad`] from the regulation it
/// requested: [`SessionLoad::at_rate`] at the rate the session will
/// actually try to sustain — its target, or `scenario`'s flat-out render
/// rate when unregulated (NoReg and ODRMax render as fast as the pipeline
/// drains), and never more than that.
#[must_use]
pub fn session_load(scenario: &Scenario, regulation: Regulation) -> SessionLoad {
    let flat_out = scenario.frame_model().render.mean_rate_hz();
    let fps = match regulation {
        Regulation::NoReg | Regulation::Odr { target_fps: None } => flat_out,
        Regulation::Interval { fps }
        | Regulation::Odr {
            target_fps: Some(fps),
        } => fps.min(flat_out),
    };
    SessionLoad::at_rate(scenario, fps)
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

    /// Probes the operating point the node would reach with `candidate`
    /// resident alongside `residents`, and checks every session —
    /// current residents and the newcomer — against the SLO.
    ///
    /// # Errors
    ///
    /// [`OdrError::Admission`] naming the violated bound: GPU load over
    /// `max_gpu_load`, CPU load over the capacity ceiling, or any
    /// session's predicted FPS/MtP outside the SLO.
    pub fn check(&self, residents: &[Resident], candidate: &SessionLoad) -> OdrResult<NodeState> {
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
    use odr_cluster::NodePool;
    use odr_core::{FpsGoal, RegulationSpec};
    use odr_pipeline::colocation::{capacity_sessions, SessionLoad};
    use odr_pipeline::{run_experiment, ExperimentConfig};
    use odr_simtime::{Duration, SimTime};
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

    /// One "fits": the capacity count, the cluster pool and the server's
    /// admission agree on how many copies of a session one server holds,
    /// for closed-form NoReg, ODR30 and ODR60 loads and a DES-measured one.
    #[test]
    fn every_consumer_counts_the_same_capacity() {
        let scenario = scenario();
        let adm = controller();
        let odr = |fps| Regulation::Odr {
            target_fps: Some(fps),
        };
        let des = run_experiment(
            &ExperimentConfig::builder(scenario, RegulationSpec::odr(FpsGoal::Target(60.0)))
                .duration(Duration::from_secs(5))
                .build(),
        );
        let measured = SessionLoad::measured(
            &adm.mem,
            des.memory.utilisation,
            des.client_fps,
            des.mtp_mean_ms(),
        );
        let loads = [
            ("NoReg", session_load(&scenario, Regulation::NoReg)),
            ("ODR30", session_load(&scenario, odr(30.0))),
            ("ODR60", session_load(&scenario, odr(60.0))),
            ("ODR60 measured", measured),
        ];
        for (label, load) in loads {
            let counted = capacity_sessions(&adm.capacity, &adm.mem, &adm.slo, &load, 32);
            assert!(counted < 32, "{label}: the walk must end in a refusal");
            // A one-node cluster pool admits through `choose`/`admit`
            // until it refuses.
            let mut pool = NodePool::new(1, adm.capacity, adm.mem, adm.slo, vec![load]);
            let pooled = (0..32).take_while(|&session| {
                let node = pool.choose(0);
                if let Some(node) = node {
                    pool.admit(SimTime::ZERO, node, session, 0);
                }
                node.is_some()
            });
            assert_eq!(pooled.count(), counted as usize, "{label}: cluster pool");
            // The server admits while `check` passes, each copy joining
            // the residents.
            let mut residents = Vec::new();
            let served = (0..32).take_while(|&session| {
                let fits = adm.check(&residents, &load).is_ok();
                residents.push(Resident { session, load });
                fits
            });
            assert_eq!(served.count(), counted as usize, "{label}: admission");
        }
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

        // The same node must refuse NoReg strictly earlier.
        let count = |load| capacity_sessions(&adm.capacity, &adm.mem, &adm.slo, load, 64);
        let (count_odr, count_noreg) = (count(&odr60), count(&noreg));
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

    /// The capacity table and admission are one model: for each rate, the
    /// state k copies of `SessionLoad::at_rate` solve to is, bit for bit,
    /// the state admission solves with k such sessions resident (the last
    /// as the candidate).
    #[test]
    fn admission_solves_the_capacity_models_state() {
        let scenario = scenario();
        let adm = controller();
        let cases = [
            (
                Regulation::Odr {
                    target_fps: Some(60.0),
                },
                60.0,
            ),
            (Regulation::Interval { fps: 30.0 }, 30.0),
            (
                Regulation::NoReg,
                scenario.frame_model().render.mean_rate_hz(),
            ),
        ];
        for (regulation, rate) in cases {
            let load = session_load(&scenario, regulation);
            let closed_form = SessionLoad::at_rate(&scenario, rate);
            let copies: Vec<Resident> = (0..16)
                .map(|session| Resident {
                    session,
                    load: closed_form,
                })
                .collect();
            let residents: Vec<Resident> =
                (0..16).map(|session| Resident { session, load }).collect();
            for k in 1..=16u32 {
                let solved = NodeState::solve(
                    &adm.capacity,
                    &adm.mem,
                    &residents[..k as usize - 1],
                    Some(&load),
                );
                let modelled = NodeState::solve(
                    &adm.capacity,
                    &scenario.memory_params(),
                    &copies[..k as usize],
                    None,
                );
                let bits = |s: &NodeState| {
                    [s.streams, s.slowdown, s.gpu_load, s.cpu_load].map(f64::to_bits)
                };
                assert_eq!(bits(&modelled), bits(&solved), "{regulation:?} k={k}");
            }
        }
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
