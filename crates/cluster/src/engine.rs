//! The cluster control plane: a serial discrete-event loop over
//! arrivals, retries, departures and node kills, driving the fleet
//! engine for calibration and per-node measurement.
//!
//! # Three phases
//!
//! 1. **Calibration** — one dedicated-server DES run per policy class in
//!    the mix ([`odr_fleet::run_outcomes`], parallel across classes)
//!    yields each class's [`SessionLoad`]: uncontended activity
//!    coefficients plus baseline FPS/MtP.
//! 2. **Control plane** — a *serial* event loop places arriving sessions
//!    under the SLO, requeues or sheds what does not fit, kills nodes on
//!    schedule and re-places the displaced. Between any two membership
//!    changes of a node, every resident's predicted QoS is constant, so
//!    the loop integrates exact step functions (served time, goodput,
//!    per-session QoS means) with no sampling error.
//! 3. **Measurement** (optional) — every placement span at least
//!    [`MIN_MEASURED_SPAN`] long re-runs as a real pipeline DES with the
//!    span's duration and policy, grouped into one sub-fleet per node
//!    ([`odr_fleet::FleetReport::reduce`]) and merged in node-id order
//!    ([`odr_fleet::FleetReport::merge`]).
//!
//! # Determinism
//!
//! Worker threads only ever run inside [`odr_fleet::run_outcomes`], whose
//! reduction is index-ordered; the control plane is serial with a
//! FIFO-tie-broken [`odr_simtime::EventQueue`]. The resulting
//! [`ClusterReport::to_text`] is byte-identical across `threads` values —
//! scripts/ci.sh pins this with a `cmp` differential.

use std::collections::BTreeMap;

use odr_core::FidelityMode;
use odr_fleet::{
    run_outcomes, session_seed, uncontended_coefficients, FleetReport, SessionClass,
    SessionOutcome, CALIBRATION_SESSIONS,
};
use odr_memsim::MemoryParams;
use odr_metrics::Cdf;
use odr_obs::{names, track, Event, ObsReport, Recorder, RingRecorder, NULL_RECORDER};
use odr_pipeline::ExperimentConfig;
use odr_simtime::time::duration_nanos;
use odr_simtime::{Duration, EventQueue, Rng, SimTime};

use crate::churn::{generate_arrivals, Arrival};
use crate::config::ClusterConfig;
use crate::node::{Node, SessionLoad};
use crate::placement::NodePool;
use crate::report::{ClusterReport, NodeRow};

/// Shortest placement span the measurement phase re-runs as a pipeline
/// DES; shorter spans are counted in
/// [`ClusterReport::measured_skipped`].
pub(crate) const MIN_MEASURED_SPAN: Duration = Duration::from_secs(1);

/// Warm-up excluded from each measured span's metrics.
const MEASURE_WARMUP: Duration = Duration::from_secs(1);

/// Session-index offset of the calibration runs' seeds, far above any
/// real session index (churn caps at [`crate::ChurnConfig::max_sessions`]).
const CALIBRATION_INDEX: u32 = 0xC000_0000;

/// RNG stream id for analytic measurement draws; distinct from every
/// stream the pipeline DES forks so synthesised samples can never alias
/// a FullDes sequence.
const ANALYTIC_STREAM: u64 = 0xA11C;

/// Everything one cluster simulation produced.
#[derive(Clone, Debug)]
pub struct ClusterRun {
    /// The aggregate, mergeable cluster report.
    pub report: ClusterReport,
    /// Control-plane observability (empty unless
    /// [`ClusterConfig::obs`] was set).
    pub obs: ObsReport,
    /// One measured sub-fleet report per node, in node-id order (empty
    /// when [`ClusterConfig::measure`] is off).
    pub node_fleets: Vec<FleetReport>,
    /// The node sub-fleets merged in node-id order.
    pub measured: FleetReport,
}

/// A control-plane event.
#[derive(Clone, Copy)]
enum Ev {
    /// Fault injection kills a node (cluster-local index).
    Kill(u32),
    /// A session arrives.
    Arrive(u32),
    /// A waiting session retries placement.
    Retry(u32),
    /// An active session's residency ends; stale when `seq` no longer
    /// matches (the session was displaced and re-placed meanwhile).
    Depart { session: u32, seq: u32 },
}

/// Where a session is in its lifecycle.
#[derive(Clone, Copy, PartialEq, Eq)]
enum CtlState {
    /// Not yet arrived.
    Pending,
    /// Arrived, not currently placed.
    Waiting,
    /// Resident on a node (cluster-local index).
    Active { node: usize, seq: u32 },
    /// Completed or shed.
    Done,
}

/// Per-session control-plane bookkeeping.
struct SessionCtl {
    arrival: Arrival,
    state: CtlState,
    /// Residency still owed (shrinks only via displacement).
    remaining: Duration,
    /// Failed placement attempts since arrival or last displacement.
    attempts: u32,
    /// Departure-event generation counter.
    seq: u32,
    /// Set once, on the first admission.
    first_admit: Option<SimTime>,
    /// Set while the session waits because its node was killed.
    displaced_at: Option<SimTime>,
    /// When the current placement span started (valid while Active).
    span_start: SimTime,
    /// Spans already served on this placement, for measurement seeds.
    span_ordinal: u32,
    /// ∫ predicted FPS dt over all placements.
    fps_weight: f64,
    /// ∫ predicted MtP dt over all placements.
    mtp_weight: f64,
    /// Total placed time in seconds.
    active_secs: f64,
}

/// One closed placement span, the unit of measurement.
struct Span {
    node: usize,
    session: u32,
    ordinal: u32,
    policy: usize,
    len: Duration,
}

/// Runs one cluster simulation.
///
/// # Panics
///
/// Panics if the configured scenario/policy calibration produces a
/// non-finite load (indicative of a broken scenario model), or on
/// internal bookkeeping violations (a resident missing from its node).
#[must_use]
pub fn run_cluster(cfg: &ClusterConfig) -> ClusterRun {
    let mem = cfg.scenario.memory_params();
    let ring = RingRecorder::default();
    let recorder: &dyn Recorder = if cfg.obs { &ring } else { &NULL_RECORDER };

    // Phase 1: calibrate each policy class on a dedicated server.
    let (loads, cal_outcomes) = calibrate(cfg, &mem);

    // Phase 2: the serial control-plane DES.
    let end = SimTime::ZERO + cfg.horizon;
    let arrivals = generate_arrivals(&cfg.churn, cfg.seed, cfg.horizon);
    let mut pool = NodePool::new(
        cfg.first_node_id..cfg.first_node_id + cfg.nodes,
        cfg.capacity,
        mem,
        cfg.slo,
        loads,
    );
    let mut sessions: Vec<SessionCtl> = arrivals
        .iter()
        .map(|&arrival| SessionCtl {
            arrival,
            state: CtlState::Pending,
            remaining: arrival.duration,
            attempts: 0,
            seq: 0,
            first_admit: None,
            displaced_at: None,
            span_start: SimTime::ZERO,
            span_ordinal: 0,
            fps_weight: 0.0,
            mtp_weight: 0.0,
            active_secs: 0.0,
        })
        .collect();

    let mut queue = EventQueue::new();
    // Kills go in first: at equal instants a failure precedes arrivals,
    // retries and departures (FIFO tie-break), modelling "the node is
    // already down when the tick's other work runs".
    for kill in &cfg.kills {
        queue.push(kill.at, Ev::Kill(kill.node));
    }
    for a in &arrivals {
        queue.push(a.at, Ev::Arrive(a.session));
    }

    let mut report = ClusterReport {
        label: cfg.label(),
        nodes: cfg.nodes,
        ..ClusterReport::default()
    };
    let mut spans: Vec<Span> = Vec::new();
    let mut wait_ms: Vec<f64> = Vec::new();
    let mut displace_ms: Vec<f64> = Vec::new();
    let mut waiting_now: u32 = 0;

    // Integrates every resident's predicted QoS over the span since the
    // node's last membership change. Must run immediately before any
    // mutation of node `i` at `now`.
    macro_rules! integrate_node {
        ($i:expr, $now:expr) => {{
            let node = &pool.nodes()[$i];
            if node.alive() {
                let dt = $now.saturating_since(node.last_change());
                if dt > Duration::ZERO {
                    let secs = dt.as_secs_f64();
                    let ns = duration_nanos(dt);
                    let state = *node.state();
                    for r in node.residents() {
                        let fps = state.predicted_fps(&r.load);
                        let s = &mut sessions[r.session as usize];
                        s.fps_weight += fps * secs;
                        s.mtp_weight += state.predicted_mtp_ms(&r.load) * secs;
                        s.active_secs += secs;
                        report.served_ns += ns;
                        if fps >= cfg.slo.min_fps {
                            report.goodput_ns += ns;
                        }
                    }
                }
            }
        }};
    }

    // Tries to place a Waiting session; on failure requeues with
    // exponential backoff or sheds it.
    macro_rules! try_place {
        ($session:expr, $now:expr) => {{
            let session: u32 = $session;
            let now: SimTime = $now;
            let class = sessions[session as usize].arrival.policy;
            match pool.choose(cfg.placement, class) {
                Some(i) => {
                    integrate_node!(i, now);
                    pool.admit(now, i, session, class);
                    let node_id = pool.nodes()[i].id();
                    let s = &mut sessions[session as usize];
                    waiting_now -= 1;
                    if s.first_admit.is_none() {
                        s.first_admit = Some(now);
                        report.admitted += 1;
                        wait_ms.push(now.saturating_since(s.arrival.at).as_secs_f64() * 1e3);
                    }
                    if let Some(d) = s.displaced_at.take() {
                        displace_ms.push(now.saturating_since(d).as_secs_f64() * 1e3);
                    }
                    s.seq += 1;
                    s.state = CtlState::Active { node: i, seq: s.seq };
                    s.span_start = now;
                    let depart_at = now + s.remaining;
                    queue.push(
                        depart_at,
                        Ev::Depart {
                            session,
                            seq: s.seq,
                        },
                    );
                    if recorder.enabled() {
                        recorder.record(
                            Event::instant(now.as_nanos(), track::CLUSTER, names::CLUSTER_ADMIT)
                                .with_id(u64::from(session))
                                .with_value(f64::from(node_id)),
                        );
                    }
                }
                None => {
                    let s = &mut sessions[session as usize];
                    s.attempts += 1;
                    if s.attempts > cfg.retry.max_retries {
                        waiting_now -= 1;
                        s.state = CtlState::Done;
                        if s.displaced_at.is_some() {
                            report.displaced_shed += 1;
                        } else {
                            report.shed += 1;
                        }
                        if recorder.enabled() {
                            recorder.record(
                                Event::instant(now.as_nanos(), track::CLUSTER, names::CLUSTER_SHED)
                                    .with_id(u64::from(session)),
                            );
                        }
                    } else {
                        report.requeues += 1;
                        let shift = (s.attempts - 1).min(16);
                        let delay = cfg.retry.backoff.saturating_mul(1 << shift);
                        queue.push(now + delay, Ev::Retry(session));
                        if recorder.enabled() {
                            recorder.record(
                                Event::instant(
                                    now.as_nanos(),
                                    track::CLUSTER,
                                    names::CLUSTER_REQUEUE,
                                )
                                .with_id(u64::from(session))
                                .with_value(f64::from(s.attempts)),
                            );
                        }
                    }
                }
            }
        }};
    }

    while let Some((now, ev)) = queue.pop() {
        if now > end {
            break;
        }
        match ev {
            Ev::Arrive(session) => {
                report.arrivals += 1;
                if recorder.enabled() {
                    recorder.record(
                        Event::instant(now.as_nanos(), track::CLUSTER, names::CLUSTER_ARRIVAL)
                            .with_id(u64::from(session)),
                    );
                }
                if waiting_now >= cfg.retry.max_waiting {
                    sessions[session as usize].state = CtlState::Done;
                    report.shed += 1;
                    if recorder.enabled() {
                        recorder.record(
                            Event::instant(now.as_nanos(), track::CLUSTER, names::CLUSTER_SHED)
                                .with_id(u64::from(session)),
                        );
                    }
                } else {
                    sessions[session as usize].state = CtlState::Waiting;
                    waiting_now += 1;
                    try_place!(session, now);
                }
            }
            Ev::Retry(session) => {
                if sessions[session as usize].state == CtlState::Waiting {
                    try_place!(session, now);
                }
            }
            Ev::Depart { session, seq } => {
                let CtlState::Active {
                    node,
                    seq: active_seq,
                } = sessions[session as usize].state
                else {
                    continue;
                };
                if active_seq != seq {
                    continue;
                }
                integrate_node!(node, now);
                let removed = pool.remove(now, node, session);
                assert!(removed.is_some(), "departing session {session} not resident");
                let node_id = pool.nodes()[node].id();
                let s = &mut sessions[session as usize];
                spans.push(Span {
                    node,
                    session,
                    ordinal: s.span_ordinal,
                    policy: s.arrival.policy,
                    len: now.saturating_since(s.span_start),
                });
                s.span_ordinal += 1;
                s.remaining = Duration::ZERO;
                s.state = CtlState::Done;
                report.completed += 1;
                if recorder.enabled() {
                    recorder.record(
                        Event::instant(now.as_nanos(), track::CLUSTER, names::CLUSTER_DEPART)
                            .with_id(u64::from(session))
                            .with_value(f64::from(node_id)),
                    );
                }
            }
            Ev::Kill(node_idx) => {
                let i = node_idx as usize;
                if i >= pool.nodes().len() || !pool.nodes()[i].alive() {
                    continue;
                }
                integrate_node!(i, now);
                let displaced = pool.kill(now, i);
                let node_id = pool.nodes()[i].id();
                report.node_kills += 1;
                if recorder.enabled() {
                    recorder.record(
                        Event::instant(now.as_nanos(), track::CLUSTER, names::CLUSTER_KILL)
                            .with_id(u64::from(node_id))
                            .with_value(displaced.len() as f64),
                    );
                }
                for r in displaced {
                    let s = &mut sessions[r.session as usize];
                    let owed = s.remaining;
                    let served = now.saturating_since(s.span_start);
                    spans.push(Span {
                        node: i,
                        session: r.session,
                        ordinal: s.span_ordinal,
                        policy: s.arrival.policy,
                        len: served,
                    });
                    s.span_ordinal += 1;
                    s.remaining = owed.saturating_sub(served);
                    report.displaced += 1;
                    if recorder.enabled() {
                        recorder.record(
                            Event::instant(now.as_nanos(), track::CLUSTER, names::CLUSTER_DISPLACE)
                                .with_id(u64::from(r.session))
                                .with_value(f64::from(node_id)),
                        );
                    }
                    if s.remaining == Duration::ZERO {
                        s.state = CtlState::Done;
                        report.completed += 1;
                    } else {
                        s.state = CtlState::Waiting;
                        s.attempts = 0;
                        s.displaced_at = Some(now);
                        waiting_now += 1;
                        try_place!(r.session, now);
                    }
                }
            }
        }
    }

    // Finalize at the horizon: integrate every node's tail span, close
    // still-active placements, classify still-waiting sessions.
    for i in 0..pool.nodes().len() {
        integrate_node!(i, end);
    }
    pool.close(end);
    let nodes = pool.nodes();
    for s in &mut sessions {
        match s.state {
            CtlState::Active { node, .. } => {
                spans.push(Span {
                    node,
                    session: s.arrival.session,
                    ordinal: s.span_ordinal,
                    policy: s.arrival.policy,
                    len: end.saturating_since(s.span_start),
                });
                s.span_ordinal += 1;
                report.active_at_end += 1;
            }
            CtlState::Waiting => {
                if s.displaced_at.is_some() {
                    report.displaced_pending += 1;
                } else {
                    report.waiting_at_end += 1;
                }
            }
            CtlState::Pending | CtlState::Done => {}
        }
    }

    report.wait_ms_cdf = odr_metrics::Cdf::from_samples(wait_ms);
    report.displacement_ms_cdf = odr_metrics::Cdf::from_samples(displace_ms);
    report.predicted_fps_cdf = odr_metrics::Cdf::from_samples(
        sessions
            .iter()
            .filter(|s| s.active_secs > 0.0)
            .map(|s| s.fps_weight / s.active_secs),
    );
    report.predicted_mtp_cdf = odr_metrics::Cdf::from_samples(
        sessions
            .iter()
            .filter(|s| s.active_secs > 0.0)
            .map(|s| s.mtp_weight / s.active_secs),
    );
    report.node_gpu_cdf =
        odr_metrics::Cdf::from_samples(nodes.iter().map(|n| n.means(end).1));
    report.node_sessions_cdf =
        odr_metrics::Cdf::from_samples(nodes.iter().map(|n| n.means(end).0));
    report.per_node = nodes
        .iter()
        .map(|n| {
            let (mean_sessions, mean_gpu_load, mean_slowdown) = n.means(end);
            NodeRow {
                id: n.id(),
                killed: !n.alive(),
                admitted: n.admitted_total(),
                peak_sessions: n.peak_sessions(),
                mean_sessions,
                mean_gpu_load,
                mean_slowdown,
                served_ns: n.served_span(end).as_nanos(),
                measured_fps: 0.0,
            }
        })
        .collect();

    // Phase 3: re-run measurable spans as real pipeline DES sub-fleets
    // (or resample them from calibration in analytic mode).
    let (node_fleets, measured) = if cfg.measure {
        measure(cfg, &mut report, nodes, &mut spans, &cal_outcomes)
    } else {
        (Vec::new(), FleetReport::reduce(cfg.label(), &[]))
    };
    report.obs.absorb(&measured.obs);

    let obs = ObsReport::from_recorder(recorder);
    report.obs.absorb(&obs.counters);

    ClusterRun {
        report,
        obs,
        node_fleets,
        measured,
    }
}

/// Runs one dedicated-server DES per *distinct session class* in the mix
/// and extracts each policy choice's calibrated [`SessionLoad`] plus the
/// full calibration outcome (the analytic measurement phase resamples
/// it).
///
/// Calibration is memoised by [`SessionClass`]: two mix entries whose
/// sessions differ only by seed share one calibration run (the first
/// occurrence's). Mixes without duplicate classes — every mix the CI
/// differentials pin — calibrate exactly as before, byte for byte.
///
/// Under [`FidelityMode::Analytic`] the *measurement* sketch of each
/// class is additionally pooled over [`CALIBRATION_SESSIONS`] seeds:
/// the synthetic spans resample these sketches, and a single seed's
/// run-to-run variance (±30% on mean MtP at short calibrations) would
/// otherwise become a systematic bias across every span of the class.
/// The admission loads always come from the first, single-seed run, so
/// the control plane stays identical in both modes.
fn calibrate(cfg: &ClusterConfig, mem: &MemoryParams) -> (Vec<SessionLoad>, Vec<SessionOutcome>) {
    let mut class_slots: BTreeMap<SessionClass, usize> = BTreeMap::new();
    let mut unique_configs: Vec<ExperimentConfig> = Vec::new();
    let slot_of_choice: Vec<usize> = cfg
        .churn
        .mix
        .choices()
        .iter()
        .enumerate()
        .map(|(i, choice)| {
            let config = ExperimentConfig::builder(cfg.scenario, choice.spec)
                .duration(cfg.calibration)
                .seed(session_seed(cfg.seed, CALIBRATION_INDEX + i as u32))
                .obs(cfg.obs)
                .build();
            *class_slots.entry(SessionClass::of(&config)).or_insert_with(|| {
                unique_configs.push(config);
                unique_configs.len() - 1
            })
        })
        .collect();
    let outcomes = run_outcomes(&unique_configs, cfg.sim.threads);
    let loads = slot_of_choice
        .iter()
        .map(|&slot| {
            let o = &outcomes[slot];
            let load = SessionLoad {
                coeffs: uncontended_coefficients(mem, o.utilisation),
                fps: o.client_fps,
                mtp_ms: o.mtp_mean_ms,
            };
            assert!(
                load.fps.is_finite() && load.mtp_ms.is_finite(),
                "calibration produced a non-finite load"
            );
            load
        })
        .collect();
    let sketches: Vec<SessionOutcome> = match cfg.sim.fidelity {
        FidelityMode::FullDes => outcomes,
        FidelityMode::Analytic => {
            let extra_per_class = CALIBRATION_SESSIONS as usize - 1;
            let extra_configs: Vec<ExperimentConfig> = unique_configs
                .iter()
                .flat_map(|c| {
                    (1..CALIBRATION_SESSIONS).map(|j| ExperimentConfig {
                        seed: session_seed(c.seed, j),
                        ..*c
                    })
                })
                .collect();
            let extra = run_outcomes(&extra_configs, cfg.sim.threads);
            outcomes
                .iter()
                .enumerate()
                .map(|(slot, first)| {
                    let mine = &extra[slot * extra_per_class..(slot + 1) * extra_per_class];
                    pool_calibrations(first, mine)
                })
                .collect()
        }
    };
    let per_choice = slot_of_choice
        .iter()
        .map(|&slot| sketches[slot].clone())
        .collect();
    (loads, per_choice)
}

/// Pools one class's calibration runs into a single outcome: QoS
/// sketches become the exact multiset union, scalar summaries the mean
/// over runs. Identity (`index`, `seed`) stays the first run's.
fn pool_calibrations(first: &SessionOutcome, rest: &[SessionOutcome]) -> SessionOutcome {
    let n = (1 + rest.len()) as f64;
    let all = std::iter::once(first).chain(rest);
    let mean = |f: &dyn Fn(&SessionOutcome) -> f64| all.clone().map(f).sum::<f64>() / n;
    let mean_count =
        |f: &dyn Fn(&SessionOutcome) -> u64| (all.clone().map(f).sum::<u64>() as f64 / n).round() as u64;
    let mut utilisation = [0.0; 4];
    for o in all.clone() {
        for (acc, u) in utilisation.iter_mut().zip(o.utilisation) {
            *acc += u / n;
        }
    }
    SessionOutcome {
        index: first.index,
        seed: first.seed,
        fps_cdf: rest.iter().fold(first.fps_cdf.clone(), |acc, o| acc.merge(&o.fps_cdf)),
        mtp_cdf: rest.iter().fold(first.mtp_cdf.clone(), |acc, o| acc.merge(&o.mtp_cdf)),
        client_fps: mean(&|o| o.client_fps),
        mtp_mean_ms: mean(&|o| o.mtp_mean_ms),
        power_w: mean(&|o| o.power_w),
        energy_j: mean(&|o| o.energy_j),
        target_satisfaction: mean(&|o| o.target_satisfaction),
        utilisation,
        frames_rendered: mean_count(&|o| o.frames_rendered),
        frames_displayed: mean_count(&|o| o.frames_displayed),
        frames_dropped: mean_count(&|o| o.frames_dropped),
        priority_frames: mean_count(&|o| o.priority_frames),
        inputs: mean_count(&|o| o.inputs),
        obs: Default::default(),
    }
}

/// Re-runs measurable spans through the pipeline DES, one sub-fleet per
/// node, and folds the results into the cluster report. Returns the
/// per-node fleet reports (node-id order) and their merge.
///
/// Under [`FidelityMode::Analytic`] no span DES runs: each span's
/// outcome is synthesized by resampling that policy's calibration
/// outcome under the span's own seed (see [`synthesize_outcome`]). The
/// control plane — and therefore every admission/placement count in the
/// report — is identical in both modes; only the measured QoS sketches
/// trade DES fidelity for speed.
fn measure(
    cfg: &ClusterConfig,
    report: &mut ClusterReport,
    nodes: &[Node],
    spans: &mut [Span],
    cal_outcomes: &[SessionOutcome],
) -> (Vec<FleetReport>, FleetReport) {
    // Canonical order: by node, then session, then span ordinal. The
    // control loop closes spans in event order; sorting makes the
    // measurement schedule a pure function of the run, not of closure
    // interleaving.
    spans.sort_by_key(|s| (s.node, s.session, s.ordinal));
    let mut configs: Vec<ExperimentConfig> = Vec::new();
    let mut owners: Vec<usize> = Vec::new();
    let mut policies: Vec<usize> = Vec::new();
    for span in spans.iter() {
        if span.len < MIN_MEASURED_SPAN {
            report.measured_skipped += 1;
            continue;
        }
        report.measured_sessions += 1;
        let spec = cfg.churn.mix.choices()[span.policy].spec;
        configs.push(
            ExperimentConfig::builder(cfg.scenario, spec)
                .duration(span.len)
                .warmup(MEASURE_WARMUP)
                .seed(session_seed(
                    session_seed(cfg.seed, span.session),
                    span.ordinal,
                ))
                .obs(cfg.obs)
                .build(),
        );
        owners.push(span.node);
        policies.push(span.policy);
    }
    let outcomes = match cfg.sim.fidelity {
        FidelityMode::FullDes => run_outcomes(&configs, cfg.sim.threads),
        FidelityMode::Analytic => configs
            .iter()
            .enumerate()
            .map(|(i, config)| {
                synthesize_outcome(
                    i as u32,
                    config,
                    &cal_outcomes[policies[i]],
                    cfg.calibration.as_secs_f64(),
                )
            })
            .collect(),
    };
    let mut node_fleets: Vec<FleetReport> = Vec::with_capacity(nodes.len());
    for (i, node) in nodes.iter().enumerate() {
        let mine: Vec<odr_fleet::SessionOutcome> = outcomes
            .iter()
            .zip(&owners)
            .filter(|(_, &owner)| owner == i)
            .map(|(o, _)| o.clone())
            .collect();
        let fleet = FleetReport::reduce(format!("node {}", node.id()), &mine);
        if !fleet.per_session.is_empty() {
            report.per_node[i].measured_fps = fleet
                .per_session
                .iter()
                .map(|s| s.client_fps)
                .sum::<f64>()
                / fleet.per_session.len() as f64;
        }
        node_fleets.push(fleet);
    }
    let measured = node_fleets
        .iter()
        .skip(1)
        .fold(
            node_fleets
                .first()
                .cloned()
                .unwrap_or_else(|| FleetReport::reduce(cfg.label(), &[])),
            |acc, f| acc.merge(f),
        );
    report.measured_fps_cdf = measured.fps_cdf.clone();
    report.measured_mtp_cdf = measured.mtp_cdf.clone();
    report.measured_energy_cdf = measured.energy_cdf.clone();
    (node_fleets, measured)
}

/// Synthesizes one measured-span outcome from its policy's calibration
/// outcome, for [`FidelityMode::Analytic`] runs.
///
/// The calibration DES measured this policy class for
/// `cal_secs` seconds; the span lasts `config.duration`. Rates (window
/// count, input count, frame counts) scale linearly with the span
/// length, while the QoS *distributions* are resampled from the
/// calibrated sketches under the span's own seed — stream
/// [`ANALYTIC_STREAM`], which no pipeline DES ever forks — so repeated
/// spans of one session stay distinct and the whole phase is a serial,
/// thread-count-independent loop.
fn synthesize_outcome(
    index: u32,
    config: &ExperimentConfig,
    cal: &SessionOutcome,
    cal_secs: f64,
) -> SessionOutcome {
    let secs = config.duration.as_secs_f64();
    let scale = if cal_secs > 0.0 { secs / cal_secs } else { 0.0 };
    let count = |per_cal: u64| -> usize { (per_cal as f64 * scale).round() as usize };
    // The calibrated sketches pool CALIBRATION_SESSIONS runs (see
    // `calibrate`), so one run's sample rate is len / CALIBRATION_SESSIONS.
    let per_run =
        |cdf: &Cdf| -> usize { count(cdf.len() as u64 / u64::from(CALIBRATION_SESSIONS)) };
    let mut rng = Rng::new(config.seed).fork(ANALYTIC_STREAM);
    let mut draw = |cdf: &Cdf, n: usize| -> Vec<f64> {
        (0..n).map(|_| cdf.quantile(rng.next_f64())).collect()
    };
    let fps_samples = draw(&cal.fps_cdf, per_run(&cal.fps_cdf).max(1));
    let mtp_samples = draw(&cal.mtp_cdf, per_run(&cal.mtp_cdf));
    let mean = |samples: &[f64], fallback: f64| -> f64 {
        if samples.is_empty() {
            fallback
        } else {
            samples.iter().sum::<f64>() / samples.len() as f64
        }
    };
    SessionOutcome {
        index,
        seed: config.seed,
        client_fps: mean(&fps_samples, cal.client_fps),
        mtp_mean_ms: mean(&mtp_samples, cal.mtp_mean_ms),
        fps_cdf: Cdf::from_samples(fps_samples),
        mtp_cdf: Cdf::from_samples(mtp_samples),
        power_w: cal.power_w,
        energy_j: cal.power_w * secs,
        target_satisfaction: cal.target_satisfaction,
        utilisation: cal.utilisation,
        frames_rendered: count(cal.frames_rendered) as u64,
        frames_displayed: count(cal.frames_displayed) as u64,
        frames_dropped: count(cal.frames_dropped) as u64,
        priority_frames: count(cal.priority_frames) as u64,
        inputs: count(cal.inputs) as u64,
        obs: Default::default(),
    }
}

/// Sanity-checks the conservation identities every run must satisfy.
/// Exposed for tests and the bench harness.
///
/// # Panics
///
/// Panics when a session is unaccounted for: every arrival must be
/// admitted, shed or still waiting; every admitted session must have
/// completed, still be active, or have been lost to displacement.
pub fn assert_conservation(report: &ClusterReport) {
    assert_eq!(
        report.arrivals,
        report.admitted + report.shed + report.waiting_at_end,
        "arrival conservation violated"
    );
    assert_eq!(
        report.admitted,
        report.completed + report.active_at_end + report.displaced_shed + report.displaced_pending,
        "admission conservation violated"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{
        ChurnConfig, ClusterConfigBuilder, PlacementKind, PolicyMix, RetryPolicy, Slo,
    };
    use odr_core::{FpsGoal, RegulationSpec};
    use odr_workload::{Benchmark, Platform, Resolution, Scenario};

    fn scenario() -> Scenario {
        Scenario::new(Benchmark::InMind, Resolution::R720p, Platform::PrivateCloud)
    }

    fn small() -> ClusterConfigBuilder {
        let churn = ChurnConfig::new(
            0.6,
            PolicyMix::uniform(RegulationSpec::odr(FpsGoal::Target(60.0))),
        )
        .with_mean_session(Duration::from_secs(8));
        ClusterConfig::builder(scenario(), churn)
            .nodes(2)
            .horizon(Duration::from_secs(20))
            .calibration(Duration::from_secs(2))
            .seed(42)
            .measure(false)
    }

    #[test]
    fn smoke_run_conserves_sessions() {
        let run = run_cluster(&small().build());
        let r = &run.report;
        assert!(r.arrivals > 0, "no arrivals at rate 0.6 over 20 s");
        assert!(r.admitted > 0);
        assert_conservation(r);
        assert_eq!(r.per_node.len(), 2);
        assert!(r.served_ns > 0);
        assert!(r.goodput_ns <= r.served_ns);
        assert_eq!(r.wait_ms_cdf.len() as u64, r.admitted);
    }

    #[test]
    fn identical_seeds_reproduce_bytes() {
        let a = run_cluster(&small().build()).report.to_text();
        let b = run_cluster(&small().build()).report.to_text();
        assert_eq!(a, b);
    }

    #[test]
    fn threads_do_not_change_bytes() {
        let on = |threads| run_cluster(&small().measure(true).threads(threads).build());
        let (t1, t2, t8) = (on(1), on(2), on(8));
        assert_eq!(t1.report.to_text(), t2.report.to_text());
        assert_eq!(t1.report.to_text(), t8.report.to_text());
        assert_eq!(t1.measured.to_text(), t8.measured.to_text());
        for (a, b) in t1.node_fleets.iter().zip(&t8.node_fleets) {
            assert_eq!(a.to_text(), b.to_text());
        }
    }

    #[test]
    fn node_kill_displaces_and_marks_dead() {
        let cfg = small().kill(SimTime::from_secs(10), 0).build();
        let run = run_cluster(&cfg);
        let r = &run.report;
        assert_eq!(r.node_kills, 1);
        assert!(r.per_node[0].killed);
        assert!(!r.per_node[1].killed);
        assert_eq!(r.per_node[0].served_ns, 10_000_000_000);
        assert_conservation(r);
    }

    #[test]
    fn kills_on_invalid_or_dead_nodes_are_ignored() {
        let cfg = small()
            .kill(SimTime::from_secs(5), 99)
            .kill(SimTime::from_secs(6), 1)
            .kill(SimTime::from_secs(7), 1)
            .build();
        let run = run_cluster(&cfg);
        assert_eq!(run.report.node_kills, 1);
        assert_conservation(&run.report);
    }

    #[test]
    fn impossible_slo_sheds_everything() {
        let cfg = small()
            .slo(Slo {
                min_fps: 100_000.0,
                ..Slo::default()
            })
            .retry(RetryPolicy {
                max_retries: 0,
                ..RetryPolicy::default()
            })
            .build();
        let run = run_cluster(&cfg);
        let r = &run.report;
        assert_eq!(r.admitted, 0);
        assert_eq!(r.shed, r.arrivals);
        assert_eq!(r.served_ns, 0);
        assert_conservation(r);
    }

    #[test]
    fn measurement_populates_fleet_reports() {
        let run = run_cluster(&small().measure(true).build());
        let r = &run.report;
        assert_eq!(run.node_fleets.len(), 2);
        assert_eq!(
            r.measured_sessions,
            u64::from(run.measured.sessions),
            "one measured sub-session per measurable span"
        );
        if r.measured_sessions > 0 {
            assert!(!r.measured_fps_cdf.is_empty());
            assert!(r.per_node.iter().any(|n| n.measured_fps > 0.0));
        }
    }

    #[test]
    fn placement_kinds_all_run() {
        for kind in [
            PlacementKind::FirstFit,
            PlacementKind::BestFit,
            PlacementKind::OdrAware,
        ] {
            let run = run_cluster(&small().placement(kind).build());
            assert_conservation(&run.report);
            assert!(run.report.admitted > 0, "{}", kind.label());
        }
    }

    /// Residents changed at most this many times: every admission, every
    /// departure, every kill.
    fn membership_changes(r: &ClusterReport) -> u64 {
        r.per_node.iter().map(|n| n.admitted).sum::<u64>() + r.completed + r.node_kills
    }

    /// A pool too small for its arrivals asks the same question over and
    /// over — every arrival and each of its retries scans both nodes —
    /// and is answered from the kept quotes: pricing is bounded by
    /// membership changes × classes, however many probes there are.
    #[test]
    fn a_saturated_pool_prices_per_membership_change_not_per_probe() {
        let churn = ChurnConfig::new(8.0, PolicyMix::paper());
        let cfg = ClusterConfig::builder(scenario(), churn)
            .nodes(2)
            .horizon(Duration::from_secs(20))
            .calibration(Duration::from_secs(2))
            .seed(42)
            .kill(SimTime::from_secs(12), 0)
            .measure(false)
            .build();
        let _ = crate::placement::tally::take();
        let r = run_cluster(&cfg).report;
        let t = crate::placement::tally::take();
        assert_conservation(&r);
        assert!(
            r.requeues > r.admitted && r.shed > r.admitted,
            "not saturated: {} requeues, {} shed, {} admitted",
            r.requeues,
            r.shed,
            r.admitted
        );
        let classes = cfg.churn.mix.choices().len() as u64;
        let bound = (u64::from(cfg.nodes) + membership_changes(&r)) * classes;
        assert!(t.priced <= bound, "{t:?}: priced over {bound}");
        assert!(
            t.asked >= 4 * t.priced,
            "{t:?}: the probes were not repeats"
        );
    }

    /// On the benchmark's own cluster configuration (`sim_study` phase B)
    /// the fixed point is solved for at most a tenth of the admissibility
    /// probes: the work went away, it did not move.
    #[test]
    fn the_benchmark_pool_solves_a_tenth_of_its_probes() {
        let cfg = ClusterConfig::builder(scenario(), ChurnConfig::new(40.0, PolicyMix::paper()))
            .nodes(64)
            .horizon(Duration::from_secs(30))
            .seed(7)
            .measure(false)
            .build();
        let _ = crate::placement::tally::take();
        let r = run_cluster(&cfg).report;
        let t = crate::placement::tally::take();
        assert_conservation(&r);
        assert!(t.asked > 10_000, "{t:?}: the pool was barely probed");
        assert!(10 * t.solved <= t.asked, "{t:?}");
    }

    /// The analytic mode shares the FullDes control plane, so every
    /// admission/placement/failure count must be *equal*, not merely
    /// close — only the measured QoS sketches may differ.
    #[test]
    fn analytic_control_plane_matches_full_des_exactly() {
        let cfg = small().measure(true);
        let full = run_cluster(&cfg.clone().build());
        let fast = run_cluster(&cfg.fidelity(FidelityMode::Analytic).build());
        let (f, a) = (&full.report, &fast.report);
        assert_eq!(f.arrivals, a.arrivals);
        assert_eq!(f.admitted, a.admitted);
        assert_eq!(f.shed, a.shed);
        assert_eq!(f.completed, a.completed);
        assert_eq!(f.active_at_end, a.active_at_end);
        assert_eq!(f.measured_sessions, a.measured_sessions);
        assert_eq!(f.measured_skipped, a.measured_skipped);
        assert_eq!(f.served_ns, a.served_ns);
        assert_eq!(f.goodput_ns, a.goodput_ns);
        assert_eq!(f.wait_ms_cdf.len(), a.wait_ms_cdf.len());
        assert_conservation(a);
    }

    /// Analytic measurement tracks the DES it replaces: mean measured
    /// FPS within 5% and power within 5% (both phases draw from the same
    /// calibrated class; only sampling noise separates them).
    #[test]
    fn analytic_measurement_tracks_full_des() {
        let cfg = small().measure(true);
        let full = run_cluster(&cfg.clone().build());
        let fast = run_cluster(&cfg.fidelity(FidelityMode::Analytic).build());
        assert_eq!(full.measured.sessions, fast.measured.sessions);
        assert!(full.measured.sessions > 0, "need measurable spans");
        let rel = |x: f64, y: f64| (x - y).abs() / y.abs().max(1e-12);
        assert!(
            rel(fast.measured.fps_cdf.quantile(0.5), full.measured.fps_cdf.quantile(0.5)) < 0.05,
            "median measured fps {} vs {}",
            fast.measured.fps_cdf.quantile(0.5),
            full.measured.fps_cdf.quantile(0.5)
        );
        assert!(
            rel(fast.measured.total_power_w, full.measured.total_power_w) < 0.05,
            "measured power {} vs {}",
            fast.measured.total_power_w,
            full.measured.total_power_w
        );
    }

    /// The analytic measurement loop is serial, so its report — like the
    /// FullDes one — must be byte-identical across worker-thread counts
    /// (threads only parallelise calibration in this mode).
    #[test]
    fn analytic_threads_do_not_change_bytes() {
        let cfg = small().measure(true).fidelity(FidelityMode::Analytic);
        let t1 = run_cluster(&cfg.clone().threads(1).build());
        let t8 = run_cluster(&cfg.threads(8).build());
        assert_eq!(t1.report.to_text(), t8.report.to_text());
        assert_eq!(t1.measured.to_text(), t8.measured.to_text());
    }
}
