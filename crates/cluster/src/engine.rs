//! The cluster control plane: a serial discrete-event loop over
//! arrivals, retries, departures and node kills, driving the fleet
//! engine for calibration and per-node measurement.
//!
//! # Three phases
//!
//! 1. **Calibration** — one dedicated-server DES run per policy choice
//!    in the mix ([`odr_fleet::run_outcomes`], parallel across choices)
//!    yields each choice's [`SessionLoad`]: uncontended activity
//!    coefficients plus baseline FPS/MtP.
//! 2. **Control plane** — a *serial* event loop places arriving sessions
//!    under the SLO, requeues or sheds what does not fit, kills nodes on
//!    schedule and re-places the displaced. Between any two membership
//!    changes of a node, every resident's predicted QoS is constant, so
//!    the loop integrates exact step functions (served time, goodput,
//!    per-session QoS means) with no sampling error.
//! 3. **Measurement** (optional) — every placement span at least
//!    [`MIN_MEASURED_SPAN`] long re-runs as a real pipeline DES with the
//!    span's duration and policy. One [`odr_fleet::FleetReport::reduce`]
//!    per node gives its sub-fleet, and one over every span, in node-id
//!    order, gives the cluster's measured report.
//!
//! # Determinism
//!
//! Worker threads (the kept workers of [`odr_core::workers`]) only ever
//! run inside [`odr_fleet::run_outcomes`], whose reduction is
//! index-ordered; the control plane is serial with a
//! FIFO-tie-broken [`odr_simtime::EventQueue`]. The resulting
//! [`ClusterReport::to_text`] is byte-identical across `threads` values —
//! scripts/ci.sh pins this with a `cmp` differential.

use odr_fleet::{run_outcomes, session_seed, FleetReport};
use odr_memsim::MemoryParams;
use odr_obs::{names, track, Event, ObsReport, Recorder, RingRecorder, NULL_RECORDER};
use odr_pipeline::colocation::SessionLoad;
use odr_pipeline::ExperimentConfig;
use odr_simtime::time::duration_nanos;
use odr_simtime::{Duration, EventQueue, SimTime};

use crate::churn::{generate_arrivals, Arrival};
use crate::config::ClusterConfig;
use crate::placement::NodePool;
use crate::report::{ClusterReport, NodeRow};

/// Shortest placement span the measurement phase re-runs as a pipeline
/// DES; shorter spans are counted in
/// [`ClusterReport::measured_skipped`].
pub(crate) const MIN_MEASURED_SPAN: Duration = Duration::from_secs(1);

/// Warm-up excluded from each measured span's metrics.
const MEASURE_WARMUP: Duration = Duration::from_secs(1);

/// Session-index offset of the calibration runs' seeds, far above any
/// real session index (churn caps at [`crate::churn::MAX_SESSIONS`]).
const CALIBRATION_INDEX: u32 = 0xC000_0000;

/// First retry delay of a session that could not be placed; doubles on
/// every further attempt.
const RETRY_BACKOFF: Duration = Duration::from_secs(2);

/// Retries after the initial attempt before the session is shed.
const MAX_RETRIES: u32 = 3;

/// Load-shedding bound: a *newly arriving* session is rejected outright
/// when this many sessions are already waiting.
const MAX_WAITING: u32 = 32;

/// Everything one cluster simulation produced.
#[derive(Clone, Debug)]
pub struct ClusterRun {
    /// The aggregate cluster report.
    pub report: ClusterReport,
    /// Control-plane observability (empty unless
    /// [`ClusterConfig::obs`] was set).
    pub obs: ObsReport,
    /// One measured sub-fleet report per node, in node-id order (empty
    /// when [`ClusterConfig::measure`] is off).
    pub node_fleets: Vec<FleetReport>,
    /// Every measured span reduced once, in node-id order (the union of
    /// the node sub-fleets).
    pub measured: FleetReport,
}

/// A control-plane event.
#[derive(Clone, Copy)]
enum Ev {
    /// Fault injection kills a node (its id, which is its index).
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
    /// Resident on a node (its index, which is its id).
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

    // Phase 1: calibrate each policy choice on a dedicated server.
    let loads = calibrate(cfg, &mem);

    // Phase 2: the serial control-plane DES.
    let end = SimTime::ZERO + cfg.horizon;
    let arrivals = generate_arrivals(&cfg.churn, cfg.seed, cfg.horizon);
    let mut pool = NodePool::new(cfg.nodes, cfg.capacity, mem, cfg.slo, loads);
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
            match pool.choose(class) {
                Some(i) => {
                    integrate_node!(i, now);
                    pool.admit(now, i, session, class);
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
                    s.state = CtlState::Active {
                        node: i,
                        seq: s.seq,
                    };
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
                                .with_value(i as f64),
                        );
                    }
                }
                None => {
                    let s = &mut sessions[session as usize];
                    s.attempts += 1;
                    if s.attempts > MAX_RETRIES {
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
                        let delay = RETRY_BACKOFF.saturating_mul(1 << shift);
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
                if waiting_now >= MAX_WAITING {
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
                assert!(
                    removed.is_some(),
                    "departing session {session} not resident"
                );
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
                            .with_value(node as f64),
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
                report.node_kills += 1;
                if recorder.enabled() {
                    recorder.record(
                        Event::instant(now.as_nanos(), track::CLUSTER, names::CLUSTER_KILL)
                            .with_id(u64::from(node_idx))
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
                                .with_value(f64::from(node_idx)),
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
    report.node_gpu_cdf = odr_metrics::Cdf::from_samples(nodes.iter().map(|n| n.means(end).1));
    report.node_sessions_cdf = odr_metrics::Cdf::from_samples(nodes.iter().map(|n| n.means(end).0));
    report.per_node = nodes
        .iter()
        .zip(0..)
        .map(|(n, id)| {
            let (mean_sessions, mean_gpu_load, mean_slowdown) = n.means(end);
            NodeRow {
                id,
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

    // Phase 3: re-run measurable spans as real pipeline DES sub-fleets.
    let (node_fleets, measured) = if cfg.measure {
        measure(cfg, &mut report, &mut spans)
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

/// Runs one dedicated-server DES per policy choice in the mix, choice
/// `i` at `session_seed(seed, CALIBRATION_INDEX + i)`, and extracts each
/// choice's calibrated [`SessionLoad`].
fn calibrate(cfg: &ClusterConfig, mem: &MemoryParams) -> Vec<SessionLoad> {
    let configs: Vec<ExperimentConfig> = cfg
        .churn
        .mix
        .choices()
        .iter()
        .zip(0..)
        .map(|(choice, i)| {
            ExperimentConfig::builder(cfg.scenario, choice.spec)
                .duration(cfg.calibration)
                .seed(session_seed(cfg.seed, CALIBRATION_INDEX + i))
                .obs(cfg.obs)
                .build()
        })
        .collect();
    run_outcomes(&configs, cfg.threads)
        .iter()
        .map(|o| {
            let load = SessionLoad::measured(mem, o.utilisation, o.client_fps, o.mtp_mean_ms);
            assert!(
                load.fps.is_finite() && load.mtp_ms.is_finite(),
                "calibration produced a non-finite load"
            );
            load
        })
        .collect()
}

/// Re-runs measurable spans through the pipeline DES and folds the
/// results into the cluster report. Returns the per-node fleet reports
/// (node-id order) and one reduce over every measured span.
fn measure(
    cfg: &ClusterConfig,
    report: &mut ClusterReport,
    spans: &mut [Span],
) -> (Vec<FleetReport>, FleetReport) {
    // Canonical order: by node, then session, then span ordinal. The
    // control loop closes spans in event order; sorting makes the
    // measurement schedule a pure function of the run, not of closure
    // interleaving, and leaves each node's outcomes contiguous.
    spans.sort_by_key(|s| (s.node, s.session, s.ordinal));
    let mut configs: Vec<ExperimentConfig> = Vec::new();
    let mut owners: Vec<usize> = Vec::new();
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
    }
    let outcomes = run_outcomes(&configs, cfg.threads);
    let mut node_fleets: Vec<FleetReport> = Vec::with_capacity(report.per_node.len());
    let mut start = 0;
    for (i, row) in report.per_node.iter_mut().enumerate() {
        let end = owners.partition_point(|&o| o <= i);
        let fleet = FleetReport::reduce(format!("node {i}"), &outcomes[start..end]);
        start = end;
        if !fleet.per_session.is_empty() {
            row.measured_fps = fleet.per_session.iter().map(|s| s.client_fps).sum::<f64>()
                / fleet.per_session.len() as f64;
        }
        node_fleets.push(fleet);
    }
    let measured = FleetReport::reduce(cfg.label(), &outcomes);
    report.measured_fps_cdf = measured.fps_cdf.clone();
    report.measured_mtp_cdf = measured.mtp_cdf.clone();
    report.measured_energy_cdf = measured.energy_cdf.clone();
    (node_fleets, measured)
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
    use crate::config::{ChurnConfig, ClusterConfigBuilder, PolicyMix};
    use odr_core::{FpsGoal, RegulationSpec};
    use odr_pipeline::colocation::Slo;
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
        let mut cfg = small().build();
        cfg.slo.min_fps = 100_000.0;
        let run = run_cluster(&cfg);
        let r = &run.report;
        assert_eq!(r.admitted, 0);
        assert!(r.shed > 0);
        assert_eq!(r.shed + r.waiting_at_end, r.arrivals);
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

    /// The measured CDFs are one reduce over every span, so they hold
    /// exactly the node sub-fleets' samples, bit for bit.
    #[test]
    fn measured_cdfs_are_the_union_of_the_node_fleets() {
        use odr_metrics::Cdf;
        let bits = |c: &Cdf| c.samples().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let run = run_cluster(&small().measure(true).build());
        let (r, fleets) = (&run.report, &run.node_fleets);
        let union = |cdf: fn(&FleetReport) -> &Cdf| {
            Cdf::from_samples(fleets.iter().flat_map(|f| cdf(f).samples().iter().copied()))
        };
        assert!(r.measured_sessions > 0, "need measurable spans");
        assert_eq!(bits(&r.measured_fps_cdf), bits(&union(|f| &f.fps_cdf)));
        assert_eq!(bits(&r.measured_mtp_cdf), bits(&union(|f| &f.mtp_cdf)));
        assert_eq!(
            bits(&r.measured_energy_cdf),
            bits(&union(|f| &f.energy_cdf))
        );
        let node_sessions: u32 = fleets.iter().map(|f| f.sessions).sum();
        assert_eq!(run.measured.sessions, node_sessions);
        assert_eq!(u64::from(node_sessions), r.measured_sessions);
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

    /// Mix choice `i` calibrates at `session_seed(seed, CALIBRATION_INDEX
    /// + i)`, on any worker count: its load is the one derived from that
    /// seed's DES outcome, bit for bit.
    #[test]
    fn each_mix_choice_calibrates_at_its_own_seed() {
        let on = |threads| {
            ClusterConfig::builder(scenario(), ChurnConfig::new(0.6, PolicyMix::paper()))
                .calibration(Duration::from_secs(2))
                .seed(42)
                .threads(threads)
                .build()
        };
        let cfg = on(1);
        let mem = cfg.scenario.memory_params();
        let configs: Vec<ExperimentConfig> = cfg
            .churn
            .mix
            .choices()
            .iter()
            .zip(0..)
            .map(|(choice, i)| {
                ExperimentConfig::builder(cfg.scenario, choice.spec)
                    .duration(cfg.calibration)
                    .seed(session_seed(cfg.seed, CALIBRATION_INDEX + i))
                    .build()
            })
            .collect();
        let bits = |l: &SessionLoad| {
            let [a, b, c, d] = l.coeffs.map(f64::to_bits);
            [a, b, c, d, l.fps.to_bits(), l.mtp_ms.to_bits()]
        };
        let expected: Vec<_> = run_outcomes(&configs, 1)
            .iter()
            .map(|o| {
                bits(&SessionLoad::measured(
                    &mem,
                    o.utilisation,
                    o.client_fps,
                    o.mtp_mean_ms,
                ))
            })
            .collect();
        assert_eq!(expected.len(), 6);
        for threads in [1, 2] {
            let loads = calibrate(&on(threads), &mem);
            assert_eq!(
                loads.iter().map(bits).collect::<Vec<_>>(),
                expected,
                "{threads} threads"
            );
        }
    }
}
