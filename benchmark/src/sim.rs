//! `sim_study`: the simulators, with no socket, raster or codec in sight.
//!
//! A study is a sequence of rounds. Each round runs phase A — a FullDes
//! fleet under each of four regulation policies (`pipeline::Sim`, the
//! slab event queue, the regulators, the link model, the workload
//! samplers) — and phase B — one cluster run with the control plane only
//! (`simtime::EventQueue`, the colocation fixed point, placement). Each
//! phase is timed on its own. Rounds are small so that a run holds a few
//! hundred of them and medians and a p95 mean something; every round
//! draws its own seed from `--seed`, so the work is statistically the
//! same but never cached.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use odr_cluster::{assert_conservation, run_cluster, ChurnConfig, ClusterConfig, PolicyMix};
use odr_core::{FpsGoal, RegulationSpec};
use odr_fleet::{run_fleet, FleetConfig};
use odr_simtime::{Duration as SimDuration, Rng};
use odr_workload::{Benchmark, Platform, Resolution, Scenario};

use crate::procstat;
use crate::serve::Window;
use crate::stats;
use crate::trace::{TraceId, Tracer};
use crate::Outcome;

/// Sessions per policy per round, and how long each is simulated.
const FLEET_SESSIONS: u32 = 8;
const FLEET_SIM_SECS: u64 = 10;
/// Worker threads of the fleet engine (= the sizing host's cores).
const THREADS: usize = 2;
/// Phase B: nodes, arrival rate and simulated horizon per round.
const CLUSTER_NODES: u32 = 64;
const ARRIVALS_PER_SEC: f64 = 40.0;
const CLUSTER_SIM_SECS: u64 = 30;
/// Times the set-up is repeated; `setup_s` is the median.
const SETUP_REPS: usize = 9;
/// Fleet and cluster runs in one round.
const RUNS_PER_ROUND: u64 = 5;

/// The scenario every phase simulates: InMind at 720p, private cloud.
#[must_use]
pub fn scenario() -> Scenario {
    Scenario::new(Benchmark::InMind, Resolution::R720p, Platform::PrivateCloud)
}

/// The four policies of phase A, with the names the metrics carry.
#[must_use]
pub fn policies() -> [(&'static str, RegulationSpec); 4] {
    [
        ("noreg", RegulationSpec::NoReg),
        ("int60", RegulationSpec::interval(60.0)),
        ("rvs60", RegulationSpec::rvs(FpsGoal::Target(60.0))),
        ("odr60", RegulationSpec::odr(FpsGoal::Target(60.0))),
    ]
}

/// A phase A fleet.
#[must_use]
pub fn fleet_config(
    spec: RegulationSpec,
    seed: u64,
    sessions: u32,
    sim_secs: u64,
    threads: usize,
) -> FleetConfig {
    FleetConfig::builder(scenario(), spec)
        .base(|b| b.duration(SimDuration::from_secs(sim_secs)).seed(seed))
        .sessions(sessions)
        .threads(threads)
        .build()
}

/// A phase B cluster: control plane only, the paper's policy mix.
#[must_use]
pub fn cluster_config(seed: u64, sim_secs: u64) -> ClusterConfig {
    ClusterConfig::builder(
        scenario(),
        ChurnConfig::new(ARRIVALS_PER_SEC, PolicyMix::paper()),
    )
    .nodes(CLUSTER_NODES)
    .horizon(SimDuration::from_secs(sim_secs))
    .seed(seed)
    .measure(false)
    .threads(THREADS)
    .build()
}

/// FNV-1a, 64 bit: the digest of a round's rendered reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    /// The empty digest.
    #[must_use]
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` in.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Sixteen hex digits.
    #[must_use]
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

impl Default for Digest {
    fn default() -> Digest {
        Digest::new()
    }
}

/// What one round did.
#[derive(Clone, Copy, Debug)]
pub struct Round {
    /// Simulated frames rendered, all four policies.
    pub rendered: u64,
    /// Simulated frames displayed, all four policies.
    pub displayed: u64,
    /// Host seconds of phase A.
    pub fleet_secs: f64,
    /// Process CPU seconds of phase A.
    pub fleet_cpu_secs: f64,
    /// Arrivals the control plane decided.
    pub arrivals: u64,
    /// Host seconds of phase B.
    pub cluster_secs: f64,
    /// Digest of the five reports' text.
    pub digest: Digest,
    /// Checks that failed: conservation, session count, empty reports.
    pub failures: u64,
}

/// The seed of round `index` of the study seeded `seed`.
#[must_use]
pub fn round_seed(seed: u64, index: u64) -> u64 {
    Rng::new(seed).fork(index).next_u64()
}

/// Runs one round: four fleets, one cluster.
///
/// # Errors
///
/// When a simulator panics (the cluster's conservation assertion does).
pub fn round(seed: u64, threads: usize, tracer: &mut Tracer) -> Result<Round, String> {
    let started = Instant::now();
    let root = tracer.push(
        "study.round",
        started,
        started,
        None,
        TraceId::Phase("study"),
    );
    let mut digest = Digest::new();
    let mut out = Round {
        rendered: 0,
        displayed: 0,
        fleet_secs: 0.0,
        fleet_cpu_secs: 0.0,
        arrivals: 0,
        cluster_secs: 0.0,
        digest,
        failures: 0,
    };
    let cpu0 = procstat::process_cpu_secs();
    for (_, spec) in policies() {
        let cfg = fleet_config(spec, seed, FLEET_SESSIONS, FLEET_SIM_SECS, threads);
        let report = tracer.time("fleet.run_fleet", root, TraceId::Phase("fleet"), || {
            run_fleet(&cfg)
        });
        out.rendered += report.frames_rendered;
        out.displayed += report.frames_displayed;
        out.failures += u64::from(report.sessions != FLEET_SESSIONS)
            + u64::from(
                report.frames_displayed == 0 || report.frames_displayed > report.frames_rendered,
            );
        digest.update(report.to_text().as_bytes());
    }
    let fleet_done = Instant::now();
    out.fleet_secs = (fleet_done - started).as_secs_f64();
    if let (Some(a), Some(b)) = (cpu0, procstat::process_cpu_secs()) {
        out.fleet_cpu_secs = b - a;
    }

    let cfg = cluster_config(seed, CLUSTER_SIM_SECS);
    let run = tracer.time(
        "cluster.run_cluster",
        root,
        TraceId::Phase("cluster"),
        || {
            catch_unwind(AssertUnwindSafe(|| {
                let run = run_cluster(&cfg);
                assert_conservation(&run.report);
                run
            }))
        },
    );
    let run = run.map_err(|_| "cluster run panicked (conservation?)".to_string())?;
    let ended = Instant::now();
    out.cluster_secs = (ended - fleet_done).as_secs_f64();
    out.arrivals = run.report.arrivals;
    out.failures += u64::from(run.report.arrivals == 0);
    digest.update(run.report.to_text().as_bytes());
    out.digest = digest;
    tracer.close(root, ended);
    Ok(out)
}

/// Runs the study for `seconds` and reports it.
pub fn run(seed: u64, seconds: f64, trace: bool, epoch: Instant) -> Outcome {
    let mut outcome = Outcome::new(trace, epoch);

    // Set-up, repeated: build the configurations and run round 0 cold
    // (arenas grow, workers spawn). Every repetition does identical work,
    // so their digests must agree — and agree with one worker thread.
    let mut setups = Vec::new();
    let mut digests = Vec::new();
    for rep in 0..=SETUP_REPS {
        let threads = if rep == SETUP_REPS { 1 } else { THREADS };
        let started = Instant::now();
        outcome.attempted += RUNS_PER_ROUND;
        match round(round_seed(seed, 0), threads, &mut outcome.tracer) {
            Ok(r) => {
                outcome.failed += r.failures;
                digests.push(r.digest);
                if rep < SETUP_REPS {
                    setups.push(started.elapsed().as_secs_f64());
                }
            }
            Err(e) => {
                outcome.failed += RUNS_PER_ROUND;
                outcome.errors.push(e);
            }
        }
    }
    if digests.windows(2).any(|pair| pair[0] != pair[1]) {
        outcome.failed += 1;
        outcome
            .errors
            .push("round 0 digests differ between repetitions or thread counts".into());
    }
    let digest = digests
        .first()
        .map_or_else(|| "none".to_string(), |d| d.hex());
    outcome.note(format!(
        "report digest {digest} (round 0, also with 1 thread)"
    ));

    // The measured rounds.
    let window = Window::new(Instant::now(), seconds, trace);
    let mut all: Vec<Round> = Vec::new();
    let mut traced: Vec<bool> = Vec::new();
    let mut index = 1;
    loop {
        let now = Instant::now();
        if window.index(now).is_none() {
            break;
        }
        let mut spans = Tracer::new(window.traced(now), epoch);
        outcome.attempted += RUNS_PER_ROUND;
        match round(round_seed(seed, index), THREADS, &mut spans) {
            Ok(r) => {
                outcome.failed += r.failures;
                all.push(r);
                traced.push(spans.enabled());
            }
            Err(e) => {
                outcome.failed += RUNS_PER_ROUND;
                outcome.errors.push(e);
            }
        }
        outcome.tracer.absorb(spans);
        index += 1;
    }

    let per_round = |f: fn(&Round) -> f64| all.iter().map(f).collect::<Vec<f64>>();
    let decide_ms = per_round(|r| r.cluster_secs * 1e3 / r.arrivals as f64 * 1e3);
    let frame_rate = per_round(|r| r.rendered as f64 / r.fleet_secs);
    let rendered: u64 = all.iter().map(|r| r.rendered).sum();
    let displayed: u64 = all.iter().map(|r| r.displayed).sum();
    let fleet_cpu: f64 = all.iter().map(|r| r.fleet_cpu_secs).sum();
    let arrivals: u64 = all.iter().map(|r| r.arrivals).sum();
    let cluster_secs: f64 = all.iter().map(|r| r.cluster_secs).sum();
    outcome.note(format!(
        "{} rounds: {rendered} simulated frames, {arrivals} admission decisions",
        all.len()
    ));
    outcome.note(match stats::highest_supported(decide_ms.len()) {
        Some(p) => format!(
            "latency p{p}: {:.6} ms (the highest percentile with {} samples beyond it)",
            stats::percentile(&decide_ms, p),
            stats::MIN_BEYOND
        ),
        None => format!(
            "too few rounds for any tail percentile ({} beyond it)",
            stats::MIN_BEYOND
        ),
    });
    outcome.e2e("latency_p50_ms", stats::median(&decide_ms));
    outcome.e2e("frames_per_s", stats::median(&frame_rate));
    outcome.e2e("server_cpu_ms_per_frame", fleet_cpu * 1e3 / rendered as f64);
    outcome.e2e("render_per_display", rendered as f64 / displayed as f64);
    outcome.e2e("peak_rss_mb", procstat::peak_rss_mb().unwrap_or(f64::NAN));
    outcome.e2e("setup_s", stats::median(&setups));
    outcome.alias("des_frames_per_s", "1/s", stats::median(&frame_rate));
    outcome.alias(
        "admission_decisions_per_s",
        "1/s",
        arrivals as f64 / cluster_secs,
    );

    if trace {
        let secs = |with_spans: bool| {
            let rounds = all.iter().zip(&traced).filter(|&(_, &t)| t == with_spans);
            stats::median(
                &rounds
                    .map(|(r, _)| r.fleet_secs + r.cluster_secs)
                    .collect::<Vec<f64>>(),
            )
        };
        outcome.layer("trace.overhead_ratio", secs(true) / secs(false));
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_digest_whatever_the_thread_count() {
        let epoch = Instant::now();
        let mut off = Tracer::new(false, epoch);
        let a = round(round_seed(11, 0), 2, &mut off).expect("round");
        let b = round(round_seed(11, 0), 1, &mut off).expect("round");
        let c = round(round_seed(12, 0), 2, &mut off).expect("round");
        assert_eq!(a.digest, b.digest);
        assert_ne!(a.digest, c.digest);
        assert_eq!(a.failures, 0);
        assert!(a.rendered >= a.displayed && a.displayed > 0 && a.arrivals > 0);
        assert_eq!(a.digest.hex().len(), 16);
    }
}
