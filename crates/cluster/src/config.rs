//! Cluster configuration: node pool, churn process, SLOs, retry policy
//! and the fault-injection schedule.

use odr_core::{FidelityMode, FpsGoal, RegulationSpec, SimOptions};
use odr_pipeline::colocation::ServerCapacity;
use odr_simtime::{Duration, Rng, SimTime};
use odr_workload::Scenario;

/// One per-session regulation policy with its arrival weight.
#[derive(Clone, Copy, Debug)]
pub struct PolicyChoice {
    /// The regulation policy sessions of this class run.
    pub spec: RegulationSpec,
    /// Relative arrival weight (sessions draw a class proportionally).
    pub weight: u64,
}

/// The weighted mix of per-session regulation policies arriving sessions
/// draw from.
#[derive(Clone, Debug)]
pub struct PolicyMix {
    choices: Vec<PolicyChoice>,
    total_weight: u64,
}

impl PolicyMix {
    /// A mix where every session runs `spec`.
    #[must_use]
    pub fn uniform(spec: RegulationSpec) -> PolicyMix {
        PolicyMix::new(vec![PolicyChoice { spec, weight: 1 }])
    }

    /// Builds a mix from explicit choices.
    ///
    /// # Panics
    ///
    /// Panics if `choices` is empty or the total weight is zero.
    #[must_use]
    pub fn new(choices: Vec<PolicyChoice>) -> PolicyMix {
        let total_weight: u64 = choices.iter().map(|c| c.weight).sum();
        assert!(
            !choices.is_empty() && total_weight > 0,
            "a policy mix needs at least one positively weighted choice"
        );
        PolicyMix {
            choices,
            total_weight,
        }
    }

    /// The paper's evaluation mix at a 60 FPS target: ODR60, ODR30,
    /// ODRMax, Int60, RVS60 and NoReg, equally weighted.
    #[must_use]
    pub fn paper() -> PolicyMix {
        let specs = [
            RegulationSpec::odr(FpsGoal::Target(60.0)),
            RegulationSpec::odr(FpsGoal::Target(30.0)),
            RegulationSpec::odr(FpsGoal::Max),
            RegulationSpec::Interval(FpsGoal::Target(60.0)),
            RegulationSpec::rvs(FpsGoal::Target(60.0)),
            RegulationSpec::NoReg,
        ];
        PolicyMix::new(
            specs
                .into_iter()
                .map(|spec| PolicyChoice { spec, weight: 1 })
                .collect(),
        )
    }

    /// The distinct policy classes, in construction order. The index into
    /// this slice is the *policy id* used throughout the cluster (churn
    /// draws, calibration, reports).
    #[must_use]
    pub fn choices(&self) -> &[PolicyChoice] {
        &self.choices
    }

    /// Deterministic label, e.g. `"ODR60"` or `"ODR60:2+NoReg"`.
    #[must_use]
    pub fn label(&self) -> String {
        let parts: Vec<String> = self
            .choices
            .iter()
            .map(|c| {
                if c.weight == 1 {
                    c.spec.label()
                } else {
                    format!("{}:{}", c.spec.label(), c.weight)
                }
            })
            .collect();
        parts.join("+")
    }

    /// Draws a policy id proportionally to the weights.
    pub(crate) fn draw(&self, rng: &mut Rng) -> usize {
        let mut x = rng.below(self.total_weight);
        for (i, c) in self.choices.iter().enumerate() {
            if x < c.weight {
                return i;
            }
            x -= c.weight;
        }
        self.choices.len() - 1
    }
}

/// The session churn process: Poisson arrivals, log-normal residency
/// times, policy classes drawn from a weighted mix.
#[derive(Clone, Debug)]
pub struct ChurnConfig {
    /// Mean session arrivals per simulated second (Poisson process).
    pub arrival_rate: f64,
    /// Median session residency (log-normally distributed).
    pub mean_session: Duration,
    /// Multiplicative spread of the residency distribution (sigma of the
    /// underlying normal).
    pub session_sigma: f64,
    /// Weighted per-session policy mix.
    pub mix: PolicyMix,
    /// Hard cap on generated sessions — source-side load shedding so a
    /// mistyped arrival rate cannot exhaust memory.
    pub max_sessions: u32,
}

impl ChurnConfig {
    /// Default median session residency.
    pub(crate) const DEFAULT_MEAN_SESSION: Duration = Duration::from_secs(30);

    /// Default residency spread.
    pub(crate) const DEFAULT_SESSION_SIGMA: f64 = 0.4;

    /// Default cap on generated sessions.
    pub(crate) const DEFAULT_MAX_SESSIONS: u32 = 100_000;

    /// Creates a churn process with the default residency distribution.
    #[must_use]
    pub fn new(arrival_rate: f64, mix: PolicyMix) -> ChurnConfig {
        ChurnConfig {
            arrival_rate,
            mean_session: Self::DEFAULT_MEAN_SESSION,
            session_sigma: Self::DEFAULT_SESSION_SIGMA,
            mix,
            max_sessions: Self::DEFAULT_MAX_SESSIONS,
        }
    }

    /// Sets the median session residency.
    #[must_use]
    pub fn with_mean_session(mut self, mean_session: Duration) -> ChurnConfig {
        self.mean_session = mean_session;
        self
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

/// Bounded retry-with-backoff for sessions that could not be placed.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// First retry delay; doubles on every further attempt.
    pub backoff: Duration,
    /// Retries after the initial attempt before the session is shed.
    pub max_retries: u32,
    /// Load-shedding bound: a *newly arriving* session is rejected
    /// outright when this many sessions are already waiting.
    pub max_waiting: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            backoff: Duration::from_secs(2),
            max_retries: 3,
            max_waiting: 32,
        }
    }
}

/// A scheduled node failure: at sim-time `at`, node `node` (an index
/// into the cluster's node vector) dies permanently and its residents
/// are displaced.
#[derive(Clone, Copy, Debug)]
pub struct NodeKill {
    /// When the node dies.
    pub at: SimTime,
    /// Which node dies (cluster-local index; out-of-range kills are
    /// ignored).
    pub node: u32,
}

/// Which node [`NodePool::choose`](crate::NodePool::choose) picks among
/// the admissible ones.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlacementKind {
    /// First admissible node in index order.
    FirstFit,
    /// Admissible node with the highest post-placement GPU load
    /// (tightest pack; frees whole nodes for heavy sessions).
    BestFit,
    /// Admissible node with the largest post-placement QoS headroom,
    /// predicted through the co-location fixed point.
    OdrAware,
}

impl PlacementKind {
    /// Deterministic label used in reports and the CLI.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            PlacementKind::FirstFit => "first-fit",
            PlacementKind::BestFit => "best-fit",
            PlacementKind::OdrAware => "odr-aware",
        }
    }

    /// Parses a CLI label (`first-fit`, `best-fit`, `odr-aware`).
    #[must_use]
    pub fn parse(s: &str) -> Option<PlacementKind> {
        match s {
            "first-fit" => Some(PlacementKind::FirstFit),
            "best-fit" => Some(PlacementKind::BestFit),
            "odr-aware" => Some(PlacementKind::OdrAware),
            _ => None,
        }
    }
}

/// One cluster simulation: a node pool serving a churning session
/// population under an admission SLO, with optional fault injection and
/// optional measured per-node sub-fleets.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// The workload every session runs (benchmark × resolution ×
    /// platform).
    pub scenario: Scenario,
    /// Number of nodes in the pool.
    pub nodes: u32,
    /// Per-node execution resources.
    pub capacity: ServerCapacity,
    /// Simulated horizon; sessions still resident at the horizon are
    /// truncated there.
    pub horizon: Duration,
    /// Base seed; every derived stream is a pure function of this and an
    /// index (see the crate-level determinism contract).
    pub seed: u64,
    /// The session churn process.
    pub churn: ChurnConfig,
    /// The admission SLO.
    pub slo: Slo,
    /// Retry/load-shedding policy for unplaceable sessions.
    pub retry: RetryPolicy,
    /// Placement policy.
    pub placement: PlacementKind,
    /// Scheduled node failures.
    pub kills: Vec<NodeKill>,
    /// Length of each per-policy calibration run (uncontended DES that
    /// yields the policy's activity coefficients and baseline QoS).
    pub calibration: Duration,
    /// Run measured per-node sub-fleets after the control plane and fold
    /// them into the report (slower; off leaves the predicted QoS only).
    pub measure: bool,
    /// Execution options. `sim.threads` sizes the worker pool for
    /// calibration and measured sub-fleets and never changes any
    /// reported number; `sim.fidelity` selects how the measurement phase
    /// runs (FullDes re-runs every span as a pipeline DES, Analytic
    /// synthesises span outcomes from the per-class calibration — the
    /// control plane, and therefore every admission count, is identical
    /// in both modes).
    pub sim: SimOptions,
    /// Id of the first node, for sharded runs whose reports merge: give
    /// each shard a disjoint id range.
    pub first_node_id: u32,
    /// Record placement/admission/failure events on the observability
    /// track (exported via the usual JSONL/Chrome exporters).
    pub obs: bool,
}

impl ClusterConfig {
    /// Default simulated horizon.
    pub(crate) const DEFAULT_HORIZON: Duration = Duration::from_secs(60);

    /// Default per-policy calibration run length.
    pub(crate) const DEFAULT_CALIBRATION: Duration = Duration::from_secs(10);

    /// Creates a cluster with default capacity, SLO, retry policy,
    /// horizon and calibration, first-fit placement, no faults, measured
    /// sub-fleets on, one worker thread.
    #[must_use]
    pub fn new(scenario: Scenario, nodes: u32, churn: ChurnConfig) -> ClusterConfig {
        ClusterConfig {
            scenario,
            nodes,
            capacity: ServerCapacity::default(),
            horizon: Self::DEFAULT_HORIZON,
            seed: 0x0D12_5EED,
            churn,
            slo: Slo::default(),
            retry: RetryPolicy::default(),
            placement: PlacementKind::FirstFit,
            kills: Vec::new(),
            calibration: Self::DEFAULT_CALIBRATION,
            measure: true,
            sim: SimOptions::new(),
            first_node_id: 0,
            obs: false,
        }
    }

    /// Starts a typed builder with the defaults of [`ClusterConfig::new`]
    /// (one node until [`nodes`](ClusterConfigBuilder::nodes) is called).
    ///
    /// # Examples
    ///
    /// ```
    /// use odr_cluster::{ChurnConfig, ClusterConfig, PlacementKind, PolicyMix};
    /// use odr_core::RegulationSpec;
    /// use odr_simtime::Duration;
    /// use odr_workload::{Benchmark, Platform, Resolution, Scenario};
    ///
    /// let scenario = Scenario::new(Benchmark::InMind, Resolution::R720p, Platform::PrivateCloud);
    /// let cfg = ClusterConfig::builder(scenario, ChurnConfig::new(0.5, PolicyMix::paper()))
    ///     .nodes(4)
    ///     .horizon(Duration::from_secs(30))
    ///     .placement(PlacementKind::OdrAware)
    ///     .build();
    /// assert_eq!(cfg.nodes, 4);
    /// assert_eq!(cfg.horizon, Duration::from_secs(30));
    /// ```
    #[must_use]
    pub fn builder(scenario: Scenario, churn: ChurnConfig) -> ClusterConfigBuilder {
        ClusterConfigBuilder {
            cfg: ClusterConfig::new(scenario, 1, churn),
        }
    }

    /// Deterministic report label, e.g.
    /// `"IM/720p/Priv ODR60 4n first-fit"`.
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "{} {} {}n {}",
            self.scenario.label(),
            self.churn.mix.label(),
            self.nodes,
            self.placement.label()
        )
    }
}

/// Typed builder for [`ClusterConfig`], mirroring
/// [`odr_pipeline::ExperimentConfig::builder`] and
/// `odr_fleet::FleetConfig::builder`.
///
/// Obtained from [`ClusterConfig::builder`]; `build` is infallible.
/// Every setter documents its default, and a builder with no setters
/// applied produces exactly `ClusterConfig::new(scenario, 1, churn)` —
/// the equivalence test in this module pins that.
#[derive(Clone, Debug)]
pub struct ClusterConfigBuilder {
    cfg: ClusterConfig,
}

impl ClusterConfigBuilder {
    /// Sets the node-pool size (default: 1).
    #[must_use]
    pub fn nodes(mut self, nodes: u32) -> Self {
        self.cfg.nodes = nodes;
        self
    }

    /// Sets the simulated horizon (default:
    /// [`ClusterConfig::DEFAULT_HORIZON`]).
    #[must_use]
    pub fn horizon(mut self, horizon: Duration) -> Self {
        self.cfg.horizon = horizon;
        self
    }

    /// Sets the base seed (default: `0x0D12_5EED`).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Sets the admission SLO (default: [`Slo::default`]).
    #[must_use]
    pub fn slo(mut self, slo: Slo) -> Self {
        self.cfg.slo = slo;
        self
    }

    /// Sets the retry/load-shedding policy (default:
    /// [`RetryPolicy::default`]).
    #[must_use]
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.cfg.retry = retry;
        self
    }

    /// Selects the placement policy (default:
    /// [`PlacementKind::FirstFit`]).
    #[must_use]
    pub fn placement(mut self, placement: PlacementKind) -> Self {
        self.cfg.placement = placement;
        self
    }

    /// Schedules a node failure (default: none; may be called multiple
    /// times).
    #[must_use]
    pub fn kill(mut self, at: SimTime, node: u32) -> Self {
        self.cfg.kills.push(NodeKill { at, node });
        self
    }

    /// Sets the per-policy calibration run length (default:
    /// [`ClusterConfig::DEFAULT_CALIBRATION`]).
    #[must_use]
    pub fn calibration(mut self, calibration: Duration) -> Self {
        self.cfg.calibration = calibration;
        self
    }

    /// Enables or disables the measured per-node sub-fleets (default:
    /// on).
    #[must_use]
    pub fn measure(mut self, measure: bool) -> Self {
        self.cfg.measure = measure;
        self
    }

    /// Sets the worker-pool size (default: 1).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.cfg.sim.threads = threads;
        self
    }

    /// Sets the measurement fidelity (default:
    /// [`FidelityMode::FullDes`]).
    #[must_use]
    pub fn fidelity(mut self, fidelity: FidelityMode) -> Self {
        self.cfg.sim.fidelity = fidelity;
        self
    }

    /// Sets the first node id for sharded runs (default: 0).
    #[must_use]
    pub fn first_node_id(mut self, first_node_id: u32) -> Self {
        self.cfg.first_node_id = first_node_id;
        self
    }

    /// Enables observability capture (default: off).
    #[must_use]
    pub fn obs(mut self, obs: bool) -> Self {
        self.cfg.obs = obs;
        self
    }

    /// Finishes the builder.
    #[must_use]
    pub fn build(self) -> ClusterConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odr_workload::{Benchmark, Platform, Resolution};

    #[test]
    fn mix_draw_respects_weights() {
        let mix = PolicyMix::new(vec![
            PolicyChoice {
                spec: RegulationSpec::odr(FpsGoal::Target(60.0)),
                weight: 3,
            },
            PolicyChoice {
                spec: RegulationSpec::NoReg,
                weight: 1,
            },
        ]);
        let mut rng = Rng::new(7);
        let mut counts = [0u32; 2];
        for _ in 0..4000 {
            counts[mix.draw(&mut rng)] += 1;
        }
        let frac = f64::from(counts[0]) / 4000.0;
        assert!((frac - 0.75).abs() < 0.05, "weighted draw off: {frac}");
    }

    #[test]
    fn mix_labels() {
        assert_eq!(
            PolicyMix::uniform(RegulationSpec::odr(FpsGoal::Target(60.0))).label(),
            "ODR60"
        );
        let mixed = PolicyMix::new(vec![
            PolicyChoice {
                spec: RegulationSpec::odr(FpsGoal::Target(60.0)),
                weight: 2,
            },
            PolicyChoice {
                spec: RegulationSpec::NoReg,
                weight: 1,
            },
        ]);
        assert_eq!(mixed.label(), "ODR60:2+NoReg");
        assert_eq!(PolicyMix::paper().choices().len(), 6);
    }

    #[test]
    #[should_panic(expected = "at least one positively weighted")]
    fn empty_mix_panics() {
        let _ = PolicyMix::new(Vec::new());
    }

    #[test]
    fn placement_kind_round_trips() {
        for kind in [
            PlacementKind::FirstFit,
            PlacementKind::BestFit,
            PlacementKind::OdrAware,
        ] {
            assert_eq!(PlacementKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(PlacementKind::parse("round-robin"), None);
    }

    #[test]
    fn config_setters_and_label() {
        let scenario = Scenario::new(Benchmark::InMind, Resolution::R720p, Platform::PrivateCloud);
        let cfg = ClusterConfig::builder(
            scenario,
            ChurnConfig::new(0.5, PolicyMix::uniform(RegulationSpec::NoReg)),
        )
        .nodes(4)
        .horizon(Duration::from_secs(30))
        .seed(9)
        .slo(Slo {
            min_fps: 45.0,
            ..Slo::default()
        })
        .retry(RetryPolicy {
            max_retries: 1,
            ..RetryPolicy::default()
        })
        .placement(PlacementKind::OdrAware)
        .kill(SimTime::from_secs(10), 1)
        .calibration(Duration::from_secs(3))
        .measure(false)
        .threads(8)
        .fidelity(FidelityMode::Analytic)
        .first_node_id(16)
        .obs(true)
        .build();
        assert_eq!(cfg.nodes, 4);
        assert_eq!(cfg.horizon, Duration::from_secs(30));
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.slo.min_fps, 45.0);
        assert_eq!(cfg.retry.max_retries, 1);
        assert_eq!(cfg.kills.len(), 1);
        assert_eq!(cfg.calibration, Duration::from_secs(3));
        assert!(!cfg.measure);
        assert_eq!(cfg.sim.threads, 8);
        assert_eq!(cfg.sim.fidelity, FidelityMode::Analytic);
        assert_eq!(cfg.first_node_id, 16);
        assert!(cfg.obs);
        assert_eq!(cfg.label(), "IM/720p/Priv NoReg 4n odr-aware");
    }

    /// A builder with no setters applied is `ClusterConfig::new` with one
    /// node, field for field.
    #[test]
    fn builder_matches_literal_construction() {
        let scenario = Scenario::new(Benchmark::InMind, Resolution::R720p, Platform::PrivateCloud);
        let churn = ChurnConfig::new(0.5, PolicyMix::paper());
        let built = ClusterConfig::builder(scenario, churn.clone()).build();
        let literal = ClusterConfig::new(scenario, 1, churn);
        assert_eq!(format!("{built:?}"), format!("{literal:?}"));
    }
}
