//! # cloud3d-odr — OnDemand Rendering for cloud 3D
//!
//! A from-scratch Rust reproduction of *"Improving Resource and Energy
//! Efficiency for Cloud 3D through Excessive Rendering Reduction"*
//! (EuroSys 2024): the **ODR** FPS-regulation system — multi-buffering,
//! the accelerate-and-delay FPS regulator (Algorithm 1), and
//! PriorityFrame — together with every substrate needed to evaluate it:
//!
//! * [`pipeline`] — a deterministic discrete-event simulation of the full
//!   cloud 3D pipeline (Figure 2 of the paper) with pluggable regulation;
//! * [`odr`] — the regulation mechanisms themselves plus the paper's
//!   baselines (interval pacing, IntMax, Remote VSync);
//! * [`workload`] — calibrated models of the six Pictor benchmarks, the
//!   private-cloud and GCE platforms, and user-input processes;
//! * [`netsim`] / [`memsim`] — the network and DRAM-contention models
//!   behind the paper's latency and efficiency results;
//! * [`raster`] / [`codec`] / [`runtime`] — a software renderer, a video
//!   codec, and the render and encode/regulate stage loops that run the
//!   same ODR primitives against wall-clock time;
//! * [`serve`] / [`client`] — the real-time pipeline: a multi-session TCP
//!   serving surface around those stages (versioned wire protocol, SLO
//!   admission against the colocation fixed point, live telemetry) and
//!   the thin replay client that measures at the far end of the socket
//!   and closes the sim-to-real loop;
//! * [`qoe`] — the user-study model (Figures 14–15);
//! * [`fleet`] — N independent sessions reduced into one deterministic
//!   fleet report;
//! * [`cluster`] — a deterministic cluster scheduler over the fleet
//!   engine: session churn, SLO admission control, pluggable placement
//!   and node fault injection;
//! * [`obs`] — the structured observability layer: sim-time-stamped
//!   spans and counters with JSONL and Chrome-trace exporters;
//! * [`metrics`] / [`simtime`] — measurement and deterministic-simulation
//!   primitives.
//!
//! ## Quickstart
//!
//! ```
//! use cloud3d_odr::prelude::*;
//!
//! let scenario = Scenario::new(Benchmark::InMind, Resolution::R720p, Platform::PrivateCloud);
//! let config = ExperimentConfig::builder(scenario, RegulationSpec::odr(FpsGoal::Target(60.0)))
//!     .duration(Duration::from_secs(20))
//!     .build();
//! let report = run_experiment(&config);
//! assert!((report.client_fps - 60.0).abs() < 3.0);
//! assert!(report.fps_gap_avg < 6.0);
//! ```
//!
//! Regenerate the paper's tables and figures with
//! `cargo run --release -p odr-bench --bin repro`.

pub use odr_client as client;
pub use odr_cluster as cluster;
pub use odr_codec as codec;
pub use odr_core as odr;
pub use odr_fleet as fleet;
pub use odr_memsim as memsim;
pub use odr_metrics as metrics;
pub use odr_netsim as netsim;
pub use odr_obs as obs;
pub use odr_pipeline as pipeline;
pub use odr_qoe as qoe;
pub use odr_raster as raster;
pub use odr_runtime as runtime;
pub use odr_serve as serve;
pub use odr_simtime as simtime;
pub use odr_workload as workload;

/// The types most programs need: configuration builders, the experiment
/// and fleet entry points, the error type, and the observability
/// recorder/exporter surface.
pub mod prelude {
    pub use odr_client::{outcome_to_text, run_client, ClientConfig, ClientOutcome};
    pub use odr_cluster::{
        run_cluster, ChurnConfig, ClusterConfig, ClusterConfigBuilder, ClusterReport, PolicyMix,
        Slo,
    };
    pub use odr_core::{
        FidelityMode, FpsGoal, FpsRegulator, OdrError, OdrOptions, OdrResult, RegulationSpec,
        SimOptions, SyncQueue,
    };
    pub use odr_fleet::{run_fleet, FleetConfig, FleetConfigBuilder, FleetReport};
    pub use odr_obs::{to_chrome_trace, to_jsonl, NullRecorder, ObsReport, Recorder, RingRecorder};
    pub use odr_pipeline::{
        run_experiment, run_suite, ClientDisplay, ExperimentConfig, ExperimentConfigBuilder, Report,
    };
    pub use odr_qoe::{Panel, QoeSample};
    pub use odr_runtime::Regulation;
    pub use odr_serve::{ServeConfig, ServeReport, Server, SessionConfig};
    pub use odr_simtime::{Duration, Rng, SimTime};
    pub use odr_workload::{Benchmark, Platform, Resolution, Scenario};
}
