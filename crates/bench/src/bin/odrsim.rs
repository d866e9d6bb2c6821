//! `odrsim` — run one cloud-3D simulation from the command line.
//!
//! ```text
//! odrsim --benchmark IM --resolution 720p --platform gce \
//!        --regulation odr --target 60 --duration 60 --seed 1
//! ```
//!
//! Options (all optional; defaults in brackets):
//!
//! * `--benchmark STK|0AD|RE|D2|IM|ITP` \[IM\]
//! * `--resolution 720p|1080p` \[720p\]
//! * `--platform priv|gce|local` \[priv\]
//! * `--regulation noreg|int|rvs|odr` \[odr\]
//! * `--target <fps>|max` \[max\]
//! * `--duration <secs>` \[60\]
//! * `--seed <u64>` \[1\]
//! * `--display immediate|vsync:<hz>|freesync:<hz>` \[immediate\]
//! * `--no-priority` — disable PriorityFrame (ODR only)
//! * `--trace` — append the per-frame trace as CSV after the report
//! * `--trace-out <path>` — record structured observability events and
//!   write them to `<path>` after the run
//! * `--trace-format jsonl|chrome` — trace file format \[jsonl\];
//!   `chrome` loads in Perfetto / `chrome://tracing`
//! * `--sessions <n>` — simulate a fleet of n sessions (seeds derived
//!   per session) and print the aggregate fleet report instead
//! * `--threads <t>` — fleet worker threads \[1\]; never changes output
//! * `--fidelity full|analytic` — simulation fidelity \[full\]:
//!   `analytic` calibrates each session class once and replays the
//!   calibrated distributions analytically (fleet/cluster modes only)
//!
//! Fleet mode prints the deterministic [`cloud3d_odr::fleet::FleetReport`] text
//! to stdout (byte-identical for any `--threads`) and wall-clock timing
//! to stderr, so `odrsim ... > a.txt` output can be `cmp`ed across
//! thread counts while still seeing the speedup. With `--trace-out`,
//! fleet mode writes the fleet's *folded per-stage counters* (raw event
//! logs do not survive the per-session reduction).
//!
//! Cluster mode (`--cluster`) simulates a node pool serving a churning
//! session population under an admission SLO (see `odr_cluster`):
//!
//! * `--nodes <n>` — node-pool size \[4\]
//! * `--arrival-rate <s>` — mean session arrivals per second \[0.5\]
//! * `--session-secs <s>` — median session residency \[30\]
//! * `--policy first-fit|best-fit|odr-aware` — placement \[first-fit\]
//! * `--mix single|paper` — per-session policy mix \[single\]: `single`
//!   gives every session the `--regulation`/`--target` spec, `paper`
//!   draws uniformly from ODR60/ODR30/ODRMax/Int60/RVS60/NoReg
//! * `--slo-fps <f>` / `--slo-mtp <ms>` — admission SLO \[30 / 250\]
//! * `--kill-node <t>:<idx>` — kill node `idx` at `t` seconds
//!   (repeatable)
//! * `--no-measure` — skip the measured per-node sub-fleets
//!
//! `--duration` sets the simulated horizon and `--seed`/`--threads` keep
//! their fleet-mode meaning (threads never change output). The report is
//! the byte-deterministic `ClusterReport::to_text`; with `--trace-out`
//! the control plane's placement/admission/failure events are exported
//! on the `cluster` track.
//!
//! Serving mode (`--serve`) leaves the simulator behind: it binds a real
//! TCP listener and multiplexes live runtime sessions with the same SLO
//! admission check the cluster scheduler uses (see `odr_serve`):
//!
//! * `--listen <addr>` — bind address \[127.0.0.1:7401\]
//! * `--max-sessions <n>` — resident-session cap \[8\]
//! * `--exit-after <n>` — drain and report after n departures
//!   (runs until killed when omitted)
//! * `--telemetry <path>` — stream live observability JSONL to `<path>`
//!
//! `--benchmark`/`--resolution`/`--platform` pick the scenario whose
//! calibrated models price admission; `--slo-fps`/`--slo-mtp` keep their
//! cluster-mode meaning. Client mode (`--connect <addr>`) dials a server
//! and replays a seeded input trace; `--regulation`/`--target` select
//! the session's regulation (`rvs` is simulator-only), `--duration`,
//! `--seed` and `--rate <hz>` shape the trace, and the client-side
//! runtime report prints on exit.

use cloud3d_odr::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse(&args) {
        Ok(config) => config,
        Err(err) => {
            eprintln!("error: {err}");
            eprintln!("run with --help for usage");
            std::process::exit(2);
        }
    };
    if config.help {
        println!("{}", USAGE);
        return;
    }

    let experiment = ExperimentConfig {
        trace: config.trace,
        ..config.experiment
    };
    if let Some(serve) = &config.serve {
        run_serve(serve, &config.experiment);
        return;
    }
    if let Some(connect) = &config.connect {
        run_connect(connect);
        return;
    }
    if let Some(cluster) = &config.cluster {
        let cfg = cluster_config(cluster, &config, &experiment);
        let started = std::time::Instant::now();
        let run = run_cluster(&cfg);
        let elapsed = started.elapsed().as_secs_f64();
        print!("{}", run.report.to_text());
        eprintln!(
            "cluster: {} nodes, {} arrivals ({}) on {} thread(s) in {:.2} s wall",
            run.report.nodes,
            run.report.arrivals,
            cfg.sim.fidelity.label(),
            cfg.sim.threads,
            elapsed
        );
        if let Some(path) = &config.trace_out {
            write_trace(path, config.trace_format, &run.obs);
        }
        return;
    }
    if let Some(sessions) = config.sessions {
        let fleet_cfg = FleetConfig {
            sim: SimOptions::new()
                .with_threads(config.threads)
                .with_fidelity(config.fidelity),
            ..FleetConfig::new(experiment, sessions)
        };
        let started = std::time::Instant::now();
        let fleet = run_fleet(&fleet_cfg);
        let elapsed = started.elapsed().as_secs_f64();
        print!("{}", fleet.to_text());
        eprintln!(
            "fleet: {} sessions ({}) on {} thread(s) in {:.2} s wall",
            sessions,
            fleet_cfg.sim.fidelity.label(),
            fleet_cfg.effective_threads(),
            elapsed
        );
        if let Some(path) = &config.trace_out {
            // Only the index-order-folded counters survive the fleet
            // reduction; export them as a counters-only report.
            let obs = ObsReport {
                enabled: true,
                counters: fleet.obs.clone(),
                ..ObsReport::default()
            };
            write_trace(path, config.trace_format, &obs);
        }
        return;
    }
    let report = run_experiment(&experiment);
    println!("{}", report.one_line());
    println!();
    println!("render FPS          {:>10.1}", report.render_fps);
    println!("encode FPS          {:>10.1}", report.encode_fps);
    println!("client FPS          {:>10.1}", report.client_fps);
    let b = report.client_fps_stats;
    println!("client FPS p1/p99   {:>6.1} / {:.1}", b.p1, b.p99);
    println!(
        "FPS gap avg/max     {:>6.1} / {:.1}",
        report.fps_gap_avg, report.fps_gap_max
    );
    let m = report.mtp_stats;
    println!("MtP mean/p99 (ms)   {:>6.1} / {:.1}", m.mean, m.p99);
    println!(
        "target windows met  {:>9.1}%",
        report.target_satisfaction * 100.0
    );
    println!("pacing CV           {:>10.3}", report.pacing_cv);
    println!("stutter rate        {:>10.3}", report.stutter_rate);
    println!("DRAM miss rate      {:>9.1}%", report.memory.miss_rate_pct);
    println!("DRAM read time      {:>7.1} ns", report.memory.read_time_ns);
    println!("IPC                 {:>10.2}", report.memory.ipc);
    println!("wall power          {:>8.1} W", report.memory.power_w);
    println!("net goodput         {:>5.1} Mb/s", report.net_goodput_mbps);
    println!("net queue delay     {:>7.1} ms", report.net_queue_delay_ms);
    println!(
        "frames rendered/shown/dropped  {} / {} / {}",
        report.frames_rendered, report.frames_displayed, report.frames_dropped
    );
    println!("priority frames     {:>10}", report.priority_frames);
    if let Some(path) = &config.trace_out {
        write_trace(path, config.trace_format, &report.obs);
    }
    if config.trace {
        println!();
        print!("{}", odr_pipeline::export::traces_to_csv(&report.traces));
    }
}

/// Renders `obs` in the selected format and writes it to `path`; exits
/// with status 1 on an I/O failure (the report already printed).
fn write_trace(path: &str, format: TraceFormat, obs: &ObsReport) {
    let text = match format {
        TraceFormat::Jsonl => to_jsonl(obs),
        TraceFormat::Chrome => to_chrome_trace(obs),
    };
    if let Err(err) = std::fs::write(path, text).map_err(|e| OdrError::io(path, e)) {
        eprintln!("error: {err}");
        std::process::exit(1);
    }
    eprintln!("trace: {} events -> {path}", obs.events.len());
}

/// Binds the TCP serving surface and blocks until it drains (after
/// `--exit-after` departures) or the process is killed.
fn run_serve(serve: &ServeArgs, experiment: &ExperimentConfig) {
    let cfg = ServeConfig {
        max_sessions: serve.max_sessions,
        scenario: experiment.scenario,
        slo: Slo {
            min_fps: serve.slo_fps,
            max_mtp_ms: serve.slo_mtp,
            ..Slo::default()
        },
        obs: serve.telemetry.is_some(),
        telemetry: serve.telemetry.clone().map(std::path::PathBuf::from),
        exit_after: serve.exit_after,
        ..ServeConfig::default()
    };
    let server = match Server::bind(serve.listen.as_str(), cfg) {
        Ok(server) => server,
        Err(err) => {
            eprintln!("error: {err}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "serving on {} ({} session slots)",
        server.addr(),
        serve.max_sessions
    );
    match server.join() {
        Ok(report) => {
            println!(
                "serve: admitted {}, rejected {}, departures {}",
                report.admitted,
                report.rejected,
                report.departures.len()
            );
            for d in &report.departures {
                println!(
                    "session {}: sent {} frames ({} dropped, {} priority), \
                     {} inputs, {} bytes, {} ms",
                    d.session,
                    d.frames_sent,
                    d.frames_dropped,
                    d.priority_frames,
                    d.inputs,
                    d.bytes_sent,
                    d.elapsed_ms
                );
            }
        }
        Err(err) => {
            eprintln!("error: {err}");
            std::process::exit(1);
        }
    }
}

/// Dials a server, replays the seeded input trace, and prints the
/// client-side runtime report.
fn run_connect(connect: &ConnectArgs) {
    let cfg = ClientConfig {
        connect: connect.addr.clone(),
        session: SessionConfig {
            regulation: connect.regulation,
            ..SessionConfig::default()
        },
        duration: connect.duration,
        input_rate_hz: connect.rate,
        seed: connect.seed,
    };
    match run_client(&cfg) {
        Ok(outcome) => print!("{}", outcome_to_text(&outcome)),
        Err(err) => {
            eprintln!("error: {err}");
            std::process::exit(1);
        }
    }
}

const USAGE: &str = "odrsim — simulate one cloud-3D configuration
  --benchmark STK|0AD|RE|D2|IM|ITP     [IM]
  --resolution 720p|1080p              [720p]
  --platform priv|gce|local            [priv]
  --regulation noreg|int|rvs|odr       [odr]
  --target <fps>|max                   [max]
  --duration <secs>                    [60]
  --seed <u64>                         [1]
  --display immediate|vsync:<hz>|freesync:<hz>  [immediate]
  --no-priority                        disable PriorityFrame (ODR)
  --trace                              append per-frame trace CSV
  --trace-out <path>                   write observability trace to <path>
  --trace-format jsonl|chrome          trace file format        [jsonl]
  --sessions <n>                       fleet mode: n sessions, aggregate report
  --threads <t>                        fleet/cluster worker threads [1]
  --fidelity full|analytic             simulation fidelity          [full]
  --cluster                            cluster mode: churn + admission control
  --nodes <n>                          cluster node pool size       [4]
  --arrival-rate <per-sec>             mean session arrivals/s      [0.5]
  --session-secs <secs>                median session residency     [30]
  --policy first-fit|best-fit|odr-aware  placement policy       [first-fit]
  --mix single|paper                   per-session policy mix   [single]
  --slo-fps <fps>                      admission SLO: min FPS       [30]
  --slo-mtp <ms>                       admission SLO: max MtP       [250]
  --kill-node <t>:<idx>                kill node idx at t seconds (repeatable)
  --no-measure                         skip measured per-node sub-fleets
  --serve                              serve mode: real TCP sessions + admission
  --listen <addr>                      serve bind address     [127.0.0.1:7401]
  --max-sessions <n>                   serve resident-session cap   [8]
  --exit-after <n>                     serve: drain after n departures
  --telemetry <path>                   serve: stream live obs JSONL to <path>
  --connect <addr>                     client mode: dial a server and replay
  --rate <hz>                          client mean input rate       [2]";

/// Serve-mode options gathered by [`parse`].
#[derive(Debug)]
struct ServeArgs {
    listen: String,
    max_sessions: usize,
    exit_after: Option<u64>,
    telemetry: Option<String>,
    slo_fps: f64,
    slo_mtp: f64,
}

/// Client-mode options gathered by [`parse`].
#[derive(Debug)]
struct ConnectArgs {
    addr: String,
    regulation: Regulation,
    rate: f64,
    duration: std::time::Duration,
    seed: u64,
}

/// Cluster-mode options gathered by [`parse`].
#[derive(Debug)]
struct ClusterArgs {
    nodes: u32,
    arrival_rate: f64,
    session_secs: u64,
    placement: PlacementKind,
    paper_mix: bool,
    slo_fps: f64,
    slo_mtp: f64,
    kills: Vec<(f64, u32)>,
    measure: bool,
}

/// Builds the [`ClusterConfig`] for cluster mode from the parsed CLI.
fn cluster_config(
    cluster: &ClusterArgs,
    parsed: &Parsed,
    experiment: &ExperimentConfig,
) -> ClusterConfig {
    let mix = if cluster.paper_mix {
        PolicyMix::paper()
    } else {
        PolicyMix::uniform(experiment.spec)
    };
    let churn = ChurnConfig::new(cluster.arrival_rate, mix)
        .with_mean_session(Duration::from_secs(cluster.session_secs));
    let mut builder = ClusterConfig::builder(experiment.scenario, churn)
        .nodes(cluster.nodes)
        .horizon(experiment.duration)
        .seed(experiment.seed)
        .placement(cluster.placement)
        .slo(Slo {
            min_fps: cluster.slo_fps,
            max_mtp_ms: cluster.slo_mtp,
            ..Slo::default()
        })
        .measure(cluster.measure)
        .threads(parsed.threads)
        .fidelity(parsed.fidelity)
        .obs(experiment.obs);
    for &(at_secs, node) in &cluster.kills {
        builder = builder.kill(SimTime::ZERO + Duration::from_secs_f64(at_secs), node);
    }
    builder.build()
}

/// Observability trace file formats `--trace-format` accepts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TraceFormat {
    Jsonl,
    Chrome,
}

#[derive(Debug)]
struct Parsed {
    help: bool,
    trace: bool,
    trace_out: Option<String>,
    trace_format: TraceFormat,
    sessions: Option<u32>,
    threads: usize,
    fidelity: FidelityMode,
    cluster: Option<ClusterArgs>,
    serve: Option<ServeArgs>,
    connect: Option<ConnectArgs>,
    experiment: ExperimentConfig,
}

fn parse(args: &[String]) -> OdrResult<Parsed> {
    let mut benchmark = Benchmark::InMind;
    let mut resolution = Resolution::R720p;
    let mut platform = Platform::PrivateCloud;
    let mut regulation = "odr".to_owned();
    let mut goal = FpsGoal::Max;
    let mut duration = 60u64;
    let mut seed = 1u64;
    let mut display = ClientDisplay::Immediate;
    let mut priority = true;
    let mut help = false;
    let mut trace = false;
    let mut trace_out: Option<String> = None;
    let mut trace_format: Option<TraceFormat> = None;
    let mut sessions: Option<u32> = None;
    let mut threads = 1usize;
    let mut fidelity = FidelityMode::FullDes;
    let mut cluster = false;
    let mut nodes = 4u32;
    let mut arrival_rate = 0.5f64;
    let mut session_secs = 30u64;
    let mut placement = PlacementKind::FirstFit;
    let mut paper_mix = false;
    let mut slo_fps = 30.0f64;
    let mut slo_mtp = 250.0f64;
    let mut kills: Vec<(f64, u32)> = Vec::new();
    let mut measure = true;
    let mut serve = false;
    let mut listen: Option<String> = None;
    let mut max_sessions = 8usize;
    let mut max_sessions_set = false;
    let mut exit_after: Option<u64> = None;
    let mut telemetry: Option<String> = None;
    let mut connect_addr: Option<String> = None;
    let mut rate: Option<f64> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> OdrResult<&String> {
            it.next()
                .ok_or_else(|| OdrError::arg(format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--help" | "-h" => help = true,
            "--benchmark" => {
                let v = value("--benchmark")?;
                benchmark = Benchmark::ALL
                    .into_iter()
                    .find(|b| b.short().eq_ignore_ascii_case(v))
                    .ok_or_else(|| OdrError::arg(format!("unknown benchmark {v}")))?;
            }
            "--resolution" => {
                resolution = match value("--resolution")?.as_str() {
                    "720p" => Resolution::R720p,
                    "1080p" => Resolution::R1080p,
                    v => return Err(OdrError::arg(format!("unknown resolution {v}"))),
                };
            }
            "--platform" => {
                platform = match value("--platform")?.as_str() {
                    "priv" => Platform::PrivateCloud,
                    "gce" => Platform::Gce,
                    "local" => Platform::NonCloud,
                    v => return Err(OdrError::arg(format!("unknown platform {v}"))),
                };
            }
            "--regulation" => regulation = value("--regulation")?.to_lowercase(),
            "--target" => {
                let v = value("--target")?;
                goal = if v.eq_ignore_ascii_case("max") {
                    FpsGoal::Max
                } else {
                    let fps: f64 = v
                        .parse()
                        .map_err(|_| OdrError::arg(format!("bad target {v}")))?;
                    if fps <= 0.0 {
                        return Err(OdrError::arg("target must be positive"));
                    }
                    FpsGoal::Target(fps)
                };
            }
            "--duration" => {
                duration = value("--duration")?
                    .parse()
                    .map_err(|_| OdrError::arg("bad duration"))?;
            }
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|_| OdrError::arg("bad seed"))?;
            }
            "--display" => {
                let v = value("--display")?;
                display = parse_display(v)?;
            }
            "--no-priority" => priority = false,
            "--trace" => trace = true,
            "--trace-out" => trace_out = Some(value("--trace-out")?.clone()),
            "--trace-format" => {
                trace_format = Some(match value("--trace-format")?.as_str() {
                    "jsonl" => TraceFormat::Jsonl,
                    "chrome" => TraceFormat::Chrome,
                    v => return Err(OdrError::arg(format!("unknown trace format {v}"))),
                });
            }
            "--sessions" => {
                sessions = Some(
                    value("--sessions")?
                        .parse()
                        .map_err(|_| OdrError::arg("bad session count"))?,
                );
            }
            "--threads" => {
                threads = value("--threads")?
                    .parse()
                    .map_err(|_| OdrError::arg("bad thread count"))?;
                if threads == 0 {
                    return Err(OdrError::arg("need at least one thread"));
                }
            }
            "--fidelity" => {
                let v = value("--fidelity")?;
                fidelity = FidelityMode::parse(v)
                    .ok_or_else(|| OdrError::arg(format!("unknown fidelity {v}")))?;
            }
            "--cluster" => cluster = true,
            "--nodes" => {
                nodes = value("--nodes")?
                    .parse()
                    .map_err(|_| OdrError::arg("bad node count"))?;
                if nodes == 0 {
                    return Err(OdrError::arg("need at least one node"));
                }
            }
            "--arrival-rate" => {
                arrival_rate = value("--arrival-rate")?
                    .parse()
                    .map_err(|_| OdrError::arg("bad arrival rate"))?;
                if !(arrival_rate > 0.0) {
                    return Err(OdrError::arg("arrival rate must be positive"));
                }
            }
            "--session-secs" => {
                session_secs = value("--session-secs")?
                    .parse()
                    .map_err(|_| OdrError::arg("bad session length"))?;
                if session_secs == 0 {
                    return Err(OdrError::arg("session length must be positive"));
                }
            }
            "--policy" => {
                let v = value("--policy")?;
                placement = PlacementKind::parse(v)
                    .ok_or_else(|| OdrError::arg(format!("unknown placement policy {v}")))?;
            }
            "--mix" => {
                paper_mix = match value("--mix")?.as_str() {
                    "single" => false,
                    "paper" => true,
                    v => return Err(OdrError::arg(format!("unknown mix {v}"))),
                };
            }
            "--slo-fps" => {
                slo_fps = value("--slo-fps")?
                    .parse()
                    .map_err(|_| OdrError::arg("bad SLO FPS"))?;
                if !(slo_fps > 0.0) {
                    return Err(OdrError::arg("SLO FPS must be positive"));
                }
            }
            "--slo-mtp" => {
                slo_mtp = value("--slo-mtp")?
                    .parse()
                    .map_err(|_| OdrError::arg("bad SLO MtP"))?;
                if !(slo_mtp > 0.0) {
                    return Err(OdrError::arg("SLO MtP must be positive"));
                }
            }
            "--kill-node" => {
                let v = value("--kill-node")?;
                let (t, idx) = v
                    .split_once(':')
                    .ok_or_else(|| OdrError::arg(format!("bad kill spec {v}, want t:idx")))?;
                let at: f64 = t
                    .parse()
                    .map_err(|_| OdrError::arg(format!("bad kill time in {v}")))?;
                let node: u32 = idx
                    .parse()
                    .map_err(|_| OdrError::arg(format!("bad kill node in {v}")))?;
                if !(at >= 0.0) {
                    return Err(OdrError::arg("kill time must be non-negative"));
                }
                kills.push((at, node));
            }
            "--no-measure" => measure = false,
            "--serve" => serve = true,
            "--listen" => listen = Some(value("--listen")?.clone()),
            "--max-sessions" => {
                max_sessions = value("--max-sessions")?
                    .parse()
                    .map_err(|_| OdrError::arg("bad session cap"))?;
                if max_sessions == 0 {
                    return Err(OdrError::arg("need at least one session slot"));
                }
                max_sessions_set = true;
            }
            "--exit-after" => {
                let n: u64 = value("--exit-after")?
                    .parse()
                    .map_err(|_| OdrError::arg("bad departure count"))?;
                if n == 0 {
                    return Err(OdrError::arg("need at least one departure"));
                }
                exit_after = Some(n);
            }
            "--telemetry" => telemetry = Some(value("--telemetry")?.clone()),
            "--connect" => connect_addr = Some(value("--connect")?.clone()),
            "--rate" => {
                let hz: f64 = value("--rate")?
                    .parse()
                    .map_err(|_| OdrError::arg("bad input rate"))?;
                if !(hz >= 0.0) {
                    return Err(OdrError::arg("input rate must be non-negative"));
                }
                rate = Some(hz);
            }
            other => return Err(OdrError::arg(format!("unknown option {other}"))),
        }
    }
    if trace_format.is_some() && trace_out.is_none() {
        return Err(OdrError::arg("--trace-format needs --trace-out"));
    }
    if fidelity == FidelityMode::Analytic && sessions.is_none() && !cluster {
        return Err(OdrError::arg(
            "--fidelity analytic needs --sessions or --cluster",
        ));
    }
    if serve && connect_addr.is_some() {
        return Err(OdrError::arg("--serve and --connect are mutually exclusive"));
    }
    if (serve || connect_addr.is_some()) && (cluster || sessions.is_some()) {
        return Err(OdrError::arg(
            "--serve/--connect cannot combine with --cluster or --sessions",
        ));
    }
    if !serve
        && (listen.is_some() || max_sessions_set || exit_after.is_some() || telemetry.is_some())
    {
        return Err(OdrError::arg(
            "--listen/--max-sessions/--exit-after/--telemetry need --serve",
        ));
    }
    if rate.is_some() && connect_addr.is_none() {
        return Err(OdrError::arg("--rate needs --connect"));
    }

    let spec = match regulation.as_str() {
        "noreg" => RegulationSpec::NoReg,
        "int" => RegulationSpec::Interval(goal),
        "rvs" => RegulationSpec::rvs(goal),
        "odr" => RegulationSpec::Odr {
            goal,
            options: OdrOptions {
                priority_frames: priority,
                ..OdrOptions::default()
            },
        },
        v => return Err(OdrError::arg(format!("unknown regulation {v}"))),
    };

    let experiment =
        ExperimentConfig::builder(Scenario::new(benchmark, resolution, platform), spec)
            .duration(Duration::from_secs(duration))
            .seed(seed)
            .display(display)
            .obs(trace_out.is_some())
            .build();
    let connect = match &connect_addr {
        Some(addr) => {
            // The runtime regulates for real; RVS only exists in the
            // simulator's display model, so it cannot cross the wire.
            let regulation_rt = match regulation.as_str() {
                "noreg" => Regulation::NoReg,
                "int" => match goal {
                    FpsGoal::Target(fps) => Regulation::Interval { fps },
                    FpsGoal::Max => {
                        return Err(OdrError::arg(
                            "--regulation int needs --target <fps> over the wire",
                        ))
                    }
                },
                "odr" => Regulation::Odr {
                    target_fps: match goal {
                        FpsGoal::Target(fps) => Some(fps),
                        FpsGoal::Max => None,
                    },
                },
                _ => {
                    return Err(OdrError::arg(
                        "rvs regulation is simulator-only; use noreg, int or odr",
                    ))
                }
            };
            Some(ConnectArgs {
                addr: addr.clone(),
                regulation: regulation_rt,
                rate: rate.unwrap_or(2.0),
                duration: std::time::Duration::from_secs(duration),
                seed,
            })
        }
        None => None,
    };
    let serve = serve.then(|| ServeArgs {
        listen: listen.unwrap_or_else(|| "127.0.0.1:7401".to_owned()),
        max_sessions,
        exit_after,
        telemetry,
        slo_fps,
        slo_mtp,
    });
    let cluster = cluster.then_some(ClusterArgs {
        nodes,
        arrival_rate,
        session_secs,
        placement,
        paper_mix,
        slo_fps,
        slo_mtp,
        kills,
        measure,
    });
    Ok(Parsed {
        help,
        trace,
        trace_out,
        trace_format: trace_format.unwrap_or(TraceFormat::Jsonl),
        sessions,
        threads,
        fidelity,
        cluster,
        serve,
        connect,
        experiment,
    })
}

fn parse_display(v: &str) -> OdrResult<ClientDisplay> {
    if v == "immediate" {
        return Ok(ClientDisplay::Immediate);
    }
    let (kind, hz) = v
        .split_once(':')
        .ok_or_else(|| OdrError::arg(format!("bad display spec {v}")))?;
    let hz: f64 = hz
        .parse()
        .map_err(|_| OdrError::arg(format!("bad refresh rate in {v}")))?;
    if hz <= 0.0 {
        return Err(OdrError::arg("refresh rate must be positive"));
    }
    match kind {
        "vsync" => Ok(ClientDisplay::VSync { refresh_hz: hz }),
        "freesync" => Ok(ClientDisplay::FreeSync { max_hz: hz }),
        _ => Err(OdrError::arg(format!("unknown display kind {kind}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn defaults_parse() {
        let p = parse(&[]).expect("defaults");
        assert!(!p.help);
        assert_eq!(p.experiment.scenario.benchmark, Benchmark::InMind);
        assert_eq!(p.experiment.spec.label(), "ODRMax");
    }

    #[test]
    fn full_command_line() {
        let p = parse(&argv(
            "--benchmark RE --resolution 1080p --platform gce --regulation odr \
             --target 30 --duration 10 --seed 9 --display vsync:60",
        ))
        .expect("parse");
        assert_eq!(p.experiment.scenario.benchmark, Benchmark::RedEclipse);
        assert_eq!(p.experiment.scenario.resolution, Resolution::R1080p);
        assert_eq!(p.experiment.scenario.platform, Platform::Gce);
        assert_eq!(p.experiment.spec.label(), "ODR30");
        assert_eq!(p.experiment.duration, Duration::from_secs(10));
        assert_eq!(p.experiment.seed, 9);
        assert_eq!(
            p.experiment.display,
            ClientDisplay::VSync { refresh_hz: 60.0 }
        );
    }

    #[test]
    fn no_priority_flag() {
        let p = parse(&argv("--regulation odr --target max --no-priority")).expect("parse");
        assert_eq!(p.experiment.spec.label(), "ODRMax-noPri");
    }

    #[test]
    fn trace_flag_parses() {
        let p = parse(&argv("--trace")).expect("parse");
        assert!(p.trace);
        assert!(!parse(&[]).expect("defaults").trace);
    }

    #[test]
    fn trace_out_enables_observability() {
        let p = parse(&argv("--trace-out t.jsonl")).expect("parse");
        assert_eq!(p.trace_out.as_deref(), Some("t.jsonl"));
        assert_eq!(p.trace_format, TraceFormat::Jsonl);
        assert!(p.experiment.obs, "capture must be on when exporting");
        let d = parse(&[]).expect("defaults");
        assert!(d.trace_out.is_none());
        assert!(!d.experiment.obs);
    }

    #[test]
    fn trace_format_parses_and_needs_trace_out() {
        let p = parse(&argv("--trace-out t.json --trace-format chrome")).expect("parse");
        assert_eq!(p.trace_format, TraceFormat::Chrome);
        assert!(parse(&argv("--trace-out t.json --trace-format svg")).is_err());
        let err = parse(&argv("--trace-format chrome")).expect_err("must fail");
        assert!(err.to_string().contains("--trace-out"), "{err}");
    }

    #[test]
    fn bad_values_error() {
        assert!(parse(&argv("--benchmark nope")).is_err());
        assert!(parse(&argv("--target -5")).is_err());
        assert!(parse(&argv("--display vsync")).is_err());
        assert!(parse(&argv("--bogus")).is_err());
        assert!(parse(&argv("--duration")).is_err());
        assert!(parse(&argv("--sessions lots")).is_err());
        assert!(parse(&argv("--threads 0")).is_err());
    }

    #[test]
    fn errors_are_typed() {
        let err = parse(&argv("--bogus")).expect_err("must fail");
        assert!(matches!(err, OdrError::InvalidArg { .. }));
    }

    #[test]
    fn fleet_flags_parse() {
        let p = parse(&argv("--sessions 64 --threads 8 --target 60")).expect("parse");
        assert_eq!(p.sessions, Some(64));
        assert_eq!(p.threads, 8);
        let d = parse(&[]).expect("defaults");
        assert_eq!(d.sessions, None);
        assert_eq!(d.threads, 1);
    }

    #[test]
    fn freesync_display_parses() {
        assert_eq!(
            parse_display("freesync:144").expect("parse"),
            ClientDisplay::FreeSync { max_hz: 144.0 }
        );
    }

    #[test]
    fn cluster_flags_parse() {
        let p = parse(&argv(
            "--cluster --nodes 8 --arrival-rate 1.5 --session-secs 20 --policy best-fit \
             --mix paper --slo-fps 45 --slo-mtp 120 --kill-node 30:2 --kill-node 45:0 \
             --no-measure",
        ))
        .expect("parse");
        let c = p.cluster.expect("cluster args");
        assert_eq!(c.nodes, 8);
        assert_eq!(c.arrival_rate, 1.5);
        assert_eq!(c.session_secs, 20);
        assert_eq!(c.placement, PlacementKind::BestFit);
        assert!(c.paper_mix);
        assert_eq!(c.slo_fps, 45.0);
        assert_eq!(c.slo_mtp, 120.0);
        assert_eq!(c.kills, vec![(30.0, 2), (45.0, 0)]);
        assert!(!c.measure);
    }

    #[test]
    fn cluster_defaults_and_gate() {
        assert!(parse(&[]).expect("defaults").cluster.is_none());
        let c = parse(&argv("--cluster")).expect("parse").cluster.expect("on");
        assert_eq!(c.nodes, 4);
        assert_eq!(c.arrival_rate, 0.5);
        assert_eq!(c.session_secs, 30);
        assert_eq!(c.placement, PlacementKind::FirstFit);
        assert!(!c.paper_mix);
        assert_eq!(c.slo_fps, 30.0);
        assert_eq!(c.slo_mtp, 250.0);
        assert!(c.kills.is_empty());
        assert!(c.measure);
    }

    #[test]
    fn cluster_config_maps_experiment() {
        let p = parse(&argv(
            "--cluster --nodes 3 --duration 40 --seed 77 --threads 4 --regulation odr --target 60",
        ))
        .expect("parse");
        let args = p.cluster.as_ref().expect("on");
        let cfg = cluster_config(args, &p, &p.experiment);
        assert_eq!(cfg.nodes, 3);
        assert_eq!(cfg.seed, 77);
        assert_eq!(cfg.sim.threads, 4);
        assert_eq!(cfg.sim.fidelity, FidelityMode::FullDes);
        assert_eq!(cfg.horizon, Duration::from_secs(40));
        assert_eq!(cfg.churn.mix.label(), "ODR60");
    }

    #[test]
    fn fidelity_flag_parses_and_needs_a_fleet_or_cluster() {
        let p = parse(&argv("--sessions 16 --fidelity analytic")).expect("parse");
        assert_eq!(p.fidelity, FidelityMode::Analytic);
        let d = parse(&argv("--sessions 16")).expect("defaults");
        assert_eq!(d.fidelity, FidelityMode::FullDes);
        let c = parse(&argv("--cluster --fidelity analytic")).expect("cluster analytic");
        let cfg = cluster_config(c.cluster.as_ref().expect("on"), &c, &c.experiment);
        assert_eq!(cfg.sim.fidelity, FidelityMode::Analytic);
        assert!(parse(&argv("--fidelity analytic")).is_err());
        assert!(parse(&argv("--sessions 16 --fidelity turbo")).is_err());
    }

    #[test]
    fn serve_flags_parse() {
        let p = parse(&argv(
            "--serve --listen 127.0.0.1:9000 --max-sessions 2 --exit-after 4 \
             --telemetry live.jsonl --slo-fps 45 --slo-mtp 120",
        ))
        .expect("parse");
        let s = p.serve.expect("serve args");
        assert_eq!(s.listen, "127.0.0.1:9000");
        assert_eq!(s.max_sessions, 2);
        assert_eq!(s.exit_after, Some(4));
        assert_eq!(s.telemetry.as_deref(), Some("live.jsonl"));
        assert_eq!(s.slo_fps, 45.0);
        assert_eq!(s.slo_mtp, 120.0);
        assert!(p.connect.is_none());
    }

    #[test]
    fn serve_defaults() {
        let s = parse(&argv("--serve")).expect("parse").serve.expect("on");
        assert_eq!(s.listen, "127.0.0.1:7401");
        assert_eq!(s.max_sessions, 8);
        assert_eq!(s.exit_after, None);
        assert!(s.telemetry.is_none());
        assert!(parse(&[]).expect("defaults").serve.is_none());
    }

    #[test]
    fn connect_flags_parse() {
        let p = parse(&argv(
            "--connect 127.0.0.1:9000 --regulation odr --target 60 --rate 5 \
             --duration 3 --seed 2",
        ))
        .expect("parse");
        let c = p.connect.expect("connect args");
        assert_eq!(c.addr, "127.0.0.1:9000");
        assert_eq!(
            c.regulation,
            Regulation::Odr {
                target_fps: Some(60.0)
            }
        );
        assert_eq!(c.rate, 5.0);
        assert_eq!(c.duration, std::time::Duration::from_secs(3));
        assert_eq!(c.seed, 2);
        let d = parse(&argv("--connect 127.0.0.1:9000")).expect("parse");
        assert_eq!(d.connect.expect("on").rate, 2.0);
    }

    #[test]
    fn connect_maps_every_wire_regulation() {
        let reg = |s: &str| {
            parse(&argv(&format!("--connect a:1 {s}")))
                .expect("parse")
                .connect
                .expect("on")
                .regulation
        };
        assert_eq!(reg("--regulation noreg"), Regulation::NoReg);
        assert_eq!(
            reg("--regulation int --target 30"),
            Regulation::Interval { fps: 30.0 }
        );
        assert_eq!(
            reg("--regulation odr --target max"),
            Regulation::Odr { target_fps: None }
        );
    }

    #[test]
    fn serve_and_connect_gate_each_other_and_the_sim_modes() {
        assert!(parse(&argv("--serve --connect a:1")).is_err());
        assert!(parse(&argv("--serve --cluster")).is_err());
        assert!(parse(&argv("--connect a:1 --sessions 4")).is_err());
        assert!(parse(&argv("--listen 127.0.0.1:9000")).is_err());
        assert!(parse(&argv("--max-sessions 4")).is_err());
        assert!(parse(&argv("--telemetry t.jsonl")).is_err());
        assert!(parse(&argv("--rate 5")).is_err());
        assert!(parse(&argv("--serve --max-sessions 0")).is_err());
        assert!(parse(&argv("--serve --exit-after 0")).is_err());
        assert!(parse(&argv("--connect a:1 --rate -1")).is_err());
    }

    #[test]
    fn simulator_only_regulations_cannot_cross_the_wire() {
        let err = parse(&argv("--connect a:1 --regulation rvs --target 60"))
            .expect_err("rvs is simulator-only");
        assert!(err.to_string().contains("simulator-only"), "{err}");
        let err = parse(&argv("--connect a:1 --regulation int --target max"))
            .expect_err("interval needs a target");
        assert!(err.to_string().contains("--target"), "{err}");
    }

    #[test]
    fn bad_cluster_values_error() {
        assert!(parse(&argv("--nodes 0")).is_err());
        assert!(parse(&argv("--arrival-rate -1")).is_err());
        assert!(parse(&argv("--session-secs 0")).is_err());
        assert!(parse(&argv("--policy middling-fit")).is_err());
        assert!(parse(&argv("--mix blend")).is_err());
        assert!(parse(&argv("--slo-fps 0")).is_err());
        assert!(parse(&argv("--kill-node 30")).is_err());
        assert!(parse(&argv("--kill-node t:2")).is_err());
        assert!(parse(&argv("--kill-node -5:2")).is_err());
    }
}
