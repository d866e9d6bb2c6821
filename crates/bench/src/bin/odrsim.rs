//! `odrsim` — run the ODR reproduction from the command line.
//!
//! One mode per run, picked by at most one mode flag:
//!
//! * none — simulate one session and print its report;
//! * `--sessions <n>` — simulate a fleet and print the aggregate
//!   `FleetReport` (stdout is byte-identical for any `--threads`; the
//!   wall-clock line goes to stderr);
//! * `--cluster` — simulate a node pool serving a churning session
//!   population under an admission SLO and print the `ClusterReport`;
//! * `--serve` — serve live sessions over TCP under the same admission
//!   check, and report after the drain;
//! * `--connect <addr>` — dial a server, replay a seeded input trace and
//!   print the client-side report.
//!
//! Each flag writes the field it sets in its mode's library config. A
//! flag the mode never reads, or one its other flags make a no-op, is a
//! usage error (exit 2). `odrsim --help` lists every option and default.

#![allow(clippy::disallowed_methods, reason = "fleet runs timed to stderr")]

use std::path::PathBuf;

use cloud3d_odr::cluster::NodeKill;
use cloud3d_odr::pipeline::{export::traces_to_csv, FrameTrace};
use cloud3d_odr::prelude::*;

/// Seconds simulated (or connected) when `--duration` is absent.
const DURATION_SECS: u64 = 60;
/// Simulation seed when `--seed` is absent.
const SEED: u64 = 1;
/// Serve-mode bind address when `--listen` is absent.
const LISTEN: &str = "127.0.0.1:7401";
/// Cluster node-pool size when `--nodes` is absent.
const NODES: u32 = 4;
/// Cluster session arrivals per second when `--arrival-rate` is absent.
const ARRIVAL_RATE: f64 = 0.5;

/// Flags that take no value; every other flag takes the argument after it.
const SWITCHES: [&str; 6] = [
    "--help",
    "-h",
    "--no-priority",
    "--cluster",
    "--no-measure",
    "--serve",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Parsed { mode, trace_out } = match parse(&args) {
        Ok(parsed) => parsed,
        Err(err) => {
            eprintln!("error: {err}");
            eprintln!("run with --help for usage");
            std::process::exit(2);
        }
    };
    let export = |obs: &ObsReport, traces: &[FrameTrace]| {
        if let Some(path) = &trace_out {
            write_trace(path, obs, traces);
        }
    };
    match mode {
        Mode::Help => println!("{USAGE}"),
        Mode::Single(cfg) => {
            let report = run_experiment(&cfg);
            print_report(&report);
            export(&report.obs, &report.traces);
        }
        Mode::Fleet(cfg) => {
            let started = std::time::Instant::now();
            let fleet = run_fleet(&cfg);
            let elapsed = started.elapsed().as_secs_f64();
            print!("{}", fleet.to_text());
            eprintln!(
                "fleet: {} sessions ({}) on {} thread(s) in {elapsed:.2} s wall",
                cfg.sessions,
                cfg.sim.fidelity.label(),
                cfg.effective_threads(),
            );
            // Only the index-order-folded counters survive the fleet
            // reduction; export them as a counters-only report.
            let counters_only = ObsReport {
                enabled: true,
                counters: fleet.obs,
                ..ObsReport::default()
            };
            export(&counters_only, &[]);
        }
        Mode::Cluster(cfg) => {
            let started = std::time::Instant::now();
            let run = run_cluster(&cfg);
            let elapsed = started.elapsed().as_secs_f64();
            print!("{}", run.report.to_text());
            eprintln!(
                "cluster: {} nodes, {} arrivals on {} thread(s) in {elapsed:.2} s wall",
                run.report.nodes, run.report.arrivals, cfg.threads,
            );
            export(&run.obs, &[]);
        }
        Mode::Serve(cfg, listen) => run_serve(&listen, cfg),
        Mode::Connect(cfg) => match run_client(&cfg) {
            Ok(outcome) => print!("{}", outcome_to_text(&outcome)),
            Err(err) => fail(&err),
        },
    }
}

/// Prints a single run's one-line summary and metric table.
fn print_report(report: &Report) {
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
}

/// Prints `err` and exits with status 1: the run itself failed, after
/// whatever it already printed.
fn fail(err: &OdrError) -> ! {
    eprintln!("error: {err}");
    std::process::exit(1)
}

/// Renders a run's capture in the format `path` names: the per-frame
/// rows `traces` for a `.csv` file (a single run only), a Chrome trace
/// of `obs` for `.json`, JSONL for any other.
fn trace_text(path: &str, obs: &ObsReport, traces: &[FrameTrace]) -> String {
    if path.ends_with(".csv") {
        traces_to_csv(traces)
    } else if path.ends_with(".json") {
        to_chrome_trace(obs)
    } else {
        to_jsonl(obs)
    }
}

/// Writes a run's capture to `path` (see [`trace_text`]).
fn write_trace(path: &str, obs: &ObsReport, traces: &[FrameTrace]) {
    if let Err(err) = std::fs::write(path, trace_text(path, obs, traces)) {
        fail(&OdrError::io(path, err));
    }
    eprintln!("trace: {} events -> {path}", obs.events.len());
}

/// Binds the TCP serving surface and blocks until it drains (after
/// `--exit-after` departures) or the process is killed.
fn run_serve(listen: &str, cfg: ServeConfig) {
    let slots = cfg.max_sessions;
    let server = Server::bind(listen, cfg).unwrap_or_else(|err| fail(&err));
    eprintln!("serving on {} ({slots} session slots)", server.addr());
    let report = server.join().unwrap_or_else(|err| fail(&err));
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
  --trace-out <path>                   write the capture: *.csv frame rows (single run), *.json Chrome, else JSONL
  --sessions <n>                       fleet mode: n sessions, aggregate report
  --threads <t>                        fleet/cluster worker threads [1]
  --fidelity full|analytic             fleet simulation fidelity    [full]
  --cluster                            cluster mode: churn + admission control
  --nodes <n>                          cluster node pool size       [4]
  --arrival-rate <per-sec>             mean session arrivals/s      [0.5]
  --session-secs <secs>                median session residency     [30]
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

/// What one run does, holding the library config it runs.
#[derive(Debug)]
enum Mode {
    /// `--help`: print [`USAGE`].
    Help,
    /// No mode flag: one simulated session.
    Single(ExperimentConfig),
    /// `--sessions <n>`.
    Fleet(FleetConfig),
    /// `--cluster`.
    Cluster(ClusterConfig),
    /// `--serve`, with the address to bind.
    Serve(ServeConfig, String),
    /// `--connect <addr>`.
    Connect(ClientConfig),
}

impl Mode {
    /// How a usage error names this mode.
    fn name(&self) -> &'static str {
        match self {
            Mode::Help => "--help",
            Mode::Single(_) => "a single run",
            Mode::Fleet(_) => "fleet mode (--sessions)",
            Mode::Cluster(_) => "cluster mode (--cluster)",
            Mode::Serve(..) => "serve mode (--serve)",
            Mode::Connect(_) => "client mode (--connect)",
        }
    }
}

/// A parsed command line.
#[derive(Debug)]
struct Parsed {
    mode: Mode,
    /// `--trace-out` path.
    trace_out: Option<String>,
}

fn parse(args: &[String]) -> OdrResult<Parsed> {
    let flags = pairs(args)?;
    let given = |flag: &str| flags.iter().any(|&(f, _)| f == flag);
    let mut mode = mode_of(&flags)?;
    let mode_name = mode.name();
    let mut regulation = "odr".to_owned();
    let mut goal = FpsGoal::Max;
    let mut priority = true;
    let mut paper_mix = false;
    let mut trace_out = None;
    for &(flag, v) in &flags {
        use Mode::{Cluster, Connect, Fleet, Serve, Single};
        match (&mut mode, flag) {
            // Read by `mode_of`, and after the loop.
            (_, "--help" | "-h")
            | (Fleet(_), "--sessions")
            | (Cluster(_), "--cluster")
            | (Serve(..), "--serve")
            | (Connect(_), "--connect") => {}
            (
                Single(ExperimentConfig { scenario, .. })
                | Fleet(FleetConfig {
                    base: ExperimentConfig { scenario, .. },
                    ..
                })
                | Cluster(ClusterConfig { scenario, .. })
                | Serve(ServeConfig { scenario, .. }, _),
                "--benchmark" | "--resolution" | "--platform",
            ) => set_scenario(scenario, flag, v)?,
            (Single(_) | Fleet(_) | Cluster(_) | Connect(_), "--regulation") => {
                regulation = v.to_lowercase();
            }
            (Single(_) | Fleet(_) | Cluster(_) | Connect(_), "--target") => {
                goal = if v.eq_ignore_ascii_case("max") {
                    FpsGoal::Max
                } else {
                    FpsGoal::Target(positive(flag, v)?)
                };
            }
            (Single(_) | Fleet(_) | Cluster(_), "--no-priority") => priority = false,
            (Single(e) | Fleet(FleetConfig { base: e, .. }), "--duration") => {
                e.duration = Duration::from_secs(num(flag, v)?);
            }
            (Cluster(c), "--duration") => c.horizon = Duration::from_secs(num(flag, v)?),
            (Connect(c), "--duration") => {
                c.duration = std::time::Duration::from_secs(num(flag, v)?);
            }
            (Single(e) | Fleet(FleetConfig { base: e, .. }), "--seed") => e.seed = num(flag, v)?,
            (Cluster(c), "--seed") => c.seed = num(flag, v)?,
            (Connect(c), "--seed") => c.seed = num(flag, v)?,
            (Single(e) | Fleet(FleetConfig { base: e, .. }), "--display") => {
                e.display = parse_display(v)?;
            }
            (Fleet(_) | Cluster(_), "--trace-out") if v.ends_with(".csv") => {
                return Err(OdrError::arg(format!(
                    "--trace-out {v} does not apply to {mode_name}: per-frame rows are a single run's"
                )));
            }
            (Single(e) | Fleet(FleetConfig { base: e, .. }), "--trace-out") => {
                e.obs = true;
                trace_out = Some(v.to_owned());
            }
            (Cluster(c), "--trace-out") => {
                c.obs = true;
                trace_out = Some(v.to_owned());
            }
            (
                Fleet(FleetConfig {
                    sim: SimOptions { threads, .. },
                    ..
                })
                | Cluster(ClusterConfig { threads, .. }),
                "--threads",
            ) => *threads = count(flag, v)?,
            (Fleet(FleetConfig { sim, .. }), "--fidelity") => {
                sim.fidelity = FidelityMode::parse(v)
                    .ok_or_else(|| OdrError::arg(format!("unknown fidelity {v}")))?;
            }
            (Cluster(c), "--nodes") => c.nodes = count(flag, v)?,
            (Cluster(c), "--arrival-rate") => c.churn.arrival_rate = positive(flag, v)?,
            (Cluster(c), "--session-secs") => {
                c.churn.mean_session = Duration::from_secs(count(flag, v)?);
            }
            (Cluster(_), "--mix") => {
                paper_mix = match v {
                    "single" => false,
                    "paper" => true,
                    _ => return Err(OdrError::arg(format!("unknown mix {v}"))),
                };
            }
            (
                Cluster(ClusterConfig { slo, .. }) | Serve(ServeConfig { slo, .. }, _),
                "--slo-fps",
            ) => {
                slo.min_fps = positive(flag, v)?;
            }
            (
                Cluster(ClusterConfig { slo, .. }) | Serve(ServeConfig { slo, .. }, _),
                "--slo-mtp",
            ) => {
                slo.max_mtp_ms = positive(flag, v)?;
            }
            (Cluster(c), "--kill-node") => c.kills.push(parse_kill(v)?),
            (Cluster(c), "--no-measure") => c.measure = false,
            (Serve(_, listen), "--listen") => *listen = v.to_owned(),
            (Serve(s, _), "--max-sessions") => s.max_sessions = count(flag, v)?,
            (Serve(s, _), "--exit-after") => s.exit_after = Some(count(flag, v)?),
            (Serve(s, _), "--telemetry") => s.telemetry = Some(PathBuf::from(v)),
            (Connect(c), "--rate") => {
                c.input_rate_hz = num(flag, v)?;
                if !(c.input_rate_hz >= 0.0) {
                    return Err(OdrError::arg("input rate must be non-negative"));
                }
            }
            (mode, _) => {
                let mode = mode.name();
                return Err(OdrError::arg(format!("{flag} does not apply to {mode}")));
            }
        }
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
    if regulation == "noreg" && given("--target") {
        return Err(OdrError::arg(
            "--target does not apply to --regulation noreg",
        ));
    }
    if regulation != "odr" && !priority {
        return Err(OdrError::arg(format!(
            "--no-priority does not apply to --regulation {regulation}"
        )));
    }
    match &mut mode {
        Mode::Single(e) | Mode::Fleet(FleetConfig { base: e, .. }) => e.spec = spec,
        Mode::Cluster(c) => {
            if let Some(kill) = c.kills.iter().find(|k| k.node >= c.nodes) {
                return Err(OdrError::arg(format!(
                    "--kill-node names node {} of a {}-node pool",
                    kill.node, c.nodes
                )));
            }
            c.churn.mix = if !paper_mix {
                PolicyMix::uniform(spec)
            } else if let Some(flag) = ["--regulation", "--target", "--no-priority"]
                .into_iter()
                .find(|f| given(f))
            {
                return Err(OdrError::arg(format!(
                    "{flag} does not apply to --mix paper"
                )));
            } else {
                PolicyMix::paper()
            };
        }
        Mode::Connect(c) => c.session.regulation = wire_regulation(spec)?,
        Mode::Serve(..) | Mode::Help => {}
    }
    Ok(Parsed {
        mode: if given("--help") || given("-h") {
            Mode::Help
        } else {
            mode
        },
        trace_out,
    })
}

/// Splits `args` into `(flag, value)` pairs, `value` empty for a switch.
/// A flag is known if it is a switch or starts a [`USAGE`] line: USAGE
/// is the one list of options.
fn pairs(args: &[String]) -> OdrResult<Vec<(&str, &str)>> {
    let mut it = args.iter().map(String::as_str);
    let mut flags = Vec::new();
    while let Some(flag) = it.next() {
        let value = if SWITCHES.contains(&flag) {
            ""
        } else if USAGE.contains(&format!("\n  {flag} ")) {
            it.next()
                .ok_or_else(|| OdrError::arg(format!("{flag} needs a value")))?
        } else {
            return Err(OdrError::arg(format!("unknown option {flag}")));
        };
        flags.push((flag, value));
    }
    Ok(flags)
}

/// The mode the mode flag among `flags` picks, holding its library config
/// with the defaults the library leaves to its caller.
fn mode_of(flags: &[(&str, &str)]) -> OdrResult<Mode> {
    let scenario = ServeConfig::default().scenario;
    // The regulation (and a cluster's policy mix) is set once all flags
    // are read.
    let experiment = ExperimentConfig::builder(scenario, RegulationSpec::NoReg)
        .duration(Duration::from_secs(DURATION_SECS))
        .seed(SEED)
        .build();
    let mut found: Option<(&str, Mode)> = None;
    for &(flag, v) in flags {
        let mode = match flag {
            "--sessions" => Mode::Fleet(FleetConfig::new(experiment, num(flag, v)?)),
            "--cluster" => Mode::Cluster(ClusterConfig {
                horizon: experiment.duration,
                seed: SEED,
                ..ClusterConfig::new(
                    scenario,
                    NODES,
                    ChurnConfig::new(ARRIVAL_RATE, PolicyMix::paper()),
                )
            }),
            "--serve" => Mode::Serve(ServeConfig::default(), LISTEN.to_owned()),
            "--connect" => Mode::Connect(ClientConfig {
                connect: v.to_owned(),
                duration: std::time::Duration::from_secs(DURATION_SECS),
                ..ClientConfig::default()
            }),
            _ => continue,
        };
        if let Some((first, _)) = found {
            return Err(OdrError::arg(format!(
                "{first} and {flag} each pick a mode; give one"
            )));
        }
        found = Some((flag, mode));
    }
    Ok(found.map_or(Mode::Single(experiment), |(_, mode)| mode))
}

/// Writes `--benchmark`, `--resolution` or `--platform` into `scenario`.
fn set_scenario(scenario: &mut Scenario, flag: &str, v: &str) -> OdrResult<()> {
    let unknown = || OdrError::arg(format!("unknown {} {v}", &flag[2..]));
    match flag {
        "--benchmark" => {
            scenario.benchmark = Benchmark::ALL
                .into_iter()
                .find(|b| b.short().eq_ignore_ascii_case(v))
                .ok_or_else(unknown)?;
        }
        "--resolution" => {
            scenario.resolution = match v {
                "720p" => Resolution::R720p,
                "1080p" => Resolution::R1080p,
                _ => return Err(unknown()),
            };
        }
        _ => {
            scenario.platform = match v {
                "priv" => Platform::PrivateCloud,
                "gce" => Platform::Gce,
                "local" => Platform::NonCloud,
                _ => return Err(unknown()),
            };
        }
    }
    Ok(())
}

/// The runtime regulation a served session runs for `spec`. RVS exists
/// only in the simulator's display model, so it cannot cross the wire.
fn wire_regulation(spec: RegulationSpec) -> OdrResult<Regulation> {
    match spec {
        RegulationSpec::NoReg => Ok(Regulation::NoReg),
        RegulationSpec::Interval(FpsGoal::Target(fps)) => Ok(Regulation::Interval { fps }),
        RegulationSpec::Interval(FpsGoal::Max) => Err(OdrError::arg(
            "--regulation int needs --target <fps> over the wire",
        )),
        RegulationSpec::Odr { goal, .. } => Ok(Regulation::Odr {
            target_fps: goal.target(),
        }),
        RegulationSpec::Rvs { .. } => Err(OdrError::arg(
            "rvs regulation is simulator-only; use noreg, int or odr",
        )),
    }
}

/// Parses `v` as the value of `flag`.
fn num<T: std::str::FromStr>(flag: &str, v: &str) -> OdrResult<T> {
    v.parse()
        .map_err(|_| OdrError::arg(format!("bad {flag} value {v}")))
}

/// Parses `v` as a count of at least one.
fn count<T: std::str::FromStr + Default + PartialEq>(flag: &str, v: &str) -> OdrResult<T> {
    let n = num(flag, v)?;
    if n == T::default() {
        return Err(OdrError::arg(format!("{flag} must be at least 1")));
    }
    Ok(n)
}

/// Parses `v` as a positive number (NaN is not one).
fn positive(flag: &str, v: &str) -> OdrResult<f64> {
    let x: f64 = num(flag, v)?;
    if !(x > 0.0) {
        return Err(OdrError::arg(format!("{flag} must be positive")));
    }
    Ok(x)
}

/// Parses a `--kill-node <t>:<idx>` spec. A time past `SimTime::MAX`
/// saturates to a kill that never comes.
fn parse_kill(v: &str) -> OdrResult<NodeKill> {
    let (t, idx) = v
        .split_once(':')
        .ok_or_else(|| OdrError::arg(format!("bad kill spec {v}, want t:idx")))?;
    let at: f64 = num("--kill-node", t)?;
    if !(at >= 0.0 && at.is_finite()) {
        return Err(OdrError::arg("kill time must be finite and non-negative"));
    }
    Ok(NodeKill {
        at: SimTime::ZERO + odr_simtime::time::secs_f64(at),
        node: num("--kill-node", idx)?,
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
    if !(hz > 0.0 && hz.is_finite()) {
        return Err(OdrError::arg("refresh rate must be finite and positive"));
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

    fn mode(s: &str) -> Mode {
        parse(&argv(s)).expect(s).mode
    }

    fn single(s: &str) -> ExperimentConfig {
        match mode(s) {
            Mode::Single(cfg) => cfg,
            other => panic!("{s}: {other:?}"),
        }
    }

    fn fleet(s: &str) -> FleetConfig {
        match mode(s) {
            Mode::Fleet(cfg) => cfg,
            other => panic!("{s}: {other:?}"),
        }
    }

    fn cluster(s: &str) -> ClusterConfig {
        match mode(s) {
            Mode::Cluster(cfg) => cfg,
            other => panic!("{s}: {other:?}"),
        }
    }

    fn serve(s: &str) -> (ServeConfig, String) {
        match mode(s) {
            Mode::Serve(cfg, listen) => (cfg, listen),
            other => panic!("{s}: {other:?}"),
        }
    }

    fn connect(s: &str) -> ClientConfig {
        match mode(s) {
            Mode::Connect(cfg) => cfg,
            other => panic!("{s}: {other:?}"),
        }
    }

    fn kills(c: &ClusterConfig) -> Vec<(SimTime, u32)> {
        c.kills.iter().map(|k| (k.at, k.node)).collect()
    }

    #[test]
    fn defaults_parse() {
        let e = single("");
        assert_eq!(e.scenario.benchmark, Benchmark::InMind);
        assert_eq!(e.spec.label(), "ODRMax");
        assert!(matches!(mode("--help"), Mode::Help));
    }

    #[test]
    fn full_command_line() {
        let e = single(
            "--benchmark RE --resolution 1080p --platform gce --regulation odr \
             --target 30 --duration 10 --seed 9 --display vsync:60",
        );
        assert_eq!(e.scenario.benchmark, Benchmark::RedEclipse);
        assert_eq!(e.scenario.resolution, Resolution::R1080p);
        assert_eq!(e.scenario.platform, Platform::Gce);
        assert_eq!(e.spec.label(), "ODR30");
        assert_eq!(e.duration, Duration::from_secs(10));
        assert_eq!(e.seed, 9);
        assert_eq!(e.display, ClientDisplay::VSync { refresh_hz: 60.0 });
    }

    #[test]
    fn no_priority_flag() {
        let e = single("--regulation odr --target max --no-priority");
        assert_eq!(e.spec.label(), "ODRMax-noPri");
    }

    #[test]
    fn trace_flag_parses() {
        assert!(single("--trace-out t.csv").obs);
        assert!(!single("").obs);
        let err = parse(&argv("--trace")).expect_err("gone");
        assert!(err.to_string().contains("unknown option --trace"), "{err}");
    }

    #[test]
    fn trace_out_enables_observability() {
        let p = parse(&argv("--trace-out t.jsonl")).expect("parse");
        assert_eq!(p.trace_out.as_deref(), Some("t.jsonl"));
        let Mode::Single(e) = p.mode else {
            panic!("{:?}", p.mode)
        };
        assert!(e.obs, "capture must be on when exporting");
        assert!(parse(&[]).expect("defaults").trace_out.is_none());
        assert!(!single("").obs);
    }

    #[test]
    fn the_trace_file_name_picks_its_format() {
        let obs = ObsReport::default();
        let traces = [FrameTrace::default()];
        assert_eq!(trace_text("t.csv", &obs, &traces), traces_to_csv(&traces));
        assert_eq!(trace_text("t.json", &obs, &traces), to_chrome_trace(&obs));
        for path in ["t.jsonl", "trace", "t.json.txt", "t.csv.gz"] {
            assert_eq!(trace_text(path, &obs, &traces), to_jsonl(&obs), "{path}");
        }
        let err = parse(&argv("--trace-out t.json --trace-format chrome")).expect_err("gone");
        assert!(
            err.to_string().contains("unknown option --trace-format"),
            "{err}"
        );
    }

    /// A mode flag in a value position is that flag's value: this run
    /// writes its trace to a file named `--cluster` and stays single.
    #[test]
    fn a_mode_flag_as_a_value_is_only_a_value() {
        let p = parse(&argv("--trace-out --cluster")).expect("parse");
        assert!(matches!(p.mode, Mode::Single(_)), "{:?}", p.mode);
        assert_eq!(p.trace_out.as_deref(), Some("--cluster"));
    }

    #[test]
    fn bad_values_error() {
        assert!(parse(&argv("--benchmark nope")).is_err());
        assert!(parse(&argv("--target -5")).is_err());
        assert!(parse(&argv("--display vsync")).is_err());
        assert!(parse(&argv("--bogus")).is_err());
        assert!(parse(&argv("--duration")).is_err());
        assert!(parse(&argv("--sessions lots")).is_err());
        assert!(parse(&argv("--sessions 4 --threads 0")).is_err());
    }

    #[test]
    fn errors_are_typed() {
        let err = parse(&argv("--bogus")).expect_err("must fail");
        assert!(matches!(err, OdrError::InvalidArg { .. }));
    }

    #[test]
    fn fleet_flags_parse() {
        let f = fleet("--sessions 64 --threads 8 --target 60");
        assert_eq!(f.sessions, 64);
        assert_eq!(f.sim.threads, 8);
        assert!(matches!(mode(""), Mode::Single(_)));
        assert_eq!(fleet("--sessions 2").sim.threads, 1);
    }

    /// A display rate that is not a finite number is a usage error, not a
    /// panic in the vblank clock or an uncapped display.
    fn assert_rejected_display(spec: &str) {
        let err = parse(&argv(&format!("--display {spec}"))).expect_err(spec);
        assert!(matches!(err, OdrError::InvalidArg { .. }), "{spec}: {err}");
        assert!(err.to_string().contains("finite"), "{spec}: {err}");
    }

    #[test]
    fn a_nan_vsync_rate_is_rejected() {
        assert_rejected_display("vsync:nan");
    }

    #[test]
    fn an_infinite_vsync_rate_is_rejected() {
        assert_rejected_display("vsync:inf");
    }

    #[test]
    fn a_nan_freesync_rate_is_rejected() {
        assert_rejected_display("freesync:nan");
    }

    #[test]
    fn an_infinite_freesync_rate_is_rejected() {
        assert_rejected_display("freesync:inf");
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
        let c = cluster(
            "--cluster --nodes 8 --arrival-rate 1.5 --session-secs 20 --mix paper \
             --slo-fps 45 --slo-mtp 120 --kill-node 30:2 --kill-node 45:0 --no-measure",
        );
        assert_eq!(c.nodes, 8);
        assert_eq!(c.churn.arrival_rate, 1.5);
        assert_eq!(c.churn.mean_session, Duration::from_secs(20));
        assert_eq!(c.churn.mix.label(), PolicyMix::paper().label());
        assert_eq!(c.slo.min_fps, 45.0);
        assert_eq!(c.slo.max_mtp_ms, 120.0);
        let at = |secs| SimTime::ZERO + Duration::from_secs(secs);
        assert_eq!(kills(&c), vec![(at(30), 2), (at(45), 0)]);
        assert!(!c.measure);
        let err = parse(&argv("--cluster --policy first-fit")).expect_err("gone");
        assert!(err.to_string().contains("unknown option --policy"), "{err}");
    }

    #[test]
    fn cluster_defaults_and_gate() {
        assert!(matches!(mode(""), Mode::Single(_)));
        let c = cluster("--cluster");
        assert_eq!(c.nodes, 4);
        assert_eq!(c.churn.arrival_rate, 0.5);
        assert_eq!(c.churn.mean_session, Duration::from_secs(30));
        assert_eq!(c.churn.mix.label(), "ODRMax");
        assert_eq!(c.slo.min_fps, 30.0);
        assert_eq!(c.slo.max_mtp_ms, 250.0);
        assert!(c.kills.is_empty());
        assert!(c.measure);
    }

    /// Every cluster field the CLI does not set keeps `ClusterConfig::new`'s
    /// value, so each of those defaults lives in the library alone.
    #[test]
    fn cluster_mode_keeps_the_library_defaults() {
        let c = cluster("--cluster");
        let scenario = ServeConfig::default().scenario;
        let lib = ClusterConfig::new(
            scenario,
            NODES,
            ChurnConfig::new(ARRIVAL_RATE, PolicyMix::paper()),
        );
        assert_eq!(c.churn.mean_session, lib.churn.mean_session);
        assert_eq!(format!("{:?}", c.capacity), format!("{:?}", lib.capacity));
        assert_eq!(format!("{:?}", c.slo), format!("{:?}", lib.slo));
        assert_eq!(c.calibration, lib.calibration);
        assert_eq!(c.measure, lib.measure);
        assert_eq!(c.threads, lib.threads);
        assert_eq!(c.obs, lib.obs);
        assert_eq!(c.scenario.label(), lib.scenario.label());
    }

    #[test]
    fn cluster_config_maps_experiment() {
        let c = cluster(
            "--cluster --nodes 3 --duration 40 --seed 77 --threads 4 --regulation odr --target 60",
        );
        assert_eq!(c.nodes, 3);
        assert_eq!(c.seed, 77);
        assert_eq!(c.threads, 4);
        assert_eq!(c.horizon, Duration::from_secs(40));
        assert_eq!(c.churn.mix.label(), "ODR60");
    }

    #[test]
    fn fidelity_flag_parses_and_needs_a_fleet() {
        let f = fleet("--sessions 16 --fidelity analytic");
        assert_eq!(f.sim.fidelity, FidelityMode::Analytic);
        assert_eq!(fleet("--sessions 16").sim.fidelity, FidelityMode::FullDes);
        assert!(parse(&argv("--fidelity analytic")).is_err());
        assert!(parse(&argv("--sessions 16 --fidelity turbo")).is_err());
    }

    #[test]
    fn serve_flags_parse() {
        let (s, listen) = serve(
            "--serve --listen 127.0.0.1:9000 --max-sessions 2 --exit-after 4 \
             --telemetry live.jsonl --slo-fps 45 --slo-mtp 120",
        );
        assert_eq!(listen, "127.0.0.1:9000");
        assert_eq!(s.max_sessions, 2);
        assert_eq!(s.exit_after, Some(4));
        assert_eq!(s.telemetry, Some(PathBuf::from("live.jsonl")));
        assert_eq!(s.slo.min_fps, 45.0);
        assert_eq!(s.slo.max_mtp_ms, 120.0);
    }

    #[test]
    fn serve_defaults() {
        let (s, listen) = serve("--serve");
        assert_eq!(listen, "127.0.0.1:7401");
        assert_eq!(s.max_sessions, 8);
        assert_eq!(s.exit_after, None);
        assert!(s.telemetry.is_none());
        assert!(!matches!(mode(""), Mode::Serve(..)));
    }

    #[test]
    fn connect_flags_parse() {
        let c = connect(
            "--connect 127.0.0.1:9000 --regulation odr --target 60 --rate 5 \
             --duration 3 --seed 2",
        );
        assert_eq!(c.connect, "127.0.0.1:9000");
        assert_eq!(
            c.session.regulation,
            Regulation::Odr {
                target_fps: Some(60.0)
            }
        );
        assert_eq!(c.input_rate_hz, 5.0);
        assert_eq!(c.duration, std::time::Duration::from_secs(3));
        assert_eq!(c.seed, 2);
        assert_eq!(connect("--connect 127.0.0.1:9000").input_rate_hz, 2.0);
    }

    #[test]
    fn connect_maps_every_wire_regulation() {
        let reg = |s: &str| connect(&format!("--connect a:1 {s}")).session.regulation;
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
        for bad in [
            "--nodes 0",
            "--arrival-rate -1",
            "--session-secs 0",
            "--mix blend",
            "--slo-fps 0",
            "--kill-node 30",
            "--kill-node t:2",
            "--kill-node -5:2",
            "--kill-node inf:2",
            "--kill-node NaN:2",
        ] {
            assert!(parse(&argv(&format!("--cluster {bad}"))).is_err(), "{bad}");
        }
    }

    /// Every flag the chosen mode never reads, or that the other flags
    /// make a no-op, is a usage error naming that flag.
    #[test]
    fn a_flag_that_changes_nothing_is_a_usage_error() {
        for (args, flag) in [
            ("--nodes 8", "--nodes"),
            ("--serve --duration 5", "--duration"),
            ("--cluster --nodes 2 --kill-node 3:9", "--kill-node"),
            ("--regulation noreg --target 30", "--target"),
            (
                "--regulation int --target 30 --no-priority",
                "--no-priority",
            ),
            ("--regulation rvs --no-priority", "--no-priority"),
            (
                "--sessions 4 --regulation noreg --no-priority",
                "--no-priority",
            ),
            (
                "--cluster --mix paper --regulation int --target 30",
                "--regulation",
            ),
            ("--cluster --mix paper --target 60", "--target"),
            ("--cluster --mix paper --no-priority", "--no-priority"),
            ("--threads 2", "--threads"),
            ("--cluster --fidelity analytic", "--fidelity"),
            ("--sessions 4 --trace-out t.csv", "--trace-out"),
            ("--sessions 4 --slo-fps 20", "--slo-fps"),
            ("--cluster --display vsync:60", "--display"),
            ("--cluster --trace-out t.csv", "--trace-out"),
            ("--serve --seed 3", "--seed"),
            ("--serve --regulation odr", "--regulation"),
            ("--serve --trace-out t.jsonl", "--trace-out"),
            ("--serve --threads 2", "--threads"),
            ("--connect a:1 --benchmark RE", "--benchmark"),
            ("--connect a:1 --no-priority", "--no-priority"),
            ("--connect a:1 --max-sessions 2", "--max-sessions"),
            ("--connect a:1 --display vsync:60", "--display"),
            ("--sessions 4 --listen a:1", "--listen"),
            ("--exit-after 1", "--exit-after"),
            ("--rate 5", "--rate"),
            ("--serve --cluster", "--cluster"),
            ("--sessions 4 --sessions 8", "--sessions"),
        ] {
            let err = parse(&argv(args)).expect_err(args);
            assert!(matches!(err, OdrError::InvalidArg { .. }), "{args}: {err}");
            assert!(err.to_string().contains(flag), "{args}: {err}");
        }
    }

    #[test]
    fn a_kill_past_the_end_of_time_never_comes() {
        let c = cluster("--cluster --nodes 2 --duration 5 --kill-node 1e20:0 --no-measure");
        assert_eq!(c.kills.len(), 1);
        assert_eq!(run_cluster(&c).report.node_kills, 0);
    }
}
