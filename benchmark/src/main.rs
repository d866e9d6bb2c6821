//! odr-benchmark: the repo's one benchmark.
//!
//! Four workloads, six end-to-end metrics every workload reports, and
//! a traced run that gives each layer its own figures. `README.md` says
//! what each number means on each workload and how they should move
//! together; `BENCHMARK.json` at the repo root is the machine-readable
//! contract, kept identical to [`spec`] by a self-test.
//!
//! ```text
//! benchmark/run.sh --workload serve_paced --seed 1 --seconds 25 --trace 0
//! benchmark/run.sh                      # all four, untraced then traced
//! benchmark/run.sh --quick              # the same at 3 s a workload
//! benchmark/run.sh --repeat 5           # five sets: median, min, max
//! benchmark/run.sh --record             # one set, appended to history.jsonl
//! benchmark/run.sh --compare A.json B.json
//! ```
//!
//! Every workload runs in a child process of its own (peak memory and CPU
//! clocks start clean) under a wall deadline the parent enforces; a child
//! that overruns is killed and counted as failed.

mod gen;
mod json;
mod layers;
mod procstat;
mod runner;
mod serve;
mod sim;
mod spec;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use json::Value;
use trace::Tracer;

/// What one workload run produced.
pub struct Outcome {
    /// Operations attempted: sessions, frames, inputs, simulator runs.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// One line per failure worth reading.
    pub errors: Vec<String>,
    /// End-to-end metrics by name.
    pub e2e: Vec<(&'static str, f64)>,
    /// Per-layer metrics by name.
    pub layers: Vec<(&'static str, f64)>,
    /// The same figures under the names this workload's users know.
    pub aliases: Vec<(&'static str, &'static str, f64)>,
    /// Sample counts and remarks for the printed table.
    pub notes: Vec<String>,
    /// Spans of the traced run (empty and disabled in an untraced one).
    pub tracer: Tracer,
}

impl Outcome {
    /// An empty outcome whose tracer records when `trace` is set.
    #[must_use]
    pub fn new(trace: bool, epoch: Instant) -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            e2e: Vec::new(),
            layers: Vec::new(),
            aliases: Vec::new(),
            notes: Vec::new(),
            tracer: Tracer::new(trace, epoch),
        }
    }

    fn e2e(&mut self, name: &'static str, value: f64) {
        self.e2e.push((name, value));
    }

    fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.push((name, value));
    }

    fn alias(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.aliases.push((name, unit, value));
    }

    fn note(&mut self, text: String) {
        self.notes.push(text);
    }

    fn e2e_value(&self, name: &str) -> f64 {
        value_of(&self.e2e, name)
    }

    fn layer_value(&self, name: &str) -> f64 {
        value_of(&self.layers, name)
    }
}

/// The value measured for `name`, NaN when there is none.
fn value_of(metrics: &[(&'static str, f64)], name: &str) -> f64 {
    metrics
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(f64::NAN, |&(_, v)| v)
}

/// One run of one workload, as asked for on the command line.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds measured, after warm-up.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
    /// Directory for trace and result files.
    pub out: PathBuf,
}

impl RunArgs {
    /// Where the run leaves its result line for the parent to read.
    #[must_use]
    pub fn result_path(&self) -> PathBuf {
        let kind = if self.trace { "traced" } else { "untraced" };
        self.out.join(format!("{}.{kind}.json", self.workload))
    }
}

/// Seconds the `serve_paced` probe in `sim_study`'s traced run measures.
const PROBE_SECONDS: f64 = 3.0;

/// Runs the workload in this process.
fn measure(args: &RunArgs) -> Outcome {
    let epoch = Instant::now();
    let kind = serve::Kind::named(&args.workload);
    let mut outcome = match kind {
        Some(kind) => serve::run(kind, args.seed, args.seconds, args.trace, epoch),
        None => sim::run(args.seed, args.seconds, args.trace, epoch),
    };
    if !args.trace {
        return outcome;
    }
    if kind.is_none() {
        // The study has no client, session or socket. So that every
        // per-layer row is a measurement on every workload, its traced run
        // adds a short `serve_paced` probe; those rows explain nothing
        // about the study itself.
        let probe = serve::run(serve::Kind::Paced, args.seed, PROBE_SECONDS, true, epoch);
        outcome.attempted += probe.attempted;
        outcome.failed += probe.failed;
        outcome.errors.extend(probe.errors);
        outcome.layers.extend(
            probe
                .layers
                .into_iter()
                .filter(|(name, _)| !name.starts_with("trace.")),
        );
        outcome.tracer.absorb(probe.tracer);
    }
    let recipe = kind.unwrap_or(serve::Kind::Paced).session();
    layers::replay(&mut outcome, recipe, args.seed);
    let mtp = outcome.layer_value("client.mtp_p50_ms");
    let wait = mtp - outcome.layer_value("budget.service_ms");
    outcome.layer("budget.wait_ms", wait);
    outcome.layer("budget.wait_share", wait / mtp);
    outcome.layer("trace.spans", outcome.tracer.spans().len() as f64);
    outcome
}

/// The contract's result object for one run.
fn result_line(args: &RunArgs, outcome: &mut Outcome) -> Value {
    let wanted: Vec<(&str, &str)> = if args.trace {
        spec::PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        spec::END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let mut metrics = Value::obj();
    let mut missing = Vec::new();
    for (name, unit) in wanted {
        let value = if args.trace {
            outcome.layer_value(name)
        } else {
            outcome.e2e_value(name)
        };
        if value.is_finite() {
            metrics = metrics.with(
                name,
                Value::obj()
                    .with("value", Value::Num(value))
                    .with("unit", Value::Str(unit.into())),
            );
        } else {
            missing.push(name);
        }
    }
    if !missing.is_empty() {
        outcome.failed += missing.len() as u64;
        outcome
            .errors
            .push(format!("no measurement for {}", missing.join(", ")));
    }
    Value::obj()
        .with("correct", Value::Bool(outcome.failed == 0))
        .with("attempted", Value::Num(outcome.attempted.max(1) as f64))
        .with("failed", Value::Num(outcome.failed as f64))
        .with("metrics", metrics)
}

fn print_table(args: &RunArgs, outcome: &Outcome) {
    println!(
        "workload {}  seed {}  seconds {}  {}",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "untraced" }
    );
    if let Some(w) = spec::workload(&args.workload) {
        println!("  # why: {}", w.why);
    }
    for note in &outcome.notes {
        println!("  # {note}");
    }
    for error in &outcome.errors {
        println!("  ! {error}");
    }
    if args.trace {
        println!("  per-layer");
        for m in &spec::PER_LAYER {
            println!(
                "    {:<36} {:>16.6} {:<6} {} is better",
                m.name,
                outcome.layer_value(m.name),
                m.unit,
                m.better.word()
            );
        }
        println!("  self time by span (duration minus children)");
        for (name, ms, count) in trace::self_time_by_name(&outcome.tracer) {
            println!("    {name:<36} {ms:>16.3} ms  in {count} spans");
        }
    } else {
        println!("  end-to-end");
        for m in &spec::END_TO_END {
            let value = outcome
                .e2e
                .iter()
                .find(|(n, _)| *n == m.name)
                .map_or(f64::NAN, |&(_, v)| v);
            println!(
                "    {:<36} {:>16.6} {:<6} {} is better, bound {:.0}%",
                m.name,
                value,
                m.unit,
                m.better.word(),
                m.bound * 100.0
            );
        }
        println!("  as this workload's users know them");
        for (name, unit, value) in &outcome.aliases {
            println!("    {name:<36} {value:>16.6} {unit}");
        }
    }
}

/// Child mode: run, print, leave the result line for the parent.
fn child(args: &RunArgs) -> ! {
    let mut outcome = measure(args);
    let line = result_line(args, &mut outcome).render();
    print_table(args, &outcome);
    if args.trace {
        let path = args.out.join(format!("{}.trace.jsonl", args.workload));
        match outcome.tracer.write_jsonl(&path) {
            Ok(()) => println!("  spans written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    if let Err(e) =
        std::fs::create_dir_all(&args.out).and_then(|()| std::fs::write(args.result_path(), &line))
    {
        eprintln!("could not write {}: {e}", args.result_path().display());
    }
    println!("{line}");
    // Exit without joining anything: a server that never drained has left
    // a thread behind, and it must not hold the process open.
    std::process::exit(i32::from(outcome.failed != 0));
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       \
         run.sh [--seed <n>] [--seconds <s> | --quick] [--repeat <n>] [--record] [--out <dir>]\n       \
         run.sh --compare <a.json> <b.json>\n\
         workloads: {}",
        spec::WORKLOADS.map(|w| w.name).join(", ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = None;
    let mut trace = false;
    let mut out = PathBuf::from("benchmark/out");
    let mut is_child = false;
    let mut repeat = 1usize;
    let mut record = false;
    let mut quick = false;
    let mut compare = None;
    while let Some(arg) = argv.next() {
        let mut value = || argv.next().unwrap_or_default();
        let ok = match arg.as_str() {
            "--workload" => {
                workload = Some(value());
                true
            }
            "--seed" => value().parse().map(|v| seed = v).is_ok(),
            "--seconds" => value()
                .parse()
                .map(|v: f64| seconds = Some(v))
                .is_ok_and(|()| seconds > Some(0.0)),
            "--trace" => match value().as_str() {
                "0" => true,
                "1" => {
                    trace = true;
                    true
                }
                _ => false,
            },
            "--out" => {
                out = PathBuf::from(value());
                true
            }
            "--repeat" => value()
                .parse()
                .map(|v| repeat = v)
                .is_ok_and(|()| repeat >= 1),
            "--record" => {
                record = true;
                true
            }
            "--quick" => {
                quick = true;
                true
            }
            "--compare" => {
                compare = Some((value(), value()));
                true
            }
            "--child" => {
                is_child = true;
                true
            }
            _ => false,
        };
        if !ok {
            eprintln!("bad argument: {arg}");
            return usage();
        }
    }
    if let Some((a, b)) = compare {
        return runner::compare(Path::new(&a), Path::new(&b));
    }
    let seconds = seconds.unwrap_or(if quick {
        runner::QUICK_SECONDS
    } else {
        runner::RUN_SECONDS
    });
    match workload {
        Some(name) => {
            if spec::workload(&name).is_none() {
                eprintln!("unknown workload: {name}");
                return usage();
            }
            let args = RunArgs {
                workload: name,
                seed,
                seconds,
                trace,
                out,
            };
            if is_child {
                child(&args)
            } else {
                runner::one(&args)
            }
        }
        None => runner::sets(seed, seconds, repeat, record, &out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `name` is made of the characters the benchmark contract
    /// allows: a letter or digit first, then letters, digits, `_`, `.`,
    /// `-`; at most 64 of them.
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn names_of(list: &Value) -> Vec<String> {
        list.items()
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Value::as_str)
                    .unwrap_or("?")
                    .to_string()
            })
            .collect()
    }

    /// `BENCHMARK.json` and the tables in `spec` are the same lists.
    #[test]
    fn benchmark_json_matches_the_program() {
        let text =
            std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json at the repo root");
        let file = json::parse(&text).expect("valid JSON");
        let keys: Vec<&str> = file.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            file.get("run_seconds").and_then(Value::as_f64),
            Some(runner::RUN_SECONDS)
        );

        let workloads = file.get("workloads").expect("workloads");
        assert_eq!(names_of(workloads), spec::WORKLOADS.map(|w| w.name));
        for (w, s) in workloads.items().iter().zip(&spec::WORKLOADS) {
            assert_eq!(w.get("why").and_then(Value::as_str), Some(s.why));
        }

        let e2e = file.get("end_to_end").expect("end_to_end");
        assert_eq!(
            names_of(e2e),
            spec::END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        for (m, s) in e2e.items().iter().zip(&spec::END_TO_END) {
            assert_eq!(
                m.get("unit").and_then(Value::as_str),
                Some(s.unit),
                "{}",
                s.name
            );
            assert_eq!(
                m.get("better").and_then(Value::as_str),
                Some(s.better.word()),
                "{}",
                s.name
            );
            assert_eq!(
                m.get("bound").and_then(Value::as_f64),
                Some(s.bound),
                "{}",
                s.name
            );
        }

        let layers = file.get("per_layer").expect("per_layer");
        assert_eq!(
            names_of(layers),
            spec::PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        for (m, s) in layers.items().iter().zip(&spec::PER_LAYER) {
            assert_eq!(
                m.get("unit").and_then(Value::as_str),
                Some(s.unit),
                "{}",
                s.name
            );
            assert_eq!(
                m.get("better").and_then(Value::as_str),
                Some(s.better.word()),
                "{}",
                s.name
            );
        }
    }

    /// Names are well-formed and used once; bounds and lengths are inside
    /// the contract's limits.
    #[test]
    fn names_are_valid_and_unique() {
        let mut names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(spec::END_TO_END.iter().map(|m| m.name));
        names.extend(spec::PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        assert!(!valid_name("") && !valid_name(".x") && !valid_name("a b"));

        for w in &spec::WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &spec::END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!(spec::END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!(spec::END_TO_END.iter().all(|m| unit_ok(m.unit)));
        assert!(spec::PER_LAYER.iter().all(|m| unit_ok(m.unit)));
    }

    /// Same seed, same input schedule; another seed or connection, another.
    #[test]
    fn input_schedule_is_a_function_of_the_seed() {
        let span = std::time::Duration::from_secs(30);
        let a = gen::input_schedule(7, 0, 10.0, span);
        assert_eq!(a, gen::input_schedule(7, 0, 10.0, span));
        assert_ne!(a, gen::input_schedule(8, 0, 10.0, span));
        assert_ne!(a, gen::input_schedule(7, 1, 10.0, span));
        assert!(a.windows(2).all(|w| w[0] < w[1]) && a.iter().all(|&d| d < span));
        // 10 Hz for 30 s: about 300 inputs.
        assert!((200..400).contains(&a.len()), "{}", a.len());
    }

    /// A result line has exactly the contract's keys and survives a round
    /// trip; a missing metric makes the run incorrect.
    #[test]
    fn result_line_has_the_contract_shape() {
        let args = RunArgs {
            workload: "serve_paced".into(),
            seed: 1,
            seconds: 1.0,
            trace: false,
            out: PathBuf::from("out"),
        };
        let mut outcome = Outcome::new(false, Instant::now());
        outcome.attempted = 10;
        for (i, m) in spec::END_TO_END.iter().enumerate() {
            outcome.e2e(m.name, 1.5 + i as f64);
        }
        let line = result_line(&args, &mut outcome).render();
        assert!(!line.contains('\n'));
        let parsed = json::parse(&line).expect("parses");
        let keys: Vec<&str> = parsed.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(parsed.get("correct"), Some(&Value::Bool(true)));
        let metrics = parsed.get("metrics").expect("metrics");
        assert_eq!(metrics.fields().len(), spec::END_TO_END.len());
        assert_eq!(
            metrics
                .get("setup_s")
                .and_then(|m| m.get("unit"))
                .and_then(Value::as_str),
            Some("s")
        );

        outcome.e2e.pop();
        outcome.e2e("setup_s", f64::NAN);
        let parsed = json::parse(&result_line(&args, &mut outcome).render()).expect("parses");
        assert_eq!(parsed.get("correct"), Some(&Value::Bool(false)));
        assert_eq!(parsed.get("failed").and_then(Value::as_f64), Some(1.0));
    }
}
