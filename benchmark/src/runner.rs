//! The parent side: child processes under a deadline, sets of runs, the
//! history ledger and `--compare`.

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use crate::json::{self, Value};
use crate::spec::{self, Better};
use crate::stats;
use crate::RunArgs;

/// Seconds one run measures; `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 21.0;

/// Seconds a `--quick` run measures: enough to keep the harness honest
/// in CI, too few for its numbers to be compared.
pub const QUICK_SECONDS: f64 = 3.0;

/// Wall time a child may take before it is killed and counted as failed.
/// The contract allows a run 180 s.
const CHILD_DEADLINE: Duration = Duration::from_secs(170);

/// Where `--record` appends.
const HISTORY: &str = "benchmark/history.jsonl";

/// Runs one workload in a child process. Returns its result object, or
/// why there is none.
fn spawn(args: &RunArgs) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let _ = std::fs::remove_file(args.result_path());
    let mut child = Command::new(exe)
        .arg("--child")
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out)
        .stdin(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let deadline = Instant::now() + CHILD_DEADLINE;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if Instant::now() >= deadline => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!(
                    "{} ran past {CHILD_DEADLINE:?} and was killed",
                    args.workload
                ));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("wait: {e}"));
            }
        }
    };
    let text = std::fs::read_to_string(args.result_path())
        .map_err(|e| format!("{} left no result ({status}): {e}", args.workload))?;
    let result = json::parse(&text)?;
    if status.success() && result.get("correct") == Some(&Value::Bool(true)) {
        Ok(result)
    } else {
        Err(format!("{} failed its checks ({status})", args.workload))
    }
}

/// Contract mode: one workload, one run; the child prints the result.
pub fn one(args: &RunArgs) -> ExitCode {
    match spawn(args) {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn metric_values(result: &Value) -> Value {
    let mut flat = Value::obj();
    for (name, m) in result.get("metrics").map_or(&[][..], Value::fields) {
        flat = flat.with(name, m.get("value").cloned().unwrap_or(Value::Null));
    }
    flat
}

fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn nproc() -> f64 {
    std::thread::available_parallelism().map_or(1.0, |n| n.get() as f64)
}

/// One full set: every workload untraced, then traced.
fn one_set(seed: u64, seconds: f64, out: &Path) -> Result<Value, String> {
    let mut workloads = Value::obj();
    for w in &spec::WORKLOADS {
        let mut args = RunArgs {
            workload: w.name.to_string(),
            seed,
            seconds,
            trace: false,
            out: out.to_path_buf(),
        };
        let untraced = spawn(&args)?;
        args.trace = true;
        let traced = spawn(&args)?;
        workloads = workloads.with(
            w.name,
            Value::obj()
                .with("end_to_end", metric_values(&untraced))
                .with("per_layer", metric_values(&traced)),
        );
    }
    Ok(Value::obj()
        .with("commit", Value::Str(git_commit()))
        .with("nproc", Value::Num(nproc()))
        .with("seed", Value::Num(seed as f64))
        .with("seconds", Value::Num(seconds))
        .with("workloads", workloads))
}

fn e2e_value(set: &Value, workload: &str, metric: &str) -> Option<f64> {
    set.get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .as_f64()
}

/// Appends one line to the history ledger: the commit of the code under
/// test, `nproc`, seed, run length and every end-to-end figure of `set`.
fn append_history(set: &Value) -> std::io::Result<()> {
    let mut figures = Value::obj();
    for w in &spec::WORKLOADS {
        let row = set
            .get("workloads")
            .and_then(|ws| ws.get(w.name))
            .and_then(|w| w.get("end_to_end"));
        figures = figures.with(w.name, row.cloned().unwrap_or(Value::Null));
    }
    let mut line = Value::obj();
    for key in ["commit", "nproc", "seed", "seconds"] {
        line = line.with(key, set.get(key).cloned().unwrap_or(Value::Null));
    }
    let line = line.with("end_to_end", figures).render() + "\n";
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(HISTORY)?;
    std::io::Write::write_all(&mut file, line.as_bytes())
}

/// Runs `repeat` full sets (seeds `seed`, `seed + 1`, …), writes them to
/// `<out>/sets.json`, prints every end-to-end figure with its median,
/// minimum and maximum, and appends the first set to the history ledger
/// when asked to.
pub fn sets(seed: u64, seconds: f64, repeat: usize, record: bool, out: &Path) -> ExitCode {
    let mut all = Vec::new();
    for i in 0..repeat {
        match one_set(seed + i as u64, seconds, out) {
            Ok(set) => all.push(set),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "\nend-to-end, {} set(s) of {seconds} s runs, seed {seed} onwards",
        all.len()
    );
    println!(
        "{:<16} {:<26} {:>14} {:>14} {:>14}  unit",
        "workload", "metric", "median", "min", "max"
    );
    for w in &spec::WORKLOADS {
        for m in &spec::END_TO_END {
            let values: Vec<f64> = all
                .iter()
                .filter_map(|s| e2e_value(s, w.name, m.name))
                .collect();
            let sorted = stats::sorted(&values);
            println!(
                "{:<16} {:<26} {:>14.5} {:>14.5} {:>14.5}  {}",
                w.name,
                m.name,
                stats::median(&values),
                sorted.first().copied().unwrap_or(f64::NAN),
                sorted.last().copied().unwrap_or(f64::NAN),
                m.unit
            );
        }
    }
    if (seconds - RUN_SECONDS).abs() > f64::EPSILON {
        println!(
            "runs of {seconds} s are not {RUN_SECONDS} s runs: do not hold these to the bounds"
        );
    }
    let path = out.join("sets.json");
    let text = Value::Arr(all.clone()).render();
    if let Err(e) = std::fs::write(&path, text + "\n") {
        eprintln!("could not write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("sets written to {}", path.display());
    if record {
        if let Err(e) = append_history(&all[0]) {
            eprintln!("could not append to {HISTORY}: {e}");
            return ExitCode::FAILURE;
        }
        println!("first set appended to {HISTORY}");
    }
    ExitCode::SUCCESS
}

/// How one metric moved between two files of sets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The median is no worse than the bound allows.
    WithinBound,
    /// The median is worse by more than the bound.
    Regressed,
    /// Run-to-run spread is wider than the bound, so neither can be said.
    Unresolved,
}

/// Judges `after` against `before` for a metric with the given direction
/// and bound. Returns the verdict and the change in the worse direction
/// as a share of the `before` median.
#[must_use]
pub fn judge(before: &[f64], after: &[f64], better: Better, bound: f64) -> (Verdict, f64) {
    let (a, b) = (stats::median(before), stats::median(after));
    let worse = match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    };
    let noisy = |v: &[f64]| v.len() >= 2 && stats::spread(v) > bound;
    let verdict = if noisy(before) || noisy(after) {
        // Too noisy to call, unless every run of one side beats every run
        // of the other.
        let every_after_better = after.iter().all(|&y| {
            before.iter().all(|&x| match better {
                Better::Lower => y < x,
                Better::Higher => y > x,
            })
        });
        if every_after_better {
            Verdict::WithinBound
        } else {
            Verdict::Unresolved
        }
    } else if worse.is_finite() && worse <= bound {
        Verdict::WithinBound
    } else {
        Verdict::Regressed
    };
    (verdict, worse)
}

fn load_sets(path: &Path) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    match json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))? {
        Value::Arr(sets) if !sets.is_empty() => Ok(sets),
        _ => Err(format!(
            "{}: expected a non-empty array of sets",
            path.display()
        )),
    }
}

/// `--compare A.json B.json`: every end-to-end metric of every workload
/// as within-bound, regressed or unresolved. Fails on any regression.
pub fn compare(before: &Path, after: &Path) -> ExitCode {
    let (a, b) = match (load_sets(before), load_sets(after)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{} set(s) in {} against {} in {}",
        a.len(),
        before.display(),
        b.len(),
        after.display()
    );
    println!(
        "{:<16} {:<26} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "before", "after", "worse by", "bound"
    );
    let (mut regressed, mut unresolved) = (0, 0);
    for w in &spec::WORKLOADS {
        for m in &spec::END_TO_END {
            let values = |sets: &[Value]| {
                sets.iter()
                    .filter_map(|s| e2e_value(s, w.name, m.name))
                    .collect::<Vec<f64>>()
            };
            let (x, y) = (values(&a), values(&b));
            let (verdict, worse) = judge(&x, &y, m.better, m.bound);
            match verdict {
                Verdict::Regressed => regressed += 1,
                Verdict::Unresolved => unresolved += 1,
                Verdict::WithinBound => {}
            }
            println!(
                "{:<16} {:<26} {:>14.5} {:>14.5} {:>8.1}% {:>6.0}%  {}",
                w.name,
                m.name,
                stats::median(&x),
                stats::median(&y),
                worse * 100.0,
                m.bound * 100.0,
                match verdict {
                    Verdict::WithinBound => "within-bound",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    println!("{regressed} regressed, {unresolved} unresolved");
    if regressed + unresolved == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let steady = [10.0, 10.1, 9.9, 10.0];
        // 4% worse, bound 5%: fine. 8% worse: regressed. Better: fine.
        assert_eq!(
            judge(&steady, &[10.4, 10.4], Better::Lower, 0.05).0,
            Verdict::WithinBound
        );
        assert_eq!(
            judge(&steady, &[10.8, 10.8], Better::Lower, 0.05).0,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&steady, &[9.0, 9.0], Better::Lower, 0.05).0,
            Verdict::WithinBound
        );
        // Higher is better: a drop is what is worse.
        assert_eq!(
            judge(&steady, &[9.0, 9.0], Better::Higher, 0.05).0,
            Verdict::Regressed
        );
        let (verdict, worse) = judge(&steady, &[10.5], Better::Higher, 0.05);
        assert_eq!(verdict, Verdict::WithinBound);
        assert!(worse < 0.0);
        // Spread wider than the bound: unresolved, unless every run wins.
        let noisy = [8.0, 10.0, 12.0, 10.0];
        assert_eq!(
            judge(&noisy, &[10.0, 10.2], Better::Lower, 0.05).0,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&noisy, &[7.0, 7.5], Better::Lower, 0.05).0,
            Verdict::WithinBound
        );
        // A metric that went missing is a regression, not a pass.
        assert_eq!(
            judge(&steady, &[], Better::Lower, 0.05).0,
            Verdict::Regressed
        );
    }

    #[test]
    fn set_files_round_trip_into_compare() {
        let set = |v: f64| {
            let row = spec::END_TO_END
                .iter()
                .fold(Value::obj(), |o, m| o.with(m.name, Value::Num(v)));
            let workloads = spec::WORKLOADS.iter().fold(Value::obj(), |o, w| {
                o.with(w.name, Value::obj().with("end_to_end", row.clone()))
            });
            Value::obj()
                .with("seed", Value::Num(1.0))
                .with("workloads", workloads)
        };
        let parsed = json::parse(&Value::Arr(vec![set(2.0), set(3.0)]).render()).expect("parses");
        assert_eq!(
            e2e_value(&parsed.items()[1], "sim_study", "setup_s"),
            Some(3.0)
        );
        assert_eq!(e2e_value(&parsed.items()[0], "sim_study", "nope"), None);
    }
}
