//! `odr-check` CLI: runs the repo lint passes (unit rules, lock
//! discipline, atomics discipline, determinism taint, effect rules,
//! unused `pub`), the API-surface and effect-surface snapshot checks, and
//! the swap-protocol model checker.
//!
//! Every invocation loads the workspace **once** — each source file is
//! lexed and item-parsed a single time and the call graph is built from
//! those shared scans — and hands that view to whichever passes run.
//! With `--verbose`, pass timings (wall µs), the file count, the call
//! graph's unresolved call sites, per-pass finding counts and peak RSS
//! go to stdout as one `odr-check: timings` line; no invocation writes anything but the snapshot files it is
//! asked for.
//!
//! Exit status is uniform across every subcommand and pass:
//! `0` clean, `1` findings (lint violations, API diffs, model failures),
//! `2` usage or I/O error. All error paths flow through
//! [`odr_core::OdrResult`]; there are no scattered `process::exit` calls.

#![allow(clippy::disallowed_methods, reason = "a tool outside the layering")]

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use odr_check::amodel::{atomic_suite, explore_dfs, DFS_BUDGET};
use odr_check::api;
use odr_check::effects;
use odr_check::lint::{load_workspace, run_lints_on, Allowlist, Workspace};
use odr_check::snapshot;
use odr_core::{OdrError, OdrResult};

const USAGE: &str = "\
odr-check: ODR repo lint pass + API snapshot + swap-protocol model checker

USAGE: cargo run -p odr-check [--] [SUBCOMMAND] [OPTIONS]

SUBCOMMANDS:
  (none)                 run the lint passes and the model checker
  api                    print the workspace's public API surface
  api --check            compare the surface against api-surface.txt;
                         exit 1 on any diff (writes api-surface.txt.new)
                         [UPDATE_GOLDEN=1 odr-check api] rewrites the
                         committed snapshot instead
  callgraph              print the intra-workspace call graph
  effects                print the per-function effect surface (which
                         production functions can allocate, block or
                         panic, directly or transitively)
  effects --check        compare against effect-surface.txt; exit 1 on
                         drift (writes effect-surface.txt.new)
                         [UPDATE_GOLDEN=1 odr-check effects] rewrites
                         the committed snapshot instead

OPTIONS:
  --lint-only            run only the source lints
  --model-only           run only the swap-protocol model checker (the
                         lock-free step machines and the blocking wait
                         edge, DESIGN.md §13); a scenario passes only
                         when explored to the end
  --deny-warnings        treat warnings (stale allow entries, malformed
                         allowlist lines) as failures
  --root PATH            repo root to scan (default: auto-detected)
  --allowlist PATH       allowlist file (default: <root>/odr-check.allow)
  --verbose              per-scenario statistics, and one closing
                         `odr-check: timings` line (files, unresolved
                         call sites, wall µs and findings per pass,
                         peak RSS)
  --help                 this text
";

/// What a subcommand prints instead of running the lint and model
/// passes.
#[derive(Clone, Copy, PartialEq)]
enum Subcommand {
    Api,
    Callgraph,
    Effects,
}

impl Subcommand {
    /// The word that selects it, and its prefix on every line it prints.
    fn name(self) -> &'static str {
        match self {
            Subcommand::Api => "api",
            Subcommand::Callgraph => "callgraph",
            Subcommand::Effects => "effects",
        }
    }
}

struct Options {
    help: bool,
    subcommand: Option<Subcommand>,
    check: bool,
    lint: bool,
    model: bool,
    deny_warnings: bool,
    root: Option<PathBuf>,
    allowlist: Option<PathBuf>,
    verbose: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            help: false,
            subcommand: None,
            check: false,
            lint: true,
            model: true,
            deny_warnings: false,
            root: None,
            allowlist: None,
            verbose: false,
        }
    }
}

fn parse_args() -> OdrResult<Options> {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    let mut first = true;
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| OdrError::arg(format!("{name} requires a value")))
        };
        match arg.as_str() {
            "api" if first => opts.subcommand = Some(Subcommand::Api),
            "callgraph" if first => opts.subcommand = Some(Subcommand::Callgraph),
            "effects" if first => opts.subcommand = Some(Subcommand::Effects),
            "--check" if matches!(opts.subcommand, Some(Subcommand::Api | Subcommand::Effects)) => {
                opts.check = true;
            }
            "--lint-only" => opts.model = false,
            "--model-only" => opts.lint = false,
            "--deny-warnings" => opts.deny_warnings = true,
            "--root" => opts.root = Some(PathBuf::from(value("--root")?)),
            "--allowlist" => opts.allowlist = Some(PathBuf::from(value("--allowlist")?)),
            "--verbose" => opts.verbose = true,
            "--help" | "-h" => opts.help = true,
            other => return Err(OdrError::arg(format!("unknown option '{other}'"))),
        }
        first = false;
    }
    if !opts.lint && !opts.model {
        return Err(OdrError::arg(
            "--lint-only and --model-only are mutually exclusive",
        ));
    }
    Ok(opts)
}

/// Finds the repo root: an ancestor of the current directory containing
/// both `Cargo.toml` and `crates/`.
fn detect_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn resolve_root(opts: &Options) -> OdrResult<PathBuf> {
    match &opts.root {
        Some(r) => Ok(r.clone()),
        None => detect_root()
            .ok_or_else(|| OdrError::invalid_config("root", "cannot find repo root (use --root)")),
    }
}

/// `UPDATE_GOLDEN=1` selects snapshot regeneration across subcommands.
fn update_golden() -> bool {
    std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1")
}

/// Wall time since `start` in whole microseconds.
fn micros(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Appends one pass's wall time since `start` and its finding count to
/// the `--verbose` timings line.
fn record(timings: &mut Vec<String>, pass: &str, start: Instant, findings: u64) {
    let us = micros(start);
    timings.push(format!("{pass}_us={us} {pass}_findings={findings}"));
}

/// Peak resident-set size of this process in bytes, read from
/// `/proc/self/status` (`VmHWM`, reported in kB). `None` when the file
/// or the field is unavailable (non-Linux hosts).
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb * 1024)
}

/// A snapshot subcommand (`api`, `effects`) over an already-rendered
/// `current`: print it, `--check` it against the committed `file`, or
/// rewrite `file` under `UPDATE_GOLDEN=1`. Returns `(clean, findings)`;
/// merely printing or updating is always clean. `unit` names what one
/// line of the rendering is.
fn run_snapshot_pass(
    opts: &Options,
    root: &Path,
    pass: Subcommand,
    file: &str,
    unit: &str,
    current: &str,
) -> OdrResult<(bool, u64)> {
    let pass = pass.name();
    if update_golden() {
        snapshot::update(root, file, current)?;
        println!("{pass}: wrote {file} ({} {unit})", current.lines().count());
        return Ok((true, 0));
    }
    if opts.check {
        let diff = snapshot::check(root, file, current)?;
        if diff.is_empty() {
            println!("{pass}: surface matches {file}");
            return Ok((true, 0));
        }
        snapshot::print_drift(pass, file, &diff);
        return Ok((false, (diff.added.len() + diff.removed.len()) as u64));
    }
    print!("{current}");
    Ok((true, 0))
}

fn run_lint_pass(opts: &Options, root: &Path, ws: &Workspace) -> (bool, u64) {
    let allow_path = opts
        .allowlist
        .clone()
        .unwrap_or_else(|| root.join("odr-check.allow"));
    let allow = Allowlist::load(&allow_path);
    let report = run_lints_on(ws, root, &allow);

    for v in &report.violations {
        println!("error: {v}");
    }
    for w in &report.warnings {
        println!("warning: {w}");
    }
    println!(
        "lint: {} files, {} violation(s), {} suppressed, {} warning(s)",
        report.files,
        report.violations.len(),
        report.suppressed,
        report.warnings.len()
    );
    let failed =
        !report.violations.is_empty() || (opts.deny_warnings && !report.warnings.is_empty());
    (!failed, report.violations.len() as u64)
}

/// Explores every suite scenario to the end; a violation, a scenario the
/// budget cannot cover, or one explored in other than its pinned number
/// of runs is a failure.
fn run_model_pass(opts: &Options) -> (bool, u64) {
    let mut failures: u64 = 0;
    let mut total: u64 = 0;
    let suite = atomic_suite();
    for (scenario, runs) in &suite {
        let dfs = explore_dfs(scenario, DFS_BUDGET);
        total += dfs.executions;
        if opts.verbose {
            println!(
                "model: {:<28} dfs {:>8} interleavings, depth {:>3}",
                scenario.name, dfs.executions, dfs.max_depth
            );
        }
        if let Some(f) = &dfs.failure {
            failures += 1;
            println!(
                "error: model: {}: {}\n  replay trace: {:?}",
                scenario.name, f.message, f.trace
            );
        } else if dfs.executions != *runs {
            failures += 1;
            println!(
                "error: model: {}: explored to the end in {} runs, the suite pins {runs}",
                scenario.name, dfs.executions
            );
        }
    }
    println!(
        "model: {} scenarios, {total} interleavings: {}",
        suite.len(),
        if failures == 0 {
            "explored to the end, all invariants hold"
        } else {
            "FAILURES"
        }
    );
    (failures == 0, failures)
}

/// Runs the selected passes; `Ok(true)` means everything is clean.
fn run(opts: &Options) -> OdrResult<bool> {
    if opts.help {
        print!("{USAGE}");
        return Ok(true);
    }
    let root = resolve_root(opts)?;

    // One workspace load per invocation: every pass below shares these
    // token/item views and this call graph.
    let t_load = Instant::now();
    let ws = load_workspace(&root);
    let mut timings = vec![format!(
        "files={} load_us={} unresolved_calls={}",
        ws.scans.len(),
        micros(t_load),
        ws.graph.unresolved
    )];

    let t = Instant::now();
    let ok = if let Some(subcommand) = opts.subcommand {
        let (ok, findings) = match subcommand {
            Subcommand::Api => {
                let current = api::collect_api(&root, &ws.scans);
                let (file, unit) = (api::SNAPSHOT_FILE, "items");
                run_snapshot_pass(opts, &root, subcommand, file, unit, &current)?
            }
            Subcommand::Effects => {
                let current = effects::render_surface(&ws.graph, &ws.scans);
                let (file, unit) = (effects::SNAPSHOT_FILE, "functions with effects");
                run_snapshot_pass(opts, &root, subcommand, file, unit, &current)?
            }
            Subcommand::Callgraph => {
                print!("{}", ws.graph.render());
                (true, 0)
            }
        };
        record(&mut timings, subcommand.name(), t, findings);
        ok
    } else {
        let mut ok = true;
        if opts.lint {
            let (lint_ok, findings) = run_lint_pass(opts, &root, &ws);
            record(&mut timings, "lint", t, findings);
            ok &= lint_ok;
        }
        if opts.model {
            let t = Instant::now();
            let (model_ok, failures) = run_model_pass(opts);
            record(&mut timings, "model", t, failures);
            ok &= model_ok;
        }
        if ok {
            println!("odr-check: OK");
        }
        ok
    };

    if opts.verbose {
        if let Some(rss) = peak_rss_bytes() {
            timings.push(format!("peak_rss_bytes={rss}"));
        }
        println!("odr-check: timings {}", timings.join(" "));
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("odr-check: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("odr-check: {e}");
            ExitCode::from(2)
        }
    }
}
