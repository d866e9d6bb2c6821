//! The determinism taint pass: call-graph-transitive reachability from
//! pure-sim functions to nondeterminism sources.
//!
//! PR 4's determinism lints are per-line keyword rules: they catch
//! `Instant::now()` written *inside* a pure-sim crate, but not a
//! pure-sim function calling a helper (possibly in another crate, or in
//! the sanctioned `MonoClock` module) that reads the clock on its
//! behalf. This pass closes the gap: every workspace function body is
//! classified for **direct sources**, the taint is propagated backwards
//! over the call graph ([`crate::graph`]), and every non-test call edge
//! from a pure-sim function to a tainted callee is reported — with the
//! witness chain down to the source, so the report reads like a stack
//! trace.
//!
//! Source kinds and their rules:
//!
//! * `taint/wall-clock` — `Instant::now`, `SystemTime::now` (and the
//!   `UNIX_EPOCH` arithmetic that implies it);
//! * `taint/sleep` — `thread::sleep`, `sleep_ms`;
//! * `taint/os-rng` — `getrandom`, `from_entropy`, `rand::`-family
//!   calls, `RandomState::new`;
//! * `taint/thread-id` — `thread::current` (ids/names vary per run);
//! * `taint/env` — `env::var`, `env::vars`, `var_os` (host state).
//!
//! Direct sources are never reported by this pass — the per-line
//! determinism rules own those lines (and the realtime crates are
//! allowed them). What this pass rejects is pure-sim code *reaching*
//! one through any number of calls; the committed-clean state is an
//! empty finding set, so any new edge from sim code to the realtime
//! layer's clocks shows up as a lint, not a flaky golden test.
//!
//! The graph under-approximates calls (see [`crate::graph`]), so this
//! pass can miss a chain routed through a function pointer or an
//! ambiguous method name — but every finding it does produce is a real
//! reachable source. The direct keyword lints remain the backstop.

use std::collections::BTreeMap;

use crate::graph::{self, CallGraph, Reach, Via};
use crate::lint::{crate_of, push_violation, Allowlist, FileScan, LintReport, PURE_SIM_CRATES};
use crate::lex::TokKind;

/// One nondeterminism source kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Source {
    /// Wall-clock reads.
    WallClock,
    /// Real sleeping.
    Sleep,
    /// OS entropy.
    OsRng,
    /// Thread identity.
    ThreadId,
    /// Process environment.
    Env,
}

impl Source {
    /// The lint rule id for this source kind.
    #[must_use]
    pub fn rule(self) -> &'static str {
        match self {
            Source::WallClock => "taint/wall-clock",
            Source::Sleep => "taint/sleep",
            Source::OsRng => "taint/os-rng",
            Source::ThreadId => "taint/thread-id",
            Source::Env => "taint/env",
        }
    }

    /// Human description of what the source is.
    fn describe(self) -> &'static str {
        match self {
            Source::WallClock => "a wall-clock read",
            Source::Sleep => "a real sleep",
            Source::OsRng => "OS entropy",
            Source::ThreadId => "thread identity",
            Source::Env => "the process environment",
        }
    }
}

/// Scans one function body (token range of its defining file) for direct
/// sources.
fn direct_sources(scan: &FileScan, body: (usize, usize)) -> Vec<Source> {
    let toks = &scan.lexed.tokens;
    let (lo, hi) = body;
    let body = &toks[lo.min(toks.len())..hi.min(toks.len())];
    let mut out = Vec::new();
    let mut push = |s: Source| {
        if !out.contains(&s) {
            out.push(s);
        }
    };
    for (i, t) in body.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let next_is = |off: usize, c: char| body.get(i + off).is_some_and(|n| n.is_punct(c));
        let path_next = next_is(1, ':') && next_is(2, ':');
        match t.text.as_str() {
            "Instant" | "SystemTime" if path_next => push(Source::WallClock),
            "UNIX_EPOCH" => push(Source::WallClock),
            "sleep" | "sleep_ms" if next_is(1, '(') => push(Source::Sleep),
            "getrandom" | "from_entropy" => push(Source::OsRng),
            "rand" if path_next => push(Source::OsRng),
            "RandomState" => push(Source::OsRng),
            "thread" if path_next && body.get(i + 3).is_some_and(|n| n.is_ident("current")) => {
                push(Source::ThreadId);
            }
            "env"
                if path_next
                    && body.get(i + 3).is_some_and(|n| {
                        n.is_ident("var") || n.is_ident("vars") || n.is_ident("var_os")
                    }) =>
            {
                push(Source::Env);
            }
            _ => {}
        }
    }
    out
}

/// The per-function taint table: fn id → source kind → how it got there
/// (a direct source needs no witness beyond the function itself).
type TaintMap = Reach<Source, ()>;

/// Computes the taint table: direct classification, then the shared
/// caller-ward fixpoint, every source kind crossing every edge.
fn propagate(graph: &CallGraph, scans: &[FileScan]) -> TaintMap {
    let mut taint: TaintMap = BTreeMap::new();
    for node in graph.fns.values() {
        let Some(body) = node.body else { continue };
        let Some(scan) = scans.get(node.file_idx) else {
            continue;
        };
        for s in direct_sources(scan, body) {
            taint
                .entry(node.id.clone())
                .or_default()
                .insert(s, Via::Direct(()));
        }
    }
    graph::propagate(graph, taint, |_, _| true)
}

/// Renders the witness chain from `id` down to the direct source, e.g.
/// `odr_metrics::agg::stamp -> odr_obs::clock::MonoClock::now_ns`.
fn chain_of(taint: &TaintMap, source: Source, id: &str) -> String {
    graph::chain_of(taint, source, id, |_, ()| String::new())
}

/// Runs the taint pass: reports every non-test call edge from a
/// pure-sim function into tainted code. `scans` must be the same slice
/// the graph was built from (node `file_idx` values index into it).
pub fn taint_rules(
    graph: &CallGraph,
    scans: &[FileScan],
    realtime_modules: &[&str],
    allow: &Allowlist,
    report: &mut LintReport,
) {
    let taint = propagate(graph, scans);
    for e in &graph.edges {
        if e.in_test {
            continue;
        }
        // Only pure-sim callers are constrained; the sanctioned
        // wall-clock module and the realtime crates may reach sources.
        if !PURE_SIM_CRATES.contains(&crate_of(&e.rel_path))
            || realtime_modules.contains(&e.rel_path.as_str())
        {
            continue;
        }
        let Some(sources) = taint.get(&e.callee) else {
            continue;
        };
        let Some(scan) = scans.iter().find(|s| s.rel_path == e.rel_path) else {
            continue;
        };
        for (source, _) in sources {
            push_violation(
                report,
                allow,
                scan,
                e.line - 1,
                source.rule(),
                format!(
                    "pure-sim code reaches {} through this call: {}",
                    source.describe(),
                    chain_of(&taint, *source, &e.callee)
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::build_graph;
    use crate::lint::scan_file;
    use std::path::Path;

    fn run(files: &[(&str, &str)]) -> LintReport {
        let scans: Vec<FileScan> = files
            .iter()
            .map(|(p, s)| scan_file(p, s))
            .collect();
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let graph = build_graph(&root, &scans);
        let mut report = LintReport::default();
        taint_rules(
            &graph,
            &scans,
            &["crates/obs/src/clock.rs"],
            &Allowlist::default(),
            &mut report,
        );
        report
    }

    #[test]
    fn transitive_wall_clock_reach_is_flagged() {
        let r = run(&[
            (
                "crates/fleet/src/engine.rs",
                "use odr_metrics::agg::stamp;\npub fn run() { stamp(); }\n",
            ),
            (
                "crates/metrics/src/agg.rs",
                "pub fn stamp() -> u64 { inner() }\nfn inner() -> u64 { now_raw() }\n\
                 fn now_raw() -> u64 { Instant::now().elapsed().as_nanos() as u64 }\n",
            ),
        ]);
        // Every pure-sim edge toward the source is flagged: run→stamp,
        // stamp→inner, inner→now_raw (metrics is pure-sim too).
        let rules: Vec<&str> = r.violations.iter().map(|v| v.rule).collect();
        assert!(rules.iter().all(|r| *r == "taint/wall-clock"), "{rules:?}");
        assert_eq!(rules.len(), 3, "{:?}", r.violations);
        let fleet: Vec<_> = r
            .violations
            .iter()
            .filter(|v| v.path.contains("fleet"))
            .collect();
        assert_eq!(fleet.len(), 1);
        assert!(fleet[0].message.contains("stamp"), "{}", fleet[0].message);
    }

    #[test]
    fn realtime_caller_is_not_flagged() {
        let r = run(&[
            (
                "crates/runtime/src/stages.rs",
                "use odr_obs::clock::tick;\npub fn pump() { tick(); }\n",
            ),
            (
                "crates/obs/src/clock.rs",
                "pub fn tick() -> u64 { Instant::now().elapsed().as_nanos() as u64 }\n",
            ),
        ]);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn serve_is_a_realtime_boundary_for_taint() {
        // The serving surface lives on the wall clock: its own
        // clock-reaching calls are sanctioned…
        let r = run(&[
            (
                "crates/serve/src/session.rs",
                "use odr_obs::clock::tick;\npub fn writer() { tick(); }\n",
            ),
            (
                "crates/obs/src/clock.rs",
                "pub fn tick() -> u64 { Instant::now().elapsed().as_nanos() as u64 }\n",
            ),
        ]);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        // …but it does not launder nondeterminism into the simulator:
        // a pure-sim function reaching the clock *through* serve code is
        // still flagged, with the witness chain crossing the boundary.
        let r = run(&[
            (
                "crates/pipeline/src/sim.rs",
                "use odr_serve::session::stamp;\npub fn step() { stamp(); }\n",
            ),
            (
                "crates/serve/src/session.rs",
                "pub fn stamp() -> u64 { Instant::now().elapsed().as_nanos() as u64 }\n",
            ),
        ]);
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert_eq!(r.violations[0].rule, "taint/wall-clock");
        assert!(r.violations[0].path.contains("pipeline"));
        assert!(
            r.violations[0].message.contains("stamp"),
            "{}",
            r.violations[0].message
        );
    }

    #[test]
    fn sim_code_reaching_the_sanctioned_clock_is_flagged() {
        let r = run(&[
            (
                "crates/fleet/src/engine.rs",
                "use odr_obs::clock::tick;\npub fn run() { tick(); }\n",
            ),
            (
                "crates/obs/src/clock.rs",
                "pub fn tick() -> u64 { Instant::now().elapsed().as_nanos() as u64 }\n",
            ),
        ]);
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert_eq!(r.violations[0].rule, "taint/wall-clock");
        assert!(r.violations[0].path.contains("fleet"));
    }

    #[test]
    fn sleep_env_and_thread_id_sources_classified() {
        let r = run(&[
            (
                "crates/cluster/src/sched.rs",
                "use odr_obs::clock::{zzz, who, cfg};\n\
                 pub fn a() { zzz(); }\npub fn b() { who(); }\npub fn c() { cfg(); }\n",
            ),
            (
                "crates/obs/src/clock.rs",
                "pub fn zzz() { std::thread::sleep(d); }\n\
                 pub fn who() { let t = std::thread::current(); }\n\
                 pub fn cfg() { let v = std::env::var(\"HOME\"); }\n",
            ),
        ]);
        let rules: Vec<&str> = r.violations.iter().map(|v| v.rule).collect();
        assert!(rules.contains(&"taint/sleep"), "{rules:?}");
        assert!(rules.contains(&"taint/thread-id"), "{rules:?}");
        assert!(rules.contains(&"taint/env"), "{rules:?}");
    }

    #[test]
    fn test_only_calls_are_ignored() {
        let r = run(&[
            (
                "crates/fleet/src/engine.rs",
                "use odr_obs::clock::tick;\n\
                 #[cfg(test)]\nmod tests { fn t() { crate::x(); } }\n\
                 pub fn clean() {}\n",
            ),
            (
                "crates/obs/src/clock.rs",
                "pub fn tick() -> u64 { Instant::now().elapsed().as_nanos() as u64 }\n",
            ),
        ]);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn pure_computation_chains_are_clean() {
        let r = run(&[(
            "crates/fleet/src/engine.rs",
            "fn helper(x: u64) -> u64 { x * 2 }\npub fn run() { helper(21); }\n",
        )]);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }
}
