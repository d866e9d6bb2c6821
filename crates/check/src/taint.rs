//! The determinism taint pass: every rule that keeps the simulation
//! seed-deterministic, as one classifier and one call-graph fixpoint.
//!
//! Each source file sits in a [`Layer`]. Pure-sim code must stay
//! bit-for-bit seed-deterministic; the serving surface may read clocks
//! and sleep but must keep its input traces seed-replayable; real-time
//! code may do anything, and pure-sim code may not call into it.
//!
//! One token classifier ([`source_at`]) names the nondeterminism
//! **sources**, each its own rule:
//!
//! * `taint/wall-clock` — `Instant::`, `SystemTime::`, `UNIX_EPOCH`;
//! * `taint/sleep` — `sleep(..)`, `sleep_ms(..)`;
//! * `taint/os-rng` — `getrandom`, `from_entropy`, `rand::`,
//!   `RandomState`;
//! * `taint/hash-iter` — `HashMap`, `HashSet` (randomised iteration
//!   order);
//! * `taint/thread-id` — `thread::current` (ids and names vary per run);
//! * `taint/env` — `env::var`, `env::vars`, `env::var_os` (host state);
//! * `taint/realtime-layer` — not a token: every function *defined* in a
//!   real-time crate or module carries it, because Cargo's dependency
//!   graph cannot say "may depend on the crate but not on this module".
//!
//! Every function body's sources are propagated caller-ward over the call
//! graph ([`crate::graph`]), so a non-test call from a constrained
//! function into code that reaches a forbidden source is reported at the
//! call, with the witness chain down to the source in the message. A
//! source written at its own site is not this pass's: `clippy.toml` bans
//! each by resolved path, and the sites the layering permits carry an
//! `#[expect]`, which a per-site ban cannot see past — a pure caller
//! reaching `gate.rs` is found here.
//!
//! The graph under-approximates calls (see [`crate::graph`]): a chain
//! routed through a function pointer or an ambiguous method name is
//! missed, but every finding is a real reachable source.

use std::collections::{BTreeMap, BTreeSet};

use crate::graph::{self, CallGraph, Reach, Via};
use crate::lex::{TokKind, Token};
use crate::lint::{crate_of, push_violation, Allowlist, FileScan, LintReport};

/// Crates whose sources must stay seed-deterministic. `fleet` and
/// `cluster` spawn OS threads but still belong here: thread *scheduling*
/// is made irrelevant by their index-order reduction, while wall-clock
/// reads or OS randomness would genuinely break bit-identical reports.
/// `obs` belongs here too — exporters and counters must be
/// byte-deterministic for golden traces — except for its one wall-clock
/// module (see [`REALTIME_MODULES`]).
const PURE_SIM_CRATES: &[&str] = &[
    "simtime", "core", "pipeline", "workload", "codec", "raster", "memsim", "netsim", "metrics",
    "qoe", "fleet", "cluster", "obs",
];

/// Real-time crates: the thread runtime, the bench harness (wall-clock
/// runs) and this tool.
const REALTIME_CRATES: &[&str] = &["runtime", "bench", "check"];

/// Real-time *networked* crates: the serving surface and its thin
/// client. Wall-clock reads, real sleeps and sockets are their job — with
/// one exception: OS randomness stays banned. Session traces must replay
/// from an explicit seed (`odr_simtime::Rng`) so a real run can be diffed
/// against the simulator's prediction for the same seed.
const REALTIME_NET_CRATES: &[&str] = &["serve", "client"];

/// Individual files inside pure-sim crates that are deliberately
/// real-time: `MonoClock` is the runtime's trace timestamp source and the
/// only place `odr-obs` may read the OS clock; the thread-safe
/// multi-buffer (`SyncQueue`), the eventcount its threads park on
/// (`Gate`, whose timed park measures a real deadline) and the lock-free
/// engine that parks on it are the real-thread half of `odr-core`.
const REALTIME_MODULES: &[&str] = &[
    "crates/obs/src/clock.rs",
    "crates/core/src/atomic_swap.rs",
    "crates/core/src/gate.rs",
    "crates/core/src/sync_queue.rs",
];

/// Where a source file sits in the determinism layering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layer {
    /// Seed-deterministic simulation code: every source is forbidden.
    PureSim,
    /// The serving surface: only OS entropy is forbidden.
    Net,
    /// Real-time code: nothing is forbidden.
    Realtime,
    /// The root crate and the shims: nothing is forbidden, and they are
    /// not part of the real-time layer either.
    Other,
}

impl Layer {
    fn of(rel_path: &str) -> Layer {
        let krate = crate_of(rel_path);
        if REALTIME_MODULES.contains(&rel_path) || REALTIME_CRATES.contains(&krate) {
            Layer::Realtime
        } else if REALTIME_NET_CRATES.contains(&krate) {
            Layer::Net
        } else if PURE_SIM_CRATES.contains(&krate) {
            Layer::PureSim
        } else {
            Layer::Other
        }
    }

    fn forbids(self, source: Source) -> bool {
        match self {
            Layer::PureSim => true,
            Layer::Net => source == Source::OsRng,
            Layer::Realtime | Layer::Other => false,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Layer::PureSim => "pure-sim",
            Layer::Net => "serving",
            Layer::Realtime | Layer::Other => "unconstrained",
        }
    }
}

/// One nondeterminism source kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Source {
    /// Wall-clock reads.
    WallClock,
    /// Real sleeping.
    Sleep,
    /// OS entropy.
    OsRng,
    /// Randomised hash iteration order.
    HashIter,
    /// Thread identity.
    ThreadId,
    /// Process environment.
    Env,
    /// A function of the real-time layer.
    Realtime,
}

impl Source {
    /// The lint rule id for this source kind.
    #[must_use]
    pub fn rule(self) -> &'static str {
        match self {
            Source::WallClock => "taint/wall-clock",
            Source::Sleep => "taint/sleep",
            Source::OsRng => "taint/os-rng",
            Source::HashIter => "taint/hash-iter",
            Source::ThreadId => "taint/thread-id",
            Source::Env => "taint/env",
            Source::Realtime => "taint/realtime-layer",
        }
    }

    /// Human description of what the source is.
    fn describe(self) -> &'static str {
        match self {
            Source::WallClock => "a wall-clock read",
            Source::Sleep => "a real sleep",
            Source::OsRng => "OS entropy",
            Source::HashIter => "randomised hash iteration order",
            Source::ThreadId => "thread identity",
            Source::Env => "the process environment",
            Source::Realtime => "the real-time layer",
        }
    }
}

/// Classifies token `i` of `toks` as a direct source, if it is one.
fn source_at(toks: &[Token], i: usize) -> Option<Source> {
    let t = &toks[i];
    if t.kind != TokKind::Ident {
        return None;
    }
    let next_is = |off: usize, c: char| toks.get(i + off).is_some_and(|n| n.is_punct(c));
    let path_next = next_is(1, ':') && next_is(2, ':');
    let then_ident = |names: &[&str]| {
        path_next
            && toks
                .get(i + 3)
                .is_some_and(|n| names.iter().any(|name| n.is_ident(name)))
    };
    match t.text.as_str() {
        "Instant" | "SystemTime" if path_next => Some(Source::WallClock),
        "UNIX_EPOCH" => Some(Source::WallClock),
        "sleep" | "sleep_ms" if next_is(1, '(') => Some(Source::Sleep),
        "getrandom" | "from_entropy" | "RandomState" => Some(Source::OsRng),
        "rand" if path_next => Some(Source::OsRng),
        "HashMap" | "HashSet" => Some(Source::HashIter),
        "thread" if then_ident(&["current"]) => Some(Source::ThreadId),
        "env" if then_ident(&["var", "vars", "var_os"]) => Some(Source::Env),
        _ => None,
    }
}

/// The per-function taint table: fn id → source kind → how it got there
/// (a direct source needs no witness beyond the function itself).
type TaintMap = Reach<Source, ()>;

/// Computes the taint table: every function's own sources (its body's
/// tokens, plus [`Source::Realtime`] when it is defined in the real-time
/// layer), then the shared caller-ward fixpoint, every source kind
/// crossing every edge.
fn propagate(graph: &CallGraph, scans: &[FileScan]) -> TaintMap {
    let mut taint: TaintMap = BTreeMap::new();
    for node in graph.fns.values() {
        let mut own: BTreeSet<Source> = BTreeSet::new();
        if matches!(Layer::of(&node.rel_path), Layer::Realtime | Layer::Net) {
            own.insert(Source::Realtime);
        }
        if let (Some((lo, hi)), Some(scan)) = (node.body, scans.get(node.file_idx)) {
            let toks = &scan.lexed.tokens;
            own.extend((lo.min(toks.len())..hi.min(toks.len())).filter_map(|i| source_at(toks, i)));
        }
        if !own.is_empty() {
            taint.insert(
                node.id.clone(),
                own.into_iter().map(|s| (s, Via::Direct(()))).collect(),
            );
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
/// constrained function into code that reaches a source its layer
/// forbids. `scans` must be the same slice the graph was built from (node
/// `file_idx` values index into it).
pub fn taint_rules(
    graph: &CallGraph,
    scans: &[FileScan],
    allow: &Allowlist,
    report: &mut LintReport,
) {
    let taint = propagate(graph, scans);
    for e in &graph.edges {
        if e.in_test {
            continue;
        }
        let layer = Layer::of(&e.rel_path);
        let Some(sources) = taint.get(&e.callee) else {
            continue;
        };
        let Some(scan) = graph.fns.get(&e.caller).and_then(|n| scans.get(n.file_idx)) else {
            continue;
        };
        for source in sources.keys().filter(|s| layer.forbids(**s)) {
            push_violation(
                report,
                allow,
                scan,
                e.line - 1,
                source.rule(),
                format!(
                    "{} code reaches {} through this call: {}",
                    layer.name(),
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
        let scans: Vec<FileScan> = files.iter().map(|(p, s)| scan_file(p, s)).collect();
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let graph = build_graph(&root, &scans);
        let mut report = LintReport::default();
        taint_rules(&graph, &scans, &Allowlist::default(), &mut report);
        report
    }

    fn rules(r: &LintReport) -> Vec<&'static str> {
        r.violations.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn every_crate_sits_in_a_layer() {
        let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        for entry in std::fs::read_dir(&crates).expect("crates/") {
            let name = entry
                .expect("entry")
                .file_name()
                .to_string_lossy()
                .into_owned();
            let path = format!("crates/{name}/src/lib.rs");
            assert_ne!(
                Layer::of(&path),
                Layer::Other,
                "crate `{name}`: add it to PURE_SIM_CRATES, REALTIME_CRATES or REALTIME_NET_CRATES"
            );
        }
    }

    /// `t` calls `z`, whose body is `body`: the one edge a finding can
    /// sit on.
    fn calling(body: &str) -> String {
        format!("fn t() {{ z(); }}\nfn z() {{ {body} }}\n")
    }

    #[test]
    fn instant_now_flagged_in_pure_sim_and_allowed_in_runtime() {
        let src = calling("let x = std::time::Instant::now();");
        let r = run(&[("crates/pipeline/src/sim.rs", &src)]);
        assert_eq!(rules(&r), ["taint/wall-clock"], "{:?}", r.violations);
        assert_eq!(r.violations[0].line, 1);
        let r = run(&[("crates/runtime/src/stages.rs", &src)]);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn serve_and_client_are_flagged_for_os_entropy_only() {
        // Wall-clock, sleep and sockets are the serving surface's job…
        let realtime = calling("let x = std::time::Instant::now(); std::thread::sleep(d);");
        for path in ["crates/serve/src/session.rs", "crates/client/src/lib.rs"] {
            let r = run(&[(path, &realtime)]);
            assert!(r.violations.is_empty(), "{path}: {:?}", r.violations);
        }
        // …except OS entropy: input traces must replay from an explicit
        // seed so real runs can be diffed against the simulator.
        let entropy = calling("let r = rand::thread_rng();");
        for path in ["crates/serve/src/session.rs", "crates/client/src/lib.rs"] {
            let r = run(&[(path, &entropy)]);
            assert_eq!(rules(&r), ["taint/os-rng"], "{path}: {:?}", r.violations);
        }
    }

    #[test]
    fn fleet_cluster_and_obs_are_pure_except_the_obs_clock() {
        // The fleet and cluster engines may spawn OS threads (scheduling
        // is made deterministic by index-order reduction)…
        let ok = "fn run() { std::thread::scope(|s| { s.spawn(|| 1); }); }\n";
        for path in ["crates/fleet/src/engine.rs", "crates/cluster/src/engine.rs"] {
            let r = run(&[(path, ok)]);
            assert!(r.violations.is_empty(), "{path}: {:?}", r.violations);
        }
        // …but wall-clock reads and real sleeping would still break
        // bit-identical output, and so would exporters reading the clock.
        let bad = calling("let t = std::time::Instant::now(); std::thread::sleep(d);");
        for path in [
            "crates/fleet/src/engine.rs",
            "crates/cluster/src/engine.rs",
            "crates/obs/src/export.rs",
        ] {
            let r = run(&[(path, &bad)]);
            assert_eq!(rules(&r), ["taint/wall-clock", "taint/sleep"], "{path}");
        }
        // `MonoClock` is the one sanctioned wall-clock module.
        let r = run(&[("crates/obs/src/clock.rs", &bad)]);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn hashmap_and_sleep_flagged() {
        let src = "use std::collections::HashMap;\nfn a() { m(); z(); }\n\
                   fn m() -> usize { HashMap::<u8, u8>::new().len() }\n\
                   fn z() { std::thread::sleep(d); }\n";
        let r = run(&[("crates/metrics/src/lib.rs", src)]);
        assert_eq!(
            rules(&r),
            ["taint/hash-iter", "taint/sleep"],
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn sources_in_strings_comments_and_tests_are_ignored() {
        let src =
            "fn e() { f(); }\n// Instant::now()\nfn f() -> &'static str { \"HashMap::new()\" }\n\
                   #[cfg(test)]\nmod tests { fn t() { std::thread::sleep(d); } }\n";
        let r = run(&[("crates/codec/src/lib.rs", src)]);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
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
        // Every pure-sim edge toward the source: run→stamp, stamp→inner,
        // inner→now_raw (metrics is pure-sim too).
        let rules = rules(&r);
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
        // …but it does not launder nondeterminism into the simulator: a
        // pure-sim function calling serve code is flagged, for the layer
        // and for the clock behind it, the chain crossing the boundary.
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
        assert_eq!(
            rules(&r),
            ["taint/wall-clock", "taint/realtime-layer"],
            "{:?}",
            r.violations
        );
        for v in &r.violations {
            assert!(v.path.contains("pipeline"), "{v}");
            assert!(v.message.contains("stamp"), "{v}");
        }
    }

    #[test]
    fn realtime_layer_reach_is_transitive() {
        // A pure-sim helper calling the root crate, which calls the
        // runtime: neither edge out of pure-sim code names the runtime,
        // and the call is still flagged.
        let r = run(&[
            (
                "crates/fleet/src/engine.rs",
                "use cloud3d_odr::glue::relay;\npub fn run() { relay(); }\n",
            ),
            (
                "src/glue.rs",
                "use odr_runtime::stages::spawn;\npub fn relay() { spawn(); }\n",
            ),
            ("crates/runtime/src/stages.rs", "pub fn spawn() {}\n"),
        ]);
        assert_eq!(rules(&r), ["taint/realtime-layer"], "{:?}", r.violations);
        assert!(
            r.violations[0]
                .message
                .contains("relay -> odr_runtime::stages::spawn"),
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
        assert_eq!(
            rules(&r),
            ["taint/wall-clock", "taint/realtime-layer"],
            "{:?}",
            r.violations
        );
        assert!(r.violations.iter().all(|v| v.path.contains("fleet")));
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
        let rules = rules(&r);
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
                 #[cfg(test)]\nmod tests { fn t() { tick(); } }\n\
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
