//! Whole-program effect analysis: panic-reachability, allocation and
//! blocking-call propagation over the workspace call graph.
//!
//! Every workspace function body is classified token-level into its
//! **direct effects**:
//!
//! * [`Effect::Panics`] — `panic!`, `unreachable!`, `todo!`,
//!   `unimplemented!`, `assert!` family, `.unwrap()`/`.expect()`,
//!   non-literal indexing (`slots[i]`), and division/modulo by a
//!   variable. `debug_assert!` is exempt (compiled out in release), as
//!   is indexing by an integer literal or the full range (`buf[0]`,
//!   `buf[..]`).
//! * [`Effect::Allocates`] — the `Box::`/`Vec::`/`String::` constructors
//!   that allocate (`Box::new`, `with_capacity`, `from`, ...),
//!   `vec!`/`format!`, and the owning method calls `.push()`,
//!   `.collect()`, `.to_string()`, `.to_owned()`, `.to_vec()`,
//!   `.clone()`.
//! * [`Effect::Blocks`] — the lock pass's blocking table
//!   ([`crate::locks`]: `::sleep`, `.join()`, channel `.send`/`.recv`)
//!   extended with lock acquisition (`.lock()`) and condvar waits
//!   (`.wait*()`).
//!
//! Method-form table hits that are call edges (the token where an
//! edge's callee name ends, by its MIR span) are **not** counted as
//! direct effects: `queue.push(ev)` hitting `EventQueue::push`
//! contributes whatever that body's own effects are (via propagation),
//! not a textual `Vec::push` allocation. The tables only see calls that
//! are no edge — the std/external surface, and calls through `dyn`,
//! generics and fn pointers.
//!
//! Direct effects then propagate caller-ward over the production (non
//! `#[cfg(test)]`) call graph to a fixpoint, with one barrier: a
//! `#[cold]` callee keeps its `Allocates`/`Blocks` effects to itself.
//! Marking a function `#[cold]` is the sanctioned way to carve an
//! out-of-line slow path (arena growth, trace flushing) out of a hot
//! function's effect set. `Panics` crosses the barrier regardless —
//! a cold panic still unwinds the hot caller.
//!
//! Enforcement reads the committed `hotpaths.txt` manifest (one
//! `fn-id | forbidden,effects` line per hot root) and flags any
//! forbidden effect reachable from a root (`effect/hot-alloc`,
//! `effect/hot-block`, `effect/hot-panic`) with the full witness chain
//! down to the offending token. Independently, any transitively
//! panicking `pub` function in `odr-core`/`odr-obs` that neither
//! returns `OdrResult` nor documents a `# Panics` section is flagged
//! (`effect/pub-panic`).
//!
//! Like the taint pass, the analysis is an under-approximation of the
//! real program (the graph has no edge through `dyn`, a generic
//! parameter or a fn pointer) but every finding is a real reachable
//! effect. The rendered
//! per-function surface is committed as `effect-surface.txt` and
//! drift-checked like the API surface ([`crate::snapshot`]).

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

use crate::graph::{self, CallGraph, Reach, Via};
use crate::lex::{TokKind, Token};
use crate::lint::{crate_of, push_violation, scan_file, Allowlist, FileScan, LintReport};

/// File name of the committed effect-surface snapshot, repo-root
/// relative.
pub const SNAPSHOT_FILE: &str = "effect-surface.txt";

/// The committed hot-path root manifest, repo-root relative.
pub(crate) const MANIFEST_FILE: &str = "hotpaths.txt";

/// One effect kind. Ordering is the rendering order (`alloc`, `block`,
/// `panic`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Effect {
    /// May allocate on the heap.
    Allocates,
    /// May block the calling thread.
    Blocks,
    /// May panic.
    Panics,
}

impl Effect {
    /// Every effect kind, in rendering order.
    pub const ALL: [Effect; 3] = [Effect::Allocates, Effect::Blocks, Effect::Panics];

    /// The manifest / surface label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Effect::Allocates => "alloc",
            Effect::Blocks => "block",
            Effect::Panics => "panic",
        }
    }

    /// Parses a manifest label.
    #[must_use]
    pub fn parse(s: &str) -> Option<Effect> {
        Effect::ALL.into_iter().find(|e| e.label() == s)
    }

    /// The rule id when this effect is reachable from a hot root.
    #[must_use]
    pub(crate) fn hot_rule(self) -> &'static str {
        match self {
            Effect::Allocates => "effect/hot-alloc",
            Effect::Blocks => "effect/hot-block",
            Effect::Panics => "effect/hot-panic",
        }
    }

    /// Human description of the effect.
    fn describe(self) -> &'static str {
        match self {
            Effect::Allocates => "a heap allocation",
            Effect::Blocks => "a blocking call",
            Effect::Panics => "a panic path",
        }
    }
}

/// The witness token of a direct effect: 1-based line + description.
type Witness = (usize, String);

/// The per-function effect table: fn id → effect → how it got there.
pub(crate) type EffectMap = Reach<Effect, Witness>;

/// Idents that legally precede `[` without the bracket being an index
/// expression (`return [..]`, `break [..]`, slice patterns).
const NON_INDEX_PREV: &[&str] = &[
    "return", "break", "let", "else", "in", "match", "if", "while", "loop", "move", "ref", "mut",
    "const", "static", "type", "where", "dyn", "impl", "as",
];

/// `true` when token `i` opens an index expression that can panic:
/// `expr[idx]` with a non-literal, non-full-range index.
fn panicking_index(toks: &[Token], i: usize, lo: usize) -> bool {
    if !toks[i].is_punct('[') || i == lo || i == 0 {
        return false;
    }
    let prev = &toks[i - 1];
    let indexable = match prev.kind {
        TokKind::Ident => !NON_INDEX_PREV.contains(&prev.text.as_str()),
        _ => prev.is_punct(')') || prev.is_punct(']'),
    };
    if !indexable {
        return false;
    }
    // `buf[0]` — literal index, statically in-bounds by convention.
    let literal_index = toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Int)
        && toks.get(i + 2).is_some_and(|t| t.is_punct(']'));
    // `buf[..]` — the full range cannot be out of bounds.
    let full_range = toks.get(i + 1).is_some_and(|t| t.is_punct('.'))
        && toks.get(i + 2).is_some_and(|t| t.is_punct('.'))
        && toks.get(i + 3).is_some_and(|t| t.is_punct(']'));
    !(literal_index || full_range)
}

/// `true` when token `i` is a `%` or `/` dividing by a variable that
/// could be zero. Float division never panics (it yields inf/NaN), and
/// tokens carry no types, so the rule is deliberately asymmetric: `%`
/// with any value expression on the left counts (the workspace's `%`
/// sites are integer time arithmetic), while `/` counts only with an
/// integer-literal dividend (`100 / x`) — `1.0 / x` and `expr() / x`
/// are overwhelmingly float math here and stay exempt.
fn panicking_div(toks: &[Token], i: usize, lo: usize) -> bool {
    let t = &toks[i];
    if !(t.is_punct('/') || t.is_punct('%')) || i == lo || i == 0 {
        return false;
    }
    if !toks.get(i + 1).is_some_and(|n| n.kind == TokKind::Ident) {
        return false;
    }
    let prev = &toks[i - 1];
    if t.is_punct('/') {
        return prev.kind == TokKind::Int;
    }
    matches!(prev.kind, TokKind::Ident | TokKind::Int) || prev.is_punct(')') || prev.is_punct(']')
}

/// Scans one function body for direct effects, keeping the first
/// witness per effect kind. `resolved` holds where the callee's name of
/// each call edge out of the body ends (its MIR span's end): those calls
/// are skipped, their effects arrive through propagation instead.
fn direct_effects(
    scan: &FileScan,
    body: (usize, usize),
    resolved: &BTreeSet<(usize, usize)>,
) -> BTreeMap<Effect, Via<Witness>> {
    let toks = &scan.lexed.tokens;
    let (lo, hi) = (body.0.min(toks.len()), body.1.min(toks.len()));
    let mut out: BTreeMap<Effect, Via<Witness>> = BTreeMap::new();
    let mut hit = |e: Effect, line: usize, what: String| {
        out.entry(e).or_insert(Via::Direct((line, what)));
    };
    for i in lo..hi {
        let t = &toks[i];
        if panicking_index(toks, i, lo) {
            let name = &toks[i - 1].text;
            hit(Effect::Panics, t.line, format!("`{name}[..]` indexing"));
            continue;
        }
        if panicking_div(toks, i, lo) {
            hit(
                Effect::Panics,
                t.line,
                format!("`{}` by a variable", t.text),
            );
            continue;
        }
        if t.kind != TokKind::Ident {
            continue;
        }
        let bang = toks.get(i + 1).is_some_and(|n| n.is_punct('!'));
        let called = toks.get(i + 1).is_some_and(|n| n.is_punct('('));
        let method = i > lo && toks[i - 1].is_punct('.');
        let path_next = toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && toks.get(i + 2).is_some_and(|n| n.is_punct(':'));
        let graph_resolved = resolved.contains(&t.end());
        // Blocking table shared with the lock pass, plus lock/condvar
        // acquisition; method forms defer to the graph when resolved.
        if let Some(what) = crate::locks::blocking_call(toks, i) {
            if !(method && graph_resolved) {
                hit(Effect::Blocks, t.line, what);
                continue;
            }
        }
        match t.text.as_str() {
            "lock" | "wait" | "wait_timeout" | "wait_while" | "wait_timeout_while"
                if method && called && !graph_resolved =>
            {
                hit(Effect::Blocks, t.line, format!("`.{}(..)`", t.text));
            }
            "panic" | "unreachable" | "todo" | "unimplemented" if bang => {
                hit(Effect::Panics, t.line, format!("`{}!`", t.text));
            }
            "assert" | "assert_eq" | "assert_ne" if bang => {
                hit(Effect::Panics, t.line, format!("`{}!`", t.text));
            }
            "unwrap" | "expect" | "unwrap_err" | "expect_err" if method && called => {
                hit(Effect::Panics, t.line, format!("`.{}()`", t.text));
            }
            "vec" | "format" if bang => {
                hit(Effect::Allocates, t.line, format!("`{}!`", t.text));
            }
            "Box" | "Vec" | "String"
                if path_next
                    && toks
                        .get(i + 3)
                        .is_some_and(|n| allocating_constructor(&t.text, &n.text)) =>
            {
                hit(
                    Effect::Allocates,
                    t.line,
                    format!("a `{}::` constructor", t.text),
                );
            }
            "push" | "collect" | "to_string" | "to_owned" | "to_vec" | "clone"
                if method && called && !graph_resolved =>
            {
                hit(Effect::Allocates, t.line, format!("`.{}(..)`", t.text));
            }
            _ => {}
        }
    }
    out
}

/// Whether `ty::name` builds an owned allocation. `Vec::new` and
/// `String::new` allocate nothing, and a method passed as a path
/// (`.map(String::as_str)`) is no constructor.
fn allocating_constructor(ty: &str, name: &str) -> bool {
    matches!(
        (ty, name),
        (_, "from" | "from_iter" | "with_capacity")
            | ("Box", "new" | "pin")
            | ("String", "from_utf8_lossy")
    )
}

/// Computes the effect table: direct classification of every non-test
/// body, then a fixpoint over the graph's edges with the `#[cold]`
/// barrier.
pub(crate) fn propagate(graph: &CallGraph, scans: &[FileScan]) -> EffectMap {
    // Where each edge's callee name ends, grouped by caller.
    let mut resolved: BTreeMap<&str, BTreeSet<(usize, usize)>> = BTreeMap::new();
    for e in &graph.edges {
        resolved
            .entry(e.caller.as_str())
            .or_default()
            .insert((e.line, e.col));
    }
    let empty = BTreeSet::new();
    let mut effects: EffectMap = BTreeMap::new();
    for node in graph.fns.values() {
        if node.cfg_test {
            continue;
        }
        let Some(body) = node.body else { continue };
        let Some(scan) = scans.get(node.file_idx) else {
            continue;
        };
        let res = resolved.get(node.id.as_str()).unwrap_or(&empty);
        let direct = direct_effects(scan, body, res);
        if !direct.is_empty() {
            effects.insert(node.id.clone(), direct);
        }
    }
    // `#[cold]` callees keep alloc/block to themselves (panics always
    // unwind the caller).
    graph::propagate(graph, effects, |e, eff| {
        eff == Effect::Panics || !graph.fns.get(&e.callee).is_some_and(|n| n.cold)
    })
}

/// Renders the witness chain from `id` down to the direct effect, e.g.
/// `a::f -> b::g (\`.unwrap()\` at crates/b/src/g.rs:12)`.
fn chain_of(effects: &EffectMap, graph: &CallGraph, effect: Effect, id: &str) -> String {
    graph::chain_of(effects, effect, id, |leaf, (line, what)| {
        let loc = graph
            .fns
            .get(leaf)
            .map_or_else(|| "?".to_string(), |n| format!("{}:{line}", n.rel_path));
        format!(" ({what} at {loc})")
    })
}

/// The witness chain by which `id` may block, when its effect set says
/// it may (read by the lock pass for calls made under a guard).
pub(crate) fn blocking_chain(effects: &EffectMap, graph: &CallGraph, id: &str) -> Option<String> {
    let may_block = effects.get(id)?.contains_key(&Effect::Blocks);
    may_block.then(|| chain_of(effects, graph, Effect::Blocks, id))
}

/// One parsed hot-root declaration from the manifest.
#[derive(Debug)]
struct HotRoot {
    /// Fully qualified fn id (a call-graph node id).
    id: String,
    /// Effects forbidden anywhere in its reachable set.
    forbid: Vec<Effect>,
    /// 0-based manifest line, for reporting.
    line_idx: usize,
}

/// Parses the `fn-id | effect,effect` manifest format. `#` comments and
/// blank lines are skipped; malformed lines come back as problems.
fn parse_manifest(text: &str) -> (Vec<HotRoot>, Vec<(usize, String)>) {
    let mut roots = Vec::new();
    let mut problems = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((id, effects)) = line.split_once('|') else {
            problems.push((
                idx,
                "malformed hot-path entry (want `fn-id | effect,effect`)".to_string(),
            ));
            continue;
        };
        let mut forbid = Vec::new();
        let mut ok = true;
        for label in effects.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            match Effect::parse(label) {
                Some(e) if !forbid.contains(&e) => forbid.push(e),
                Some(_) => {}
                None => {
                    problems.push((idx, format!("unknown effect label '{label}'")));
                    ok = false;
                }
            }
        }
        if ok && forbid.is_empty() {
            problems.push((idx, "hot-path entry forbids no effects".to_string()));
            ok = false;
        }
        if ok {
            roots.push(HotRoot {
                id: id.trim().to_string(),
                forbid,
                line_idx: idx,
            });
        }
    }
    (roots, problems)
}

/// `true` when the signature's return type is (or wraps) `OdrResult`.
fn returns_odr_result(signature: &str) -> bool {
    signature
        .split_once("->")
        .is_some_and(|(_, ret)| ret.contains("OdrResult"))
}

/// `true` when the doc comment block directly above `line` (1-based),
/// past any attributes, contains a `# Panics` section.
fn docs_panics(scan: &FileScan, line: usize) -> bool {
    let mut idx = line.saturating_sub(2);
    // Set while walking up through a multi-line `#[...]` from its `)]`.
    let mut in_attr = false;
    loop {
        let Some(raw) = scan.raw_lines.get(idx) else {
            return false;
        };
        let t = raw.trim_start();
        if in_attr {
            in_attr = !t.starts_with("#[");
        } else if t.starts_with("///") && t.contains("# Panics") {
            return true;
        } else if t == ")]" {
            in_attr = true;
        } else if !(t.starts_with("///") || t.starts_with("#[") || t.starts_with("//")) {
            return false;
        }
        if idx == 0 {
            return false;
        }
        idx -= 1;
    }
}

/// Loads the hot-path manifest under `root`; a missing file is an
/// empty manifest (fixture trees without hot paths stay silent).
#[must_use]
pub(crate) fn load_manifest(root: &Path) -> String {
    fs::read_to_string(root.join(MANIFEST_FILE)).unwrap_or_default()
}

/// Runs the effect enforcement rules: hot-root forbidden effects from
/// the `hotpaths.txt` manifest (see [`load_manifest`]), and
/// panic-hygiene on the `pub` surface of `odr-core`/`odr-obs`. `scans`
/// must be the slice the graph was built from.
pub fn effect_rules(
    graph: &CallGraph,
    scans: &[FileScan],
    manifest_text: &str,
    allow: &Allowlist,
    report: &mut LintReport,
) {
    let mscan = scan_file(MANIFEST_FILE, manifest_text);
    let (roots, problems) = parse_manifest(manifest_text);
    for (line_idx, msg) in problems {
        push_violation(report, allow, &mscan, line_idx, "effect/manifest", msg);
    }
    let effects = propagate(graph, scans);
    for hot in &roots {
        let Some(node) = graph.fns.get(&hot.id) else {
            push_violation(
                report,
                allow,
                &mscan,
                hot.line_idx,
                "effect/manifest",
                format!(
                    "hot-path root `{}` is not a workspace function (stale manifest entry?)",
                    hot.id
                ),
            );
            continue;
        };
        let Some(effs) = effects.get(&hot.id) else {
            continue;
        };
        let Some(scan) = scans.get(node.file_idx) else {
            continue;
        };
        for f in &hot.forbid {
            if effs.contains_key(f) {
                push_violation(
                    report,
                    allow,
                    scan,
                    node.line - 1,
                    f.hot_rule(),
                    format!(
                        "hot path reaches {}: {}",
                        f.describe(),
                        chain_of(&effects, graph, *f, &hot.id)
                    ),
                );
            }
        }
    }
    // Panic hygiene on the public surface of the foundational crates: a
    // `pub fn` that can panic must either return `OdrResult` or carry a
    // `# Panics` doc section.
    for node in graph.fns.values() {
        if !node.is_pub || node.cfg_test {
            continue;
        }
        let krate = crate_of(&node.rel_path);
        if krate != "core" && krate != "obs" {
            continue;
        }
        let Some(effs) = effects.get(&node.id) else {
            continue;
        };
        if !effs.contains_key(&Effect::Panics) || returns_odr_result(&node.signature) {
            continue;
        }
        let Some(scan) = scans.get(node.file_idx) else {
            continue;
        };
        if docs_panics(scan, node.line) {
            continue;
        }
        push_violation(
            report,
            allow,
            scan,
            node.line - 1,
            "effect/pub-panic",
            format!(
                "pub fn can panic but neither returns OdrResult nor documents `# Panics`: {}",
                chain_of(&effects, graph, Effect::Panics, &node.id)
            ),
        );
    }
}

/// Renders the committed effect surface: one `id | effects` line per
/// production function with a non-empty effect set, sorted; a `!`
/// suffix marks a direct (own-body) effect as opposed to an inherited
/// one.
#[must_use]
pub fn render_surface(graph: &CallGraph, scans: &[FileScan]) -> String {
    let effects = propagate(graph, scans);
    let mut text = String::new();
    for (id, effs) in &effects {
        if graph.fns.get(id).is_none_or(|n| n.cfg_test) {
            continue;
        }
        let rendered: Vec<String> = effs
            .iter()
            .map(|(e, via)| {
                let direct = matches!(via, Via::Direct(_));
                format!("{}{}", e.label(), if direct { "!" } else { "" })
            })
            .collect();
        text.push_str(&format!("{id} | {}\n", rendered.join(",")));
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::graph_with;

    /// The effect table of `files`, over the given call edges (caller,
    /// callee, line, column past the callee's name).
    fn effects_of(
        files: &[(&str, &str)],
        edges: &[(&str, &str, usize, usize)],
    ) -> (EffectMap, CallGraph) {
        let (graph, scans) = graph_with(files, edges);
        let map = propagate(&graph, &scans);
        (map, graph)
    }

    fn kinds(map: &EffectMap, id: &str) -> Vec<Effect> {
        map.get(id)
            .map(|m| m.keys().copied().collect())
            .unwrap_or_default()
    }

    #[test]
    fn direct_panic_alloc_block_classified() {
        let (map, _) = effects_of(
            &[(
                "crates/fleet/src/engine.rs",
                "pub fn p(x: Option<u8>) -> u8 { x.unwrap() }\n\
                 pub fn a() -> Vec<u8> { vec![1] }\n\
                 pub fn b(m: &std::sync::Mutex<u8>) { let _g = m.lock(); }\n\
                 pub fn c() -> Vec<u8> { Vec::with_capacity(8) }\n\
                 pub fn d(v: Option<&str>) -> Option<String> { v.map(String::from) }\n\
                 pub fn none(v: &[String]) -> (Vec<u8>, Option<&str>) { (Vec::new(), v.first().map(String::as_str)) }\n",
            )],
            &[],
        );
        assert_eq!(kinds(&map, "odr_fleet::engine::p"), vec![Effect::Panics]);
        assert_eq!(kinds(&map, "odr_fleet::engine::a"), vec![Effect::Allocates]);
        assert_eq!(kinds(&map, "odr_fleet::engine::b"), vec![Effect::Blocks]);
        assert_eq!(kinds(&map, "odr_fleet::engine::c"), vec![Effect::Allocates]);
        assert_eq!(kinds(&map, "odr_fleet::engine::d"), vec![Effect::Allocates]);
        // `Vec::new` allocates nothing, and a method passed as a path is
        // no constructor.
        assert_eq!(kinds(&map, "odr_fleet::engine::none"), vec![]);
    }

    #[test]
    fn effects_propagate_transitively_with_witness_chain() {
        let (map, graph) = effects_of(
            &[(
                "crates/fleet/src/engine.rs",
                "pub fn top() { mid(); }\n\
                 fn mid() { leaf(); }\n\
                 fn leaf() { panic!(\"boom\"); }\n",
            )],
            &[
                ("odr_fleet::engine::top", "odr_fleet::engine::mid", 1, 19),
                ("odr_fleet::engine::mid", "odr_fleet::engine::leaf", 2, 16),
            ],
        );
        assert_eq!(kinds(&map, "odr_fleet::engine::top"), vec![Effect::Panics]);
        let chain = chain_of(&map, &graph, Effect::Panics, "odr_fleet::engine::top");
        assert!(
            chain.contains("top -> odr_fleet::engine::mid -> odr_fleet::engine::leaf"),
            "{chain}"
        );
        assert!(
            chain.contains("`panic!` at crates/fleet/src/engine.rs:3"),
            "{chain}"
        );
    }

    #[test]
    fn cold_barrier_stops_alloc_but_not_panic() {
        let (map, _) = effects_of(
            &[(
                "crates/fleet/src/engine.rs",
                "pub fn hot() { slow(); }\n\
                 #[cold]\nfn slow() { let v = vec![1]; panic!(\"x\"); }\n",
            )],
            &[("odr_fleet::engine::hot", "odr_fleet::engine::slow", 1, 20)],
        );
        let hot = kinds(&map, "odr_fleet::engine::hot");
        assert!(!hot.contains(&Effect::Allocates), "{hot:?}");
        assert!(hot.contains(&Effect::Panics), "{hot:?}");
    }

    #[test]
    fn graph_resolved_method_calls_do_not_hit_textual_tables() {
        // `q.push(..)` is an edge to the workspace `Q::push`, whose body
        // is effect-free — so no `Vec::push` allocation is charged; the
        // `v.push(..)` beside it, no edge ending at its name, is one.
        let src = "pub struct Q { n: u32 }\n\
                   impl Q { pub fn push(&mut self, x: u32) { self.n = x; } }\n\
                   pub fn drive(q: &mut Q) { q.push(7); }\n\
                   pub fn both(q: &mut Q, v: &mut Vec<u32>) { q.push(7); v.push(7); }\n";
        let (map, _) = effects_of(
            &[("crates/fleet/src/engine.rs", src)],
            &[
                (
                    "odr_fleet::engine::drive",
                    "odr_fleet::engine::Q::push",
                    3,
                    33,
                ),
                (
                    "odr_fleet::engine::both",
                    "odr_fleet::engine::Q::push",
                    4,
                    50,
                ),
            ],
        );
        assert_eq!(kinds(&map, "odr_fleet::engine::drive"), vec![]);
        assert_eq!(
            kinds(&map, "odr_fleet::engine::both"),
            vec![Effect::Allocates]
        );
    }

    #[test]
    fn debug_assert_and_literal_index_are_exempt() {
        let (map, _) = effects_of(
            &[(
                "crates/fleet/src/engine.rs",
                "pub fn f(buf: &[u8; 4]) -> u8 { debug_assert!(buf.len() == 4); buf[0] }\n",
            )],
            &[],
        );
        assert_eq!(kinds(&map, "odr_fleet::engine::f"), vec![]);
    }

    #[test]
    fn variable_index_and_division_panic() {
        let (map, _) = effects_of(
            &[(
                "crates/fleet/src/engine.rs",
                "pub fn i(buf: &[u8], k: usize) -> u8 { buf[k] }\n\
                 pub fn m(a: u64, b: u64) -> u64 { a % b }\n\
                 pub fn d(b: u64) -> u64 { 100 / b }\n\
                 pub fn f(x: f64) -> f64 { 1.0 / x }\n",
            )],
            &[],
        );
        assert_eq!(kinds(&map, "odr_fleet::engine::i"), vec![Effect::Panics]);
        assert_eq!(kinds(&map, "odr_fleet::engine::m"), vec![Effect::Panics]);
        assert_eq!(kinds(&map, "odr_fleet::engine::d"), vec![Effect::Panics]);
        // Float division cannot panic — a float-literal dividend is exempt.
        assert_eq!(kinds(&map, "odr_fleet::engine::f"), vec![]);
    }

    fn rules_on(
        files: &[(&str, &str)],
        edges: &[(&str, &str, usize, usize)],
        manifest: &str,
    ) -> LintReport {
        let (graph, scans) = graph_with(files, edges);
        let mut report = LintReport::default();
        effect_rules(&graph, &scans, manifest, &Allowlist::default(), &mut report);
        report
    }

    #[test]
    fn hot_root_violations_report_exact_rule_and_line() {
        let report = rules_on(
            &[(
                "crates/fleet/src/engine.rs",
                "pub fn step() { helper(); }\n\
                 fn helper() { let v: Vec<u8> = Vec::with_capacity(4); }\n",
            )],
            &[(
                "odr_fleet::engine::step",
                "odr_fleet::engine::helper",
                1,
                23,
            )],
            "# roots\nodr_fleet::engine::step | alloc,block\n",
        );
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        let v = &report.violations[0];
        assert_eq!(v.rule, "effect/hot-alloc");
        assert_eq!(v.line, 1);
        assert!(
            v.message.contains("step -> odr_fleet::engine::helper"),
            "{}",
            v.message
        );
    }

    #[test]
    fn stale_manifest_root_is_flagged() {
        let report = rules_on(
            &[("crates/fleet/src/engine.rs", "pub fn f() {}\n")],
            &[],
            "odr_fleet::engine::gone | panic\n",
        );
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert_eq!(report.violations[0].rule, "effect/manifest");
    }

    #[test]
    fn pub_panic_requires_result_or_doc() {
        let report = rules_on(
            &[(
                "crates/core/src/thing.rs",
                "pub fn bad(x: Option<u8>) -> u8 { x.unwrap() }\n\
                 /// Fine.\n///\n/// # Panics\n/// When `x` is `None`.\n\
                 pub fn documented(x: Option<u8>) -> u8 { x.unwrap() }\n\
                 /// Fine too.\n///\n/// # Panics\n/// When `x` is `None`.\n\
                 #[must_use]\n#[expect(\n    clippy::unwrap_used,\n    reason = \"a probe\"\n)]\n\
                 pub fn attributed(x: Option<u8>) -> u8 { x.unwrap() }\n\
                 pub fn fallible(x: Option<u8>) -> OdrResult<u8> { Ok(x.unwrap()) }\n",
            )],
            &[],
            "",
        );
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        let v = &report.violations[0];
        assert_eq!(v.rule, "effect/pub-panic");
        assert_eq!(v.line, 1);
    }

    #[test]
    fn surface_marks_direct_effects_with_bang() {
        let (graph, scans) = graph_with(
            &[(
                "crates/fleet/src/engine.rs",
                "pub fn top() { leaf(); }\n\
                 fn leaf() { panic!(\"x\"); }\n",
            )],
            &[("odr_fleet::engine::top", "odr_fleet::engine::leaf", 1, 20)],
        );
        let surface = render_surface(&graph, &scans);
        assert!(
            surface.contains("odr_fleet::engine::leaf | panic!\n"),
            "{surface}"
        );
        assert!(
            surface.contains("odr_fleet::engine::top | panic\n"),
            "{surface}"
        );
    }

    #[test]
    fn manifest_parser_rejects_junk() {
        let (_, problems) = parse_manifest("a::b\nc::d | zap\ne::f |\n# ok\n\ng::h | panic\n");
        assert_eq!(problems.len(), 3, "{problems:?}");
        let (roots, _) = parse_manifest("g::h | panic , alloc\n");
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].forbid, vec![Effect::Panics, Effect::Allocates]);
    }
}
