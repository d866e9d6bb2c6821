//! The intra-workspace call graph: every function the item extractor
//! finds, every call site its body contains, and a *name-resolution-lite*
//! pass that turns call sites into edges between workspace functions.
//!
//! This is the semantic layer the PR-6 passes share. The per-file lexer
//! ([`crate::lex`]) and item extractor ([`crate::items`]) see one file at
//! a time; the call graph stitches them into a whole-program view so
//! that:
//!
//! * the determinism taint pass ([`crate::taint`]) can follow a wall-clock
//!   read, or a call into the real-time layer, through any number of
//!   helper calls back into pure-sim code — even where Cargo's dependency
//!   graph allows the call (e.g. `odr-obs`'s sanctioned wall-clock
//!   module);
//! * the effect pass ([`crate::effects`]) can carry alloc/block/panic
//!   facts caller-ward, which the lock-discipline pass reads to see a
//!   blocking call hidden behind any chain of calls made under a guard.
//!
//! **Resolution is deliberately "lite"** — there is no type inference.
//! A call site resolves when one of these succeeds, in order:
//!
//! 1. plain calls (`helper(..)`) against the enclosing module's
//!    functions, then the file's `use` map;
//! 2. path calls (`crate::x::f`, `self::f`, `super::f`,
//!    `odr_core::swap::f`, `Type::method`) against the workspace symbol
//!    table, with `use`-map expansion of the first segment and a
//!    re-export fallback that matches `Type::method` by type base name
//!    (a `use` path's own `crate`/`self`/`super` head expands as the
//!    call's would);
//! 3. method calls (`recv.method(..)`): `self.method(..)` against the
//!    enclosing impl's type, or a receiver whose type is pinned by a
//!    typed parameter (`clock: &MonoClock`) or a local `let v: T` /
//!    `let v = T::new(..)` / `let v = T { ..` binding. There is
//!    deliberately no resolve-by-method-name fallback: `iter`, `min`,
//!    `wait` and friends collide with std constantly.
//!
//! Unresolvable call sites (std/external calls, unpinned receivers)
//! produce no edge; the count is kept for diagnostics, and so is the
//! count of those that call a method name some workspace type defines
//! (where a missed edge may hide). The graph is an
//! under-approximation by construction, which is the right polarity for
//! the taint pass's job here: every edge it *does* contain is real, so a
//! finding is actionable, and clippy's path bans (`clippy.toml`) cover
//! the sources themselves.
//!
//! `odr-check callgraph` prints the serialized graph (`caller -> callee`,
//! sorted, test edges excluded). It is not committed as a snapshot of its
//! own: every edge feeds `effect-surface.txt`, which is, and the fixture
//! workspaces pin resolution edge by edge.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

use crate::items::{Item, ItemKind, Vis};
use crate::lex::{TokKind, Token};
use crate::lint::FileScan;

/// One function definition in the workspace.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Fully qualified id: `crate_root::mods::name` or
    /// `crate_root::mods::Type::name` for impl/trait methods.
    pub id: String,
    /// Index of the defining file in the scan list the graph was built
    /// from.
    pub file_idx: usize,
    /// Defining file, repo-root relative.
    pub rel_path: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// `true` when the item (or one of its ancestors) is `#[cfg(test)]`.
    pub cfg_test: bool,
    /// Token-index range of the body in the defining file's token
    /// stream; `None` for bodyless trait-method declarations.
    pub body: Option<(usize, usize)>,
    /// `true` for `pub fn` (unrestricted visibility).
    pub is_pub: bool,
    /// The rendered signature (as produced by the item extractor).
    pub signature: String,
    /// `true` when the fn carries `#[cold]` — the effect pass treats it
    /// as an out-of-line slow path (see [`crate::effects`]).
    pub cold: bool,
}

/// One resolved call edge.
#[derive(Debug, Clone)]
pub struct Edge {
    /// Caller function id.
    pub caller: String,
    /// Callee function id (always a workspace function).
    pub callee: String,
    /// Caller's file, repo-root relative.
    pub rel_path: String,
    /// 1-based call-site line.
    pub line: usize,
    /// `true` when the call site sits in test-only code.
    pub in_test: bool,
}

/// The whole-workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Every workspace function, keyed by id.
    pub fns: BTreeMap<String, FnNode>,
    /// Every resolved call edge, in deterministic (file, line) order.
    pub edges: Vec<Edge>,
    /// Call sites that produced no edge (std/external/ambiguous).
    pub unresolved: usize,
    /// The unresolved method-call sites outside test code whose method
    /// name some workspace type defines: the resolver's blind spots, as
    /// opposed to std calls (a std name a workspace type shares, such as
    /// `len`, still counts).
    pub unresolved_workspace: usize,
}

impl CallGraph {
    /// Renders the graph as text: one `caller -> callee` line
    /// per unique non-test edge, sorted, LF-terminated.
    #[must_use]
    pub fn render(&self) -> String {
        let mut lines: BTreeSet<String> = BTreeSet::new();
        for e in &self.edges {
            if !e.in_test {
                lines.insert(format!("{} -> {}", e.caller, e.callee));
            }
        }
        let mut text = lines.into_iter().collect::<Vec<_>>().join("\n");
        if !text.is_empty() {
            text.push('\n');
        }
        text
    }
}

/// How a function acquired one fact (a taint source, an effect):
/// directly, with the owning pass's witness, or via a callee (the
/// witness edge for chain reconstruction).
#[derive(Debug, Clone)]
pub(crate) enum Via<W> {
    /// The body itself has it.
    Direct(W),
    /// Inherited from this callee.
    Call(String),
}

/// A per-function fact table: fn id → fact → how it got there.
pub(crate) type Reach<K, W> = BTreeMap<String, BTreeMap<K, Via<W>>>;

/// The caller-ward fixpoint the taint and effect passes share: starting
/// from each pass's `direct` classification, a caller inherits every
/// fact of its callees over the graph's non-test edges, except where
/// `crosses(edge, fact)` says the fact stops at the callee. Edge count is
/// small (hundreds), so the naive loop converges fast and
/// deterministically (BTreeMap iteration order).
pub(crate) fn propagate<K: Ord + Copy, W>(
    graph: &CallGraph,
    direct: Reach<K, W>,
    crosses: impl Fn(&Edge, K) -> bool,
) -> Reach<K, W> {
    let mut reach = direct;
    loop {
        let mut changed = false;
        for e in &graph.edges {
            if e.in_test {
                continue;
            }
            let callee_facts: Vec<K> = reach
                .get(&e.callee)
                .map(|m| m.keys().copied().collect())
                .unwrap_or_default();
            for fact in callee_facts {
                if !crosses(e, fact) {
                    continue;
                }
                let inherited = reach.entry(e.caller.clone()).or_default();
                if let Entry::Vacant(slot) = inherited.entry(fact) {
                    slot.insert(Via::Call(e.callee.clone()));
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    reach
}

/// Renders the witness chain from `id` down to the function that has
/// `fact` directly: `a::f -> b::g`, followed by whatever `render_leaf`
/// makes of that function's id and witness.
pub(crate) fn chain_of<K: Ord, W>(
    reach: &Reach<K, W>,
    fact: K,
    id: &str,
    render_leaf: impl Fn(&str, &W) -> String,
) -> String {
    let mut chain = String::new();
    let mut cur = id;
    for _ in 0..32 {
        chain.push_str(cur);
        match reach.get(cur).and_then(|m| m.get(&fact)) {
            Some(Via::Call(next)) => {
                chain.push_str(" -> ");
                cur = next;
            }
            Some(Via::Direct(witness)) => {
                chain.push_str(&render_leaf(cur, witness));
                return chain;
            }
            None => return chain,
        }
    }
    chain.push('…');
    chain
}

/// Reads the `[package] name` out of a `Cargo.toml`.
pub(crate) fn package_name(manifest: &Path) -> Option<String> {
    let text = fs::read_to_string(manifest).ok()?;
    let mut in_package = false;
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(rest) = rest.strip_prefix('=') {
                    return Some(rest.trim().trim_matches('"').to_string());
                }
            }
        }
    }
    None
}

/// Splits a repo-relative source path into its manifest directory and
/// in-crate module path. Binary roots get a `bin::<name>` pseudo-module
/// so their call sites still resolve (they are callers, never callees);
/// a `src/bin/<name>/main.rs` roots its modules there, as a `mod.rs` does.
fn module_path_of(rel: &str) -> Option<(String, Vec<String>)> {
    let (manifest, src_rel) = if let Some(rest) = rel.strip_prefix("crates/") {
        let (krate, rest) = rest.split_once('/')?;
        (format!("crates/{krate}"), rest.strip_prefix("src/")?)
    } else if let Some(rest) = rel.strip_prefix("shims/") {
        let (krate, rest) = rest.split_once('/')?;
        (format!("shims/{krate}"), rest.strip_prefix("src/")?)
    } else if let Some(rest) = rel.strip_prefix("src/") {
        (String::new(), rest)
    } else {
        return None;
    };
    let comps: Vec<&str> = src_rel.split('/').collect();
    let mut mods: Vec<String> = Vec::new();
    for (i, comp) in comps.iter().enumerate() {
        let last = i + 1 == comps.len();
        if last {
            match *comp {
                "lib.rs" | "mod.rs" => {}
                "main.rs" if comps.len() == 3 && comps[0] == "bin" => {}
                "main.rs" => mods.push("main".to_string()),
                file => mods.push(file.trim_end_matches(".rs").to_string()),
            }
        } else {
            mods.push((*comp).to_string());
        }
    }
    Some((manifest, mods))
}

/// Rust keywords that can directly precede `(` without being calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "match", "for", "loop", "return", "in", "as", "move", "fn", "let", "else",
    "unsafe", "where", "impl", "dyn", "ref", "mut", "box", "await", "break", "continue",
];

/// Per-file symbol context used during resolution.
struct FileCtx {
    /// Crate root module (`odr_fleet`), `-` already mapped to `_`.
    crate_root: String,
    /// Module path of the file inside its crate.
    mods: Vec<String>,
    /// `use` map: local name → full `::`-joined path.
    uses: BTreeMap<String, String>,
}

/// The workspace symbol tables call sites resolve against.
#[derive(Default)]
struct Symbols {
    /// (module, name) → free function id.
    free: BTreeMap<(String, String), String>,
    /// (Type, name) → method ids.
    methods: BTreeMap<(String, String), Vec<String>>,
    /// (Type, field) → field type base.
    fields: FieldMap,
    /// Every workspace crate's root module.
    crate_roots: BTreeSet<String>,
    /// Every method name some workspace type defines.
    method_names: BTreeSet<String>,
}

/// A raw call site extracted from a function body.
#[derive(Debug)]
enum RawCall {
    /// `name(..)`, `a::b::name(..)` — `segs` ends with the callee name.
    Path { segs: Vec<String>, line: usize },
    /// `recv.name(..)` — receiver is a normalized chain (`self.field`,
    /// `q`), or empty when it is a call result / literal.
    Method {
        recv: String,
        name: String,
        line: usize,
    },
}

/// Builds the call graph over a scanned file set. `root` is only used to
/// read `Cargo.toml` package names; `scans` must hold repo-root-relative
/// paths (the same shape [`crate::lint::load_workspace`] produces).
#[must_use]
pub fn build_graph(root: &Path, scans: &[FileScan]) -> CallGraph {
    let mut graph = CallGraph::default();
    let mut pkg_cache: BTreeMap<String, Option<String>> = BTreeMap::new();
    let mut ctxs: Vec<Option<FileCtx>> = Vec::new();

    // ---- phase 1: definitions + per-file symbol contexts -------------
    let mut syms = Symbols::default();

    for (idx, scan) in scans.iter().enumerate() {
        let Some((manifest, mods)) = module_path_of(&scan.rel_path) else {
            ctxs.push(None);
            continue;
        };
        let pkg = pkg_cache
            .entry(manifest.clone())
            .or_insert_with(|| {
                let path = if manifest.is_empty() {
                    root.join("Cargo.toml")
                } else {
                    root.join(&manifest).join("Cargo.toml")
                };
                package_name(&path)
            })
            .clone();
        let Some(pkg) = pkg else {
            ctxs.push(None);
            continue;
        };
        let crate_root = pkg.replace('-', "_");
        syms.crate_roots.insert(crate_root.clone());
        let mut uses = BTreeMap::new();
        collect_uses(&scan.items, &mut uses);
        let ctx = FileCtx {
            crate_root,
            mods,
            uses,
        };
        collect_defs(
            idx,
            scan,
            &ctx,
            &ctx.mods.clone(),
            &scan.items,
            None,
            false,
            &mut graph.fns,
            &mut syms.free,
            &mut syms.methods,
        );
        collect_fields(scan, &mut syms.fields);
        ctxs.push(Some(ctx));
    }
    syms.method_names = syms.methods.keys().map(|(_, name)| name.clone()).collect();

    // ---- phase 2: call-site extraction + resolution ------------------
    for (idx, scan) in scans.iter().enumerate() {
        let Some(ctx) = &ctxs[idx] else { continue };
        resolve_file(
            scan,
            ctx,
            &ctx.mods.clone(),
            &scan.items,
            None,
            false,
            &syms,
            &mut graph,
        );
    }

    graph
        .edges
        .sort_by(|a, b| (&a.rel_path, a.line, &a.callee).cmp(&(&b.rel_path, b.line, &b.callee)));
    graph
}

/// Records the file's `use` declarations as local-name → full-path
/// entries, expanding `{...}` groups and `as` renames; glob imports are
/// skipped.
fn collect_uses(items: &[Item], out: &mut BTreeMap<String, String>) {
    for item in items {
        match item.kind {
            ItemKind::Use => parse_use_tree(&item.name, out),
            ItemKind::Mod => collect_uses(&item.children, out),
            _ => {}
        }
    }
}

/// Parses one rendered `use` path (as produced by the item extractor,
/// e.g. `odr_pipeline::{run_experiment , ExperimentConfig}`) into the
/// local-name map.
fn parse_use_tree(rendered: &str, out: &mut BTreeMap<String, String>) {
    fn emit(prefix: &str, leaf: &str, out: &mut BTreeMap<String, String>) {
        let leaf = leaf.trim();
        if leaf.is_empty() || leaf == "*" {
            return;
        }
        if let Some((path, alias)) = leaf.split_once('=') {
            // `=` is the sentinel the caller substituted for ` as `.
            let full = join_path(prefix, path.trim());
            out.insert(alias.trim().to_string(), full);
            return;
        }
        if leaf == "self" {
            // `use a::b::{self}` — binds `b`.
            if let Some(last) = prefix.rsplit("::").next() {
                out.insert(last.to_string(), prefix.to_string());
            }
            return;
        }
        let full = join_path(prefix, leaf);
        let local = leaf.rsplit("::").next().unwrap_or(leaf).to_string();
        out.insert(local, full);
    }
    fn join_path(prefix: &str, rest: &str) -> String {
        if prefix.is_empty() {
            rest.to_string()
        } else {
            format!("{prefix}::{rest}")
        }
    }
    // Normalise the rendered spacing: `a::{ b , c }` → tokens around
    // braces and commas. ` as ` must survive space-stripping, so it is
    // rewritten to a `=` sentinel first (`=` cannot occur in use paths).
    let text = rendered.replace(" as ", "=").replace(' ', "");
    // Split at the first `{` (one level of nesting handled recursively).
    if let Some(open) = text.find('{') {
        let prefix = text[..open].trim_end_matches("::").to_string();
        let Some(close) = text.rfind('}') else { return };
        let inner = &text[open + 1..close];
        // Split on top-level commas.
        let mut depth = 0usize;
        let mut start = 0usize;
        for (i, c) in inner.char_indices() {
            match c {
                '{' => depth += 1,
                '}' => depth = depth.saturating_sub(1),
                ',' if depth == 0 => {
                    let part = &inner[start..i];
                    if part.contains('{') {
                        parse_use_tree(&format!("{prefix}::{part}"), out);
                    } else {
                        emit(&prefix, part, out);
                    }
                    start = i + 1;
                }
                _ => {}
            }
        }
        let part = &inner[start..];
        if part.contains('{') {
            parse_use_tree(&format!("{prefix}::{part}"), out);
        } else {
            emit(&prefix, part, out);
        }
    } else {
        emit("", &text, out);
    }
}

fn fn_id(crate_root: &str, mods: &[String], impl_type: Option<&str>, name: &str) -> String {
    let mut id = crate_root.to_string();
    for m in mods {
        id.push_str("::");
        id.push_str(m);
    }
    if let Some(t) = impl_type {
        id.push_str("::");
        id.push_str(t);
    }
    id.push_str("::");
    id.push_str(name);
    id
}

fn mod_key(crate_root: &str, mods: &[String]) -> String {
    let mut key = crate_root.to_string();
    for m in mods {
        key.push_str("::");
        key.push_str(m);
    }
    key
}

#[allow(clippy::too_many_arguments)]
fn collect_defs(
    file_idx: usize,
    scan: &FileScan,
    ctx: &FileCtx,
    mods: &[String],
    items: &[Item],
    impl_type: Option<&str>,
    parent_test: bool,
    fns: &mut BTreeMap<String, FnNode>,
    free: &mut BTreeMap<(String, String), String>,
    methods: &mut BTreeMap<(String, String), Vec<String>>,
) {
    for item in items {
        let in_test = parent_test || item.cfg_test;
        match item.kind {
            ItemKind::Fn => {
                let id = fn_id(&ctx.crate_root, mods, impl_type, &item.name);
                let node = FnNode {
                    id: id.clone(),
                    file_idx,
                    rel_path: scan.rel_path.clone(),
                    line: item.line,
                    cfg_test: in_test,
                    body: item.body,
                    is_pub: item.vis == Vis::Pub,
                    signature: item.signature.clone(),
                    cold: item.attrs.iter().any(|a| a.trim() == "cold"),
                };
                // First definition wins (duplicate ids only arise from
                // cfg-gated twins, which share one body's semantics —
                // prefer the non-test one).
                let entry = fns.entry(id.clone()).or_insert(node.clone());
                if entry.cfg_test && !in_test {
                    *entry = node;
                }
                match impl_type {
                    Some(t) => methods
                        .entry((t.to_string(), item.name.clone()))
                        .or_default()
                        .push(id.clone()),
                    None => {
                        free.entry((mod_key(&ctx.crate_root, mods), item.name.clone()))
                            .or_insert_with(|| id.clone());
                    }
                }
                let _ = id;
            }
            ItemKind::Mod => {
                let mut inner = mods.to_vec();
                inner.push(item.name.clone());
                collect_defs(
                    file_idx,
                    scan,
                    ctx,
                    &inner,
                    &item.children,
                    None,
                    in_test,
                    fns,
                    free,
                    methods,
                );
            }
            ItemKind::Impl | ItemKind::Trait => {
                let ty = if item.name.is_empty() {
                    None
                } else {
                    Some(item.name.as_str())
                };
                collect_defs(
                    file_idx,
                    scan,
                    ctx,
                    mods,
                    &item.children,
                    ty,
                    in_test,
                    fns,
                    free,
                    methods,
                );
            }
            _ => {}
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn resolve_file(
    scan: &FileScan,
    ctx: &FileCtx,
    mods: &[String],
    items: &[Item],
    impl_type: Option<&str>,
    parent_test: bool,
    syms: &Symbols,
    graph: &mut CallGraph,
) {
    for item in items {
        let in_test = parent_test || item.cfg_test;
        match item.kind {
            ItemKind::Fn => {
                let Some((lo, hi)) = item.body else { continue };
                let caller = fn_id(&ctx.crate_root, mods, impl_type, &item.name);
                let toks = &scan.lexed.tokens;
                let body = &toks[lo.min(toks.len())..hi.min(toks.len())];
                let mut locals = param_types(&item.signature);
                locals.extend(local_types(body));
                for call in extract_calls(body) {
                    let (line, target) = match &call {
                        RawCall::Path { segs, line } => {
                            (*line, resolve_path(segs, ctx, mods, impl_type, syms))
                        }
                        RawCall::Method { recv, name, line } => (
                            *line,
                            resolve_method(recv, name, ctx, impl_type, &locals, syms),
                        ),
                    };
                    let in_test = in_test
                        || scan
                            .in_test
                            .get(line.saturating_sub(1))
                            .copied()
                            .unwrap_or(false);
                    match target {
                        Some(callee) => graph.edges.push(Edge {
                            caller: caller.clone(),
                            callee,
                            rel_path: scan.rel_path.clone(),
                            line,
                            in_test,
                        }),
                        None => {
                            graph.unresolved += 1;
                            if let RawCall::Method { name, .. } = &call {
                                if !in_test && syms.method_names.contains(name) {
                                    graph.unresolved_workspace += 1;
                                }
                            }
                        }
                    }
                }
            }
            ItemKind::Mod => {
                let mut inner = mods.to_vec();
                inner.push(item.name.clone());
                resolve_file(
                    scan,
                    ctx,
                    &inner,
                    &item.children,
                    None,
                    in_test,
                    syms,
                    graph,
                );
            }
            ItemKind::Impl | ItemKind::Trait => {
                let ty = if item.name.is_empty() {
                    None
                } else {
                    Some(item.name.as_str())
                };
                resolve_file(scan, ctx, mods, &item.children, ty, in_test, syms, graph);
            }
            _ => {}
        }
    }
}

/// Parses `name : [&] [mut] Type` parameter pairs out of a rendered fn
/// signature (`pub fn stamp ( clock : & MonoClock ) -> u64`), returning
/// parameter → type base name for uppercase-initial (workspace-type)
/// names.
fn param_types(signature: &str) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let words: Vec<&str> = signature.split_whitespace().collect();
    let mut i = 0usize;
    while i + 2 < words.len() {
        // `name :` — skip `::`-joined path words and non-identifiers.
        let name = words[i];
        if words[i + 1] == ":"
            && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_lowercase() || c == '_')
        {
            let mut j = i + 2;
            while j < words.len() && matches!(words[j], "&" | "mut") {
                j += 1;
            }
            if let Some(ty) = words.get(j) {
                // `odr_obs::clock::MonoClock` → `MonoClock`; generics
                // (`Vec < T >`) keep the base name only.
                let base = ty.rsplit("::").next().unwrap_or(ty);
                if starts_uppercase(base) {
                    out.insert(name.to_string(), base.to_string());
                }
            }
        }
        i += 1;
    }
    out
}

/// Scans a body token slice for `let NAME : Type` / `let NAME = Type ::`
/// / `let NAME = Type {` bindings, returning binding → type base name.
fn local_types(body: &[Token]) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let mut i = 0usize;
    while i + 3 < body.len() {
        if body[i].is_ident("let") {
            let mut j = i + 1;
            if body[j].is_ident("mut") {
                j += 1;
            }
            if body[j].kind == TokKind::Ident && j + 1 < body.len() {
                let name = body[j].text.clone();
                // `let v: Type` — type annotation.
                if body[j + 1].is_punct(':') && !body.get(j + 2).is_some_and(|t| t.is_punct(':')) {
                    if let Some(t) = body.get(j + 2) {
                        if t.kind == TokKind::Ident && starts_uppercase(&t.text) {
                            out.insert(name, t.text.clone());
                        }
                    }
                } else if body[j + 1].is_punct('=') {
                    // `let v = Type::..` / `let v = Type { ..`.
                    if let Some(t) = body.get(j + 2) {
                        if t.kind == TokKind::Ident && starts_uppercase(&t.text) {
                            let next_is_path = body.get(j + 3).is_some_and(|n| n.is_punct(':'))
                                && body.get(j + 4).is_some_and(|n| n.is_punct(':'));
                            let next_is_struct = body.get(j + 3).is_some_and(|n| n.is_punct('{'));
                            if next_is_path || next_is_struct {
                                out.insert(name, t.text.clone());
                            }
                        }
                    }
                }
            }
        }
        i += 1;
    }
    out
}

fn starts_uppercase(s: &str) -> bool {
    s.chars().next().is_some_and(|c| c.is_ascii_uppercase())
}

/// Struct-field type table: `(TypeName, field)` → `Some(base)` when the
/// field's type base name is pinned, `None` when two same-named structs
/// disagree (poisoned — such a chain never resolves).
type FieldMap = BTreeMap<(String, String), Option<String>>;

/// Scans one file's token stream for `struct Name { field: Type, .. }`
/// definitions and records each named field's type base name. This is
/// what lets a dotted receiver chain (`self.scratch.events.push(..)`)
/// resolve: the enclosing impl type pins the head, and each field hop
/// walks this table.
fn collect_fields(scan: &FileScan, out: &mut FieldMap) {
    let toks = &scan.lexed.tokens;
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_ident("struct") && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident) {
            let name = toks[i + 1].text.clone();
            // Find the body `{`, skipping generics; `;` / `(` first means
            // a unit or tuple struct (no named fields). A paren inside a
            // `where` clause aborts too — acceptable under-approximation.
            let mut j = i + 2;
            let mut body_open = None;
            while let Some(t) = toks.get(j) {
                if t.is_punct(';') || t.is_punct('(') {
                    break;
                }
                if t.is_punct('{') {
                    body_open = Some(j);
                    break;
                }
                j += 1;
            }
            if let Some(open) = body_open {
                i = parse_struct_fields(toks, open, &name, out);
                continue;
            }
        }
        i += 1;
    }
}

/// Parses the named fields of one struct body (cursor on its `{`),
/// recording `(struct, field) → type base`. Returns the index just past
/// the closing `}`. Conflicting re-definitions poison the entry.
fn parse_struct_fields(toks: &[Token], open: usize, name: &str, out: &mut FieldMap) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('{') {
            depth += 1;
            j += 1;
            continue;
        }
        if t.is_punct('}') {
            depth = depth.saturating_sub(1);
            j += 1;
            if depth == 0 {
                return j;
            }
            continue;
        }
        // A field is `ident :` at depth 1 (not `::`); visibility and
        // attributes never put an ident directly before a single `:`.
        if depth == 1
            && t.kind == TokKind::Ident
            && toks.get(j + 1).is_some_and(|n| n.is_punct(':'))
            && !toks.get(j + 2).is_some_and(|n| n.is_punct(':'))
        {
            let field = t.text.clone();
            // Type base: the first uppercase-initial ident after the `:`,
            // skipping references, lifetimes, `mut`/`dyn`, module paths
            // and array brackets. Lowercase-only types (primitives,
            // tuples) record no base.
            let mut base: Option<String> = None;
            let mut k = j + 2;
            while let Some(tt) = toks.get(k) {
                if tt.is_punct(',') || tt.is_punct('}') {
                    break;
                }
                if tt.kind == TokKind::Ident {
                    if starts_uppercase(&tt.text) {
                        base = Some(tt.text.clone());
                        break;
                    }
                    k += 1;
                    continue;
                }
                k += 1;
            }
            match out.entry((name.to_string(), field)) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(base);
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    if *e.get() != base {
                        e.insert(None);
                    }
                }
            }
        }
        j += 1;
    }
    toks.len()
}

/// Extracts raw call sites from a body token slice.
fn extract_calls(body: &[Token]) -> Vec<RawCall> {
    let mut out = Vec::new();
    for i in 0..body.len() {
        let t = &body[i];
        if t.kind != TokKind::Ident || NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
            continue;
        }
        // Macro invocation: `name!(..)` — not a function call.
        if body.get(i + 1).is_some_and(|n| n.is_punct('!')) {
            continue;
        }
        // `name(`, or `name::<T>(` (turbofish).
        let after = match body.get(i + 1) {
            Some(n) if n.is_punct('(') => i + 1,
            Some(n)
                if n.is_punct(':')
                    && body.get(i + 2).is_some_and(|n| n.is_punct(':'))
                    && body.get(i + 3).is_some_and(|n| n.is_punct('<')) =>
            {
                match skip_generic_args(body, i + 3) {
                    Some(j) if body.get(j).is_some_and(|n| n.is_punct('(')) => j,
                    _ => continue,
                }
            }
            _ => continue,
        };
        let _ = after;
        if i > 0 && body[i - 1].is_punct('.') {
            // Method call: walk the receiver chain backwards.
            let recv = method_receiver(body, i - 1);
            out.push(RawCall::Method {
                recv,
                name: t.text.clone(),
                line: t.line,
            });
            continue;
        }
        // Path call: collect `seg::seg::name` backwards.
        let mut segs = vec![t.text.clone()];
        let mut j = i;
        while j >= 2
            && body[j - 1].is_punct(':')
            && body[j - 2].is_punct(':')
            && j >= 3
            && body[j - 3].kind == TokKind::Ident
        {
            segs.push(body[j - 3].text.clone());
            j -= 3;
        }
        // A path segment preceded by `.` means the whole thing hangs off
        // a method chain (`x.f::<T>()` handled above; `x.mod::f` is not
        // valid Rust) — treat as method-of-unknown.
        if j > 0 && body[j - 1].is_punct('.') {
            out.push(RawCall::Method {
                recv: String::new(),
                name: t.text.clone(),
                line: t.line,
            });
            continue;
        }
        segs.reverse();
        out.push(RawCall::Path { segs, line: t.line });
    }
    out
}

/// Given the index of a `<` token, returns the index just past the
/// matching `>`.
fn skip_generic_args(body: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut j = open;
    while j < body.len() {
        if body[j].is_punct('<') {
            depth += 1;
        } else if body[j].is_punct('>') {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return Some(j + 1);
            }
        }
        j += 1;
    }
    None
}

/// Walks backwards from the `.` of a method call, returning the
/// normalized receiver chain (`self.field`, `q`), or `""` when the
/// receiver is a call result or literal.
fn method_receiver(body: &[Token], dot: usize) -> String {
    let mut parts: Vec<String> = Vec::new();
    let mut j = dot;
    loop {
        if j == 0 {
            break;
        }
        let prev = &body[j - 1];
        if prev.kind == TokKind::Ident {
            parts.push(prev.text.clone());
            j -= 1;
            if j >= 1 && body[j - 1].is_punct('.') {
                j -= 1;
                continue;
            }
            break;
        }
        if prev.is_punct(')') {
            return String::new(); // call-result receiver
        }
        break;
    }
    parts.reverse();
    parts.join(".")
}

/// How many leading segments of the module path `mods` name the root
/// `crate::` refers to: a binary's own (`bin::<name>`, or `main` for
/// `src/main.rs`), else none, the library's.
fn root_len(mods: &[String]) -> usize {
    match mods.first().map(String::as_str) {
        Some("bin") => mods.len().min(2),
        Some("main") => 1,
        _ => 0,
    }
}

/// `path` with a leading `crate`, `self` or `super` chain expanded to
/// the crate root and module path, seen from module `mods`; any other
/// path as it is.
fn absolute(path: &[String], crate_root: &str, mods: &[String]) -> Vec<String> {
    let (kept, rest) = match path.first().map(String::as_str) {
        Some("crate") => (root_len(mods), 1),
        Some("self") => (mods.len(), 1),
        Some("super") => {
            let ups = path.iter().take_while(|s| *s == "super").count();
            (mods.len().saturating_sub(ups), ups)
        }
        _ => return path.to_vec(),
    };
    std::iter::once(crate_root)
        .chain(mods.iter().take(kept).map(String::as_str))
        .chain(path.iter().skip(rest).map(String::as_str))
        .map(str::to_string)
        .collect()
}

/// Resolves a free/path call against the symbol tables. Returns the
/// callee id or `None` (external / unresolvable).
fn resolve_path(
    segs: &[String],
    ctx: &FileCtx,
    mods: &[String],
    impl_type: Option<&str>,
    syms: &Symbols,
) -> Option<String> {
    // A `use` entry, expanded as seen from the caller's module.
    let used = |local: &str| {
        let path: Vec<String> = ctx
            .uses
            .get(local)?
            .split("::")
            .map(str::to_string)
            .collect();
        Some(absolute(&path, &ctx.crate_root, mods))
    };
    let (name, prefix) = segs.split_last()?;
    if prefix.is_empty() {
        // Plain `helper(..)`: enclosing module first, then the use map.
        if let Some(id) = syms
            .free
            .get(&(mod_key(&ctx.crate_root, mods), name.clone()))
        {
            return Some(id.clone());
        }
        // Crate root fns are visible from anywhere within the crate
        // through re-exports in practice; only exact-module hits count
        // here to keep edges real.
        return resolve_full(&used(name)?, ctx, syms);
    }
    // `Self::helper(..)` — the enclosing impl's type.
    if prefix.len() == 1 && prefix[0] == "Self" {
        if let Some(t) = impl_type {
            return pick_method(
                syms.methods.get(&(t.to_string(), name.clone())),
                &ctx.crate_root,
            );
        }
        return None;
    }
    // Expand the head segment.
    let mut full = match prefix[0].as_str() {
        "crate" | "self" | "super" => absolute(prefix, &ctx.crate_root, mods),
        head if ctx.uses.contains_key(head) => {
            let mut full = used(head)?;
            full.extend(prefix[1..].iter().cloned());
            full
        }
        head if syms.crate_roots.contains(head) => prefix.to_vec(),
        head if prefix.len() == 1 && starts_uppercase(head) => {
            // `Type::method(..)` with the type in scope without a use
            // (same module, or prelude re-export).
            return pick_method(
                syms.methods.get(&(head.to_string(), name.clone())),
                &ctx.crate_root,
            );
        }
        _ => {
            // Sibling module path (`swap::publish(..)` without a use).
            let mut full = vec![ctx.crate_root.clone()];
            full.extend(mods.iter().cloned());
            full.extend(prefix.iter().cloned());
            full
        }
    };
    full.push(name.clone());
    resolve_full(&full, ctx, syms)
}

/// Resolves a fully expanded path (`crate_root::mods..::name`, possibly
/// with a `Type` as the second-to-last segment).
fn resolve_full(full: &[String], ctx: &FileCtx, syms: &Symbols) -> Option<String> {
    let (name, prefix) = full.split_last()?;
    if prefix.is_empty() {
        return None;
    }
    if !syms.crate_roots.contains(&prefix[0]) {
        return None; // std / external crate
    }
    // Free function at the exact module path.
    let key = (prefix.join("::"), name.clone());
    if let Some(id) = syms.free.get(&key) {
        return Some(id.clone());
    }
    // `path::Type::method` — exact id match first (type at its defining
    // module), then by type base name (re-export fallback).
    let exact = format!("{}::{}", prefix.join("::"), name);
    if let Some((ty, _)) = prefix.split_last() {
        if starts_uppercase(ty) {
            if let Some(cands) = syms.methods.get(&(ty.clone(), name.clone())) {
                if let Some(hit) = cands.iter().find(|id| **id == exact) {
                    return Some(hit.clone());
                }
                return pick_method(Some(cands), &ctx.crate_root);
            }
        }
    }
    None
}

/// Picks one method candidate: unique, or unique within the caller's
/// crate. Ambiguity yields no edge.
fn pick_method(cands: Option<&Vec<String>>, crate_root: &str) -> Option<String> {
    let cands = cands?;
    let uniq: BTreeSet<&String> = cands.iter().collect();
    if uniq.len() == 1 {
        return Some((*uniq.iter().next()?).clone());
    }
    let local: Vec<&&String> = uniq
        .iter()
        .filter(|id| id.starts_with(&format!("{crate_root}::")))
        .collect();
    if local.len() == 1 {
        return Some((**local[0]).clone());
    }
    None
}

/// Resolves a method call. `locals` maps let-bound and parameter names
/// to type base names pinned in the same function; dotted receiver
/// chains (`self.scratch.events`) walk the struct-field table from the
/// pinned head type, one hop per field. There is deliberately NO
/// unique-name fallback: common method names (`iter`, `min`, `wait`,
/// `notify_one`…) collide with std types constantly, and a false edge
/// would break the graph's "every edge is real" polarity that the taint
/// and lock passes depend on. An unpinned receiver simply yields no
/// edge.
fn resolve_method(
    recv: &str,
    name: &str,
    ctx: &FileCtx,
    impl_type: Option<&str>,
    locals: &BTreeMap<String, String>,
    syms: &Symbols,
) -> Option<String> {
    if recv.is_empty() {
        return None;
    }
    let mut segs = recv.split('.');
    let head = segs.next()?;
    // The chain head: `self` pins to the enclosing impl type, anything
    // else to a let-bound local or typed parameter.
    let mut ty: String = if head == "self" {
        impl_type?.to_string()
    } else {
        locals.get(head)?.clone()
    };
    // Each remaining segment is a field access; a hop through an unknown
    // or poisoned field kills the chain.
    for field in segs {
        ty = syms.fields.get(&(ty, field.to_string()))?.clone()?;
    }
    pick_method(syms.methods.get(&(ty, name.to_string())), &ctx.crate_root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::scan_file;

    fn graph_of(files: &[(&str, &str)]) -> CallGraph {
        let scans: Vec<FileScan> = files
            .iter()
            .map(|(path, src)| scan_file(path, src))
            .collect();
        // Point at the real repo root so crates/<name>/Cargo.toml package
        // names resolve; tests only use paths under crates that exist.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        build_graph(&root, &scans)
    }

    #[test]
    fn same_module_call_resolves() {
        let g = graph_of(&[(
            "crates/core/src/swap.rs",
            "fn helper() {}\npub fn entry() { helper(); }\n",
        )]);
        assert_eq!(g.edges.len(), 1, "{:?}", g.edges);
        assert_eq!(g.edges[0].caller, "odr_core::swap::entry");
        assert_eq!(g.edges[0].callee, "odr_core::swap::helper");
    }

    #[test]
    fn use_map_resolves_cross_crate_calls() {
        let g = graph_of(&[
            (
                "crates/fleet/src/engine.rs",
                "use odr_pipeline::sim::run_experiment;\n\
                 pub fn run() { run_experiment(); }\n",
            ),
            ("crates/pipeline/src/sim.rs", "pub fn run_experiment() {}\n"),
        ]);
        assert_eq!(g.edges.len(), 1, "{:?}", g.edges);
        assert_eq!(g.edges[0].callee, "odr_pipeline::sim::run_experiment");
    }

    /// An unresolved std call (`.len()` on a `Vec`) counts in the total
    /// only; an unresolved call of a workspace method name (`publish` on
    /// a call result) counts in both, unless it sits in test code.
    #[test]
    fn unresolved_workspace_counts_only_workspace_method_names() {
        let g = graph_of(&[(
            "crates/core/src/swap.rs",
            "pub struct Slot;\n\
             impl Slot { pub fn publish(&self) {} }\n\
             pub fn entry(v: Vec<u8>, s: Slot) { v.len(); s.publish(); slot().publish(); }\n\
             #[cfg(test)]\n\
             mod tests { fn probe() { super::slot().publish(); } }\n",
        )]);
        assert_eq!(g.edges.len(), 1, "{:?}", g.edges);
        // `v.len()`, `slot()` and `slot().publish()`, then the test's
        // `super::slot()` and `.publish()`.
        assert_eq!(g.unresolved, 5);
        assert_eq!(g.unresolved_workspace, 1);
    }

    #[test]
    fn use_group_and_alias_resolve() {
        let g = graph_of(&[
            (
                "crates/fleet/src/lib.rs",
                "use odr_pipeline::sim::{run_experiment as run_one, calibrate};\n\
                 pub fn a() { run_one(); }\n\
                 pub fn b() { calibrate(); }\n",
            ),
            (
                "crates/pipeline/src/sim.rs",
                "pub fn run_experiment() {}\npub fn calibrate() {}\n",
            ),
        ]);
        let callees: Vec<&str> = g.edges.iter().map(|e| e.callee.as_str()).collect();
        assert_eq!(
            callees,
            [
                "odr_pipeline::sim::run_experiment",
                "odr_pipeline::sim::calibrate"
            ]
        );
    }

    #[test]
    fn self_method_and_typed_local_resolve() {
        let g = graph_of(&[(
            "crates/core/src/swap.rs",
            "pub struct Q;\n\
             impl Q {\n\
                 fn inner(&self) {}\n\
                 pub fn outer(&self) { self.inner(); }\n\
                 pub fn mk() -> Q { Q }\n\
             }\n\
             pub fn drive() { let q = Q::mk(); q.outer(); }\n",
        )]);
        let pairs: Vec<(&str, &str)> = g
            .edges
            .iter()
            .map(|e| (e.caller.as_str(), e.callee.as_str()))
            .collect();
        assert!(pairs.contains(&("odr_core::swap::Q::outer", "odr_core::swap::Q::inner")));
        assert!(pairs.contains(&("odr_core::swap::drive", "odr_core::swap::Q::mk")));
        assert!(pairs.contains(&("odr_core::swap::drive", "odr_core::swap::Q::outer")));
    }

    #[test]
    fn crate_and_super_paths_resolve() {
        let g = graph_of(&[
            (
                "crates/core/src/regulator.rs",
                "pub fn decide() { crate::swap::publish(); }\n",
            ),
            ("crates/core/src/swap.rs", "pub fn publish() {}\n"),
        ]);
        assert_eq!(g.edges.len(), 1);
        assert_eq!(g.edges[0].callee, "odr_core::swap::publish");
    }

    #[test]
    fn ambiguous_method_names_produce_no_edge() {
        let g = graph_of(&[(
            "crates/core/src/swap.rs",
            "pub struct A; impl A { pub fn go(&self) {} }\n\
             pub struct B; impl B { pub fn go(&self) {} }\n\
             pub fn drive(x: &X) { x.go(); }\n",
        )]);
        assert!(g.edges.is_empty(), "{:?}", g.edges);
        assert_eq!(g.unresolved, 1);
    }

    #[test]
    fn typed_parameter_receiver_resolves() {
        let g = graph_of(&[
            (
                "crates/obs/src/clock.rs",
                "pub struct MonoClock;\n\
                 impl MonoClock { pub fn now_ns(&self) -> u64 { 0 } }\n",
            ),
            (
                "crates/fleet/src/engine.rs",
                "pub fn stamp(clock: &MonoClock) -> u64 { clock.now_ns() }\n",
            ),
        ]);
        assert_eq!(g.edges.len(), 1, "{:?}", g.edges);
        assert_eq!(g.edges[0].callee, "odr_obs::clock::MonoClock::now_ns");
    }

    #[test]
    fn untyped_receiver_produces_no_edge_even_when_name_is_unique() {
        // No unique-name fallback: `.iter()` / `.wait()` style collisions
        // with std would otherwise fabricate edges.
        let g = graph_of(&[
            (
                "crates/obs/src/clock.rs",
                "pub struct MonoClock;\n\
                 impl MonoClock { pub fn now_ns(&self) -> u64 { 0 } }\n",
            ),
            (
                "crates/fleet/src/engine.rs",
                "pub fn stamp(c: &impl Timer) -> u64 { c.now_ns() }\n",
            ),
        ]);
        assert!(g.edges.is_empty(), "{:?}", g.edges);
        assert_eq!(g.unresolved, 1);
    }

    #[test]
    fn field_chain_receiver_resolves_through_struct_fields() {
        let g = graph_of(&[(
            "crates/core/src/swap.rs",
            "pub struct Inner;\n\
             impl Inner { pub fn tick(&self) {} }\n\
             pub struct Mid { pub inner: Inner }\n\
             pub struct Outer { pub mid: Mid }\n\
             impl Outer {\n\
                 pub fn drive(&self) { self.mid.inner.tick(); }\n\
             }\n\
             pub fn free(o: &Outer) { o.mid.inner.tick(); }\n",
        )]);
        let pairs: Vec<(&str, &str)> = g
            .edges
            .iter()
            .map(|e| (e.caller.as_str(), e.callee.as_str()))
            .collect();
        assert!(
            pairs.contains(&(
                "odr_core::swap::Outer::drive",
                "odr_core::swap::Inner::tick"
            )),
            "{pairs:?}"
        );
        assert!(
            pairs.contains(&("odr_core::swap::free", "odr_core::swap::Inner::tick")),
            "{pairs:?}"
        );
    }

    #[test]
    fn conflicting_same_named_structs_poison_the_field() {
        // Two structs named `S` with a `q` field of different types: the
        // chain must not resolve (a wrong edge is worse than none).
        let g = graph_of(&[(
            "crates/core/src/swap.rs",
            "pub struct A; impl A { pub fn hit(&self) {} }\n\
             pub struct B; impl B { pub fn hit(&self) {} }\n\
             pub struct S { pub q: A }\n\
             mod twin { pub struct S { pub q: super::B } }\n\
             pub fn drive(s: &S) { s.q.hit(); }\n",
        )]);
        assert!(g.edges.is_empty(), "{:?}", g.edges);
    }

    #[test]
    fn fn_nodes_carry_visibility_and_cold_metadata() {
        let g = graph_of(&[(
            "crates/core/src/swap.rs",
            "pub fn api() {}\n\
             #[cold]\nfn slow_path() {}\n",
        )]);
        let api = &g.fns["odr_core::swap::api"];
        assert!(api.is_pub && !api.cold);
        assert!(api.signature.contains("pub fn api"), "{}", api.signature);
        let slow = &g.fns["odr_core::swap::slow_path"];
        assert!(slow.cold && !slow.is_pub);
    }

    #[test]
    fn macros_and_keywords_are_not_calls() {
        let g = graph_of(&[(
            "crates/core/src/swap.rs",
            "pub fn f() { println!(\"x\"); if (a) {} assert_eq!(1, 1); }\n",
        )]);
        assert!(g.edges.is_empty(), "{:?}", g.edges);
    }

    #[test]
    fn test_edges_are_marked_and_excluded_from_render() {
        let g = graph_of(&[(
            "crates/core/src/swap.rs",
            "pub fn helper() {}\n\
             pub fn live() { helper(); }\n\
             #[cfg(test)]\n\
             mod tests { fn t() { crate::swap::helper(); } }\n",
        )]);
        assert_eq!(g.edges.len(), 2, "{:?}", g.edges);
        let rendered = g.render();
        assert!(rendered.contains("odr_core::swap::live -> odr_core::swap::helper"));
        assert!(!rendered.contains("tests"), "{rendered}");
    }

    #[test]
    fn render_is_sorted_and_deterministic() {
        let g = graph_of(&[(
            "crates/core/src/swap.rs",
            "fn z() {}\nfn a() {}\npub fn m() { z(); a(); }\n",
        )]);
        let r1 = g.render();
        let lines: Vec<&str> = r1.lines().collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted);
    }

    #[test]
    fn use_tree_parser_handles_groups_and_self() {
        let mut out = BTreeMap::new();
        parse_use_tree("odr_pipeline::{sim::{run, walk} , config , self}", &mut out);
        assert_eq!(out["run"], "odr_pipeline::sim::run");
        assert_eq!(out["walk"], "odr_pipeline::sim::walk");
        assert_eq!(out["config"], "odr_pipeline::config");
        assert_eq!(out["odr_pipeline"], "odr_pipeline");
    }
}
