//! The intra-workspace call graph: every function the item extractor
//! finds, and an edge for every call rustc's MIR makes between two of
//! them.
//!
//! The nodes come from the item extractor ([`crate::items`]): id,
//! visibility, `#[cold]`, and the body's token range the effect and
//! taint passes classify. The edges come from the compiler: each call
//! terminator of each target's dev-profile MIR ([`crate::mir`]) names
//! its callee by the path rustc resolved, so a method on a `match` or
//! `if let` binding, a `let x = recv.method()` receiver, an operator
//! (`SimTime + Duration` calls `<SimTime as Add>::add`) and an auto-deref
//! all resolve exactly. A closure's calls are its enclosing fn's, as are
//! those of a fn nested in a fn body.
//!
//! Rust's own resolution leaves three kinds of call with no single
//! callee: through `dyn`, through a generic parameter or `Self`, and
//! through a fn pointer. They get no edge and are counted in
//! [`CallGraph::unresolved`]. Calls into std, into derive- or
//! macro-generated fns and of closures get no edge either, and are not
//! counted: their callee is known and is no workspace function. The
//! graph thus still under-approximates the program, which is the right
//! polarity for the passes on it: every edge is a real call, so every
//! finding is actionable.
//!
//! MIR of a `--lib` or `--bin` build holds no `#[cfg(test)]` code, so
//! the graph has no test edges. `odr-check callgraph` prints it (`caller
//! -> callee`, sorted). It is not committed as a snapshot of its own:
//! every edge feeds `effect-surface.txt`, which is, and the fixture
//! workspaces pin resolution edge by edge.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

use crate::items::{Item, ItemKind, Vis};
use crate::lint::FileScan;
use crate::mir::{self, Callee, Target};

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

/// One call edge.
#[derive(Debug, Clone)]
pub struct Edge {
    /// Caller function id.
    pub caller: String,
    /// Callee function id (always a workspace function).
    pub callee: String,
    /// Caller's file, repo-root relative.
    pub rel_path: String,
    /// 1-based line of the callee's name at the call site (the caller's
    /// `fn` line when the call's span lies in another file, as a call
    /// from a macro defined there does).
    pub line: usize,
    /// 1-based column just past the callee's name, as its MIR span ends
    /// (`Token::end` of that name); 0 when no span names it.
    pub col: usize,
}

/// The whole-workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Every workspace function, keyed by id.
    pub fns: BTreeMap<String, FnNode>,
    /// Every call edge, in deterministic (file, line) order.
    pub edges: Vec<Edge>,
    /// MIR calls with no single callee: through `dyn`, a generic
    /// parameter or `Self`, or a fn pointer.
    pub unresolved: usize,
}

impl CallGraph {
    /// Renders the graph as text: one `caller -> callee` line per unique
    /// edge, sorted, LF-terminated.
    #[must_use]
    pub fn render(&self) -> String {
        let lines: BTreeSet<String> = self
            .edges
            .iter()
            .map(|e| format!("{} -> {}", e.caller, e.callee))
            .collect();
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
/// fact of its callees over the graph's edges, except where
/// `crosses(edge, fact)` says the fact stops at the callee. Edge count is
/// small (thousands), so the naive loop converges fast and
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
/// (`main` for a `src/main.rs`), so their ids stay apart from the
/// library's; a `src/bin/<name>/main.rs` roots its modules there, as a
/// `mod.rs` does.
pub(crate) fn module_path_of(rel: &str) -> Option<(String, Vec<String>)> {
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

/// Crates a MIR path may start with that are never the workspace's.
const SYSROOT_CRATES: [&str; 5] = ["std", "core", "alloc", "proc_macro", "test"];

/// What a fn belongs to, for the MIR paths that name it other than by
/// its id.
#[derive(Debug, Clone, PartialEq)]
enum Owner {
    /// A free fn or an inherent method.
    Plain,
    /// A method of `impl Trait for ..`, with the trait's name.
    TraitImpl(String),
    /// A method a trait declares.
    Trait,
}

/// What one MIR call comes to.
enum Resolution {
    /// A workspace fn, by id.
    Edge(String),
    /// No workspace fn: std, a derived or macro-made fn, a closure.
    External,
    /// No single callee: `dyn`, a generic parameter or `Self`, a fn
    /// pointer.
    Unresolved,
}

/// The node registry MIR paths resolve against.
#[derive(Default)]
struct Registry {
    /// The graph under construction; its nodes are complete.
    graph: CallGraph,
    /// `(file, line, col)` of an impl's header → its methods' id prefix.
    impls: BTreeMap<(String, usize, usize), String>,
    /// `(owner, name)` → the fns of that name, where `owner` is the
    /// impl's `Self` type, the declaring trait, or `""` for a free fn.
    members: BTreeMap<(String, String), Vec<(String, Owner)>>,
    /// Every type and trait name the workspace defines.
    types: BTreeSet<String>,
    /// Every workspace crate root (`odr_core`).
    crates: BTreeSet<String>,
}

/// Builds the call graph: the nodes from the scanned files, the edges
/// from each target's MIR text. `root` is only used to read `Cargo.toml`
/// package names; `scans` must hold repo-root-relative paths (the shape
/// [`crate::lint::scan_tree`] produces), as must the MIR's spans.
#[must_use]
pub fn build_graph(root: &Path, scans: &[FileScan], mir: &[(Target, String)]) -> CallGraph {
    let mut reg = Registry::default();
    let mut pkg_cache: BTreeMap<String, Option<String>> = BTreeMap::new();
    for (idx, scan) in scans.iter().enumerate() {
        let Some((manifest, mods)) = module_path_of(&scan.rel_path) else {
            continue;
        };
        let pkg = pkg_cache
            .entry(manifest.clone())
            .or_insert_with(|| package_name(&root.join(&manifest).join("Cargo.toml")));
        let Some(pkg) = pkg else { continue };
        let crate_root = pkg.replace('-', "_");
        reg.crates.insert(crate_root.clone());
        let scope = std::iter::once(crate_root)
            .chain(mods)
            .collect::<Vec<_>>()
            .join("::");
        reg.collect(idx, scan, &scope, &scan.items, None, false);
    }
    for (target, text) in mir {
        for call in mir::parse(text) {
            let Some(caller) = reg.caller_id(&call.caller, &target.scope) else {
                continue;
            };
            let callee = match reg.callee_id(&call.callee, &target.scope) {
                Resolution::Edge(id) => id,
                Resolution::External => continue,
                Resolution::Unresolved => {
                    reg.graph.unresolved += 1;
                    continue;
                }
            };
            let node = &reg.graph.fns[&caller];
            let (line, col) = match call.name_end {
                Some((file, line, col)) if file == node.rel_path => (line, col),
                _ if call.at.0 == node.rel_path => (call.at.1, 0),
                _ => (node.line, 0),
            };
            let rel_path = node.rel_path.clone();
            reg.graph.edges.push(Edge {
                caller,
                callee,
                rel_path,
                line,
                col,
            });
        }
    }
    let mut graph = reg.graph;
    graph.edges.sort_by(|a, b| {
        (&a.rel_path, a.line, a.col, &a.callee).cmp(&(&b.rel_path, b.line, b.col, &b.callee))
    });
    graph
}

impl Registry {
    /// Registers the fns, impls and types of `items`, which sit in
    /// module `scope` (`odr_core::app`), inside an impl or trait when
    /// `owner` says so.
    fn collect(
        &mut self,
        file_idx: usize,
        scan: &FileScan,
        scope: &str,
        items: &[Item],
        owner: Option<(&str, &Owner)>,
        parent_test: bool,
    ) {
        for item in items {
            let in_test = parent_test || item.cfg_test;
            match item.kind {
                ItemKind::Fn => {
                    let id = match owner {
                        Some((ty, _)) => format!("{scope}::{ty}::{}", item.name),
                        None => format!("{scope}::{}", item.name),
                    };
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
                    let entry = self.graph.fns.entry(id.clone()).or_insert(node.clone());
                    if entry.cfg_test && !in_test {
                        *entry = node;
                    }
                    let (ty, kind) = owner.unwrap_or(("", &Owner::Plain));
                    self.members
                        .entry((ty.to_string(), item.name.clone()))
                        .or_default()
                        .push((id, kind.clone()));
                }
                ItemKind::Mod => {
                    let inner = format!("{scope}::{}", item.name);
                    self.collect(file_idx, scan, &inner, &item.children, None, in_test);
                }
                ItemKind::Impl if !item.name.is_empty() => {
                    let header = &scan.lexed.tokens[item.decl.0];
                    self.impls.insert(
                        (scan.rel_path.clone(), header.line, header.col),
                        format!("{scope}::{}", item.name),
                    );
                    let kind = if item.trait_impl {
                        Owner::TraitImpl(trait_of(&scan.lexed.tokens[item.decl.0..item.decl.1]))
                    } else {
                        Owner::Plain
                    };
                    let owner = Some((item.name.as_str(), &kind));
                    self.collect(file_idx, scan, scope, &item.children, owner, in_test);
                }
                ItemKind::Trait => {
                    self.types.insert(item.name.clone());
                    let owner = Some((item.name.as_str(), &Owner::Trait));
                    self.collect(file_idx, scan, scope, &item.children, owner, in_test);
                }
                ItemKind::Struct | ItemKind::Enum | ItemKind::Union | ItemKind::TypeAlias => {
                    self.types.insert(item.name.clone());
                }
                _ => {}
            }
        }
    }

    /// The node a MIR body belongs to: its def path made an id (an
    /// `<impl at file:line:col ..>` segment is that impl's id prefix),
    /// then the innermost fn holding it, for a fn nested in a fn body.
    fn caller_id(&self, path: &[String], scope: &str) -> Option<String> {
        let (mut id, rest) = match path.iter().rposition(|s| s.starts_with("<impl at ")) {
            Some(i) => match self.impl_at(&path[i]) {
                Some(prefix) => (prefix.clone(), &path[i + 1..]),
                None => (scope.to_string(), &path[..i]),
            },
            None => (scope.to_string(), path),
        };
        let mut ids = vec![id.clone()];
        for seg in rest {
            id = format!("{id}::{seg}");
            ids.push(id.clone());
        }
        ids.into_iter()
            .rev()
            .find(|id| self.graph.fns.contains_key(id))
    }

    /// The id prefix of the impl an `<impl at file:line:col: ..>` segment
    /// names.
    fn impl_at(&self, seg: &str) -> Option<&String> {
        let at = seg.strip_prefix("<impl at ")?.strip_suffix('>')?;
        let ((file, line, col), _) = mir::parse_span(at)?;
        self.impls.get(&(file, line, col))
    }

    /// Resolves one MIR callee. `scope` prefixes the calling target's own
    /// paths, which rustc prints without a crate name.
    fn callee_id(&self, callee: &Callee, scope: &str) -> Resolution {
        let (self_ty, trait_path, name) = match callee {
            Callee::Pointer => return Resolution::Unresolved,
            Callee::Path(segs) => {
                return self
                    .path_id(segs, scope)
                    .map_or(Resolution::External, Resolution::Edge)
            }
            Callee::Qualified {
                self_ty,
                trait_path,
                name,
            } => (self_ty, trait_path, name),
        };
        let tr = trait_path.last().map_or("", String::as_str);
        if matches!(tr, "Fn" | "FnMut" | "FnOnce") {
            // A closure's body is folded into its fn already.
            return Resolution::External;
        }
        let ty = self_ty
            .trim_start_matches(['&', '*'])
            .trim_start_matches("mut ")
            .trim_start_matches("const ");
        // `Self`, `impl Trait`, a projection (`<I as IntoIterator>::IntoIter`)
        // or a bare name no workspace type has: a generic parameter.
        let generic = ty == "Self"
            || ty.starts_with("impl ")
            || ty.starts_with('<')
            || (!ty.contains([':', '<'])
                && ty.starts_with(|c: char| c.is_ascii_uppercase())
                && !self.types.contains(ty));
        if ty.starts_with("dyn ") || generic {
            return Resolution::Unresolved;
        }
        let ty_path = mir::split_path(ty);
        let base = ty_path.last().map_or("", |s| mir::strip_generics(s));
        // The type's own impl of the trait, else the trait's default body.
        let found = self
            .matching(base, name, |_, o| *o == Owner::TraitImpl(tr.to_string()))
            .or_else(|| {
                self.matching(tr, name, |id, o| {
                    *o == Owner::Trait && self.graph.fns[id].body.is_some()
                })
            });
        found.map_or(Resolution::External, Resolution::Edge)
    }

    /// The one fn of `owner` and `name` that `keep` keeps, if exactly one.
    fn matching(
        &self,
        owner: &str,
        name: &str,
        keep: impl Fn(&str, &Owner) -> bool,
    ) -> Option<String> {
        let hits: BTreeSet<&String> = self
            .members
            .get(&(owner.to_string(), name.to_string()))?
            .iter()
            .filter(|(id, o)| keep(id, o))
            .map(|(id, _)| id)
            .collect();
        let mut hits = hits.into_iter();
        match (hits.next(), hits.next()) {
            (Some(id), None) => Some(id.clone()),
            _ => None,
        }
    }

    /// Resolves a plain MIR path: a workspace crate's path as rustc
    /// prints it (its own, or a re-export of it), or the calling target's
    /// own path.
    fn path_id(&self, segs: &[String], scope: &str) -> Option<String> {
        let first = segs.first()?;
        if SYSROOT_CRATES.contains(&first.as_str()) {
            return None;
        }
        let (base, rest) = if self.crates.contains(first) {
            (first.as_str(), &segs[1..])
        } else {
            (scope, segs)
        };
        let id = format!("{base}::{}", rest.join("::"));
        if self.graph.fns.contains_key(&id) {
            return Some(id);
        }
        // A re-export (of its own crate's item or another's), or an impl
        // outside its type's module: the one fn of that owner and name.
        let (owner, name) = match rest {
            [.., ty, name] if ty.starts_with(|c: char| c.is_ascii_uppercase()) => {
                (ty.as_str(), name)
            }
            [.., name] => ("", name),
            [] => return None,
        };
        self.matching(owner, name, |_, o| *o == Owner::Plain)
    }
}

/// The trait's name in an impl header's tokens (`impl<T> ops::Add<T> for
/// SimTime`): the last identifier before the top-level `for`.
fn trait_of(header: &[crate::lex::Token]) -> String {
    let mut depth = 0usize;
    let mut last = "";
    for (i, t) in header.iter().enumerate() {
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') && !(i > 0 && header[i - 1].is_punct('-')) {
            depth = depth.saturating_sub(1);
        } else if depth == 0 && t.is_ident("for") {
            break;
        } else if depth == 0 && t.kind == crate::lex::TokKind::Ident && !t.is_ident("impl") {
            last = &t.text;
        }
    }
    last.to_string()
}

/// The graph of `files` (repo-relative path, source) at the real repo's
/// package names, with `edges` (caller, callee, line, column past the
/// callee's name) standing in for a MIR dump, for the passes' own tests.
#[cfg(test)]
pub(crate) fn graph_with(
    files: &[(&str, &str)],
    edges: &[(&str, &str, usize, usize)],
) -> (CallGraph, Vec<FileScan>) {
    let scans: Vec<FileScan> = files
        .iter()
        .map(|(path, src)| crate::lint::scan_file(path, src))
        .collect();
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut graph = build_graph(&root, &scans, &[]);
    for &(caller, callee, line, col) in edges {
        assert!(graph.fns.contains_key(callee), "no fn {callee}");
        let rel_path = graph.fns[caller].rel_path.clone();
        graph.edges.push(Edge {
            caller: caller.to_string(),
            callee: callee.to_string(),
            rel_path,
            line,
            col,
        });
    }
    (graph, scans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::scan_tree;

    /// The committed sample pins the MIR text format the reader expects
    /// (the fixture corpus checks the installed rustc still prints it):
    /// every shape resolves to its exact edge, at the callee name's end.
    #[test]
    fn the_committed_mir_sample_reads_into_exact_edges() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/mir_sample");
        let (scans, _) = scan_tree(&root);
        let targets = mir::targets(&root, &scans);
        assert_eq!(targets.len(), 1, "{targets:?}");
        let text = fs::read_to_string(root.join("demo.mir")).expect("the committed sample");
        let graph = build_graph(&root, &scans, &[(targets[0].clone(), text)]);
        let edges: Vec<(&str, &str, usize, usize)> = graph
            .edges
            .iter()
            .map(|e| (e.caller.as_str(), e.callee.as_str(), e.line, e.col))
            .collect();
        assert_eq!(
            edges,
            [
                // A trait method on an `if let` binding, a method on a
                // `match` payload binding, a closure's call (folded into
                // its fn), a receiver `let`-bound to a method's result,
                // and an operator, whose span is the whole expression.
                ("demo::Cycle::step", "demo::Ring::record", 47, 24),
                (
                    "demo::Cycle::step",
                    "demo::pacer::Pacer::frame_start",
                    51,
                    47
                ),
                ("demo::Cycle::step", "demo::helper", 53, 36),
                ("demo::Cycle::step", "demo::Cycle::ring", 54, 26),
                ("demo::Cycle::step", "demo::Ring::record", 55, 17),
                ("demo::Cycle::step", "demo::Stamp::add", 56, 21),
                // Same-named methods, and fields of same-named structs:
                // the receiver's type picks.
                ("demo::drive", "demo::A::go", 90, 11),
                ("demo::drive", "demo::B::go", 91, 11),
                ("demo::drive", "demo::B::go", 92, 9),
                ("demo::pacer::Pacer::frame_start", "demo::helper", 13, 22),
            ]
        );
        // `impl Sink`, `dyn Sink` and the fn pointer; the derived `clone`
        // and std's lock and panic machinery are no workspace calls.
        assert_eq!(graph.unresolved, 3);
        let rendered = graph.render();
        let lines: Vec<&str> = rendered.lines().collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted);
        assert_eq!(lines.len(), 8, "{rendered}");
    }

    #[test]
    fn fn_nodes_carry_visibility_and_cold_metadata() {
        let (g, _) = graph_with(
            &[(
                "crates/core/src/swap.rs",
                "pub fn api() {}\n\
                 #[cold]\nfn slow_path() {}\n",
            )],
            &[],
        );
        let api = &g.fns["odr_core::swap::api"];
        assert!(api.is_pub && !api.cold);
        assert!(api.signature.contains("pub fn api"), "{}", api.signature);
        let slow = &g.fns["odr_core::swap::slow_path"];
        assert!(slow.cold && !slow.is_pub);
    }
}
