//! The API surface: every `pub` item in the workspace, rendered as one
//! sorted, byte-deterministic text file — and the `api/unused-pub` rule
//! ([`unused_pub_rules`]) that keeps it to what someone outside a crate
//! names.
//!
//! `odr-check api` extracts each crate's public items (path + signature)
//! via [`crate::items`] and renders them one per line:
//!
//! ```text
//! odr_core::regulator::FpsRegulator::new | pub fn new ( target_fps : f64 ) -> Self
//! ```
//!
//! The committed snapshot (`api-surface.txt` at the repo root) is golden:
//! `odr-check api --check` exits 1 when the tree's surface differs from
//! it, which turns every accidental public-API change into a visible
//! diff ([`crate::snapshot`] is the check / update mechanism).
//!
//! The surface is a deliberate *over-approximation*: items are listed at
//! their definition path whether or not the enclosing module is public
//! (re-exports are captured separately as `pub use` lines), trait impls
//! are skipped (their surface is the trait's), and `#[cfg(test)]` items
//! are excluded. Over-approximating keeps the extractor simple and errs
//! on the side of showing a diff.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

use crate::items::{Item, ItemKind, Vis};
use crate::lex::{lex, TokKind, Token};
use crate::lint::{collect_rs_files, push_violation, Allowlist, FileScan, LintReport, Workspace};

/// File name of the committed snapshot, relative to the repo root.
pub const SNAPSHOT_FILE: &str = "api-surface.txt";

/// The module path a source file roots at: `src/lib.rs` → crate root,
/// `src/foo.rs` → `foo`, `src/foo/mod.rs` → `foo`, `src/foo/bar.rs` →
/// `foo::bar`. Returns `None` for binary roots (`main.rs`, `src/bin/`),
/// which are not library API.
fn module_path_of(src_rel: &Path) -> Option<Vec<String>> {
    let mut parts: Vec<String> = Vec::new();
    let comps: Vec<&str> = src_rel.iter().filter_map(|c| c.to_str()).collect();
    for (i, comp) in comps.iter().enumerate() {
        let last = i + 1 == comps.len();
        if last {
            match *comp {
                "lib.rs" | "mod.rs" => {}
                "main.rs" => return None,
                file => parts.push(file.trim_end_matches(".rs").to_string()),
            }
        } else {
            if *comp == "bin" && i == 0 {
                return None;
            }
            parts.push((*comp).to_string());
        }
    }
    Some(parts)
}

/// Emits the `pub` items of one parsed tree into `out` as
/// `path | signature` lines.
fn emit_items(prefix: &str, items: &[Item], out: &mut Vec<String>) {
    for item in items {
        if item.cfg_test {
            continue;
        }
        match item.kind {
            ItemKind::Mod => {
                let path = format!("{prefix}::{}", item.name);
                if item.vis == Vis::Pub {
                    out.push(format!("{path} | {}", item.signature));
                }
                emit_items(&path, &item.children, out);
            }
            ItemKind::Impl => {
                // Trait impls surface through the trait; inherent impls
                // surface their pub members under the Self type.
                if item.trait_impl {
                    continue;
                }
                let path = format!("{prefix}::{}", item.name);
                emit_items(&path, &item.children, out);
            }
            ItemKind::Use => {
                if item.vis == Vis::Pub {
                    out.push(format!("{prefix} | pub use {}", item.name));
                }
            }
            ItemKind::Macro => {}
            _ => {
                if item.vis == Vis::Pub {
                    out.push(format!("{prefix}::{} | {}", item.name, item.signature));
                }
            }
        }
    }
}

/// Extracts the workspace's public surface from its scanned files (the
/// shared lex/item views of [`Workspace`]) as the snapshot text: sorted
/// unique lines, LF-terminated, byte-deterministic for a given tree.
/// Crate and root `src/` trees are considered; shims and test/bench
/// trees are not part of the API snapshot.
#[must_use]
pub fn collect_api(root: &Path, scans: &[FileScan]) -> String {
    let mut out: Vec<String> = Vec::new();
    let mut pkg_cache: BTreeMap<String, Option<String>> = BTreeMap::new();
    for scan in scans {
        let parts: Vec<&str> = scan.rel_path.split('/').collect();
        let (manifest_dir, src_rel) = match parts.first() {
            Some(&"crates") if parts.len() > 3 && parts.get(2) == Some(&"src") => {
                (format!("crates/{}", parts[1]), parts[3..].join("/"))
            }
            Some(&"src") if parts.len() > 1 => (String::new(), parts[1..].join("/")),
            _ => continue, // shims and anything else stay out of the snapshot
        };
        let manifest = if manifest_dir.is_empty() {
            root.join("Cargo.toml")
        } else {
            root.join(&manifest_dir).join("Cargo.toml")
        };
        let pkg = pkg_cache
            .entry(manifest_dir)
            .or_insert_with(|| crate::graph::package_name(&manifest));
        let Some(pkg) = pkg else {
            continue;
        };
        let Some(mod_parts) = module_path_of(Path::new(&src_rel)) else {
            continue;
        };
        let mut prefix = pkg.replace('-', "_");
        for p in &mod_parts {
            prefix.push_str("::");
            prefix.push_str(p);
        }
        emit_items(&prefix, &scan.items, &mut out);
    }
    out.sort();
    out.dedup();
    let mut text = out.join("\n");
    if !text.is_empty() {
        text.push('\n');
    }
    text
}

/// Which `crates/<name>` library a scanned file belongs to: its sources
/// under `src/`, minus the binary roots, which use the library from
/// outside like any other crate does.
fn library_of(rel_path: &str) -> Option<&str> {
    let (krate, src_rel) = rel_path.strip_prefix("crates/")?.split_once("/src/")?;
    let is_library = !krate.contains('/') && module_path_of(Path::new(src_rel)).is_some();
    is_library.then_some(krate)
}

/// The identifier tokens among `tokens`: what a piece of code names.
fn idents(tokens: &[Token]) -> impl Iterator<Item = &str> {
    let idents = tokens.iter().filter(|t| t.kind == TokKind::Ident);
    idents.map(|t| t.text.as_str())
}

/// Identifier tokens of the Rust files that *use* the workspace's crates
/// without being lintable sources themselves: every `tests/`, `examples/`
/// and `benches/` tree (a crate's or the root's; `fixtures/` directories
/// hold analyser inputs, not code, and are skipped) and `benchmark/src/`.
/// These files are lexed for this set only and join no lint pass.
fn user_idents(root: &Path) -> BTreeSet<String> {
    let mut packages = vec![root.to_path_buf()];
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        packages.extend(entries.filter_map(|e| e.ok().map(|e| e.path())));
    }
    let mut files = Vec::new();
    for package in &packages {
        for dir in ["tests", "examples", "benches"] {
            collect_rs_files(&package.join(dir), &mut files);
        }
    }
    collect_rs_files(&root.join("benchmark/src"), &mut files);
    let in_fixtures = |f: &PathBuf| {
        let rel = f.strip_prefix(root).unwrap_or(f);
        rel.components().any(|c| c.as_os_str() == "fixtures")
    };
    let mut named = BTreeSet::new();
    for file in files.iter().filter(|f| !in_fixtures(f)) {
        if let Ok(text) = fs::read_to_string(file) {
            named.extend(idents(&lex(&text).tokens).map(str::to_string));
        }
    }
    named
}

/// Every un-restricted `pub` item of one library file that
/// `api/unused-pub` judges, nested modules and inherent impls included.
fn pub_items<'a>(items: &'a [Item], out: &mut Vec<&'a Item>) {
    for item in items.iter().filter(|i| !i.cfg_test) {
        match item.kind {
            ItemKind::Impl if item.trait_impl => {}
            ItemKind::Impl => pub_items(&item.children, out),
            ItemKind::Use | ItemKind::Macro => {}
            _ => {
                if item.vis == Vis::Pub {
                    out.push(item);
                }
                if item.kind == ItemKind::Mod {
                    pub_items(&item.children, out);
                }
            }
        }
    }
}

/// The `api/unused-pub` rule: a `pub` item of a `crates/*` library must
/// be named by someone outside that library.
///
/// An item is *used* when its name is an identifier token — strings and
/// comments do not count — in any Rust file outside its crate's library
/// sources: another crate, the crate's own binaries, any `tests/`,
/// `examples/` or `benches/` tree, the root package, `benchmark/src/`.
/// It is also used when a used item of its own crate declares it: the
/// signature of a used `pub fn`, the fields, variants, methods or target
/// of a used `pub struct` / `enum` / `trait` / `type` (taken to a
/// fixpoint, so a type reachable only through a flagged function is
/// flagged with it). Everything else is a finding: nothing outside could
/// tell `pub` from `pub(crate)`, and `pub` is what hides the item from
/// rustc's dead-code pass. Matching by name over-approximates uses, so a
/// finding is never wrong — and demoting a used item would not compile.
pub fn unused_pub_rules(ws: &Workspace, root: &Path, allow: &Allowlist, report: &mut LintReport) {
    // Who names what: per library its own identifiers, and one set for
    // every file that is no library's source.
    let users = user_idents(root);
    let mut outside: BTreeSet<&str> = users.iter().map(String::as_str).collect();
    let mut inside: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for scan in &ws.scans {
        let named = match library_of(&scan.rel_path) {
            Some(krate) => inside.entry(krate).or_default(),
            None => &mut outside,
        };
        named.extend(idents(&scan.lexed.tokens));
    }

    for &krate in inside.keys() {
        // Every judged item of this library, with the file it sits in.
        let mut judged: Vec<(&FileScan, &Item)> = Vec::new();
        let sources = ws.scans.iter();
        for scan in sources.filter(|s| library_of(&s.rel_path) == Some(krate)) {
            let mut items = Vec::new();
            pub_items(&scan.items, &mut items);
            judged.extend(items.into_iter().map(|item| (scan, item)));
        }
        let others = inside.iter().filter(|(&k, _)| k != krate);
        // An item is used once someone outside names it or a used item
        // declares it, and then declares names itself; repeat until stable.
        let mut used = vec![false; judged.len()];
        let mut declared: BTreeSet<&str> = BTreeSet::new();
        loop {
            let mut changed = false;
            for (i, (scan, item)) in judged.iter().enumerate() {
                let name = item.name.as_str();
                let named = declared.contains(name)
                    || outside.contains(name)
                    || others.clone().any(|(_, ids)| ids.contains(name));
                if used[i] || !named {
                    continue;
                }
                used[i] = true;
                changed = true;
                declared.extend(idents(&scan.lexed.tokens[item.decl.0..item.decl.1]));
            }
            if !changed {
                break;
            }
        }
        for ((scan, item), used) in judged.into_iter().zip(used) {
            if !used {
                push_violation(
                    report,
                    allow,
                    scan,
                    item.line - 1,
                    "api/unused-pub",
                    format!(
                        "`{}` is named nowhere outside crates/{krate}/src: \
                         make it `pub(crate)` or delete it",
                        item.signature
                    ),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_items;

    #[test]
    fn module_paths_map_files_to_modules() {
        let p = |s: &str| module_path_of(Path::new(s));
        assert_eq!(p("lib.rs"), Some(vec![]));
        assert_eq!(p("queue.rs"), Some(vec!["queue".to_string()]));
        assert_eq!(p("foo/mod.rs"), Some(vec!["foo".to_string()]));
        assert_eq!(
            p("foo/bar.rs"),
            Some(vec!["foo".to_string(), "bar".to_string()])
        );
        assert_eq!(p("main.rs"), None);
        assert_eq!(p("bin/tool.rs"), None);
    }

    #[test]
    fn emit_lists_pub_items_only_and_recurses() {
        let src = "pub fn visible() {}\n\
                   fn hidden() {}\n\
                   pub(crate) fn crate_only() {}\n\
                   pub mod sub { pub const N: u8 = 1; }\n\
                   impl Widget { pub fn draw(&self) {} fn helper() {} }\n\
                   impl Drop for Widget { fn drop(&mut self) {} }\n\
                   #[cfg(test)] mod tests { pub fn t() {} }\n";
        let items = parse_items(&lex(src));
        let mut out = Vec::new();
        emit_items("my_crate", &items, &mut out);
        out.sort();
        assert_eq!(
            out,
            [
                "my_crate::Widget::draw | pub fn draw ( & self )",
                "my_crate::sub | pub mod sub",
                "my_crate::sub::N | pub const N : u8",
                "my_crate::visible | pub fn visible ( )",
            ]
        );
    }

    #[test]
    fn pub_use_reexports_are_captured() {
        let items = parse_items(&lex("pub use crate::swap::SwapState;\n"));
        let mut out = Vec::new();
        emit_items("odr_core", &items, &mut out);
        assert_eq!(out, ["odr_core | pub use crate::swap::SwapState"]);
    }
}
