//! The call graph's one edge source: rustc's MIR of every workspace
//! target, as text.
//!
//! [`dump`] asks cargo to compile each library and binary once more
//! with three extra rustc flags, `--emit=mir=<file>,link` and
//! [`MIR_FLAGS`], writing each target's MIR to `target/mir/`. Cargo's
//! own freshness check decides whether anything is recompiled, so a
//! second dump of an unchanged tree costs one no-op `cargo rustc` per
//! target. [`parse`] then reads every call terminator out of the text:
//! who calls, the callee's path as rustc resolved it, and where the call
//! and the callee's name sit in the source.
//!
//! The flags are unstable (`-Z`), so the dump sets `RUSTC_BOOTSTRAP=1`;
//! what they buy is exactness. `-Ztrim-diagnostic-paths=no` prints every
//! callee by its full path (`pacer::IntervalPacer::frame_start`,
//! `<odr_simtime::SimTime as std::ops::Add<std::time::Duration>>::add`)
//! rather than by the shortest unambiguous name, and
//! `-Zmir-include-spans=on` gives every call its span and the callee's
//! name a span of its own, which is how the effect and lock passes find
//! the very token a call edge stands for. The MIR is the dev profile's:
//! release MIR has been through the MIR inliner, which deletes calls.

use std::fs;
use std::path::Path;
use std::process::Command;

use crate::lint::FileScan;

/// The unstable rustc flags every MIR dump passes, beside `--emit`.
pub const MIR_FLAGS: [&str; 2] = ["-Zmir-include-spans=on", "-Ztrim-diagnostic-paths=no"];

/// One compilation target of the tree: a package's library or one of its
/// binaries.
#[derive(Debug, Clone)]
pub struct Target {
    /// The package name, as `cargo -p` takes it (`odr-core`).
    pub package: String,
    /// The binary's name; `None` for the library.
    pub bin: Option<String>,
    /// The target's root source file, repo-root relative.
    pub root_file: String,
    /// What its own paths are prefixed with to make node ids: the crate
    /// root (`odr_core`), then `bin::<name>` or `main` for a binary.
    pub scope: String,
}

/// The libraries and binaries of the scanned tree, found the way cargo
/// finds them: `src/lib.rs`, `src/main.rs`, `src/bin/<name>.rs` and
/// `src/bin/<name>/main.rs` of every package.
#[must_use]
pub fn targets(root: &Path, scans: &[FileScan]) -> Vec<Target> {
    let mut out = Vec::new();
    for scan in scans {
        let rel = scan.rel_path.as_str();
        let Some((manifest, src_rel)) = rel.split_once("src/") else {
            continue;
        };
        let bin = match src_rel.split('/').collect::<Vec<_>>()[..] {
            ["lib.rs"] => None,
            ["main.rs"] => Some(String::new()),
            ["bin", file] => Some(file.trim_end_matches(".rs").to_string()),
            ["bin", dir, "main.rs"] => Some(dir.to_string()),
            _ => continue,
        };
        let Some(package) = crate::graph::package_name(&root.join(manifest).join("Cargo.toml"))
        else {
            continue;
        };
        let Some((_, mods)) = crate::graph::module_path_of(rel) else {
            continue;
        };
        let scope = std::iter::once(package.replace('-', "_"))
            .chain(mods)
            .collect::<Vec<_>>()
            .join("::");
        let bin = bin.map(|b| if b.is_empty() { package.clone() } else { b });
        out.push(Target {
            package,
            bin,
            root_file: rel.to_string(),
            scope,
        });
    }
    out
}

/// Dumps the dev-profile MIR of every target through cargo, returning
/// each target beside its MIR text. A `.mir` file that is
/// missing while cargo would call its target fresh (someone deleted it)
/// is rebuilt from a clean package.
///
/// # Errors
///
/// A cargo run that fails (a compile error, no toolchain) or a dump that
/// cannot be read, with cargo's output.
pub(crate) fn dump(root: &Path, targets: Vec<Target>) -> Result<Vec<(Target, String)>, String> {
    let dir = root.join("target").join("mir");
    fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    #[expect(clippy::disallowed_methods, reason = "the cargo running us")]
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let run = |args: &[&str]| -> Result<(), String> {
        let out = Command::new(&cargo)
            .current_dir(root)
            .env("RUSTC_BOOTSTRAP", "1")
            .args(args)
            .output()
            .map_err(|e| format!("run cargo: {e}"))?;
        if out.status.success() {
            return Ok(());
        }
        Err(format!(
            "`cargo {}` failed:\n{}",
            args.join(" "),
            String::from_utf8_lossy(&out.stderr)
        ))
    };
    let mut texts = Vec::new();
    for t in targets {
        let file = dir.join(match &t.bin {
            None => format!("{}.lib.mir", t.package),
            Some(bin) => format!("{}.bin.{bin}.mir", t.package),
        });
        if !file.exists() {
            run(&[
                "clean",
                "-q",
                "--offline",
                "-p",
                &t.package,
                "--profile",
                "dev",
            ])?;
        }
        let emit = format!("--emit=mir={},link", file.display());
        let mut args = vec!["rustc", "-q", "--offline", "-p", &t.package];
        match &t.bin {
            None => args.push("--lib"),
            Some(bin) => args.extend(["--bin", bin]),
        }
        args.extend(["--", &emit]);
        args.extend(MIR_FLAGS);
        run(&args)?;
        let text =
            fs::read_to_string(&file).map_err(|e| format!("read {}: {e}", file.display()))?;
        texts.push((t, text));
    }
    Ok(texts)
}

/// A source position as a MIR span prints it: file, 1-based line and
/// 1-based char column.
pub(crate) type Pos = (String, usize, usize);

/// What one call terminator calls.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Callee {
    /// `path::to::f(..)`, `Type::<T>::method(..)`: the path's segments,
    /// generic arguments dropped.
    Path(Vec<String>),
    /// `<SelfTy as path::Trait<..>>::name(..)`.
    Qualified {
        /// The `Self` type as printed (`&mut pacer::Pacer`, `dyn Rec`).
        self_ty: String,
        /// The trait's path, generic arguments dropped.
        trait_path: Vec<String>,
        /// The method.
        name: String,
    },
    /// `copy _3(..)`: a call through a fn pointer.
    Pointer,
}

/// One call terminator of one MIR body.
#[derive(Debug, Clone)]
pub(crate) struct Call {
    /// The calling fn's def path, split at `::`, closures folded into
    /// the fn that holds them: `["app", "<impl at crates/core/src/app.rs:88:1: 88:14>", "next"]`.
    pub caller: Vec<String>,
    /// What it calls.
    pub callee: Callee,
    /// Where the call expression starts.
    pub at: Pos,
    /// Where the callee's name ends (`push` of `q.push(..)`), when the
    /// callee is a fn item rustc printed a span for.
    pub name_end: Option<Pos>,
}

/// Reads every call terminator out of a MIR dump. Bodies rustc prints
/// twice (`// MIR FOR CTFE` copies of `const fn`s) are read once, and
/// `const`/`static` initialisers not at all.
#[must_use]
pub(crate) fn parse(text: &str) -> Vec<Call> {
    let mut calls: Vec<Call> = Vec::new();
    let mut caller: Option<Vec<String>> = None;
    let mut ctfe = false;
    // The last call, while the span of its callee may still follow.
    let mut awaiting_name = false;
    for line in text.lines() {
        if line == "// MIR FOR CTFE" {
            ctfe = true;
            continue;
        }
        if let Some(header) = line.strip_prefix("fn ") {
            caller = (!ctfe).then(|| def_path(header));
            ctfe = false;
            awaiting_name = false;
            continue;
        }
        if !line.starts_with(' ') {
            if !line.is_empty() {
                caller = None;
            }
            continue;
        }
        let Some(caller) = &caller else { continue };
        let text = line.trim_start();
        if let Some(span) = text.strip_prefix("// + span: ") {
            if awaiting_name {
                if let Some(call) = calls.last_mut() {
                    call.name_end = parse_span(span).map(|(_, hi)| hi);
                }
                awaiting_name = false;
            }
            continue;
        }
        if text.starts_with("//") {
            continue;
        }
        awaiting_name = false;
        let Some((code, comment)) = text.split_once("// scope ") else {
            continue;
        };
        let code = code.trim_end().trim_end_matches(';');
        let Some((_, rhs)) = code.split_once(" = ") else {
            continue;
        };
        // `-> [return: bb1, unwind ..]`, or a diverging call's `-> unwind
        // ..` or `-> bb5` (its cleanup block).
        let is_call = rhs.rsplit_once(") -> ").is_some_and(|(_, to)| {
            to.starts_with("[return: ") || to.starts_with("unwind") || to.starts_with("bb")
        });
        if !is_call {
            continue;
        }
        let Some(((file, line, col), _)) = comment
            .split_once(" at ")
            .and_then(|(_, span)| parse_span(span))
        else {
            continue;
        };
        let callee = parse_callee(rhs);
        awaiting_name = callee != Callee::Pointer;
        calls.push(Call {
            caller: caller.clone(),
            callee,
            at: (file, line, col),
            name_end: None,
        });
    }
    calls
}

/// Parses `FILE:L:C: L:C` into its two ends.
pub(crate) fn parse_span(span: &str) -> Option<(Pos, Pos)> {
    let (lo, hi) = span.trim().rsplit_once(": ")?;
    let mut lo_parts = lo.rsplitn(3, ':');
    let lo_col = lo_parts.next()?.parse().ok()?;
    let lo_line = lo_parts.next()?.parse().ok()?;
    let file = lo_parts.next()?.to_string();
    let (hi_line, hi_col) = hi.split_once(':')?;
    let hi = (file.clone(), hi_line.parse().ok()?, hi_col.parse().ok()?);
    Some(((file, lo_line, lo_col), hi))
}

/// Splits a printed path at its top-level `::`, up to a top-level `(`
/// (a fn header's parameters, a call's arguments), keeping `<impl at
/// ..>`, `<T as Trait>` and `{closure#0}` segments whole.
pub(crate) fn split_path(text: &str) -> Vec<String> {
    let bytes = text.as_bytes();
    let (mut segs, mut depth, mut start, mut i) = (Vec::new(), 0usize, 0usize, 0usize);
    while i < bytes.len() {
        match bytes[i] {
            b'(' if depth == 0 => break,
            b'<' | b'{' | b'(' | b'[' => depth += 1,
            b'>' if i > 0 && bytes[i - 1] == b'-' => {}
            b'>' | b'}' | b')' | b']' => depth = depth.saturating_sub(1),
            b':' if depth == 0 && bytes.get(i + 1) == Some(&b':') => {
                segs.push(text[start..i].to_string());
                i += 1;
                start = i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    segs.push(text[start..i].to_string());
    segs
}

/// A fn header's def path, closures and other bodies nested in a fn
/// (`{closure#0}`, `{constant#0}`) folded into it.
fn def_path(header: &str) -> Vec<String> {
    split_path(header)
        .into_iter()
        .filter(|s| !s.starts_with('{'))
        .collect()
}

/// `Name<..>` → `Name`.
pub(crate) fn strip_generics(seg: &str) -> &str {
    seg.split_once('<').map_or(seg, |(name, _)| name)
}

/// Reads the callee of a call's right-hand side (`helper(const 1_u32) ->
/// [..]`).
fn parse_callee(rhs: &str) -> Callee {
    if rhs.starts_with("copy ") || rhs.starts_with("move ") {
        return Callee::Pointer;
    }
    let plain = |segs: Vec<String>| {
        segs.into_iter()
            .filter(|s| !s.starts_with('<'))
            .map(|s| strip_generics(&s).to_string())
            .collect()
    };
    let mut segs = split_path(rhs);
    let qualified = segs.first().and_then(|head| {
        let inner = head.strip_prefix('<')?.strip_suffix('>')?;
        let (self_ty, trait_path) = inner.rsplit_once(" as ")?;
        Some((self_ty.to_string(), split_path(trait_path)))
    });
    match qualified {
        Some((self_ty, trait_path)) if segs.len() >= 2 => Callee::Qualified {
            self_ty,
            trait_path: plain(trait_path),
            name: strip_generics(&segs.remove(1)).to_string(),
        },
        _ => Callee::Path(plain(segs)),
    }
}
