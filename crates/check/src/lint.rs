//! The `odr-check` lint pass: the rule families enforced over
//! `crates/*/src/**/*.rs`, the root `src/` and the shim crates, all
//! hosted on the real lexer ([`crate::lex`]), so nothing fires inside
//! string literals, char literals, doc comments or nested block
//! comments.
//!
//! Rule families (see DESIGN.md §7, which names each rule's invariant):
//!
//! * **Time units** — arithmetic and comparisons must not mix
//!   identifiers with conflicting `_ns`/`_us`/`_ms` suffixes, and bare
//!   integer literals must not be assigned to unit-suffixed names
//!   outside `simtime` (use a constructor or a named constant; literal
//!   `0` is exempt as unit-polymorphic).
//! * **Lock discipline** — see [`crate::locks`]: no blocking call while
//!   a guard is live, directly or through any callee that may block.
//! * **Atomics discipline** — see [`crate::atomics`].
//! * **Determinism** — see [`crate::taint`]: calls from pure-sim code
//!   that reach a nondeterminism source or the real-time layer.
//! * **Effects** — see [`crate::effects`]: hot roots stay alloc-, block-
//!   and panic-free; panicking `pub fn`s say so.
//! * **Unused `pub`** — see [`crate::api::unused_pub_rules`]: a `pub`
//!   item of a crate must be named by someone outside it.
//!
//! Public items carry docs because rustc's `missing_docs` lint, switched
//! on for every member in the workspace lint table, says so; panics,
//! undocumented `unsafe` and the banned paths of `clippy.toml` are
//! clippy's, from the same table.
//!
//! Suppression is explicit and always carries a reason: either a line in
//! the allowlist file (`odr-check.allow`, pipe-separated) or an inline
//! `// lint: allow(<rule>) -- <reason>` trailer on the offending line.
//! The same mechanism covers every pass, including lock discipline.
//! Unknown rules and unused allowlist entries are warnings (fatal under
//! `--deny-warnings`).

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use crate::items::{parse_items, Item};
use crate::lex::{lex, LexedFile, TokKind, Token};
use crate::locks;

/// All rule identifiers, used to validate allow entries.
pub(crate) const ALL_RULES: &[&str] = &[
    "units/mixed-suffix",
    "units/bare-literal",
    "lock/blocking-call",
    "atomics/relaxed-publish",
    "atomics/acquire-release-pair",
    "atomics/static-mut",
    "taint/wall-clock",
    "taint/sleep",
    "taint/os-rng",
    "taint/hash-iter",
    "taint/thread-id",
    "taint/env",
    "taint/realtime-layer",
    "effect/hot-alloc",
    "effect/hot-block",
    "effect/hot-panic",
    "effect/pub-panic",
    "effect/manifest",
    "api/unused-pub",
];

/// One rule breach at a specific source line.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Rule identifier, e.g. `units/mixed-suffix`.
    pub rule: &'static str,
    /// Path relative to the repo root.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// A single allowlist entry: `rule | path-substring | line-substring |
/// reason`.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Rule this entry suppresses.
    pub rule: String,
    /// Substring the violation's path must contain.
    pub path_contains: String,
    /// Substring the offending source line must contain.
    pub line_contains: String,
    /// Why the breach is acceptable (required).
    pub reason: String,
    /// Set when the entry suppressed at least one violation.
    pub used: std::cell::Cell<bool>,
}

/// Parsed allowlist plus any problems found while parsing it.
#[derive(Debug, Default)]
pub struct Allowlist {
    /// The entries, in file order.
    pub entries: Vec<AllowEntry>,
    /// Malformed lines / unknown rules (warnings).
    pub problems: Vec<String>,
}

impl Allowlist {
    /// Parses the pipe-separated allowlist format. Lines starting with
    /// `#` and blank lines are ignored.
    #[must_use]
    pub fn parse(text: &str, origin: &str) -> Self {
        let mut list = Allowlist::default();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.splitn(4, '|').map(str::trim).collect();
            if fields.len() != 4 || fields[3].is_empty() {
                list.problems.push(format!(
                    "{origin}:{}: malformed allow entry (want `rule | path | contains | reason`)",
                    idx + 1
                ));
                continue;
            }
            if !ALL_RULES.contains(&fields[0]) {
                list.problems.push(format!(
                    "{origin}:{}: unknown rule '{}'",
                    idx + 1,
                    fields[0]
                ));
                continue;
            }
            list.entries.push(AllowEntry {
                rule: fields[0].to_string(),
                path_contains: fields[1].to_string(),
                line_contains: fields[2].to_string(),
                reason: fields[3].to_string(),
                used: std::cell::Cell::new(false),
            });
        }
        list
    }

    /// Loads the allowlist from a file; a missing file is an empty list.
    #[must_use]
    pub fn load(path: &Path) -> Self {
        match fs::read_to_string(path) {
            Ok(text) => Self::parse(&text, &path.display().to_string()),
            Err(_) => Allowlist::default(),
        }
    }

    fn permits(&self, rule: &str, path: &str, raw_line: &str) -> bool {
        for e in &self.entries {
            if e.rule == rule
                && path.contains(&e.path_contains)
                && raw_line.contains(&e.line_contains)
            {
                e.used.set(true);
                return true;
            }
        }
        false
    }

    /// Entries that never matched anything — likely stale.
    #[must_use]
    pub(crate) fn unused(&self) -> Vec<&AllowEntry> {
        self.entries.iter().filter(|e| !e.used.get()).collect()
    }
}

/// Result of linting the tree.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Violations not covered by any allow entry.
    pub violations: Vec<Violation>,
    /// Non-fatal problems (allowlist issues, unused entries).
    pub warnings: Vec<String>,
    /// Number of files scanned.
    pub files: usize,
    /// Number of violations suppressed by allow entries.
    pub suppressed: usize,
}

/// Which crate (directory name under `crates/`, or `""` for the root
/// `src/`) a path belongs to.
pub(crate) fn crate_of(rel_path: &str) -> &str {
    let mut parts = rel_path.split('/');
    match parts.next() {
        Some("crates") => parts.next().unwrap_or(""),
        _ => "",
    }
}

fn inline_allow(raw_line: &str, rule: &str) -> bool {
    // `// lint: allow(rule) -- reason` (reason required).
    for marker in ["lint: allow(", "lint:allow("] {
        if let Some(at) = raw_line.find(marker) {
            let rest = &raw_line[at + marker.len()..];
            if let Some(close) = rest.find(')') {
                let listed = &rest[..close];
                let reason = rest[close + 1..].trim_start_matches([' ', '-']).trim();
                if listed.split(',').any(|r| r.trim() == rule) && !reason.is_empty() {
                    return true;
                }
            }
        }
    }
    false
}

/// One lexed, item-parsed source file with the derived per-line views
/// every pass shares.
pub struct FileScan {
    /// Path relative to the repo root (`/`-separated).
    pub rel_path: String,
    /// Raw source lines (for inline-allow trailers and reports).
    pub raw_lines: Vec<String>,
    /// The token stream plus code/doc line views.
    pub lexed: LexedFile,
    /// The extracted item tree.
    pub items: Vec<Item>,
    /// Per line: inside a `#[cfg(test)]` item (or a `tests/` file).
    pub in_test: Vec<bool>,
}

/// Lexes and item-parses one file into a [`FileScan`].
#[must_use]
pub fn scan_file(rel_path: &str, text: &str) -> FileScan {
    let raw_lines: Vec<String> = text.lines().map(str::to_string).collect();
    let lexed = lex(text);
    let items = parse_items(&lexed);

    // Mark test regions: a `#[cfg(test)]`/`#[cfg(all(test, ...))]`
    // attribute covers the next item's braces. Brace counting runs on
    // the lexer's code view, so braces inside literals don't skew it.
    let mut in_test = vec![false; raw_lines.len()];
    let mut depth: i32 = 0;
    let mut pending_attr = false;
    let mut test_exit_depth: Option<i32> = None;
    for (i, s) in lexed.code.iter().enumerate() {
        let trimmed = s.trim();
        if test_exit_depth.is_none()
            && (trimmed.starts_with("#[cfg(test)") || trimmed.starts_with("#[cfg(all(test"))
        {
            pending_attr = true;
        }
        let opens = s.matches('{').count() as i32;
        let closes = s.matches('}').count() as i32;
        if pending_attr || test_exit_depth.is_some() {
            if let Some(t) = in_test.get_mut(i) {
                *t = true;
            }
        }
        if pending_attr && opens > 0 {
            test_exit_depth = Some(depth);
            pending_attr = false;
        }
        depth += opens - closes;
        if test_exit_depth.is_some_and(|exit| depth <= exit) {
            test_exit_depth = None;
        }
    }

    FileScan {
        rel_path: rel_path.to_string(),
        raw_lines,
        lexed,
        items,
        in_test,
    }
}

impl FileScan {
    fn raw_line(&self, idx: usize) -> &str {
        self.raw_lines.get(idx).map_or("", String::as_str)
    }

    fn in_test_line(&self, idx: usize) -> bool {
        self.in_test.get(idx).copied().unwrap_or(false)
    }
}

/// Routes one candidate violation through the inline and allowlist
/// suppression mechanisms shared by every pass.
pub(crate) fn push_violation(
    report: &mut LintReport,
    allow: &Allowlist,
    scan: &FileScan,
    line_idx: usize,
    rule: &'static str,
    message: String,
) {
    let raw = scan.raw_line(line_idx);
    if inline_allow(raw, rule) || allow.permits(rule, &scan.rel_path, raw) {
        report.suppressed += 1;
        return;
    }
    report.violations.push(Violation {
        rule,
        path: scan.rel_path.clone(),
        line: line_idx + 1,
        message,
    });
}

/// Returns the `_ns`/`_us`/`_ms` unit suffix of an identifier, if any
/// (case-insensitive, so `TIMEOUT_MS` counts).
fn unit_suffix(name: &str) -> Option<&'static str> {
    let lower = name.to_ascii_lowercase();
    ["_ns", "_us", "_ms"].into_iter().find(|s| lower.ends_with(s))
}

/// The tail identifier of the `ident(.ident | ::ident)*` chain starting
/// at `start` (used so `obs.now_ns` reads as `now_ns`).
fn chain_tail(toks: &[Token], start: usize) -> Option<&Token> {
    let mut tail: Option<&Token> = None;
    let mut j = start;
    loop {
        match toks.get(j) {
            Some(t) if t.kind == TokKind::Ident => {
                tail = Some(t);
                j += 1;
            }
            _ => return tail,
        }
        match toks.get(j) {
            Some(t) if t.is_punct('.') => j += 1,
            Some(t)
                if t.is_punct(':') && toks.get(j + 1).is_some_and(|n| n.is_punct(':')) =>
            {
                j += 2;
            }
            _ => return tail,
        }
    }
}

/// The time-unit suffix audit: conflicting `_ns`/`_us`/`_ms` suffixes on
/// the two sides of an arithmetic/comparison operator, and bare integer
/// literals assigned to unit-suffixed names (outside `simtime`, which
/// defines the unit types themselves).
pub fn units_rules(scan: &FileScan, allow: &Allowlist, report: &mut LintReport) {
    let toks = &scan.lexed.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if scan.in_test_line(t.line.saturating_sub(1)) {
            continue;
        }

        // --- conflicting suffixes across an operator ------------------
        if i > 0 && toks[i - 1].kind == TokKind::Ident {
            let rhs_at = match operator_rhs(toks, i) {
                Some(r) => r,
                None => {
                    units_assignment(scan, toks, i, allow, report);
                    continue;
                }
            };
            let lhs = &toks[i - 1];
            if let (Some(ls), Some(rtail)) = (unit_suffix(&lhs.text), chain_tail(toks, rhs_at)) {
                if let Some(rs) = unit_suffix(&rtail.text) {
                    if ls != rs {
                        push_violation(
                            report,
                            allow,
                            scan,
                            t.line - 1,
                            "units/mixed-suffix",
                            format!(
                                "`{}` ({}) and `{}` ({}) mixed across `{}`; convert explicitly",
                                lhs.text,
                                &ls[1..],
                                rtail.text,
                                &rs[1..],
                                t.text
                            ),
                        );
                    }
                }
            }
        } else {
            units_assignment(scan, toks, i, allow, report);
        }
    }
}

/// If token `i` is an arithmetic/comparison operator with an identifier
/// directly before it, returns the index where its right-hand side
/// starts.
fn operator_rhs(toks: &[Token], i: usize) -> Option<usize> {
    let t = &toks[i];
    if t.kind != TokKind::Punct {
        return None;
    }
    let next = |k: usize| toks.get(i + k);
    match t.text.as_str() {
        "-" if next(1).is_some_and(|n| n.is_punct('>')) => None, // `->`
        "+" | "-" => {
            if next(1).is_some_and(|n| n.is_punct('=')) {
                Some(i + 2) // `+=` / `-=`
            } else {
                Some(i + 1)
            }
        }
        "<" | ">" => {
            if next(1).is_some_and(|n| n.is_punct('=')) {
                Some(i + 2) // `<=` / `>=`
            } else {
                Some(i + 1)
            }
        }
        "=" if next(1).is_some_and(|n| n.is_punct('=')) => Some(i + 2), // `==`
        "!" if next(1).is_some_and(|n| n.is_punct('=')) => Some(i + 2), // `!=`
        _ => None,
    }
}

/// The `units/bare-literal` half of the audit, checked at token `i` when
/// it is an identifier: `let [mut] x_ms = 5;` / `x_ms = 5;`. Literal `0`
/// is exempt (unit-polymorphic), as is the whole `simtime` crate.
fn units_assignment(
    scan: &FileScan,
    toks: &[Token],
    i: usize,
    allow: &Allowlist,
    report: &mut LintReport,
) {
    if crate_of(&scan.rel_path) == "simtime" {
        return;
    }
    let t = &toks[i];
    if t.kind != TokKind::Ident || unit_suffix(&t.text).is_none() {
        return;
    }
    // `IDENT = INT ;` with a plain `=` (not ==, <=, +=, ...).
    let Some(eq) = toks.get(i + 1) else { return };
    if !eq.is_punct('=')
        || toks.get(i + 2).is_some_and(|n| n.is_punct('='))
        || (i > 0
            && toks[i - 1].kind == TokKind::Punct
            && matches!(toks[i - 1].text.as_str(), "=" | "!" | "<" | ">" | "+" | "-" | "*" | "/"))
    {
        return;
    }
    // Struct-literal fields (`Event { ts_ns: 0 }`) use `:` and are not
    // matched here by construction.
    let Some(val) = toks.get(i + 2) else { return };
    let terminated = toks.get(i + 3).is_some_and(|n| n.is_punct(';') || n.is_punct(','));
    if val.kind == TokKind::Int && terminated {
        let digits: String = val.text.chars().filter(|c| c.is_ascii_digit()).collect();
        if digits.chars().all(|c| c == '0') {
            return; // zero is unit-free
        }
        push_violation(
            report,
            allow,
            scan,
            t.line - 1,
            "units/bare-literal",
            format!(
                "bare integer `{}` assigned to unit-suffixed `{}`; use a unit constructor or a named constant",
                val.text, t.text
            ),
        );
    }
}

pub(crate) fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Source files subject to linting: `crates/*/src/**/*.rs`, the root
/// `src/`, and the shim crates' sources. Tests, benches, examples and
/// fixtures are out of scope.
#[must_use]
pub(crate) fn lintable_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if let Ok(entries) = fs::read_dir(&crates_dir) {
        let mut dirs: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
        dirs.sort();
        for dir in dirs {
            collect_rs_files(&dir.join("src"), &mut files);
        }
    }
    collect_rs_files(&root.join("src"), &mut files);
    if let Ok(entries) = fs::read_dir(root.join("shims")) {
        let mut dirs: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
        dirs.sort();
        for dir in dirs {
            collect_rs_files(&dir.join("src"), &mut files);
        }
    }
    files
}

/// Scans every lintable file under `root` into [`FileScan`]s (the shared
/// input of the lint passes and the call graph). Returns the scans plus
/// any unreadable-file warnings. Deterministic: files are visited in
/// sorted path order.
#[must_use]
pub(crate) fn scan_tree(root: &Path) -> (Vec<FileScan>, Vec<String>) {
    let mut scans = Vec::new();
    let mut warnings = Vec::new();
    for path in lintable_files(root) {
        let Ok(text) = fs::read_to_string(&path) else {
            warnings.push(format!("unreadable file: {}", path.display()));
            continue;
        };
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        scans.push(scan_file(&rel, &text));
    }
    (scans, warnings)
}

/// The shared workspace view every analysis pass runs on: each source
/// file lexed and item-parsed exactly once, plus the call graph built
/// from those scans. One `odr-check` invocation loads this once and
/// hands it to the lint, taint, effect, callgraph and surface passes.
pub struct Workspace {
    /// Every lintable file, scanned, in sorted path order.
    pub scans: Vec<FileScan>,
    /// Unreadable-file warnings from the tree walk.
    pub warnings: Vec<String>,
    /// The call graph over `scans` (node `file_idx` values index it).
    pub graph: crate::graph::CallGraph,
}

/// Scans the tree under `root` and builds the call graph — the one
/// place per invocation that lexes source files.
#[must_use]
pub fn load_workspace(root: &Path) -> Workspace {
    let (scans, warnings) = scan_tree(root);
    let graph = crate::graph::build_graph(root, &scans);
    Workspace {
        scans,
        warnings,
        graph,
    }
}

/// Runs every lint rule over a pre-loaded workspace: the per-file
/// token passes (units, atomics, lock discipline, the last read
/// against the effect pass for calls made under a guard), then — over
/// the workspace call graph built from the same scans — the determinism
/// taint pass, the effect rules and `api/unused-pub`.
#[must_use]
pub fn run_lints_on(ws: &Workspace, root: &Path, allow: &Allowlist) -> LintReport {
    let mut report = LintReport::default();
    for problem in &allow.problems {
        report.warnings.push(problem.clone());
    }
    let scans = &ws.scans;
    report.warnings.extend(ws.warnings.iter().cloned());
    report.files = scans.len();

    let graph = &ws.graph;
    let effects = crate::effects::propagate(graph, scans);

    for scan in scans {
        units_rules(scan, allow, &mut report);
        crate::atomics::atomics_rules(scan, allow, &mut report);

        if !locks::in_scope(&scan.rel_path) {
            continue;
        }
        let ls = locks::analyze_file(&scan.lexed, &scan.in_test);
        for (line_idx, rule, message) in &ls.findings {
            push_violation(&mut report, allow, scan, *line_idx, rule, message.clone());
        }
        // Blocking under a guard, through calls: a call made under a
        // guard to a workspace function the effect pass says may block
        // (its `block` fact is transitive, over the same blocking table
        // plus lock acquisition and condvar waits).
        for e in graph
            .edges
            .iter()
            .filter(|e| e.rel_path == scan.rel_path && !e.in_test)
        {
            let name = e.callee.rsplit("::").next().unwrap_or(&e.callee);
            let Some(held) = ls.guarded_calls.get(&(e.line - 1, name.to_string())) else {
                continue;
            };
            if let Some(chain) = crate::effects::blocking_chain(&effects, graph, &e.callee) {
                push_violation(
                    &mut report,
                    allow,
                    scan,
                    e.line - 1,
                    "lock/blocking-call",
                    format!("call that may block while {held}: {chain}"),
                );
            }
        }
    }

    // --- call-graph passes -------------------------------------------
    crate::taint::taint_rules(graph, scans, allow, &mut report);
    let manifest = crate::effects::load_manifest(root);
    crate::effects::effect_rules(graph, scans, &manifest, allow, &mut report);
    crate::api::unused_pub_rules(ws, root, allow, &mut report);

    for entry in allow.unused() {
        report.warnings.push(format!(
            "unused allowlist entry: {} | {} | {} ({})",
            entry.rule, entry.path_contains, entry.line_contains, entry.reason
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_src(path: &str, src: &str, allow: &Allowlist) -> LintReport {
        let mut report = LintReport::default();
        let s = scan_file(path, src);
        units_rules(&s, allow, &mut report);
        report
    }

    #[test]
    fn unit_mixups_flagged_outside_tests_only() {
        let src = "fn lib() { let d = a_ns - b_ms; }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t() { let d = a_ns - b_ms; }\n\
                   }\n";
        let r = lint_src("crates/qoe/src/lib.rs", src, &Allowlist::default());
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].line, 1);
    }

    #[test]
    fn unit_mixups_in_comments_and_strings_ignored() {
        // Including a raw string spanning lines, the regression class the
        // line scanner could not handle.
        let src = "// a_ns - b_ms\nfn f() { let s = \"a_ns - b_ms\"; }\n/// docs: a_ns - b_ms\n\
                   fn g() -> &'static str {\n    r#\"\n    a_ns - b_ms;\n    \"#\n}\n";
        let r = lint_src("crates/codec/src/lib.rs", src, &Allowlist::default());
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn inline_allow_with_reason_suppresses() {
        let src = "fn f() { let d = a_ns - b_ms; } // lint: allow(units/mixed-suffix) -- b_ms is scaled above\n";
        let r = lint_src("crates/codec/src/lib.rs", src, &Allowlist::default());
        assert!(r.violations.is_empty());
        assert_eq!(r.suppressed, 1);
    }

    #[test]
    fn inline_allow_without_reason_does_not_suppress() {
        let src = "fn f() { let d = a_ns - b_ms; } // lint: allow(units/mixed-suffix)\n";
        let r = lint_src("crates/codec/src/lib.rs", src, &Allowlist::default());
        assert_eq!(r.violations.len(), 1);
    }

    #[test]
    fn allowlist_file_suppresses_matching_line() {
        let allow = Allowlist::parse(
            "units/bare-literal | crates/codec | timeout_ms = 500 | a fixture timeout\n",
            "test",
        );
        let src = "fn f() { let timeout_ms = 500; }\n";
        let r = lint_src("crates/codec/src/codec.rs", src, &allow);
        assert!(r.violations.is_empty());
        assert!(allow.unused().is_empty());
    }

    #[test]
    fn allowlist_rejects_missing_reason_and_unknown_rule() {
        let allow = Allowlist::parse(
            "units/bare-literal | a | b |\nnot/a-rule | a | b | why\n",
            "test",
        );
        assert_eq!(allow.entries.len(), 0);
        assert_eq!(allow.problems.len(), 2);
    }

    #[test]
    fn allowlist_accepts_the_new_rule_families() {
        let allow = Allowlist::parse(
            "lock/blocking-call | a | b | why\nunits/mixed-suffix | a | b | why\n",
            "test",
        );
        assert_eq!(allow.entries.len(), 2);
        assert!(allow.problems.is_empty());
    }

    #[test]
    fn mixed_unit_suffix_arithmetic_flagged() {
        let src = "fn f() { let d = end_ns - start_ms; }\n";
        let r = lint_src("crates/pipeline/src/sim.rs", src, &Allowlist::default());
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert_eq!(r.violations[0].rule, "units/mixed-suffix");
    }

    #[test]
    fn mixed_unit_suffix_through_method_chain_flagged() {
        let src = "fn f() { let late = deadline_us < clock.now_ns(); }\n";
        let r = lint_src("crates/pipeline/src/sim.rs", src, &Allowlist::default());
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
    }

    #[test]
    fn same_unit_suffix_arithmetic_is_clean() {
        let src = "fn f() { let d = end_ns - start_ns; let x = a_ms + b_ms; }\n";
        let r = lint_src("crates/pipeline/src/sim.rs", src, &Allowlist::default());
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn unsuffixed_operands_are_ignored() {
        let src = "fn f() { let d = row_hit_ns + base_miss_rate * row_miss_extra_ns; }\n";
        let r = lint_src("crates/memsim/src/lib.rs", src, &Allowlist::default());
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn bare_literal_into_unit_suffixed_name_flagged() {
        let src = "fn f() { let timeout_ms = 500; }\n";
        let r = lint_src("crates/pipeline/src/sim.rs", src, &Allowlist::default());
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert_eq!(r.violations[0].rule, "units/bare-literal");
    }

    #[test]
    fn bare_literal_zero_and_simtime_are_exempt() {
        let src = "fn f() { let mut acc_ns = 0; acc_ns += step(); }\n";
        let r = lint_src("crates/pipeline/src/sim.rs", src, &Allowlist::default());
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        let src = "fn f() { let t_ns = 500; }\n";
        let r = lint_src("crates/simtime/src/lib.rs", src, &Allowlist::default());
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }
}
