//! The `odr-check` lint pass: token-level rule families enforced over
//! `crates/*/src/**/*.rs`, the root `src/` and the shim crates.
//!
//! Since PR 4 every rule is hosted on the real lexer ([`crate::lex`]), so
//! nothing fires inside string literals, char literals, doc comments or
//! nested block comments — including multi-line raw strings, which the
//! old line scanner could not see past.
//!
//! Rule families (see DESIGN.md §7):
//!
//! * **Determinism** — the pure-simulation crates must stay bit-for-bit
//!   seed-deterministic, so wall-clock reads (`Instant::now`,
//!   `SystemTime`), real sleeping (`thread::sleep`), iteration-order
//!   hazards (`HashMap`/`HashSet`/`RandomState`), and OS randomness are
//!   banned there. The real-time `runtime` crate (and the dev shims and
//!   this tool) are exempt.
//! * **Panic hygiene** — no `.unwrap()` / `.expect(` in non-test library
//!   code anywhere in the workspace.
//! * **Docs** — every public item in `odr-core` and `odr-obs` carries a
//!   doc comment.
//! * **Time units** — arithmetic and comparisons must not mix
//!   identifiers with conflicting `_ns`/`_us`/`_ms` suffixes, and bare
//!   integer literals must not be assigned to unit-suffixed names
//!   outside `simtime` (use a constructor or a named constant; literal
//!   `0` is exempt as unit-polymorphic).
//! * **Lock discipline** — see [`crate::locks`]: no blocking calls while
//!   a guard is live, no pairwise lock-order inversions.
//! * **Unused `pub`** — see [`crate::api::unused_pub_rules`]: a `pub`
//!   item of a crate must be named by someone outside it.
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

/// Crates whose sources must stay seed-deterministic. `fleet` spawns
/// OS threads but still belongs here: thread *scheduling* is made
/// irrelevant by its index-order reduction, while wall-clock reads or
/// OS randomness would genuinely break bit-identical reports. `obs`
/// belongs here too — exporters and counters must be byte-deterministic
/// for golden traces — except for its one wall-clock module (see
/// [`REALTIME_MODULES`]).
pub(crate) const PURE_SIM_CRATES: &[&str] = &[
    "simtime", "core", "pipeline", "workload", "codec", "raster", "memsim", "netsim", "metrics",
    "qoe", "fleet", "cluster", "obs",
];

/// Directories under `crates/` that are exempt from every rule family
/// except panic hygiene (the bench harness drives wall-clock runs; the
/// check tool itself is not simulation code).
pub(crate) const REALTIME_CRATES: &[&str] = &["runtime", "bench", "check"];

/// Real-time *networked* crates: the serving surface and its thin
/// client. Wall-clock reads, real sleeps, and sockets are their job, so
/// the determinism family does not apply — with one exception: OS
/// randomness stays banned. Session traces must replay from an explicit
/// seed (`odr_simtime::Rng`) so a real run can be diffed against the
/// simulator's prediction for the same seed; an ambient-entropy RNG
/// would silently break that contract.
pub(crate) const REALTIME_NET_CRATES: &[&str] = &["serve", "client"];

/// Individual files inside pure-sim crates that are deliberately
/// realtime: `MonoClock` is the realtime runtime's trace timestamp
/// source and the only place `odr-obs` may read the OS clock, and the
/// thread-safe multi-buffer (`SyncQueue`) is the real-thread half of
/// `odr-core` — it parks real threads and stamps its trace events off
/// `MonoClock` by design (it is also in the lock pass's scope). So are
/// the eventcount those threads park on (`Gate`, whose timed park
/// measures a real deadline) and the lock-free engine that parks on it.
pub(crate) const REALTIME_MODULES: &[&str] = &[
    "crates/obs/src/clock.rs",
    "crates/core/src/atomic_swap.rs",
    "crates/core/src/gate.rs",
    "crates/core/src/sync_queue.rs",
];

/// All rule identifiers, used to validate allow entries.
pub(crate) const ALL_RULES: &[&str] = &[
    "determinism/instant",
    "determinism/systemtime",
    "determinism/sleep",
    "determinism/hash-iter",
    "determinism/os-rng",
    "panic/unwrap",
    "panic/expect",
    "doc/missing",
    "units/mixed-suffix",
    "units/bare-literal",
    "lock/blocking-call",
    "lock/order",
    "graph/layer-inversion",
    "atomics/relaxed-publish",
    "atomics/acquire-release-pair",
    "atomics/compare-exchange-order",
    "atomics/relaxed-fence",
    "atomics/static-mut",
    "atomics/unsafe-no-safety",
    "taint/wall-clock",
    "taint/sleep",
    "taint/os-rng",
    "taint/thread-id",
    "taint/env",
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
    /// Rule identifier, e.g. `panic/unwrap`.
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

/// The OS-entropy patterns, shared by the full determinism family and
/// the standalone pass applied to [`REALTIME_NET_CRATES`].
const OS_RNG_PATTERNS: &[(&str, &'static str, &str)] = &[
    ("RandomState", "determinism/os-rng", "OS-seeded hasher breaks determinism"),
    ("rand::", "determinism/os-rng", "external RNG; use odr_simtime::Rng with an explicit seed"),
    ("getrandom", "determinism/os-rng", "OS entropy breaks seed determinism"),
    ("from_entropy", "determinism/os-rng", "OS entropy breaks seed determinism"),
];

/// The determinism family: bans wall-clock, real sleep, randomized
/// iteration and OS entropy in pure-sim code.
pub fn determinism_rules(scan: &FileScan, allow: &Allowlist, report: &mut LintReport) {
    const PATTERNS: &[(&str, &'static str, &str)] = &[
        ("Instant::now", "determinism/instant", "wall-clock read in pure-sim code; use SimTime"),
        ("SystemTime", "determinism/systemtime", "wall-clock read in pure-sim code; use SimTime"),
        ("thread::sleep", "determinism/sleep", "real sleep in pure-sim code; advance SimTime instead"),
        ("HashMap", "determinism/hash-iter", "iteration order is randomized; use BTreeMap or Vec"),
        ("HashSet", "determinism/hash-iter", "iteration order is randomized; use BTreeSet or Vec"),
    ];
    for (i, s) in scan.lexed.code.iter().enumerate() {
        if scan.in_test_line(i) {
            continue;
        }
        for (pat, rule, why) in PATTERNS.iter().chain(OS_RNG_PATTERNS) {
            if s.contains(pat) {
                push_violation(report, allow, scan, i, rule, format!("`{pat}`: {why}"));
            }
        }
    }
}

/// The OS-entropy subset of the determinism family, applied on its own
/// to [`REALTIME_NET_CRATES`]: serving code may read clocks and sleep,
/// but its input traces must stay seed-replayable.
pub(crate) fn os_rng_rules(scan: &FileScan, allow: &Allowlist, report: &mut LintReport) {
    for (i, s) in scan.lexed.code.iter().enumerate() {
        if scan.in_test_line(i) {
            continue;
        }
        for (pat, rule, why) in OS_RNG_PATTERNS {
            if s.contains(pat) {
                push_violation(report, allow, scan, i, rule, format!("`{pat}`: {why}"));
            }
        }
    }
}

/// The panic-hygiene family: no `.unwrap()` / `.expect(` in library code.
pub fn panic_rules(scan: &FileScan, allow: &Allowlist, report: &mut LintReport) {
    for (i, s) in scan.lexed.code.iter().enumerate() {
        if scan.in_test_line(i) {
            continue;
        }
        if s.contains(".unwrap()") {
            push_violation(
                report,
                allow,
                scan,
                i,
                "panic/unwrap",
                "`.unwrap()` in library code; handle the error or allowlist with a reason".into(),
            );
        }
        if s.contains(".expect(") {
            push_violation(
                report,
                allow,
                scan,
                i,
                "panic/expect",
                "`.expect(...)` in library code; handle the error or allowlist with a reason"
                    .into(),
            );
        }
    }
}

const DOC_ITEM_STARTS: &[&str] = &[
    "pub fn ", "pub struct ", "pub enum ", "pub trait ", "pub const ", "pub static ", "pub mod ",
    "pub type ", "pub unsafe fn ", "pub async fn ",
];

/// The documentation family: every public item carries a doc comment.
pub(crate) fn doc_rules(scan: &FileScan, allow: &Allowlist, report: &mut LintReport) {
    for (i, s) in scan.lexed.code.iter().enumerate() {
        if scan.in_test_line(i) {
            continue;
        }
        let trimmed = s.trim_start();
        if !DOC_ITEM_STARTS.iter().any(|p| trimmed.starts_with(p)) {
            continue;
        }
        // Walk upwards over attributes; a doc comment (tracked by the
        // lexer) or a `#[doc...]` attribute must appear directly above.
        let mut documented = false;
        let mut j = i;
        while j > 0 {
            j -= 1;
            if scan.lexed.doc.get(j).copied().unwrap_or(false) {
                documented = true;
                break;
            }
            let above = scan.lexed.code.get(j).map_or("", String::as_str).trim_start();
            if above.starts_with("#[doc") || above.starts_with("#![doc") {
                documented = true;
                break;
            }
            if above.starts_with("#[") || above.starts_with("#!") {
                continue;
            }
            break;
        }
        if !documented {
            let item = trimmed
                .split(['(', '{', '<', '=', ';'])
                .next()
                .unwrap_or(trimmed)
                .trim();
            push_violation(
                report,
                allow,
                scan,
                i,
                "doc/missing",
                format!("public item `{item}` has no doc comment"),
            );
        }
    }
}

/// Returns the `_ns`/`_us`/`_ms` unit suffix of an identifier, if any
/// (case-insensitive, so `TIMEOUT_MS` counts).
fn unit_suffix(name: &str) -> Option<&'static str> {
    let lower = name.to_ascii_lowercase();
    for s in ["_ns", "_us", "_ms"] {
        if lower.ends_with(s) {
            return Some(s);
        }
    }
    None
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
/// `src/`, and the shim crates' sources (panic hygiene still applies
/// there). Tests, benches, examples and fixtures are out of scope.
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
/// token passes, the atomics-discipline pass, and — over the workspace
/// call graph built from the same scans — the determinism taint pass,
/// the effect rules, the `graph/layer-inversion` rule, and the
/// one-level-transitive blocking-under-guard check.
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

    let mut orders = locks::OrderGraph::default();
    // (index into `scans`, per-file lock info) for in-scope files.
    let mut lock_scans: Vec<(usize, locks::LockScan)> = Vec::new();

    for (idx, scan) in scans.iter().enumerate() {
        let rel = scan.rel_path.clone();
        let krate = crate_of(&rel);
        let is_shim = rel.starts_with("shims/");

        if PURE_SIM_CRATES.contains(&krate) && !REALTIME_MODULES.contains(&rel.as_str()) {
            determinism_rules(scan, allow, &mut report);
        } else if REALTIME_NET_CRATES.contains(&krate) {
            os_rng_rules(scan, allow, &mut report);
        } else if !PURE_SIM_CRATES.contains(&krate) {
            debug_assert!(
                is_shim || krate.is_empty() || REALTIME_CRATES.contains(&krate),
                "unclassified crate {krate}: add it to PURE_SIM_CRATES, \
                 REALTIME_CRATES or REALTIME_NET_CRATES"
            );
        }
        panic_rules(scan, allow, &mut report);
        if krate == "core" || krate == "obs" {
            doc_rules(scan, allow, &mut report);
        }
        units_rules(scan, allow, &mut report);
        crate::atomics::atomics_rules(scan, allow, &mut report);

        if locks::in_scope(&rel) {
            let ls = locks::analyze_file(&rel, &scan.lexed, &scan.in_test, &mut orders);
            for (line_idx, rule, message) in &ls.findings {
                push_violation(&mut report, allow, scan, *line_idx, rule, message.clone());
            }
            lock_scans.push((idx, ls));
        }
    }

    // --- call-graph passes -------------------------------------------
    crate::taint::taint_rules(graph, scans, REALTIME_MODULES, allow, &mut report);
    let manifest = crate::effects::load_manifest(root);
    crate::effects::effect_rules(graph, scans, &manifest, allow, &mut report);
    crate::api::unused_pub_rules(ws, root, allow, &mut report);

    // Layer inversion: a non-test pure-sim function calling into the
    // realtime layer (realtime crates, or the sanctioned wall-clock
    // module inside `obs`). Cargo's dependency graph cannot express
    // "may depend on the crate but not this module", so the call graph
    // enforces it.
    for e in &graph.edges {
        if e.in_test {
            continue;
        }
        let caller_crate = crate_of(&e.rel_path);
        if !PURE_SIM_CRATES.contains(&caller_crate)
            || REALTIME_MODULES.contains(&e.rel_path.as_str())
        {
            continue;
        }
        let Some(callee) = graph.fns.get(&e.callee) else {
            continue;
        };
        let callee_crate = crate_of(&callee.rel_path);
        let callee_realtime = REALTIME_CRATES.contains(&callee_crate)
            || REALTIME_NET_CRATES.contains(&callee_crate)
            || REALTIME_MODULES.contains(&callee.rel_path.as_str());
        if callee_realtime {
            if let Some(scan) = scans.iter().find(|s| s.rel_path == e.rel_path) {
                push_violation(
                    &mut report,
                    allow,
                    scan,
                    e.line - 1,
                    "graph/layer-inversion",
                    format!(
                        "pure-sim code calls `{}` in the realtime layer ({})",
                        e.callee, callee.rel_path
                    ),
                );
            }
        }
    }

    // Transitive blocking-under-guard: a call made on a guard-live line
    // to an intra-crate function whose own body makes a direct blocking
    // call. One level deep by construction — the callee's body is
    // scanned directly, not recursed into.
    for (idx, ls) in &lock_scans {
        let scan = &scans[*idx];
        for e in graph.edges.iter().filter(|e| e.rel_path == scan.rel_path) {
            if e.in_test {
                continue;
            }
            let Some(held) = ls.guard_lines.get(&(e.line - 1)) else {
                continue;
            };
            let Some(callee) = graph.fns.get(&e.callee) else {
                continue;
            };
            if callee.cfg_test || crate_of(&callee.rel_path) != crate_of(&scan.rel_path) {
                continue;
            }
            let Some((lo, hi)) = callee.body else { continue };
            let Some(callee_scan) = scans.get(callee.file_idx) else {
                continue;
            };
            if let Some(desc) = locks::blocking_in_range(&callee_scan.lexed.tokens, lo, hi) {
                push_violation(
                    &mut report,
                    allow,
                    scan,
                    e.line - 1,
                    "lock/blocking-call",
                    format!(
                        "call to `{}` (which makes {desc} at {}) while {held}",
                        e.callee, callee.rel_path
                    ),
                );
            }
        }
    }

    // Lock-order inversions are a cross-file property; resolve them once
    // every in-scope file has fed the order graph.
    for (path, (line_idx, rule, message)) in orders.inversions() {
        if let Some(scan) = scans.iter().find(|s| s.rel_path == path) {
            push_violation(&mut report, allow, scan, line_idx, rule, message);
        }
    }

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
        let krate = crate_of(path);
        if PURE_SIM_CRATES.contains(&krate) && !REALTIME_MODULES.contains(&path) {
            determinism_rules(&s, allow, &mut report);
        } else if REALTIME_NET_CRATES.contains(&krate) {
            os_rng_rules(&s, allow, &mut report);
        }
        panic_rules(&s, allow, &mut report);
        if krate == "core" || krate == "obs" {
            doc_rules(&s, allow, &mut report);
        }
        units_rules(&s, allow, &mut report);
        report
    }

    #[test]
    fn instant_now_flagged_in_pure_sim_crate() {
        let r = lint_src(
            "crates/pipeline/src/sim.rs",
            "fn t() { let x = std::time::Instant::now(); }\n",
            &Allowlist::default(),
        );
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].rule, "determinism/instant");
    }

    #[test]
    fn instant_now_allowed_in_runtime_crate() {
        let r = lint_src(
            "crates/runtime/src/stages.rs",
            "fn t() { let x = std::time::Instant::now(); }\n",
            &Allowlist::default(),
        );
        assert!(r.violations.is_empty());
    }

    #[test]
    fn serve_and_client_are_realtime_net_crates() {
        // Wall-clock, sleep, and sockets are the serving surface's job:
        // none of the determinism rules that bind pure-sim crates apply.
        let realtime = "fn t() { let x = std::time::Instant::now(); \
                        std::thread::sleep(d); }\n";
        for path in ["crates/serve/src/session.rs", "crates/client/src/lib.rs"] {
            let r = lint_src(path, realtime, &Allowlist::default());
            assert!(r.violations.is_empty(), "{path}: {:?}", r.violations);
        }
        // …except OS entropy: input traces must replay from an explicit
        // seed so real runs can be diffed against the simulator.
        let entropy = "fn t() { let r = rand::thread_rng(); }\n";
        for path in ["crates/serve/src/session.rs", "crates/client/src/lib.rs"] {
            let r = lint_src(path, entropy, &Allowlist::default());
            assert_eq!(r.violations.len(), 1, "{path}: {:?}", r.violations);
            assert_eq!(r.violations[0].rule, "determinism/os-rng");
        }
    }

    #[test]
    fn fleet_is_a_pure_sim_crate_despite_threads() {
        // The fleet engine may spawn OS threads (scheduling is made
        // deterministic by index-order reduction), but wall-clock reads
        // and real sleeping would still break bit-identical output.
        let ok = "fn run() { std::thread::scope(|s| { s.spawn(|| 1); }); }\n";
        let r = lint_src("crates/fleet/src/engine.rs", ok, &Allowlist::default());
        assert!(r.violations.is_empty(), "{:?}", r.violations);

        let bad = "fn run() { let t = std::time::Instant::now(); std::thread::sleep(d); }\n";
        let r = lint_src("crates/fleet/src/engine.rs", bad, &Allowlist::default());
        let rules: Vec<&str> = r.violations.iter().map(|v| v.rule).collect();
        assert!(rules.contains(&"determinism/instant"), "{rules:?}");
        assert!(rules.contains(&"determinism/sleep"), "{rules:?}");
    }

    #[test]
    fn cluster_is_a_pure_sim_crate() {
        // The cluster control plane is a serial DES over index-derived
        // streams; like `fleet`, its worker pool may spawn OS threads,
        // but wall-clock reads or OS randomness would break its
        // byte-identical report contract.
        let ok = "fn run() { std::thread::scope(|s| { s.spawn(|| 1); }); }\n";
        let r = lint_src("crates/cluster/src/engine.rs", ok, &Allowlist::default());
        assert!(r.violations.is_empty(), "{:?}", r.violations);

        let bad = "fn run() { let t = std::time::Instant::now(); }\n";
        let r = lint_src("crates/cluster/src/engine.rs", bad, &Allowlist::default());
        let rules: Vec<&str> = r.violations.iter().map(|v| v.rule).collect();
        assert!(rules.contains(&"determinism/instant"), "{rules:?}");
    }

    #[test]
    fn obs_is_a_pure_sim_crate_except_its_clock() {
        // Exporters and counters must stay byte-deterministic...
        let bad = "fn t() { let x = std::time::Instant::now(); }\n";
        let r = lint_src("crates/obs/src/export.rs", bad, &Allowlist::default());
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].rule, "determinism/instant");
        // ...but `MonoClock` is the one sanctioned wall-clock module.
        let r = lint_src("crates/obs/src/clock.rs", bad, &Allowlist::default());
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn hashmap_and_sleep_flagged() {
        let src = "use std::collections::HashMap;\nfn z() { std::thread::sleep(d); }\n";
        let r = lint_src("crates/metrics/src/lib.rs", src, &Allowlist::default());
        let rules: Vec<&str> = r.violations.iter().map(|v| v.rule).collect();
        assert!(rules.contains(&"determinism/hash-iter"));
        assert!(rules.contains(&"determinism/sleep"));
    }

    #[test]
    fn unwrap_flagged_outside_tests_only() {
        let src = "fn lib() { x.unwrap(); }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t() { y.unwrap(); }\n\
                   }\n";
        let r = lint_src("crates/qoe/src/lib.rs", src, &Allowlist::default());
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].line, 1);
    }

    #[test]
    fn unwrap_in_comments_and_strings_ignored() {
        let src = "// call .unwrap() here\nfn f() { let s = \".unwrap()\"; }\n/// docs say .expect(\nfn g() {}\n";
        let r = lint_src("crates/codec/src/lib.rs", src, &Allowlist::default());
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn unwrap_inside_multiline_raw_string_ignored() {
        // The regression class the line scanner could not handle: a raw
        // string spanning lines, with banned tokens on its inner lines.
        let src = "fn f() -> &'static str {\n    r#\"\n    x.unwrap();\n    Instant::now();\n    \"#\n}\n";
        let r = lint_src("crates/codec/src/lib.rs", src, &Allowlist::default());
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn unwrap_or_else_not_flagged() {
        let src = "fn f() { x.unwrap_or_else(y); x.unwrap_or(3); x.unwrap_or_default(); }\n";
        let r = lint_src("crates/codec/src/lib.rs", src, &Allowlist::default());
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn undocumented_pub_item_flagged_in_core_only() {
        let src = "pub fn naked() {}\n";
        let r = lint_src("crates/core/src/queue.rs", src, &Allowlist::default());
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].rule, "doc/missing");
        let r2 = lint_src("crates/raster/src/lib.rs", src, &Allowlist::default());
        assert!(r2.violations.is_empty());
        // The observability crate is part of the documented public
        // surface, so the doc rule covers it too.
        let r3 = lint_src("crates/obs/src/event.rs", src, &Allowlist::default());
        assert_eq!(r3.violations.len(), 1);
        assert_eq!(r3.violations[0].rule, "doc/missing");
    }

    #[test]
    fn documented_pub_item_with_attributes_passes() {
        let src = "/// Documented.\n#[must_use]\n#[inline]\npub fn fine() -> u8 { 0 }\n";
        let r = lint_src("crates/core/src/queue.rs", src, &Allowlist::default());
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn inline_allow_with_reason_suppresses() {
        let src = "fn f() { x.unwrap(); } // lint: allow(panic/unwrap) -- invariant: x checked above\n";
        let r = lint_src("crates/codec/src/lib.rs", src, &Allowlist::default());
        assert!(r.violations.is_empty());
        assert_eq!(r.suppressed, 1);
    }

    #[test]
    fn inline_allow_without_reason_does_not_suppress() {
        let src = "fn f() { x.unwrap(); } // lint: allow(panic/unwrap)\n";
        let r = lint_src("crates/codec/src/lib.rs", src, &Allowlist::default());
        assert_eq!(r.violations.len(), 1);
    }

    #[test]
    fn allowlist_file_suppresses_matching_line() {
        let allow = Allowlist::parse(
            "panic/expect | crates/codec | .expect(\"decode\") | fixture streams are valid\n",
            "test",
        );
        let src = "fn f() { y.expect(\"decode\"); }\n";
        let r = lint_src("crates/codec/src/codec.rs", src, &allow);
        assert!(r.violations.is_empty());
        assert!(allow.unused().is_empty());
    }

    #[test]
    fn allowlist_rejects_missing_reason_and_unknown_rule() {
        let allow = Allowlist::parse(
            "panic/unwrap | a | b |\nnot/a-rule | a | b | why\n",
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
