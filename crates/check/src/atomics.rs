//! The atomics-discipline pass: memory-ordering hygiene over every
//! `std::sync::atomic` call site in the workspace.
//!
//! The lock-free multi-buffer rests on raw atomics whose correctness
//! depends on picking the right `Ordering` at every site. The model
//! checker explores the orderings of the swap protocol itself; these
//! rules are the static side of that gate, for every site:
//!
//! * `atomics/relaxed-publish` — a `store`/`swap`, or a
//!   `compare_exchange` success, with `Ordering::Relaxed` whose value is
//!   **not** a literal. Storing a literal flag
//!   (`stop.store(true, Relaxed)`) is a pure signal and legal; storing a
//!   computed value with `Relaxed` publishes data without a
//!   happens-before edge, so a consumer can observe the pointer/index
//!   before the bytes it refers to.
//! * `atomics/acquire-release-pair` — within one file, a field that is
//!   written with `Release`/`AcqRel`/`SeqCst` somewhere but read with
//!   `Relaxed` elsewhere: the read side discards the ordering the write
//!   side paid for.
//! * `atomics/static-mut` — `static mut` is unsynchronized shared
//!   mutable state; use an atomic or a lock.
//!
//! Classification of a store as *publication* is data-flow-lite within
//! the call site: a value token sequence consisting only of literals
//! (`true`, `false`, integer literals, or a unary minus before one) is a
//! signal, anything else is treated as published data. Test regions are
//! skipped, and every finding routes through the shared allowlist.
//!
//! Two ordering mistakes need no rule here because rustc rejects them:
//! `fence(Ordering::Relaxed)` and a `Release`/`AcqRel` CAS failure
//! ordering are both errors under its deny-by-default
//! `invalid_atomic_ordering` lint. An `unsafe` block without a
//! `// SAFETY:` comment is clippy's `undocumented_unsafe_blocks`, denied
//! in the workspace lint table.

use crate::lex::{TokKind, Token};
use crate::lint::{push_violation, Allowlist, FileScan, LintReport};
use crate::locks::receiver_chain;
use std::collections::BTreeMap;

/// All atomic method names whose receiver is an atomic field (used for
/// the acquire/release pairing inventory).
const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

/// One atomic call site: receiver chain, method, orderings, line.
struct AtomicSite {
    recv: String,
    method: &'static str,
    orderings: Vec<String>,
    line: usize,
    /// `true` when the call writes a computed value (a store, swap or
    /// CAS success whose value is not a bare literal signal).
    publishes_computed: bool,
}

/// Splits a call's argument tokens (cursor on `(`) into top-level
/// comma-separated argument slices.
fn split_args(toks: &[Token], open: usize) -> Vec<Vec<&Token>> {
    let mut args: Vec<Vec<&Token>> = vec![Vec::new()];
    let mut depth = 0usize;
    let mut j = open;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
            if depth == 1 {
                j += 1;
                continue;
            }
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return args;
            }
        } else if t.is_punct(',') && depth == 1 {
            args.push(Vec::new());
            j += 1;
            continue;
        }
        if depth >= 1 {
            if let Some(last) = args.last_mut() {
                last.push(t);
            }
        }
        j += 1;
    }
    args
}

/// The `Ordering` variant named in an argument slice, if any.
fn ordering_of(arg: &[&Token]) -> Option<String> {
    for t in arg {
        if t.kind == TokKind::Ident
            && matches!(
                t.text.as_str(),
                "Relaxed" | "Acquire" | "Release" | "AcqRel" | "SeqCst"
            )
        {
            return Some(t.text.clone());
        }
    }
    None
}

/// `true` when the argument is a pure literal: `true`, `false`, an
/// integer/float literal, optionally behind a unary minus or an `as`
/// cast of a literal.
fn is_literal_value(arg: &[&Token]) -> bool {
    let mut saw_value = false;
    for t in arg {
        match t.kind {
            TokKind::Int | TokKind::Float => saw_value = true,
            TokKind::Ident if t.text == "true" || t.text == "false" => saw_value = true,
            TokKind::Ident if t.text == "as" => {}
            // Cast target type idents (`0 as u64`) are fine.
            TokKind::Ident
                if saw_value
                    && matches!(
                        t.text.as_str(),
                        "u8" | "u16" | "u32" | "u64" | "usize" | "i8" | "i16" | "i32" | "i64"
                            | "isize"
                    ) => {}
            TokKind::Punct if t.is_punct('-') && !saw_value => {}
            _ => return false,
        }
    }
    saw_value
}

/// Collects every atomic method call site in a file.
fn collect_sites(scan: &FileScan) -> Vec<AtomicSite> {
    let toks = &scan.lexed.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || i == 0 || !toks[i - 1].is_punct('.') {
            continue;
        }
        let Some(method) = ATOMIC_METHODS.iter().find(|m| **m == t.text) else {
            continue;
        };
        if !toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        let args = split_args(toks, i + 1);
        let orderings: Vec<String> = args.iter().filter_map(|a| ordering_of(a)).collect();
        if orderings.is_empty() {
            continue; // `.load(buf)` on a reader, `.store(x)` on a cell…
        }
        let value_arg = match *method {
            "store" | "swap" => Some(0),
            "compare_exchange" | "compare_exchange_weak" => Some(1),
            _ => None,
        };
        let publishes_computed =
            value_arg.is_some_and(|k| args.get(k).is_some_and(|a| !is_literal_value(a)));
        out.push(AtomicSite {
            recv: receiver_chain(toks, i - 1),
            method,
            orderings,
            line: t.line,
            publishes_computed,
        });
    }
    out
}

/// Runs the atomics-discipline rule family over one file.
pub fn atomics_rules(scan: &FileScan, allow: &Allowlist, report: &mut LintReport) {
    let in_test = |line: usize| scan.in_test.get(line.saturating_sub(1)).copied().unwrap_or(false);

    let sites = collect_sites(scan);

    // --- per-site rule: the first ordering is a store's, or a CAS's
    // success ordering.
    for s in &sites {
        if in_test(s.line) || !s.publishes_computed {
            continue;
        }
        if s.orderings.first().is_some_and(|o| o == "Relaxed") {
            push_violation(
                report,
                allow,
                scan,
                s.line - 1,
                "atomics/relaxed-publish",
                format!(
                    "`.{}(.., Relaxed)` publishes a computed value without a happens-before \
                     edge; use `Ordering::Release` (literal flag stores are exempt)",
                    s.method
                ),
            );
        }
    }

    // --- acquire/release pairing per receiver ------------------------
    let mut release_writers: BTreeMap<&str, usize> = BTreeMap::new();
    for s in &sites {
        if s.recv.is_empty() || in_test(s.line) {
            continue;
        }
        let writes = s.method != "load";
        if writes
            && s.orderings
                .iter()
                .any(|o| matches!(o.as_str(), "Release" | "AcqRel" | "SeqCst"))
        {
            release_writers.entry(s.recv.as_str()).or_insert(s.line);
        }
    }
    for s in &sites {
        if s.recv.is_empty() || in_test(s.line) || s.method != "load" {
            continue;
        }
        if s.orderings.first().is_some_and(|o| o == "Relaxed") {
            if let Some(wline) = release_writers.get(s.recv.as_str()) {
                push_violation(
                    report,
                    allow,
                    scan,
                    s.line - 1,
                    "atomics/acquire-release-pair",
                    format!(
                        "`{}` is written with Release/SeqCst ordering (line {wline}) but \
                         read with `Relaxed` here; use `Ordering::Acquire`",
                        s.recv
                    ),
                );
            }
        }
    }

    // --- static mut (token scan) -------------------------------------
    let toks = &scan.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.is_ident("static")
            && toks.get(i + 1).is_some_and(|n| n.is_ident("mut"))
            && !in_test(t.line)
        {
            push_violation(
                report,
                allow,
                scan,
                t.line - 1,
                "atomics/static-mut",
                "`static mut` is unsynchronized shared mutable state; use an atomic, \
                 a lock, or `OnceLock`"
                    .into(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::scan_file;

    fn run(src: &str) -> LintReport {
        let mut report = LintReport::default();
        let scan = scan_file("crates/core/src/swap.rs", src);
        atomics_rules(&scan, &Allowlist::default(), &mut report);
        report
    }

    #[test]
    fn relaxed_publish_of_computed_value_flagged() {
        let r = run("fn f() { self.head.store(idx, Ordering::Relaxed); }\n");
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert_eq!(r.violations[0].rule, "atomics/relaxed-publish");
    }

    #[test]
    fn relaxed_literal_flag_store_is_clean() {
        let r = run(
            "fn f() { stop.store(true, Ordering::Relaxed); n.store(0, Ordering::Relaxed); }\n",
        );
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn release_store_relaxed_load_pair_flagged() {
        let r = run(
            "fn w(&self) { self.seq.store(v, Ordering::Release); }\n\
             fn r(&self) -> u64 { self.seq.load(Ordering::Relaxed) }\n",
        );
        let rules: Vec<&str> = r.violations.iter().map(|v| v.rule).collect();
        assert!(rules.contains(&"atomics/acquire-release-pair"), "{rules:?}");
    }

    #[test]
    fn relaxed_counters_without_release_writers_are_clean() {
        let r = run(
            "fn f() { n.fetch_add(1, Ordering::Relaxed); let x = n.load(Ordering::Relaxed); }\n",
        );
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn relaxed_success_cas_publishing_flagged() {
        let r = run(
            "fn f() { s.compare_exchange(old, new, Ordering::Relaxed, Ordering::Relaxed); }\n",
        );
        let rules: Vec<&str> = r.violations.iter().map(|v| v.rule).collect();
        assert_eq!(rules, ["atomics/relaxed-publish"]);
        // A literal CAS value is a signal, like a literal store.
        let r = run("fn f() { s.compare_exchange(0, 1, Ordering::Relaxed, Ordering::Relaxed); }\n");
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn static_mut_flagged() {
        let r = run("static mut COUNTER: u64 = 0;\n");
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].rule, "atomics/static-mut");
    }

    #[test]
    fn test_regions_are_skipped() {
        let r = run(
            "#[cfg(test)]\nmod tests {\n    static mut X: u8 = 0;\n    fn t() { h.store(v, Ordering::Relaxed); }\n}\n",
        );
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }
}
