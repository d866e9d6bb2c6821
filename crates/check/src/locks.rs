//! Lock-discipline analysis over the blocking (real-thread) modules.
//!
//! The real-thread modules block by design — the swap engine parks on a
//! mutex/condvar eventcount, pools and accumulators sit behind mutexes —
//! so the two bug classes that silently break them are (a) a *blocking
//! call made while a lock guard is live* — a condvar wait on a different
//! lock, a channel send/recv, a real sleep, a thread join — and (b)
//! *inconsistent pairwise lock acquisition order* across code paths, the
//! classic deadlock seed. The model checker explores interleavings of
//! the swap protocol itself but cannot see a blocking call introduced
//! under a lock elsewhere; this pass closes that gap statically.
//!
//! The analysis walks the token stream (from [`crate::lex`]) of each
//! in-scope file, tracking **guard scopes**:
//!
//! * `let g = <recv>.lock()` (also `.read()` / `.write()` with empty
//!   argument lists, and the repo's `lock(&m)` / `relock(m.lock())`
//!   poison-recovery wrappers) starts a guard named `g` on lock `<recv>`,
//!   live until the enclosing block closes or `drop(g)`;
//! * an un-bound acquisition (`lock(&m).record(x)`) is a temporary guard,
//!   live to the end of its statement;
//! * `cv.wait(g)` / `wait_while` / `wait_timeout` *consume and reacquire*
//!   `g` — legal for `g` itself, flagged when any **other** guard is live
//!   (that lock stays held for the whole sleep);
//! * acquiring lock B while guard A is live records the ordered pair
//!   (A, B); after the whole scope is scanned, seeing both (A, B) and
//!   (B, A) reports an inversion at both sites.
//!
//! Heuristics are deliberately name-based (no type information), tuned so
//! the current tree is clean without suppressions. `#[cfg(test)]` regions
//! are tracked (so the order graph knows about test-only acquisition
//! pairs) but produce no findings, and an inversion is only reported when
//! **both** orders are witnessed by production code — a test that
//! deliberately reverses the order (poisoning/fault-injection scenarios)
//! does not indict the shipping ordering.
//!
//! Since PR 6 the pass also exports each file's guard-live line map
//! ([`LockScan::guard_lines`]); the lint driver joins it with the
//! workspace call graph ([`crate::graph`]) to flag calls made under a
//! guard to intra-crate functions whose own bodies block — one level of
//! transitivity beyond the inline detection here.

use std::collections::BTreeMap;

use crate::lex::{LexedFile, TokKind, Token};

/// Per-file result of the pass: the inline findings plus the guard-live
/// line map the lint driver uses for the call-graph-transitive check
/// (a call made on a guard-live line to a function that itself blocks).
#[derive(Debug, Default)]
pub struct LockScan {
    /// Blocking-under-lock findings (0-based line, rule, message).
    pub findings: Vec<Finding>,
    /// 0-based non-test lines on which at least one guard is live, with
    /// a description of the earliest-held guard.
    pub guard_lines: BTreeMap<usize, String>,
}

/// Source files subject to the lock-discipline pass: path prefixes
/// relative to the repo root. It covers the real-thread path — the
/// stage threads, the serving surface (resident list, departures,
/// telemetry registry), the multi-buffer with the eventcount it parks
/// on, and the observability ring: every `std::sync` guard in the
/// workspace is taken in one of these — plus the arena-pooled event
/// storage, which the fleet workers share across sessions and which
/// must stay guard-free (a lock introduced there would serialize the
/// million-session fast path and this pass would see it first).
pub(crate) const LOCK_SCOPE: &[&str] = &[
    "crates/runtime/src/",
    "crates/serve/src/",
    "crates/core/src/arena.rs",
    "crates/core/src/atomic_swap.rs",
    "crates/core/src/gate.rs",
    "crates/core/src/sync_queue.rs",
    "crates/obs/src/recorder.rs",
];

/// `true` when `rel_path` is covered by the pass.
#[must_use]
pub fn in_scope(rel_path: &str) -> bool {
    LOCK_SCOPE.iter().any(|p| rel_path.starts_with(p))
}

/// One pass finding: 0-based line index, rule id, message. The caller
/// (the lint driver) routes these through the shared allowlist.
pub type Finding = (usize, &'static str, String);

/// Cross-file accumulator for pairwise lock acquisition order. Keys are
/// normalized receiver paths (`self.state`); one representative site is
/// kept per ordered pair.
#[derive(Debug, Default)]
pub struct OrderGraph {
    /// (first-lock, second-lock) → first site that acquired them nested
    /// in that order.
    pairs: BTreeMap<(String, String), Site>,
}

/// One representative nested-acquisition site.
#[derive(Debug)]
struct Site {
    path: String,
    line: usize,
    /// `true` when at least one site for this ordered pair was outside
    /// `#[cfg(test)]` code.
    non_test: bool,
}

impl OrderGraph {
    fn record(&mut self, outer: &str, inner: &str, path: &str, line: usize, in_test: bool) {
        if outer == inner {
            return;
        }
        let site = self
            .pairs
            .entry((outer.to_string(), inner.to_string()))
            .or_insert_with(|| Site {
                path: path.to_string(),
                line,
                non_test: !in_test,
            });
        // A production site supersedes a test-only representative: the
        // inversion report should point at shipping code.
        if !in_test && !site.non_test {
            site.path = path.to_string();
            site.line = line;
            site.non_test = true;
        }
    }

    /// Reports every pair of locks acquired in both orders **in
    /// production code**: one finding per site, attributed to its file,
    /// 0-based line indices. A direction witnessed only by
    /// `#[cfg(test)]`-gated code does not count — tests may deliberately
    /// acquire in the reverse order (poisoning scenarios, fault
    /// injection) without indicting the production ordering.
    #[must_use]
    pub fn inversions(&self) -> Vec<(String, Finding)> {
        let mut out = Vec::new();
        for ((a, b), site) in &self.pairs {
            if a < b && site.non_test {
                if let Some(rev) = self.pairs.get(&(b.clone(), a.clone())) {
                    if !rev.non_test {
                        continue;
                    }
                    let msg_fwd = format!(
                        "lock order inversion: `{a}` then `{b}` here, but `{b}` then `{a}` at {}:{}",
                        rev.path,
                        rev.line + 1
                    );
                    let msg_rev = format!(
                        "lock order inversion: `{b}` then `{a}` here, but `{a}` then `{b}` at {}:{}",
                        site.path,
                        site.line + 1
                    );
                    out.push((site.path.clone(), (site.line, "lock/order", msg_fwd)));
                    out.push((rev.path.clone(), (rev.line, "lock/order", msg_rev)));
                }
            }
        }
        out
    }
}

#[derive(Debug)]
struct Guard {
    /// Binding name; empty for statement temporaries.
    name: String,
    /// Normalized receiver path of the lock (`self.state`, `mtp`).
    lock: String,
    /// Brace depth at creation; the guard dies when the depth drops
    /// below this.
    depth: usize,
    /// Statement temporary: dies at the next `;`.
    temp: bool,
}

/// Walks one file's tokens and returns blocking-under-lock findings plus
/// the guard-live line map, feeding nested acquisitions into `orders`.
/// `in_test` marks 1-based lines inside `#[cfg(test)]` regions (index 0
/// = line 1): guard tracking still runs there so the order graph sees
/// test-only acquisition pairs (marked as such), but no findings are
/// emitted from test code.
#[must_use]
pub fn analyze_file(
    rel_path: &str,
    file: &LexedFile,
    in_test: &[bool],
    orders: &mut OrderGraph,
) -> LockScan {
    let toks = &file.tokens;
    let mut out = LockScan::default();
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0usize;
    // The active `let` binding name, if the statement began with one.
    let mut pending_let: Option<String> = None;

    let is_test = |line: usize| in_test.get(line - 1).copied().unwrap_or(false);

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('{') {
            depth += 1;
            i += 1;
            continue;
        }
        if t.is_punct('}') {
            depth = depth.saturating_sub(1);
            guards.retain(|g| g.depth <= depth);
            pending_let = None;
            i += 1;
            continue;
        }
        if t.is_punct(';') {
            guards.retain(|g| !g.temp);
            pending_let = None;
            i += 1;
            continue;
        }
        let test_tok = is_test(t.line);
        if !test_tok {
            if let Some(g) = guards.first() {
                out.guard_lines
                    .entry(t.line - 1)
                    .or_insert_with(|| describe(g));
            }
        }

        // `let [mut] NAME =` / `let [mut] NAME:` — remember the binding.
        if t.is_ident("let") {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            if let (Some(name), Some(next)) = (toks.get(j), toks.get(j + 1)) {
                if name.kind == TokKind::Ident && (next.is_punct('=') || next.is_punct(':')) {
                    pending_let = Some(name.text.clone());
                }
            }
            i += 1;
            continue;
        }

        // `drop(NAME)` ends that guard early.
        if t.is_ident("drop")
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
            && !prev_is_punct(toks, i, '.')
        {
            if let Some(arg) = toks.get(i + 2) {
                if arg.kind == TokKind::Ident {
                    guards.retain(|g| g.name != arg.text);
                }
            }
            i += 1;
            continue;
        }

        // Method-form acquisition: `<recv>.lock()` (or `.read()` /
        // `.write()` with empty argument lists — RwLock's signatures;
        // io::Write::write takes arguments, so it never matches).
        if t.kind == TokKind::Ident
            && prev_is_punct(toks, i, '.')
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(')'))
            && matches!(t.text.as_str(), "lock" | "read" | "write")
        {
            let lock = receiver_chain(toks, i - 1);
            if !lock.is_empty() {
                acquire(
                    &mut guards,
                    orders,
                    rel_path,
                    t.line,
                    depth,
                    &pending_let,
                    lock,
                    test_tok,
                );
            }
            i += 3;
            continue;
        }

        // Wrapper-form acquisition: `lock(&m)` / `relock(expr)` called as
        // a free function. When the wrapped expression itself contains a
        // method-form `.lock()`, the method form above already handled it.
        if t.kind == TokKind::Ident
            && matches!(t.text.as_str(), "lock" | "relock")
            && !prev_is_punct(toks, i, '.')
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
        {
            let (inner_lock, has_method_form) = wrapper_argument(toks, i + 1);
            if !has_method_form {
                if let Some(lock) = inner_lock {
                    acquire(
                        &mut guards,
                        orders,
                        rel_path,
                        t.line,
                        depth,
                        &pending_let,
                        lock,
                        test_tok,
                    );
                }
            }
            i += 1;
            continue;
        }

        // Condvar waits: `cv.wait(g)` / `wait_while(g, ..)` /
        // `wait_timeout(g, ..)`. Waiting *on a live guard* is the
        // protocol; doing so while ANY OTHER guard is live blocks with
        // that other lock held.
        if t.kind == TokKind::Ident
            && prev_is_punct(toks, i, '.')
            && matches!(t.text.as_str(), "wait" | "wait_while" | "wait_timeout")
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
        {
            let arg = first_ident_in_args(toks, i + 1);
            let waits_on_guard = arg
                .as_ref()
                .is_some_and(|a| guards.iter().any(|g| g.name == *a));
            let others: Vec<&Guard> = guards
                .iter()
                .filter(|g| arg.as_ref() != Some(&g.name))
                .collect();
            if let Some(other) = others.first() {
                if !test_tok {
                    let held = describe(other);
                    let msg = if waits_on_guard {
                        format!(
                            "`{}(..)` releases only its own guard; {held} stays held for the whole wait",
                            t.text
                        )
                    } else {
                        format!("condvar `{}(..)` while {held} is held", t.text)
                    };
                    out.findings.push((t.line - 1, "lock/blocking-call", msg));
                }
            }
            i += 1;
            continue;
        }

        // Blocking calls that must never run under a guard.
        if let Some(desc) = blocking_call(toks, i) {
            if let Some(g) = guards.first() {
                if !test_tok {
                    out.findings.push((
                        t.line - 1,
                        "lock/blocking-call",
                        format!("{desc} while {} is held", describe(g)),
                    ));
                }
            }
        }

        i += 1;
    }
    out
}

fn describe(g: &Guard) -> String {
    if g.name.is_empty() {
        format!("the `{}` guard", g.lock)
    } else {
        format!("guard `{}` (lock `{}`)", g.name, g.lock)
    }
}

#[allow(clippy::too_many_arguments)]
fn acquire(
    guards: &mut Vec<Guard>,
    orders: &mut OrderGraph,
    rel_path: &str,
    line: usize,
    depth: usize,
    pending_let: &Option<String>,
    lock: String,
    in_test: bool,
) {
    for g in guards.iter() {
        orders.record(&g.lock, &lock, rel_path, line - 1, in_test);
    }
    // Re-binding an existing guard name (`g = relock(cv.wait(g))`)
    // replaces it rather than stacking a second acquisition.
    if let Some(name) = pending_let {
        guards.retain(|g| g.name != *name);
    }
    guards.push(Guard {
        name: pending_let.clone().unwrap_or_default(),
        lock,
        depth,
        temp: pending_let.is_none(),
    });
}

fn prev_is_punct(toks: &[Token], i: usize, c: char) -> bool {
    i > 0 && toks[i - 1].is_punct(c)
}

/// Walks backwards from the `.` of a method call, collecting the
/// `ident(.ident | ::ident)*` receiver chain as text. Returns `""` when
/// the receiver is not a plain path (e.g. a call result: `m().lock()`).
/// Shared with the atomics pass, which groups sites by the same
/// normalized receiver text.
pub(crate) fn receiver_chain(toks: &[Token], dot: usize) -> String {
    let mut parts: Vec<&str> = Vec::new();
    let mut j = dot; // index of the `.`
    loop {
        if j == 0 {
            break;
        }
        let prev = &toks[j - 1];
        if prev.kind == TokKind::Ident {
            parts.push(&prev.text);
            j -= 1;
            // Continue through `.` or `::`.
            if j >= 1 && toks[j - 1].is_punct('.') {
                j -= 1;
                continue;
            }
            if j >= 2 && toks[j - 1].is_punct(':') && toks[j - 2].is_punct(':') {
                parts.push("::");
                j -= 2;
                continue;
            }
            break;
        }
        // `)` directly before the dot: receiver is a call result.
        return String::new();
    }
    parts.reverse();
    let mut out = String::new();
    for (k, p) in parts.iter().enumerate() {
        if *p == "::" {
            out.push_str("::");
        } else {
            if k > 0 && !out.ends_with("::") {
                out.push('.');
            }
            out.push_str(p);
        }
    }
    out
}

/// Scans a wrapper call's parenthesised argument (cursor on `(`):
/// returns the first ident chain inside (skipping `&` / `mut`) and
/// whether the argument contains any method call — in which case the
/// wrapper is not treated as an acquisition itself.
fn wrapper_argument(toks: &[Token], open: usize) -> (Option<String>, bool) {
    let mut depth = 0usize;
    let mut j = open;
    let mut chain: Vec<String> = Vec::new();
    let mut chain_done = false;
    let mut has_method_form = false;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('(') {
            depth += 1;
            if depth == 1 {
                j += 1;
                continue;
            }
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
        if t.kind == TokKind::Ident
            && prev_is_punct(toks, j, '.')
            && toks.get(j + 1).is_some_and(|t| t.is_punct('('))
        {
            // Any method call inside the argument: the expression is not
            // a plain `&lock` path. Either it is `m.lock()` (the
            // method-form branch already created the guard) or it is
            // something like `cv.wait(g)` (not an acquisition at all).
            has_method_form = true;
        }
        if !chain_done {
            match t.kind {
                TokKind::Ident if t.text != "mut" => chain.push(t.text.clone()),
                TokKind::Punct if t.is_punct('&') || t.is_punct(':') => {}
                TokKind::Punct if t.is_punct('.') => {}
                _ => chain_done = !chain.is_empty(),
            }
        }
        j += 1;
    }
    let lock = if chain.is_empty() {
        None
    } else {
        Some(chain.join("."))
    };
    (lock, has_method_form)
}

/// The first plain identifier inside a call's argument list (cursor on
/// `(`), skipping `&` and `mut`.
fn first_ident_in_args(toks: &[Token], open: usize) -> Option<String> {
    let mut j = open + 1;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct(')') {
            return None;
        }
        if t.kind == TokKind::Ident && t.text != "mut" {
            return Some(t.text.clone());
        }
        if !t.is_punct('&') {
            return None;
        }
        j += 1;
    }
    None
}

/// Scans a token range (a function body from the call graph) for the
/// first direct blocking call, returning its description. Used by the
/// lint driver's transitive check: a call on a guard-live line to a
/// function whose own body blocks.
#[must_use]
pub(crate) fn blocking_in_range(toks: &[Token], lo: usize, hi: usize) -> Option<String> {
    let hi = hi.min(toks.len());
    (lo.min(hi)..hi).find_map(|i| blocking_call(toks, i))
}

/// Recognises a blocking call at token `i`, returning its description.
/// Shared with the effect pass ([`crate::effects`]), which extends the
/// table with lock acquisition and condvar waits.
pub(crate) fn blocking_call(toks: &[Token], i: usize) -> Option<String> {
    let t = &toks[i];
    if t.kind != TokKind::Ident {
        return None;
    }
    let called = toks.get(i + 1).is_some_and(|t| t.is_punct('('));
    if !called {
        return None;
    }
    // `thread::sleep(..)` — any path ending in `::sleep`.
    if t.text == "sleep" && i >= 2 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':') {
        return Some("`thread::sleep(..)`".to_string());
    }
    let method = prev_is_punct(toks, i, '.');
    if !method {
        return None;
    }
    match t.text.as_str() {
        // Thread join takes no arguments; PathBuf::join takes one, so
        // requiring `()` keeps path joins out.
        "join" if toks.get(i + 2).is_some_and(|t| t.is_punct(')')) => {
            Some("`.join()`".to_string())
        }
        "send" => Some("channel `.send(..)`".to_string()),
        "recv" | "recv_timeout" => Some(format!("channel `.{}(..)`", t.text)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;

    fn run(src: &str) -> (Vec<Finding>, OrderGraph) {
        let file = lex(src);
        let in_test = vec![false; file.lines()];
        let mut orders = OrderGraph::default();
        let s = analyze_file("crates/runtime/src/x.rs", &file, &in_test, &mut orders);
        (s.findings, orders)
    }

    #[test]
    fn sleep_under_guard_is_flagged() {
        let (f, _) = run("fn f() { let g = m.lock(); thread::sleep(d); }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].1, "lock/blocking-call");
        assert!(f[0].2.contains("sleep"), "{}", f[0].2);
    }

    #[test]
    fn sleep_after_guard_scope_closes_is_clean() {
        let (f, _) = run("fn f() { { let g = m.lock(); g.touch(); } thread::sleep(d); }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn drop_releases_the_guard() {
        let (f, _) = run("fn f() { let g = m.lock(); drop(g); thread::sleep(d); }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn send_and_recv_under_guard_flagged() {
        let (f, _) = run("fn f() { let g = state.lock(); tx.send(v); let x = rx.recv(); }");
        assert_eq!(f.len(), 2, "{f:?}");
    }

    #[test]
    fn temporary_guard_covers_only_its_statement() {
        // The un-bound `lock(&m)` temporary dies at the `;`.
        let (f, _) = run("fn f() { lock(&m).record(v); thread::sleep(d); }");
        assert!(f.is_empty(), "{f:?}");
        let (f, _) = run("fn f() { lock(&m).record(rx.recv()); }");
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn wait_with_own_guard_is_the_protocol() {
        let (f, _) = run(
            "fn f() { let mut guard = relock(self.state.lock());\n\
             loop { guard = relock(self.space.wait(guard)); } }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn wait_while_holding_a_second_lock_is_flagged() {
        let (f, _) = run(
            "fn f() { let a = self.meta.lock(); let g = self.state.lock();\n\
             let g = self.cv.wait(g); }",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].2.contains("meta"), "{}", f[0].2);
    }

    #[test]
    fn join_under_guard_flagged_but_path_join_ignored() {
        let (f, _) = run("fn f() { let g = m.lock(); handle.join(); }");
        assert_eq!(f.len(), 1, "{f:?}");
        let (f, _) = run("fn f() { let g = m.lock(); let p = root.join(name); }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn order_inversion_detected_across_functions() {
        let (_, orders) = run(
            "fn ab() { let a = self.a.lock(); let b = self.b.lock(); }\n\
             fn ba() { let b = self.b.lock(); let a = self.a.lock(); }",
        );
        let inv = orders.inversions();
        assert_eq!(inv.len(), 2, "{inv:?}");
        assert!(inv[0].1 .2.contains("inversion"));
    }

    #[test]
    fn consistent_order_is_clean() {
        let (_, orders) = run(
            "fn one() { let a = self.a.lock(); let b = self.b.lock(); }\n\
             fn two() { let a = self.a.lock(); let b = self.b.lock(); }",
        );
        assert!(orders.inversions().is_empty());
    }

    #[test]
    fn rwlock_read_write_create_guards() {
        let (f, _) = run("fn f() { let r = map.read(); slow.recv(); }");
        assert_eq!(f.len(), 1, "{f:?}");
        // io-style `.write(buf)` has arguments: not a guard.
        let (f, _) = run("fn f() { out.write(buf); slow.recv(); }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn test_regions_emit_no_findings() {
        let src = "fn f() { let g = m.lock(); thread::sleep(d); }";
        let file = lex(src);
        let in_test = vec![true; file.lines()];
        let mut orders = OrderGraph::default();
        let s = analyze_file("crates/runtime/src/x.rs", &file, &in_test, &mut orders);
        assert!(s.findings.is_empty(), "{:?}", s.findings);
        assert!(s.guard_lines.is_empty(), "{:?}", s.guard_lines);
    }

    #[test]
    fn guard_lines_cover_the_live_span_only() {
        let src = "fn f() {\n    let g = m.lock();\n    g.touch();\n}\nfn h() {\n    free();\n}\n";
        let file = lex(src);
        let in_test = vec![false; file.lines()];
        let mut orders = OrderGraph::default();
        let s = analyze_file("crates/runtime/src/x.rs", &file, &in_test, &mut orders);
        // Lines 2-3 (0-based 1-2) are guard-live; `h` is not.
        assert!(s.guard_lines.contains_key(&2), "{:?}", s.guard_lines);
        assert!(!s.guard_lines.contains_key(&5), "{:?}", s.guard_lines);
    }

    #[test]
    fn test_only_reverse_order_does_not_indict_production() {
        // Production acquires (a, b); only a #[cfg(test)] region takes
        // (b, a). The inversion must NOT be reported.
        let src = "fn one() { let a = self.a.lock(); let b = self.b.lock(); }\n\
                   fn rev() { let b = self.b.lock(); let a = self.a.lock(); }\n";
        let file = lex(src);
        // Mark line 2 (the reverse order) as test-only.
        let in_test = vec![false, true];
        let mut orders = OrderGraph::default();
        let _ = analyze_file("crates/runtime/src/x.rs", &file, &in_test, &mut orders);
        assert!(orders.inversions().is_empty(), "{:?}", orders.inversions());
    }

    #[test]
    fn production_site_supersedes_test_representative() {
        // The same ordered pair seen first in test code, then in
        // production: the production site must be the one reported when
        // a genuine production inversion exists.
        let src = "fn t() { let a = self.a.lock(); let b = self.b.lock(); }\n\
                   fn one() { let a = self.a.lock(); let b = self.b.lock(); }\n\
                   fn rev() { let b = self.b.lock(); let a = self.a.lock(); }\n";
        let file = lex(src);
        let in_test = vec![true, false, false];
        let mut orders = OrderGraph::default();
        let _ = analyze_file("crates/runtime/src/x.rs", &file, &in_test, &mut orders);
        let inv = orders.inversions();
        assert_eq!(inv.len(), 2, "{inv:?}");
        // The (a, b) representative is the production line (0-based 1).
        assert!(inv.iter().any(|(_, (line, _, _))| *line == 1), "{inv:?}");
    }

    #[test]
    fn blocking_in_range_finds_direct_blocking_calls() {
        let file = lex("fn helper() { thread::sleep(d); }\nfn pure() { a + b; }\n");
        let desc = blocking_in_range(&file.tokens, 0, file.tokens.len());
        assert!(desc.is_some_and(|d| d.contains("sleep")));
        let pure_file = lex("fn pure() { a + b }\n");
        assert!(blocking_in_range(&pure_file.tokens, 0, pure_file.tokens.len()).is_none());
    }
}
