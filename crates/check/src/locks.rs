//! Lock-discipline analysis over the blocking (real-thread) modules.
//!
//! The real-thread modules block by design — the swap engine parks on a
//! mutex/condvar eventcount, pools and accumulators sit behind mutexes —
//! so the bug class that silently breaks them is a *blocking call made
//! while a lock guard is live*: a condvar wait on a different lock, a
//! channel send/recv, a real sleep, a thread join. The model checker
//! explores interleavings of the swap protocol itself but cannot see a
//! blocking call introduced under a lock elsewhere; this pass closes that
//! gap statically.
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
//!   (that lock stays held for the whole sleep).
//!
//! Heuristics are deliberately name-based (no type information), tuned so
//! the current tree is clean without suppressions. `#[cfg(test)]` regions
//! produce no findings.
//!
//! The pass also exports each file's calls made under a guard
//! ([`LockScan::guarded_calls`]); the lint driver joins them with the
//! effect pass's `block` fact ([`crate::effects`]) to flag a call made
//! under a guard to any workspace function that may block, however deep.
//! A call that *acquires* a guard (`self.lock()` on a poison-recovery
//! wrapper) is not made under it.

use std::collections::BTreeMap;

use crate::lex::{LexedFile, TokKind, Token};

/// Per-file result of the pass: the inline findings plus the calls made
/// under a guard, which the lint driver checks against the effect pass
/// (a call made under a guard to a function that itself may block).
#[derive(Debug, Default)]
pub struct LockScan {
    /// Blocking-under-lock findings (0-based line, rule, message).
    pub findings: Vec<Finding>,
    /// Non-test calls (`name(..)`, `recv.name(..)`, `path::name(..)`)
    /// made while at least one guard is live, keyed by where the called
    /// name ends (1-based line, and column just past it, as a call edge
    /// records it), with a description of the earliest-held guard.
    pub guarded_calls: BTreeMap<(usize, usize), String>,
}

/// Source files subject to the lock-discipline pass: path prefixes
/// relative to the repo root. It covers the real-thread path — the
/// stage threads, the serving surface (resident list, departures,
/// telemetry registry), the multi-buffer with the eventcount it parks
/// on, and the observability ring: every `std::sync` guard in the
/// workspace is taken in one of these — plus the DES event queue, which
/// each fleet worker recycles across sessions and which must stay
/// guard-free (a lock introduced there would serialize the
/// million-session fast path and this pass would see it first).
pub(crate) const LOCK_SCOPE: &[&str] = &[
    "crates/runtime/src/",
    "crates/serve/src/",
    "crates/core/src/atomic_swap.rs",
    "crates/core/src/gate.rs",
    "crates/core/src/sync_queue.rs",
    "crates/obs/src/recorder.rs",
    "crates/simtime/src/event.rs",
];

/// `true` when `rel_path` is covered by the pass.
#[must_use]
pub fn in_scope(rel_path: &str) -> bool {
    LOCK_SCOPE.iter().any(|p| rel_path.starts_with(p))
}

/// One pass finding: 0-based line index, rule id, message. The caller
/// (the lint driver) routes these through the shared allowlist.
pub type Finding = (usize, &'static str, String);

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
/// the guard-live line map. `in_test` marks 1-based lines inside
/// `#[cfg(test)]` regions (index 0 = line 1): no findings and no
/// guard-live lines come from test code.
#[must_use]
pub fn analyze_file(file: &LexedFile, in_test: &[bool]) -> LockScan {
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
        // A call made while a guard is live. Recorded before the branches
        // below, so an acquisition is not a call under its own guard.
        if !test_tok && t.kind == TokKind::Ident && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            if let Some(g) = guards.first() {
                out.guarded_calls
                    .entry(t.end())
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
                acquire(&mut guards, depth, &pending_let, lock);
            }
            i += 3;
            continue;
        }

        // Wrapper-form acquisition: `lock(&m)` / `relock(expr)` called as
        // a free function (not the wrapper's own `fn lock(&self)`). When
        // the wrapped expression itself contains a method-form `.lock()`,
        // the method form above already handled it.
        if t.kind == TokKind::Ident
            && matches!(t.text.as_str(), "lock" | "relock")
            && !prev_is_punct(toks, i, '.')
            && !(i > 0 && toks[i - 1].is_ident("fn"))
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
        {
            let (inner_lock, has_method_form) = wrapper_argument(toks, i + 1);
            if !has_method_form {
                if let Some(lock) = inner_lock {
                    acquire(&mut guards, depth, &pending_let, lock);
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

fn acquire(guards: &mut Vec<Guard>, depth: usize, pending_let: &Option<String>, lock: String) {
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
        "join" if toks.get(i + 2).is_some_and(|t| t.is_punct(')')) => Some("`.join()`".to_string()),
        "send" => Some("channel `.send(..)`".to_string()),
        "recv" | "recv_timeout" => Some(format!("channel `.{}(..)`", t.text)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;

    fn run(src: &str) -> Vec<Finding> {
        let file = lex(src);
        analyze_file(&file, &vec![false; file.lines()]).findings
    }

    #[test]
    fn sleep_under_guard_is_flagged() {
        let f = run("fn f() { let g = m.lock(); thread::sleep(d); }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].1, "lock/blocking-call");
        assert!(f[0].2.contains("sleep"), "{}", f[0].2);
    }

    #[test]
    fn sleep_after_guard_scope_closes_is_clean() {
        let f = run("fn f() { { let g = m.lock(); g.touch(); } thread::sleep(d); }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn drop_releases_the_guard() {
        let f = run("fn f() { let g = m.lock(); drop(g); thread::sleep(d); }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn send_and_recv_under_guard_flagged() {
        let f = run("fn f() { let g = state.lock(); tx.send(v); let x = rx.recv(); }");
        assert_eq!(f.len(), 2, "{f:?}");
    }

    #[test]
    fn temporary_guard_covers_only_its_statement() {
        // The un-bound `lock(&m)` temporary dies at the `;`.
        let f = run("fn f() { lock(&m).record(v); thread::sleep(d); }");
        assert!(f.is_empty(), "{f:?}");
        let f = run("fn f() { lock(&m).record(rx.recv()); }");
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn wait_with_own_guard_is_the_protocol() {
        let f = run("fn f() { let mut guard = relock(self.state.lock());\n\
             loop { guard = relock(self.space.wait(guard)); } }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn wait_while_holding_a_second_lock_is_flagged() {
        let f = run(
            "fn f() { let a = self.meta.lock(); let g = self.state.lock();\n\
             let g = self.cv.wait(g); }",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].2.contains("meta"), "{}", f[0].2);
    }

    #[test]
    fn a_lock_wrapper_definition_is_not_an_acquisition() {
        // `fn lock(&self)` has no `;` before the next item: read as an
        // acquisition, its "guard" would outlive the wrapper and cover
        // the next function's body.
        let f = run(
            "impl R {\n    fn lock(&self) -> G { self.inner.lock().unwrap_or_else(p) }\n\
             fn stall(&self) { thread::sleep(d) }\n}",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn join_under_guard_flagged_but_path_join_ignored() {
        let f = run("fn f() { let g = m.lock(); handle.join(); }");
        assert_eq!(f.len(), 1, "{f:?}");
        let f = run("fn f() { let g = m.lock(); let p = root.join(name); }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn rwlock_read_write_create_guards() {
        let f = run("fn f() { let r = map.read(); slow.recv(); }");
        assert_eq!(f.len(), 1, "{f:?}");
        // io-style `.write(buf)` has arguments: not a guard.
        let f = run("fn f() { out.write(buf); slow.recv(); }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn test_regions_emit_no_findings() {
        let src = "fn f() { let g = m.lock(); thread::sleep(d); }";
        let file = lex(src);
        let in_test = vec![true; file.lines()];
        let s = analyze_file(&file, &in_test);
        assert!(s.findings.is_empty(), "{:?}", s.findings);
        assert!(s.guarded_calls.is_empty(), "{:?}", s.guarded_calls);
    }

    #[test]
    fn guarded_calls_cover_the_live_span_but_not_the_acquisition() {
        let src =
            "fn f() {\n    let g = self.lock();\n    g.touch();\n    lock(&m).push(helper());\n}\n\
                   fn h() {\n    free();\n}\n";
        let file = lex(src);
        let s = analyze_file(&file, &vec![false; file.lines()]);
        // Keyed by where each called name ends. Under `g`: the `touch`,
        // and on line 4 the second acquisition and the calls under both
        // guards (`lock`, `push`, `helper`); neither acquisition of line 2
        // nor `h`'s call is under a guard.
        let calls: Vec<&(usize, usize)> = s.guarded_calls.keys().collect();
        assert_eq!(calls, [&(3, 12), &(4, 9), &(4, 18), &(4, 25)]);
    }
}
