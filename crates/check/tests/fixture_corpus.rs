//! Integration tests driving the analyzer over the fixture corpus in
//! `tests/fixtures/`. Three jobs:
//!
//! * the **clean** corpus proves the token-level passes never fire
//!   inside strings, doc comments, or nested block comments (the
//!   regression class the old line scanner failed on), and that the
//!   real-tree lock and atomics idioms (condvar wait loops, Relaxed
//!   counters, literal flag stores) are accepted;
//! * the **seeded** corpus proves each pass is live: every planted
//!   defect is reported, at the planted line, under the planted rule;
//! * the **fixture workspaces** (`taint_bad/`, `callgraph_tree/`) prove
//!   the call-graph layer end to end: cross-crate resolution, taint
//!   transitivity, and byte-deterministic rendering; `unused_pub_tree/`
//!   proves who counts as a user of a `pub` item;
//! * the **rustc probes** prove that what the deleted rules
//!   (`atomics/relaxed-fence`, `atomics/compare-exchange-order`'s failure
//!   half, `doc/missing`) caught, rustc now rejects;
//! * the **clippy probes** prove that what the retired rules
//!   (`panic/unwrap`, `panic/expect`, `atomics/unsafe-no-safety`), taint's
//!   per-line source report and the `ci.sh` text guards caught, clippy now
//!   rejects under the workspace lint table and the root `clippy.toml`,
//!   through an aliased import too, and that a comment naming a banned
//!   call passes.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::Command;

use odr_check::api::unused_pub_rules;
use odr_check::atomics::atomics_rules;
use odr_check::effects::effect_rules;
use odr_check::graph::build_graph;
use odr_check::lint::{load_workspace, scan_file, units_rules, Allowlist, FileScan, LintReport};
use odr_check::locks::{analyze_file, in_scope};
use odr_check::taint::taint_rules;

/// The real repo root: fixtures scanned at real-tree paths take their
/// crate names from its `Cargo.toml`s.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Runs the determinism taint pass over `scans` as if they were the
/// whole workspace.
fn taint(scans: &[FileScan]) -> LintReport {
    let graph = build_graph(&repo_root(), scans);
    let mut report = LintReport::default();
    taint_rules(&graph, scans, &Allowlist::default(), &mut report);
    report
}

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Scans a fixture as if it lived at `rel_path` inside the repo.
fn scan(name: &str, rel_path: &str) -> FileScan {
    scan_file(rel_path, &fixture(name))
}

/// Line (1-based) → rule named by the `// BAD: <rule>` marker.
fn bad_rules(src: &str) -> BTreeMap<usize, String> {
    src.lines()
        .enumerate()
        .filter_map(|(i, l)| {
            let (_, rule) = l.split_once("// BAD:")?;
            Some((i + 1, rule.trim().to_string()))
        })
        .collect()
}

/// Scans every `.rs` file under `tests/fixtures/<dir>/` with paths
/// relative to that directory, so the fixture tree acts as a miniature
/// repo root for the call-graph layer.
fn scan_fixture_tree(dir: &str) -> (PathBuf, Vec<FileScan>) {
    fn collect(base: &Path, cur: &Path, out: &mut Vec<String>) {
        let mut entries: Vec<_> = std::fs::read_dir(cur)
            .unwrap_or_else(|e| panic!("read_dir {}: {e}", cur.display()))
            .map(|e| e.unwrap().path())
            .collect();
        entries.sort();
        for path in entries {
            if path.is_dir() {
                collect(base, &path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path.strip_prefix(base).unwrap();
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(dir);
    let mut rels = Vec::new();
    collect(&root, &root, &mut rels);
    assert!(!rels.is_empty(), "fixture tree {dir} is empty");
    let scans = rels
        .iter()
        .map(|rel| {
            let text = std::fs::read_to_string(root.join(rel)).unwrap();
            scan_file(rel, &text)
        })
        .collect();
    (root, scans)
}

/// Every per-file pass plus the taint pass over one scan; the lock
/// pass's own findings join the report's.
fn all_passes(s: FileScan) -> LintReport {
    let allow = Allowlist::default();
    let mut report = LintReport::default();
    units_rules(&s, &allow, &mut report);
    atomics_rules(&s, &allow, &mut report);
    let locks = analyze_file(&s.lexed, &s.in_test);
    assert!(locks.findings.is_empty(), "{:?}", locks.findings);
    report.violations.extend(taint(&[s]).violations);
    report
}

#[test]
fn clean_corpus_has_zero_findings_across_all_passes() {
    // Placed in a pure-sim crate so the determinism pass applies.
    let report = all_passes(scan(
        "clean_strings.rs",
        "crates/pipeline/src/clean_strings.rs",
    ));
    assert!(
        report.violations.is_empty(),
        "clean corpus flagged: {:#?}",
        report.violations
    );
}

#[test]
fn lock_clean_fixture_matches_real_tree_idioms() {
    let s = scan("lock_clean.rs", "crates/runtime/src/lock_clean.rs");
    let locks = analyze_file(&s.lexed, &s.in_test);
    assert!(
        locks.findings.is_empty(),
        "clean lock fixture flagged: {:#?}",
        locks.findings
    );
}

#[test]
fn seeded_blocking_under_lock_is_detected() {
    let src = fixture("lock_block_bad.rs");
    let expected: BTreeSet<usize> = bad_rules(&src).into_keys().collect();
    assert_eq!(expected.len(), 5, "fixture should seed 5 defects");

    let s = scan_file("crates/runtime/src/lock_block_bad.rs", &src);
    let locks = analyze_file(&s.lexed, &s.in_test);
    let got: BTreeSet<usize> = locks.findings.iter().map(|(l, _, _)| l + 1).collect();
    assert_eq!(got, expected, "findings: {:#?}", locks.findings);
    assert!(locks
        .findings
        .iter()
        .all(|(_, rule, _)| *rule == "lock/blocking-call"));
}

#[test]
fn seeded_unit_mixups_are_detected() {
    let src = fixture("units_bad.rs");
    let expected: BTreeSet<usize> = bad_rules(&src).into_keys().collect();
    assert_eq!(expected.len(), 5, "fixture should seed 5 defects");

    let s = scan_file("crates/pipeline/src/units_bad.rs", &src);
    let allow = Allowlist::default();
    let mut report = LintReport::default();
    units_rules(&s, &allow, &mut report);
    let got: BTreeSet<usize> = report.violations.iter().map(|v| v.line).collect();
    assert_eq!(got, expected, "violations: {:#?}", report.violations);
    let mixed = report
        .violations
        .iter()
        .filter(|v| v.rule == "units/mixed-suffix")
        .count();
    let bare = report
        .violations
        .iter()
        .filter(|v| v.rule == "units/bare-literal")
        .count();
    assert_eq!((mixed, bare), (3, 2));
}

#[test]
fn seeded_atomics_defects_detected_at_exact_lines_and_rules() {
    let src = fixture("atomics_bad.rs");
    let expected = bad_rules(&src);
    assert_eq!(expected.len(), 4, "fixture should seed 4 defects");

    let s = scan_file("crates/core/src/atomics_bad.rs", &src);
    let mut report = LintReport::default();
    atomics_rules(&s, &Allowlist::default(), &mut report);
    let got: BTreeMap<usize, String> = report
        .violations
        .iter()
        .map(|v| (v.line, v.rule.to_string()))
        .collect();
    assert_eq!(got, expected, "violations: {:#?}", report.violations);
}

#[test]
fn atomics_clean_corpus_is_silent() {
    let s = scan("atomics_clean.rs", "crates/core/src/atomics_clean.rs");
    let mut report = LintReport::default();
    atomics_rules(&s, &Allowlist::default(), &mut report);
    assert!(
        report.violations.is_empty(),
        "clean atomics corpus flagged: {:#?}",
        report.violations
    );
}

#[test]
fn arena_clean_corpus_is_silent_across_all_passes() {
    // Scanned as core code, so the determinism pass applies: pooled
    // storage idioms (let-else panics instead of `.expect`, the `?`
    // early-return pop, slab recycling) must survive every pass.
    let report = all_passes(scan("arena_clean.rs", "crates/core/src/arena_clean.rs"));
    assert!(
        report.violations.is_empty(),
        "clean arena corpus flagged: {:#?}",
        report.violations
    );
}

#[test]
fn event_queue_is_in_lock_scope_and_seeded_blocking_is_detected() {
    // The scope extension itself: the event queue's file is covered,
    // and its siblings are not swept in by prefix accident.
    assert!(in_scope("crates/simtime/src/event.rs"));
    assert!(in_scope("crates/serve/src/server.rs"));
    assert!(!in_scope("crates/simtime/src/rng.rs"));
    assert!(!in_scope("crates/core/src/lib.rs"));

    // A seeded slab-under-mutex fixture scanned at the covered path:
    // both blocking-while-guard-held defects must be flagged there.
    let src = fixture("arena_lock_bad.rs");
    let expected: BTreeSet<usize> = bad_rules(&src).into_keys().collect();
    assert_eq!(expected.len(), 2, "fixture should seed 2 defects");

    let s = scan_file("crates/simtime/src/event.rs", &src);
    let locks = analyze_file(&s.lexed, &s.in_test);
    let got: BTreeSet<usize> = locks.findings.iter().map(|(l, _, _)| l + 1).collect();
    assert_eq!(got, expected, "findings: {:#?}", locks.findings);
    assert!(locks
        .findings
        .iter()
        .all(|(_, rule, _)| *rule == "lock/blocking-call"));
}

#[test]
fn taint_workspace_flags_direct_and_transitive_edges() {
    let (root, scans) = scan_fixture_tree("taint_bad");
    let graph = build_graph(&root, &scans);

    // Expected findings: the `// BAD: <rule>` lines across the crates —
    // the pure-sim edges toward the source, and one call into the
    // real-time layer.
    let mut expected: BTreeSet<(String, usize, String)> = BTreeSet::new();
    for s in &scans {
        let src = std::fs::read_to_string(root.join(&s.rel_path)).unwrap();
        for (line, rule) in bad_rules(&src) {
            expected.insert((s.rel_path.clone(), line, rule));
        }
    }
    assert_eq!(expected.len(), 4, "fixture should seed 4 findings");

    let mut report = LintReport::default();
    taint_rules(&graph, &scans, &Allowlist::default(), &mut report);
    let got: BTreeSet<(String, usize, String)> = report
        .violations
        .iter()
        .map(|v| (v.path.clone(), v.line, v.rule.to_string()))
        .collect();
    assert_eq!(got, expected, "violations: {:#?}", report.violations);
    // The transitive edge's message must name the chain through the
    // helper, proving reachability (not token matching) produced it.
    let transitive = report
        .violations
        .iter()
        .find(|v| v.path.ends_with("engine.rs") && v.message.contains("elapsed_ms"))
        .expect("transitive finding missing");
    assert!(
        transitive.message.contains("stamp_ns"),
        "chain witness missing: {}",
        transitive.message
    );
}

#[test]
fn unused_pub_workspace_flags_exactly_what_nobody_outside_names() {
    // Loaded like the real tree: `crates/*/src` and `shims/*/src` are
    // scanned, `tests/` and `src/bin/` count as users.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/unused_pub_tree");
    let ws = load_workspace(&root);
    assert!(
        ws.scans.iter().any(|s| s.rel_path.starts_with("shims/")),
        "the shim is scanned by the other lints, so its silence below is the rule's"
    );

    // The `// BAD:` markers: named only inside its own crate, named
    // elsewhere only in a string and a comment, a type only a flagged
    // fn's signature names, a method whose name is outside only a field
    // and a local, and a module reached only through a root re-export.
    // Unmarked and therefore clean: named from another crate's `src/`,
    // from the crate's own `tests/` or `src/bin/`, by a used fn's
    // signature, by a used struct's field, a method passed as
    // `Type::name`, a fn listed in a `use` tree and called bare, a module
    // its crate re-exports, and everything under `shims/`.
    let mut expected: BTreeSet<(String, usize)> = BTreeSet::new();
    for s in &ws.scans {
        for (line, rule) in bad_rules(&std::fs::read_to_string(root.join(&s.rel_path)).unwrap()) {
            assert_eq!(rule, "api/unused-pub");
            expected.insert((s.rel_path.clone(), line));
        }
    }
    assert_eq!(expected.len(), 5, "fixture should seed 5 findings");

    let mut report = LintReport::default();
    unused_pub_rules(&ws, &root, &Allowlist::default(), &mut report);
    let got: BTreeSet<(String, usize)> = report
        .violations
        .iter()
        .map(|v| (v.path.clone(), v.line))
        .collect();
    assert_eq!(got, expected, "violations: {:#?}", report.violations);
}

#[test]
fn effects_workspace_flags_hot_root_with_cross_crate_witness_chains() {
    let (root, scans) = scan_fixture_tree("effects_bad");
    let graph = build_graph(&root, &scans);

    // The `// BAD: <rule>` markers sit on the *witness* lines in the
    // helper crate; the violations themselves must land on the hot
    // root's declaration line over in `app`.
    let helpers_src = std::fs::read_to_string(root.join("crates/helpers/src/lib.rs")).unwrap();
    let witness_line: BTreeMap<String, usize> = bad_rules(&helpers_src)
        .into_iter()
        .map(|(line, rule)| (rule, line))
        .collect();
    assert_eq!(witness_line.len(), 3, "fixture should seed 3 effects");

    let app_src = std::fs::read_to_string(root.join("crates/app/src/sim.rs")).unwrap();
    let root_line = app_src
        .lines()
        .position(|l| l.contains("pub fn step"))
        .expect("hot root missing from fixture")
        + 1;

    let mut report = LintReport::default();
    effect_rules(
        &graph,
        &scans,
        "app::sim::Loop::step | alloc,block,panic\n",
        &Allowlist::default(),
        &mut report,
    );

    // Exactly the three hot-path rules, all at the root's declaration.
    let got: BTreeSet<(String, String, usize)> = report
        .violations
        .iter()
        .map(|v| (v.rule.to_string(), v.path.clone(), v.line))
        .collect();
    let expected: BTreeSet<(String, String, usize)> =
        ["effect/hot-alloc", "effect/hot-block", "effect/hot-panic"]
            .into_iter()
            .map(|rule| {
                (
                    rule.to_string(),
                    "crates/app/src/sim.rs".to_string(),
                    root_line,
                )
            })
            .collect();
    assert_eq!(got, expected, "violations: {:#?}", report.violations);

    // Each message must carry the full two-hop, cross-crate chain and
    // cite the marked witness line in the helper crate.
    for (rule, via, sink) in [
        (
            "effect/hot-alloc",
            "helpers::record",
            "helpers::push_sample",
        ),
        ("effect/hot-panic", "helpers::lookup", "helpers::pick"),
        ("effect/hot-block", "helpers::drain", "helpers::settle"),
    ] {
        let v = report
            .violations
            .iter()
            .find(|v| v.rule == rule)
            .unwrap_or_else(|| panic!("{rule} missing"));
        let chain = format!("app::sim::Loop::step -> {via} -> {sink}");
        assert!(v.message.contains(&chain), "{rule}: {}", v.message);
        let loc = format!("crates/helpers/src/lib.rs:{}", witness_line[rule]);
        assert!(v.message.contains(&loc), "{rule}: {}", v.message);
    }
}

#[test]
fn effects_clean_corpus_is_silent_even_as_hot_roots() {
    // Scanned at a real-tree path so `crates/core/Cargo.toml` supplies
    // the crate prefix, exactly as in production runs.
    let s = scan("effects_clean.rs", "crates/core/src/effects_clean.rs");
    let scans = vec![s];
    let graph = build_graph(&repo_root(), &scans);

    // Every function in the fixture is a hot root forbidding all three
    // effects: the arena/swap idioms must produce zero findings.
    let manifest = "\
        odr_core::effects_clean::Slab::push | alloc,block,panic\n\
        odr_core::effects_clean::Slab::pop | alloc,block,panic\n\
        odr_core::effects_clean::Slab::first_word | alloc,block,panic\n\
        odr_core::effects_clean::Slab::reset | alloc,block,panic\n\
        odr_core::effects_clean::Names::first_len | alloc,block,panic\n\
        odr_core::effects_clean::Cell::publish | alloc,block,panic\n\
        odr_core::effects_clean::Cell::try_pop | alloc,block,panic\n";
    let mut report = LintReport::default();
    effect_rules(&graph, &scans, manifest, &Allowlist::default(), &mut report);
    assert!(
        report.violations.is_empty(),
        "clean effects corpus flagged: {:#?}",
        report.violations
    );
}

#[test]
fn callgraph_tree_resolves_expected_edges_deterministically() {
    let (root, scans) = scan_fixture_tree("callgraph_tree");
    let graph = build_graph(&root, &scans);

    let production: BTreeSet<(String, String)> = graph
        .edges
        .iter()
        .filter(|e| !e.in_test)
        .map(|e| (e.caller.clone(), e.callee.clone()))
        .collect();
    let expected: BTreeSet<(String, String)> = [
        ("alpha::Gauge::reset", "alpha::zero"),
        // `-> [u64; 4] {`: the `;` of an array type does not end the
        // signature, so the body and its edge are kept.
        ("alpha::zeros", "alpha::zero"),
        ("beta::driver::drive", "alpha::Gauge::new"),
        ("beta::driver::drive", "alpha::Gauge::read"),
        ("beta::driver::drive", "alpha::Gauge::reset"),
        ("beta::driver::drive", "alpha::zero"),
        ("beta::driver::sample", "alpha::Gauge::read"),
        ("beta::driver::doubled", "alpha::zero"),
        // A bare call through `use crate::…` resolves in its own crate,
        // and in a binary's modules to that binary's root.
        ("beta::driver::doubled", "beta::util::twice"),
        ("beta::bin::tool::main", "beta::bin::tool::step::step"),
        ("beta::bin::tool::step::step", "beta::bin::tool::helper"),
    ]
    .into_iter()
    .map(|(a, b)| (a.to_string(), b.to_string()))
    .collect();
    assert_eq!(production, expected, "edges: {:#?}", graph.edges);

    // The test-mod call is in the graph, marked, and excluded from the
    // rendered snapshot.
    assert!(
        graph
            .edges
            .iter()
            .any(|e| e.in_test && e.callee == "beta::driver::drive"),
        "test edge missing: {:#?}",
        graph.edges
    );
    let rendered = graph.render();
    assert!(!rendered.contains("tests::"), "{rendered}");

    // Byte-determinism: a second scan+build renders identically.
    let (root2, scans2) = scan_fixture_tree("callgraph_tree");
    let graph2 = build_graph(&root2, &scans2);
    assert_eq!(rendered, graph2.render());
}

/// Compiles `src` as a library with rustc and `flags`, returning whether
/// it compiled and what rustc printed.
fn rustc(name: &str, src: &str, flags: &[&str]) -> (bool, String) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("rustc_probes");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join(format!("{name}.rs"));
    std::fs::write(&file, src).unwrap();
    let rustc = std::env::var_os("RUSTC").unwrap_or_else(|| "rustc".into());
    let out = Command::new(rustc)
        .args(["--edition=2021", "--crate-type=lib", "--emit=metadata"])
        .args(["--crate-name", name, "--out-dir"])
        .arg(&dir)
        .args(flags)
        .arg(&file)
        .output()
        .expect("run rustc");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn rustc_rejects_what_the_deleted_atomics_rules_caught() {
    // `fence(Relaxed)` (was `atomics/relaxed-fence`) and a `Release`
    // CAS failure ordering (was half of `atomics/compare-exchange-order`)
    // do not compile: `invalid_atomic_ordering` is deny-by-default.
    for (name, body) in [
        ("relaxed_fence", "fence(Ordering::Relaxed);"),
        (
            "cas_release_failure",
            "let _ = A.compare_exchange(0, 1, Ordering::AcqRel, Ordering::Release);",
        ),
    ] {
        let src = format!(
            "use std::sync::atomic::{{fence, AtomicU64, Ordering}};\n\
             static A: AtomicU64 = AtomicU64::new(0);\n\
             pub fn probe() {{ {body} }}\n"
        );
        let (ok, stderr) = rustc(name, &src, &[]);
        assert!(
            !ok && stderr.contains("invalid_atomic_ordering"),
            "{name}: {stderr}"
        );
    }
}

#[test]
fn rustc_warns_on_an_undocumented_pub_item_in_every_member() {
    // `doc/missing` covered two crates; the workspace lint table turns
    // rustc's `missing_docs` on for every member (`ci.sh` fails on any
    // warning, and on a member manifest that opts out of the table).
    let manifest = std::fs::read_to_string(repo_root().join("Cargo.toml")).unwrap();
    let table = manifest
        .split("[workspace.lints.rust]")
        .nth(1)
        .expect("the root manifest has a [workspace.lints.rust] table");
    assert!(table.contains("missing_docs = \"warn\""), "{table}");
    let (ok, stderr) = rustc(
        "naked",
        "//! Probe.\npub fn naked() {}\n",
        &["-W", "missing_docs"],
    );
    assert!(
        ok && stderr.contains("missing documentation for a function"),
        "{stderr}"
    );
}

/// Lints `src` as the library crate `name` with `clippy-driver`, the root
/// manifest's `[workspace.lints.clippy]` table as flags and the root
/// `clippy.toml`, and asserts that it errs on exactly the probe's
/// `// BAD: <message>` lines, each with that message.
fn assert_clippy_rejects_exactly_the_bad_lines(name: &str, src: &str) {
    let manifest = std::fs::read_to_string(repo_root().join("Cargo.toml")).unwrap();
    let (_, table) = manifest
        .split_once("[workspace.lints.clippy]")
        .expect("the root manifest has a [workspace.lints.clippy] table");
    let flags = table
        .lines()
        .take_while(|l| !l.starts_with('['))
        .filter_map(|l| l.split_once(" = \""))
        .map(|(lint, level)| format!("--{}=clippy::{lint}", level.trim_end_matches('"')));
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("clippy_probes")
        .join(name);
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("probe.rs");
    std::fs::write(&file, src).unwrap();
    let out = Command::new("clippy-driver")
        .env("CLIPPY_CONF_DIR", repo_root())
        .args(["--edition=2021", "--crate-type=lib", "--emit=metadata"])
        .args(["--error-format=short", "--crate-name", name, "--out-dir"])
        .arg(&dir)
        .args(flags)
        .arg(&file)
        .output()
        .expect("run clippy-driver (the pinned toolchain's clippy)");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let prefix = format!("{}:", file.display());
    let got: BTreeMap<usize, &str> = stderr
        .lines()
        .filter_map(|l| l.strip_prefix(&prefix)?.split_once(": "))
        .map(|(at, message)| (at.split(':').next().unwrap().parse().unwrap(), message))
        .collect();
    let want = bad_rules(src);
    assert_eq!(
        got.keys().collect::<Vec<_>>(),
        want.keys().collect::<Vec<_>>(),
        "{stderr}"
    );
    for (line, message) in &want {
        assert!(
            got[line].starts_with("error: ") && got[line].contains(message.as_str()),
            "{name}:{line}: want `{message}`\n{stderr}"
        );
    }
}

#[test]
fn clippy_rejects_what_the_retired_rules_and_text_guards_caught() {
    // `panic/unwrap`, `panic/expect`, `atomics/unsafe-no-safety`, taint's
    // per-line sources and the std paths of the `ci.sh` guards; the sleep
    // through an alias is the call a text guard could not see, and the
    // comment the text a text guard flagged.
    assert_clippy_rejects_exactly_the_bad_lines(
        "std_bans",
        r#"//! Probe.
use std::thread::sleep as nap;
use std::time::Duration;

/// Every banned call, one per line.
pub fn banned(o: Option<u8>, r: Result<u8, u8>, d: Duration) {
    let _ = o.unwrap(); // BAD: used `unwrap()` on an `Option` value
    let _ = r.expect("probe"); // BAD: used `expect()` on a `Result` value
    if o.is_none() {
        panic!("probe"); // BAD: `panic` should not be present in production code
    }
    let _ = unsafe { std::str::from_utf8_unchecked(b"probe") }; // BAD: unsafe block missing a safety comment
    std::thread::sleep(d); // BAD: disallowed method `std::thread::sleep`
    nap(d); // BAD: disallowed method `std::thread::sleep`
    let _ = std::thread::spawn(|| ()); // BAD: disallowed method `std::thread::spawn`
    let _ = std::thread::current(); // BAD: disallowed method `std::thread::current`
    let _ = std::time::Instant::now(); // BAD: disallowed method `std::time::Instant::now`
    let _ = std::time::SystemTime::now(); // BAD: disallowed method `std::time::SystemTime::now`
    let _ = std::env::var("PROBE"); // BAD: disallowed method `std::env::var`
    let _ = std::env::var_os("PROBE"); // BAD: disallowed method `std::env::var_os`
    let _ = std::env::vars(); // BAD: disallowed method `std::env::vars`
    let _ = Duration::from_secs_f64(1.0); // BAD: disallowed method `std::time::Duration::from_secs_f64`
    let _ = Duration::try_from_secs_f64(1.0); // BAD: disallowed method `std::time::Duration::try_from_secs_f64`
    let _ = std::collections::HashMap::<u8, u8>::new(); // BAD: disallowed type `std::collections::HashMap`
    let _ = std::collections::HashSet::<u8>::new(); // BAD: disallowed type `std::collections::HashSet`
    let _ = std::collections::hash_map::RandomState::new(); // BAD: disallowed type `std::hash::RandomState`
}

/// What must pass: a comment naming banned calls, a documented `unsafe`
/// block, and the `Option` methods that cannot panic.
pub fn clean(o: Option<u8>) -> u8 {
    // thread::sleep(d) and Instant::now() in a comment call nothing.
    // SAFETY: the bytes are ASCII.
    let s = unsafe { std::str::from_utf8_unchecked(b"probe") };
    o.unwrap_or(s.len() as u8)
}
"#,
    );
}

#[test]
fn clippy_rejects_the_workspace_paths_the_text_guards_named() {
    // A stand-in crate per banned item, at the path `clippy.toml` names: a
    // second pipeline, a second Algorithm 1, a frame copy (whose guard
    // grepped for two names that no longer exist). That the real items
    // resolve is `ci.sh`'s: clippy warns on a path that does not.
    for path in [
        "odr_runtime::stages::spawn_app_stage",
        "odr_core::regulator::FpsRegulator::on_frame_processed",
        "odr_core::regulator::FpsRegulator::cancel_pending_sleep",
        "odr_core::regulator::FpsRegulator::with_max_debt",
        "odr_raster::framebuffer::Framebuffer::bytes",
        "odr_codec::codec::Encoder::encode",
    ] {
        let parts: Vec<&str> = path.split("::").collect();
        let (item, call) = match parts[2..] {
            [f] => (format!("pub fn {f}() {{}}"), format!("{f}()")),
            [ty, m] => (
                format!("pub struct {ty}; impl {ty} {{ pub fn {m}(&self) {{}} }}"),
                format!("{ty}.{m}()"),
            ),
            _ => panic!("{path}"),
        };
        let module = parts[1];
        let src = format!(
            "//! Probe.\npub mod {module} {{ {item} }}\npub fn probe() {{\n    \
             {module}::{call}; // BAD: disallowed method `{path}`\n}}\n"
        );
        assert_clippy_rejects_exactly_the_bad_lines(parts[0], &src);
    }
}
