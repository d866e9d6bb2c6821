//! Integration tests for the API-surface snapshot layer: determinism,
//! golden-check semantics (including the binary's exit codes), and the
//! invariant that the committed `api-surface.txt` matches the tree.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use odr_check::api::SNAPSHOT_FILE;
use odr_check::lint::load_workspace;
use odr_check::snapshot;

fn fixture_tree() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/api_tree")
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root")
}

/// Copies the fixture tree into a scratch dir under `target/` so tests
/// can mutate it without dirtying the source tree.
fn scratch_copy(tag: &str) -> PathBuf {
    let dest = repo_root().join("target/api-fixture-scratch").join(tag);
    let _ = fs::remove_dir_all(&dest);
    copy_dir(&fixture_tree(), &dest);
    dest
}

/// The public surface of the tree at `root`, rendered as `odr-check api`
/// prints it.
fn collect_api(root: &Path) -> String {
    odr_check::api::collect_api(root, &load_workspace(root).scans)
}

/// Checks `tree`'s surface against its snapshot the way `api --check`
/// does.
fn check(tree: &Path) -> snapshot::Diff {
    snapshot::check(tree, SNAPSHOT_FILE, &collect_api(tree)).expect("check")
}

/// Writes `tree`'s surface as its snapshot (`UPDATE_GOLDEN=1 odr-check api`).
fn update(tree: &Path) {
    snapshot::update(tree, SNAPSHOT_FILE, &collect_api(tree)).expect("write snapshot");
}

fn copy_dir(src: &Path, dest: &Path) {
    fs::create_dir_all(dest).expect("create scratch dir");
    for entry in fs::read_dir(src).expect("read fixture dir") {
        let entry = entry.expect("dir entry");
        let from = entry.path();
        let to = dest.join(entry.file_name());
        if from.is_dir() {
            copy_dir(&from, &to);
        } else {
            fs::copy(&from, &to).expect("copy fixture file");
        }
    }
}

#[test]
fn fixture_surface_is_byte_deterministic_and_complete() {
    let a = collect_api(&fixture_tree());
    let b = collect_api(&fixture_tree());
    assert_eq!(a, b, "two runs over the same tree must be byte-identical");
    assert_eq!(
        a.lines().collect::<Vec<_>>(),
        [
            "alpha::Widget | pub struct Widget",
            "alpha::Widget::draw | pub fn draw ( & self ) -> u32",
            "alpha::geometry | pub mod geometry",
            "alpha::geometry::SIDES | pub const SIDES : u8",
            "alpha::render | pub fn render ( w : & Widget ) -> u32",
        ],
        "private items, impl helpers and #[cfg(test)] items must be absent"
    );
}

#[test]
fn check_fails_after_adding_a_pub_fn_without_regenerating() {
    let tree = scratch_copy("add-pub-fn");
    update(&tree);
    assert!(check(&tree).is_empty());

    let lib = tree.join("crates/alpha/src/lib.rs");
    let mut src = fs::read_to_string(&lib).expect("read lib.rs");
    src.push_str("\npub fn undeclared_addition() {}\n");
    fs::write(&lib, src).expect("write lib.rs");

    let diff = check(&tree);
    assert_eq!(
        diff.added,
        ["alpha::undeclared_addition | pub fn undeclared_addition ( )"]
    );
    assert!(diff.removed.is_empty());
    assert!(
        tree.join("api-surface.txt.new").is_file(),
        "fresh surface must be written beside the snapshot for diffing"
    );
}

#[test]
fn api_check_exit_codes_are_uniform() {
    let tree = scratch_copy("exit-codes");
    let bin = env!("CARGO_BIN_EXE_odr-check");
    let run = |args: &[&str]| {
        Command::new(bin)
            .args(args)
            .arg("--root")
            .arg(&tree)
            .output()
            .expect("run odr-check")
    };

    // No snapshot yet: everything is "added" -> findings -> exit 1.
    let out = run(&["api", "--check"]);
    assert_eq!(out.status.code(), Some(1), "missing snapshot is a diff");

    update(&tree);
    let out = run(&["api", "--check"]);
    assert_eq!(out.status.code(), Some(0), "clean check exits 0");

    let lib = tree.join("crates/alpha/src/lib.rs");
    let mut src = fs::read_to_string(&lib).expect("read lib.rs");
    src.push_str("\npub fn sneaky() {}\n");
    fs::write(&lib, src).expect("write lib.rs");
    let out = run(&["api", "--check"]);
    assert_eq!(out.status.code(), Some(1), "undeclared pub fn exits 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("sneaky"), "diff names the new item: {stdout}");

    // Usage errors exit 2.
    let out = Command::new(bin)
        .arg("--no-such-flag")
        .output()
        .expect("run odr-check");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn committed_snapshot_matches_the_tree() {
    let root = repo_root();
    let current = collect_api(&root);
    let committed =
        fs::read_to_string(root.join(SNAPSHOT_FILE)).expect("api-surface.txt is committed");
    let diff = snapshot::diff(&current, &committed);
    assert!(
        diff.is_empty(),
        "api-surface.txt is stale; regenerate with UPDATE_GOLDEN=1 odr-check api\n\
         added: {:#?}\nremoved: {:#?}",
        diff.added,
        diff.removed
    );
}
