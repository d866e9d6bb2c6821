//! The one snapshot mechanism: a pass renders its result as sorted,
//! LF-terminated lines, and that text is either printed, compared
//! against a committed file at the repo root, or written over it.
//!
//! Two passes use it — [`crate::api`] (`api-surface.txt`) and
//! [`crate::effects`] (`effect-surface.txt`). `odr-check <pass> --check`
//! exits 1 when the tree's rendering differs from the committed file and
//! leaves the fresh rendering beside it as `<file>.new` (gitignored) for
//! diffing; `UPDATE_GOLDEN=1 odr-check <pass>` rewrites the committed
//! file deliberately (the same env convention as the golden traces).

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

use odr_core::{OdrError, OdrResult};

/// Outcome of comparing a rendering against its committed snapshot.
#[derive(Debug)]
pub struct Diff {
    /// Lines in the tree but not the snapshot.
    pub added: Vec<String>,
    /// Lines in the snapshot but not the tree.
    pub removed: Vec<String>,
}

impl Diff {
    /// `true` when rendering and snapshot hold the same lines.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }
}

/// Line-set diff of a rendering against snapshot text.
#[must_use]
pub fn diff(current: &str, snapshot: &str) -> Diff {
    let cur: BTreeSet<&str> = current.lines().collect();
    let snap: BTreeSet<&str> = snapshot.lines().collect();
    Diff {
        added: cur.difference(&snap).map(|s| (*s).to_string()).collect(),
        removed: snap.difference(&cur).map(|s| (*s).to_string()).collect(),
    }
}

/// Name of the scratch copy [`check`] leaves beside a drifted snapshot.
#[must_use]
pub(crate) fn scratch_file(file: &str) -> String {
    format!("{file}.new")
}

/// Compares `current` against the committed `file` under `root`. On a
/// mismatch `current` is written to [`scratch_file`] beside it; a
/// missing snapshot reads as empty, so everything is reported as added.
pub fn check(root: &Path, file: &str, current: &str) -> OdrResult<Diff> {
    let snapshot = fs::read_to_string(root.join(file)).unwrap_or_default();
    let diff = diff(current, &snapshot);
    if !diff.is_empty() {
        write(&root.join(scratch_file(file)), current)?;
    }
    Ok(diff)
}

/// Rewrites the committed `file` under `root` (the `UPDATE_GOLDEN=1`
/// path).
pub fn update(root: &Path, file: &str, current: &str) -> OdrResult<()> {
    write(&root.join(file), current)
}

fn write(path: &Path, text: &str) -> OdrResult<()> {
    fs::write(path, text).map_err(|e| OdrError::io(path.display().to_string(), e))
}

/// Prints a non-empty [`Diff`] the way every `--check` reports drift:
/// one `error:` line per differing line, then the summary naming the
/// scratch copy and the regeneration command.
pub fn print_drift(pass: &str, file: &str, diff: &Diff) {
    for line in &diff.added {
        println!("error: {pass}: not in snapshot: {line}");
    }
    for line in &diff.removed {
        println!("error: {pass}: missing from tree: {line}");
    }
    println!(
        "{pass}: {} added, {} removed vs {file}; fresh surface written to {}.\n\
         If the change is intentional, regenerate with: UPDATE_GOLDEN=1 odr-check {pass}",
        diff.added.len(),
        diff.removed.len(),
        scratch_file(file)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_reports_added_and_removed() {
        let d = diff("a\nb\nc\n", "a\nc\nd\n");
        assert_eq!(d.added, ["b"]);
        assert_eq!(d.removed, ["d"]);
        assert!(!d.is_empty());
        assert!(diff("a\n", "a\n").is_empty());
    }
}
