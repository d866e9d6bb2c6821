#!/usr/bin/env bash
# The one command: builds the benchmark (a package of its own, optimised)
# and runs it from the repo root. Arguments are the program's; see
# benchmark/README.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/odr-benchmark" "$@"
