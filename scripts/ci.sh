#!/usr/bin/env bash
# Offline CI for the ODR workspace: build, test, lint, model-check.
# Everything here runs with no network access and no external tools
# beyond the pinned Rust toolchain.
set -euo pipefail
cd "$(dirname "$0")/.."

# Every scratch file of this run lives here; one trap removes them all,
# whichever section exits.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "== every member takes the workspace lint table and rust-version =="
# `missing_docs` and the clippy bans are switched on once, in the root
# manifest's [workspace.lints.*]; a member without `[lints] workspace =
# true` would silently opt out of them, and one without
# `rust-version.workspace = true` out of clippy's `incompatible_msrv`.
for manifest in Cargo.toml crates/*/Cargo.toml shims/*/Cargo.toml; do
    awk '/^\[/ { in_lints = ($0 == "[lints]") }
         in_lints && /^workspace *= *true/ { found = 1 }
         END { exit !found }' "$manifest" || {
        echo "$manifest: add '[lints] workspace = true' (DESIGN.md §7.2)" >&2
        exit 1
    }
    awk '/^\[/ { in_package = ($0 == "[package]") }
         in_package && /^rust-version\.workspace *= *true/ { found = 1 }
         END { exit !found }' "$manifest" || {
        echo "$manifest: add 'rust-version.workspace = true' to [package]" >&2
        exit 1
    }
done
echo "every member manifest inherits [workspace.lints] and rust-version"

echo "== rustfmt (every workspace member) =="
# One layout for the tree: `cargo fmt --all` rewrites, this only checks.
# benchmark/ is its own workspace and is not reached from here.
cargo fmt --all --check
echo "rustfmt clean"

echo "== scripts parse =="
# scripts/pairs.sh (alternating benchmark pairs) runs for minutes, so CI
# only checks that it parses.
bash -n scripts/pairs.sh
echo "scripts/pairs.sh parses"

echo "== build (release, full workspace, no rustc warnings) =="
# A warning is how rustc names dead code, leaked private types and a
# public item without docs; the tree has none, and `api/unused-pub` keeps
# `pub` from hiding new dead code, so one appearing fails the build (cargo
# replays them on a warm build too).
build_log="$tmp/build_log"
cargo build --release --workspace 2>&1 | tee "$build_log"
if grep -q '^warning' "$build_log"; then
    echo "the build printed rustc warnings: fix them (delete dead code, do not allow() it)" >&2
    exit 1
fi

echo "== clippy (full workspace, bans by resolved path) =="
# Panics, undocumented `unsafe` and every path clippy.toml bans (each
# with its reason: sleeps, thread spawns, clocks, the environment, hash
# order, a second pipeline or Algorithm 1, a frame copy) are denied for
# every member by the root manifest's [workspace.lints.clippy]; a use the
# layering permits carries an `#[expect]` with its reason (DESIGN.md §7.2).
# clippy only warns when a clippy.toml path stops resolving, so any
# warning fails here too.
clippy_log="$tmp/clippy_log"
cargo clippy --workspace --offline -- -D warnings 2>&1 | tee "$clippy_log"
if grep -q '^warning' "$clippy_log"; then
    echo "clippy printed warnings: a clippy.toml path no longer resolves, or a lint fired" >&2
    exit 1
fi

echo "== tests (full workspace) =="
# Every member's suite, once: odr-check's passes, fixtures and probes, the
# wire property suite and the loopback sessions included.
cargo test -q --workspace

echo "== paper reproduction (repro --quick, twice: deterministic and complete) =="
# Every figure, table, ablation and sweep renderer runs end to end on
# 8 s simulations; the whole reproduction is a pure function of its
# seed, so two runs must agree byte for byte, and every one of the 25
# section headers must be there.
repro_a="$tmp/repro_a"; repro_b="$tmp/repro_b"
target/release/repro --quick >"$repro_a" 2>/dev/null
target/release/repro --quick >"$repro_b" 2>/dev/null
cmp "$repro_a" "$repro_b" || { echo "repro --quick is nondeterministic" >&2; exit 1; }
# ...and with the 16,288 bytes pinned here: re-pin only when a simulation is meant to compute something else.
echo "297d5bf29cd338c49d588ad8e3e853e512a1a47f949abec6a0543444f1e99f32  $repro_a" | sha256sum -c --quiet || { echo "repro --quick is not byte-identical to its pin" >&2; exit 1; }
for header in "Figure 1:" "Figure 3:" "Figure 4a:" "Figure 4b:" "Figure 5:" \
    "Figure 6:" "Figure 7:" "Table 2:" "Figure 9a:" "Figure 9b:" "Figure 10:" \
    "Figure 11:" "Figure 12:" "Figure 13:" "Figure 14:" "Figure 15:" \
    "Ablation: blocking vs overwriting" "Ablation: Algorithm 1 acceleration" \
    "Ablation: multi-buffer depth" "Ablation: PriorityFrame" \
    "Extension: client display models" "Extension: sessions per server" \
    "Sweep: downlink capacity" "Sweep: ODR target feasibility" "Sweep: path loss"; do
    grep -q "^$header" "$repro_a" || {
        echo "repro --quick: section '$header' missing" >&2
        exit 1
    }
done
echo "repro --quick byte-identical across runs, all 25 sections present"

echo "== odr-check: lint + swap-protocol model checker =="
# A violation, a scenario the budget cannot cover or a moved run count
# fails the model pass; its figures reappear under the tracked quantities.
check_log="$tmp/check_log"
cargo run --release -q -p odr-check -- --deny-warnings --verbose | tee "$check_log"

echo "== odr-check: API-surface snapshot =="
# Every public item in the workspace must match the committed
# api-surface.txt byte-for-byte; regenerate deliberately with
# UPDATE_GOLDEN=1 cargo run -p odr-check -- api.
cargo run --release -q -p odr-check -- api --check

echo "== odr-check: effect-surface snapshot =="
# The transitive effect surface (allocates/blocks/panics per workspace
# fn, DESIGN.md §7; every call-graph edge feeds it, so it is also where
# the graph is pinned) must match the committed effect-surface.txt;
# regenerate deliberately with UPDATE_GOLDEN=1 cargo run -p odr-check
# -- effects.
cargo run --release -q -p odr-check -- effects --check

echo "== odr-check: hot paths stay effect-free =="
# The hot-root manifest (hotpaths.txt) is enforced by the lint pass
# above; here we pin the stronger contract that no effect/* rule is
# ever suppressed — the hot paths are genuinely clean, not allowlisted.
if grep -E '^[[:space:]]*effect/' odr-check.allow >/dev/null 2>&1; then
    echo "effect/* rules must never be allowlisted (fix the code)" >&2
    exit 1
fi
echo "no effect/* allowlist entries"

echo "== odr-check: byte-determinism differential =="
# The analyzer itself must be deterministic: two runs of the lint pass
# (every rule family, the call-graph ones included) and two renderings
# of the API surface, the call graph, and the effect surface must be
# byte-identical.
lint_a="$tmp/lint_a"; lint_b="$tmp/lint_b"
api_a="$tmp/api_a"; api_b="$tmp/api_b"
graph_a="$tmp/graph_a"; graph_b="$tmp/graph_b"
eff_a="$tmp/eff_a"; eff_b="$tmp/eff_b"
cargo run --release -q -p odr-check -- --lint-only >"$lint_a"
cargo run --release -q -p odr-check -- --lint-only >"$lint_b"
cargo run --release -q -p odr-check -- api >"$api_a"
cargo run --release -q -p odr-check -- api >"$api_b"
cargo run --release -q -p odr-check -- callgraph >"$graph_a"
cargo run --release -q -p odr-check -- callgraph >"$graph_b"
cargo run --release -q -p odr-check -- effects >"$eff_a"
cargo run --release -q -p odr-check -- effects >"$eff_b"
cmp "$lint_a" "$lint_b" || { echo "lint pass is nondeterministic" >&2; exit 1; }
cmp "$api_a" "$api_b" || { echo "api surface is nondeterministic" >&2; exit 1; }
cmp "$graph_a" "$graph_b" || { echo "call graph is nondeterministic" >&2; exit 1; }
cmp "$eff_a" "$eff_b" || { echo "effect surface is nondeterministic" >&2; exit 1; }
echo "lint + api + callgraph + effects output byte-identical across runs"

echo "== odr-check: the call graph follows an edit =="
# The graph's edges come from MIR that odr-check has cargo dump, and
# cargo's freshness check decides what is recompiled (DESIGN.md §7.4): a
# plain build in between must not leave the dump stale. A scratch copy of
# a fixture tree gets one new call and a `cargo build`; the next
# `odr-check callgraph` must show the edge.
fresh="$tmp/fresh"
cp -r crates/check/tests/fixtures/callgraph_tree "$fresh"
printf '[workspace]\nmembers = ["crates/*"]\nresolver = "2"\n' >"$fresh/Cargo.toml"
edge='beta::util::twice -> alpha::zero'
CARGO_TARGET_DIR="$fresh/target" target/release/odr-check callgraph --root "$fresh" >"$tmp/graph_before"
if grep -qxF "$edge" "$tmp/graph_before"; then
    echo "the scratch tree has '$edge' before the edit" >&2
    exit 1
fi
sed -i 's/^    x \* 2$/    x * 2 + alpha::zero()/' "$fresh/crates/beta/src/util.rs"
(cd "$fresh" && CARGO_TARGET_DIR="$fresh/target" cargo build -q --offline)
CARGO_TARGET_DIR="$fresh/target" target/release/odr-check callgraph --root "$fresh" >"$tmp/graph_after"
grep -qxF "$edge" "$tmp/graph_after" || {
    echo "odr-check callgraph is stale after an edit and a cargo build: '$edge' missing" >&2
    exit 1
}
echo "an edit and a cargo build later, the call graph has '$edge'"

echo "== one build: no cargo features =="
# The workspace has one build: observability capture is switched at run
# time (a NullRecorder, DESIGN.md §9.1) and every test suite always
# compiles. A `[features]` table or a `feature = "..."` gate would be a
# second build that nothing here tests; rustc only warns on an undeclared
# gate (`unexpected_cfgs`), this fails on either.
if git grep -nE '^\[features\]' -- '*Cargo.toml' ':!benchmark' ':!crates/check/tests/fixtures' ||
    git grep -n 'feature *= *"' -- '*.rs' ':!benchmark' ':!crates/check'; then
    echo "a cargo feature: switch at run time instead" >&2
    exit 1
fi
echo "no [features] table, no feature gate"

echo "== fleet determinism differential (1 thread vs all cores) =="
# The fleet engine promises byte-identical reports regardless of worker
# count. Exercise that promise end-to-end through the odrsim CLI: same
# fleet, one thread vs every core, outputs must be bit-for-bit equal.
threads="$(nproc 2>/dev/null || echo 8)"
out_serial="$tmp/out_serial"
out_parallel="$tmp/out_parallel"
cargo run --release -q -p odr-bench --bin odrsim -- \
    --benchmark IM --regulation odr --target 60 --duration 5 --seed 42 \
    --sessions 12 --threads 1 >"$out_serial" 2>/dev/null
cargo run --release -q -p odr-bench --bin odrsim -- \
    --benchmark IM --regulation odr --target 60 --duration 5 --seed 42 \
    --sessions 12 --threads "$threads" >"$out_parallel" 2>/dev/null
if ! cmp -s "$out_serial" "$out_parallel"; then
    echo "fleet determinism differential FAILED: 1 thread vs $threads threads differ" >&2
    diff "$out_serial" "$out_parallel" | head -20 >&2
    exit 1
fi
echo "fleet report identical on 1 vs $threads thread(s)"

echo "== fleet tracing differential (capture on vs off) =="
# Enabling observability capture must not change a single byte of the
# rendered fleet report: the counters live in a side field the text
# renderer never touches.
out_traced="$tmp/out_traced"
trace_file="$tmp/trace_file"
cargo run --release -q -p odr-bench --bin odrsim -- \
    --benchmark IM --regulation odr --target 60 --duration 5 --seed 42 \
    --sessions 12 --threads "$threads" \
    --trace-out "$trace_file" >"$out_traced" 2>/dev/null
if ! cmp -s "$out_serial" "$out_traced"; then
    echo "fleet tracing differential FAILED: capture on vs off differ" >&2
    diff "$out_serial" "$out_traced" | head -20 >&2
    exit 1
fi
test -s "$trace_file" || { echo "tracing produced no output" >&2; exit 1; }
echo "fleet report identical with tracing on vs off"

echo "== analytic fidelity differential (full vs analytic, small fleet) =="
# The analytic fast path must track the DES it replaces within the
# tolerances DESIGN.md §14 documents. The aggregate comparison itself
# is pinned by unit/property tests; here we assert the CLI wiring
# end-to-end: same fleet, both fidelities, and the analytic report must
# carry the same session count while agreeing on total power to 5%.
out_full="$tmp/out_full"
out_analytic="$tmp/out_analytic"
cargo run --release -q -p odr-bench --bin odrsim -- \
    --benchmark IM --regulation odr --target 60 --duration 5 --seed 42 \
    --sessions 32 --threads "$threads" >"$out_full" 2>/dev/null
cargo run --release -q -p odr-bench --bin odrsim -- \
    --benchmark IM --regulation odr --target 60 --duration 5 --seed 42 \
    --sessions 32 --threads "$threads" --fidelity analytic \
    >"$out_analytic" 2>/dev/null
head -1 "$out_full" | grep -q "sessions=32" || { echo "full fleet header wrong" >&2; exit 1; }
head -1 "$out_analytic" | grep -q "sessions=32" || { echo "analytic fleet header wrong" >&2; exit 1; }
power_full="$(grep -o 'power_w=[0-9.]*' "$out_full" | cut -d= -f2)"
power_analytic="$(grep -o 'power_w=[0-9.]*' "$out_analytic" | cut -d= -f2)"
awk -v a="$power_analytic" -v f="$power_full" 'BEGIN {
    rel = (a - f) / f; if (rel < 0) rel = -rel;
    if (rel >= 0.05) { exit 1 }
}' || {
    echo "analytic differential FAILED: power $power_analytic vs $power_full (>5%)" >&2
    exit 1
}
echo "analytic fleet tracks full DES (power within 5%)"

echo "== analytic smoke (100k sessions through the CLI) =="
# The analytic path must push 100k sessions through the CLI in one
# short run — this is the million-session fast path at a CI-friendly
# size (the >= 100x floor over FullDes is checked after the benchmark
# smoke below, from its own rows).
out_smoke="$tmp/out_smoke"
cargo run --release -q -p odr-bench --bin odrsim -- \
    --benchmark IM --regulation odr --target 60 --duration 5 --seed 42 \
    --sessions 100000 --fidelity analytic >"$out_smoke" 2>/dev/null
head -1 "$out_smoke" | grep -q "sessions=100000" || {
    echo "analytic smoke FAILED: wrong session count" >&2
    head -3 "$out_smoke" >&2
    exit 1
}
echo "100k-session analytic fleet ran clean"

echo "== cluster determinism differential (1 thread vs all cores) =="
# The cluster scheduler extends the fleet promise: control plane,
# calibration and measured sub-fleets must produce byte-identical
# reports regardless of worker count. Includes a node kill so the
# displacement path is covered too.
out_cluster_serial="$tmp/out_cluster_serial"
out_cluster_parallel="$tmp/out_cluster_parallel"
cargo run --release -q -p odr-bench --bin odrsim -- \
    --cluster --nodes 4 --arrival-rate 1.0 --duration 60 --seed 42 \
    --regulation odr --target 60 --kill-node 30:1 \
    --threads 1 >"$out_cluster_serial" 2>/dev/null
# ...and with the bytes pinned here, measured `meas_*` lines included:
# re-pin only when a simulation is meant to compute something else.
echo "746119d7ab60fdfe32f6071a04d16590a11739f1d830c3778d3921dc3f374c0d  $out_cluster_serial" | sha256sum -c --quiet || { echo "measured cluster report is not byte-identical to its pin" >&2; exit 1; }
cargo run --release -q -p odr-bench --bin odrsim -- \
    --cluster --nodes 4 --arrival-rate 1.0 --duration 60 --seed 42 \
    --regulation odr --target 60 --kill-node 30:1 \
    --threads "$threads" >"$out_cluster_parallel" 2>/dev/null
if ! cmp -s "$out_cluster_serial" "$out_cluster_parallel"; then
    echo "cluster determinism differential FAILED: 1 thread vs $threads threads differ" >&2
    diff "$out_cluster_serial" "$out_cluster_parallel" | head -20 >&2
    exit 1
fi
echo "cluster report identical on 1 vs $threads thread(s)"

echo "== cluster saturated differential (retry storm + kill) =="
# The pool above is never full: nothing is shed or retried. This one is
# (16 nodes, 20 arrivals/s of the paper's mix: ~5 in 6 shed, ~200
# requeues, a kill into a full pool), so every arrival and retry is
# answered from the quotes the control plane keeps between membership
# changes (DESIGN.md §11.2).
for t in 1 "$threads"; do
    cargo run --release -q -p odr-bench --bin odrsim -- \
        --cluster --nodes 16 --arrival-rate 20 --duration 30 --mix paper \
        --kill-node 10:3 --threads "$t" >"$tmp/out_saturated_$t" 2>/dev/null
done
grep -q ' requeues=[1-9]' "$tmp/out_saturated_1" || {
    echo "cluster saturated differential FAILED: the pool never retried" >&2
    exit 1
}
if ! cmp -s "$tmp/out_saturated_1" "$tmp/out_saturated_$threads"; then
    echo "cluster saturated differential FAILED: 1 vs $threads threads differ" >&2
    diff "$tmp/out_saturated_1" "$tmp/out_saturated_$threads" | head -20 >&2
    exit 1
fi
echo "saturated cluster report identical on 1 vs $threads thread(s)"

echo "== serving surface: loopback smoke (server + 4 clients over TCP) =="
# End-to-end through the odrsim CLI: a real server on 127.0.0.1 serves
# four concurrent replay clients and drains; every process must exit 0
# within a bounded wall time and the server must account for exactly
# the four sessions.
# The server picks a free port and the clients wait for its
# "serving on <addr>" line: no fixed port to collide with, no fixed
# sleep to lose a race against.
cargo build --release -q -p odr-bench --bin odrsim
serve_log="$tmp/serve_log"
telemetry="$tmp/telemetry.jsonl"
timeout 120 target/release/odrsim --serve --listen 127.0.0.1:0 \
    --max-sessions 8 --exit-after 4 --telemetry "$telemetry" >"$serve_log" 2>&1 &
serve_pid=$!
serve_addr=""
for _ in $(seq 200); do
    serve_addr="$(sed -n 's/.*serving on \([0-9.]*:[0-9]*\).*/\1/p' "$serve_log")"
    [ -n "$serve_addr" ] && break
    kill -0 "$serve_pid" 2>/dev/null || break
    sleep 0.05
done
[ -n "$serve_addr" ] || {
    echo "loopback smoke FAILED: the server never printed 'serving on <addr>' (10 s bound)" >&2
    cat "$serve_log" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
}
client_pids=()
client_logs=()
for i in 1 2 3 4; do
    client_log="$tmp/client_$i.log"
    client_logs+=("$client_log")
    timeout 60 target/release/odrsim --connect "$serve_addr" \
        --regulation odr --target 30 --duration 2 --rate 3 --seed "$i" \
        >"$client_log" 2>&1 &
    client_pids+=($!)
done
for pid in "${client_pids[@]}"; do
    wait "$pid" || {
        echo "loopback smoke FAILED: a client exited non-zero" >&2
        cat "${client_logs[@]}" >&2
        exit 1
    }
done
wait "$serve_pid" || {
    echo "loopback smoke FAILED: the server exited non-zero" >&2
    cat "$serve_log" >&2
    exit 1
}
grep -q "admitted 4, rejected 0, departures 4" "$serve_log" || {
    echo "loopback smoke FAILED: wrong admission accounting" >&2
    cat "$serve_log" >&2
    exit 1
}
# Capture follows --telemetry: the drained sessions' events are in the file.
test -s "$telemetry" || {
    echo "loopback smoke FAILED: --telemetry streamed nothing" >&2
    exit 1
}
echo "4 loopback clients served and drained clean, telemetry streamed"

echo "== frozen benchmark lockfile =="
# benchmark/run.sh builds without --locked, so a dependency edge added to
# any crate benchmark/Cargo.toml names would silently rewrite
# benchmark/Cargo.lock. Fail here instead; this writes nothing.
cargo metadata --locked --offline --format-version 1 \
    --manifest-path benchmark/Cargo.toml >/dev/null
echo "benchmark/Cargo.lock matches the tree"

echo "== benchmark smoke (all four workloads at 3 s, untraced then traced) =="
# The repo's one benchmark (BENCHMARK.json, benchmark/README.md) must
# build against the tree and come back correct on every workload; the
# numbers of a --quick run are not for comparing.
bash benchmark/run.sh --quick

echo "== sim_study report digest pin =="
# FNV-1a over round 0's four fleet reports and its cluster report at seed
# 77 (the benchmark checks the same round at 1 thread): any change to
# what Sim, the fleet or the cluster control plane computes moves it. A
# change meant to move a simulated number re-pins it with the others.
sim_digest="$("${CARGO_TARGET_DIR:-benchmark/target}/release/odr-benchmark" --workload sim_study --seed 77 --seconds 1 --trace 0 2>/dev/null)"
grep -q 'report digest 5e6d47705a6094fb' <<<"$sim_digest" || {
    echo "sim_study seed-77 report digest is not its pin 5e6d47705a6094fb:" >&2
    grep 'report digest' <<<"$sim_digest" >&2 || true
    exit 1
}
echo "sim_study seed-77 report digest 5e6d47705a6094fb"

echo "== fleet floors (read off the benchmark's sim_study rows) =="
# The two speed floors no test carries: the analytic fleet must run
# >= 100x the FullDes sessions/s, and on >= 4 cores two workers must
# beat one. Both quantities are rows of the traced sim_study run the
# smoke above just wrote; a missing row fails the floor.
fleet_floors() { # fleet_floors <traced.json> <cores>
    local analytic fulldes speedup value='": {"value": [0-9.eE+-]*'
    analytic="$(grep -o "\"fleet.analytic_sessions_per_s$value" "$1" | awk '{print $NF}' || true)"
    fulldes="$(grep -o "\"fleet.fulldes_sessions_per_s$value" "$1" | awk '{print $NF}' || true)"
    speedup="$(grep -o "\"fleet.thread_speedup$value" "$1" | awk '{print $NF}' || true)"
    awk -v a="$analytic" -v f="$fulldes" 'BEGIN {
        if (!(f > 0 && a / f >= 100)) exit 1
        printf "analytic %.0f vs FullDes %.1f sessions/s = %.0fx (floor 100x)\n", a, f, a / f
    }' || {
        echo "fleet floor FAILED: analytic '$analytic' vs FullDes '$fulldes' sessions/s is under 100x" >&2
        return 1
    }
    if [ "$2" -ge 4 ]; then
        awk -v s="$speedup" 'BEGIN { exit !(s > 1.0) }' || {
            echo "fleet floor FAILED: thread speedup '$speedup' is not > 1.0 on $2 cores" >&2
            return 1
        }
        echo "thread speedup ${speedup}x > 1.0 on $2 cores"
    else
        echo "thread speedup ${speedup}x reported only ($2 core(s) < 4)"
    fi
}
fleet_floors benchmark/out/sim_study.traced.json "$threads"

echo "== tracked quantities (ROADMAP aim 2: these should trend down) =="
echo "Rust lines outside benchmark/: $(git ls-files '*.rs' ':!benchmark' | xargs wc -l | tail -1 | awk '{print $1}')"
wc -l api-surface.txt effect-surface.txt hotpaths.txt DESIGN.md
echo "CHANGES.md bytes: $(wc -c <CHANGES.md)"
echo "#[inline] in crates/: $(git ls-files 'crates/*.rs' | xargs grep -o '#\[inline' | wc -l)"
echo "odr-check.allow entries: $(grep -cvE '^[[:space:]]*(#|$)' odr-check.allow || true)"
echo "call-graph calls through dyn, a generic or a fn pointer: $(grep -oE 'unresolved_calls=[0-9]+' "$check_log" | cut -d= -f2)"
echo "odr-check model pass: $(sed -nE 's/^model: ([0-9]+ scenarios, [0-9]+ interleavings).*/\1/p' "$check_log"), $(grep -oE 'model_us=[0-9]+' "$check_log")"
echo "odr-check rules (ALL_RULES): $(awk '/ALL_RULES: &\[&str\] = &\[/ { f = 1; next }
    f && /^\];/ { f = 0 } f && /"/ { n++ } END { print n + 0 }' crates/check/src/lint.rs)"
echo "declared cargo features (non-default): $(git ls-files 'Cargo.toml' '*/Cargo.toml' ':!benchmark' |
    xargs awk '/^\[/ { f = ($0 == "[features]") }
               f && /^[a-z0-9_-]+ *=/ && $1 != "default" { n++ }
               END { print n + 0 }')"

echo "ci: all green"
