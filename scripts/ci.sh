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

echo "== build (release, full workspace, no rustc warnings) =="
# A warning is how rustc names dead code and leaked private types; the
# tree has none, and `api/unused-pub` keeps `pub` from hiding new ones, so
# one appearing fails the build (cargo replays them on a warm build too).
build_log="$tmp/build_log"
cargo build --release --workspace 2>&1 | tee "$build_log"
if grep -q '^warning' "$build_log"; then
    echo "the build printed rustc warnings: fix them (delete dead code, do not allow() it)" >&2
    exit 1
fi

echo "== tests (full workspace) =="
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
# ...and with the 16,071 bytes pinned here: re-pin only when a simulation is meant to compute something else.
echo "6039f06887369823746dcb753abdaabf48c2689ec1596605b7609e82edb06daa  $repro_a" | sha256sum -c --quiet || { echo "repro --quick is not byte-identical to its pin" >&2; exit 1; }
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
cargo run --release -q -p odr-check -- --deny-warnings --verbose

echo "== odr-check: own test suite (lexer, items, locks, api, fixtures) =="
cargo test -q -p odr-check

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

echo "== session path: no fixed sleeps, one pipeline =="
# Every wait between an input arriving and its frame leaving parks on the
# session gate, where an input or a shutdown can cut it (DESIGN.md §18).
# A plain sleep cannot be cut, so none may come back into these files.
if grep -rn 'thread::sleep(' crates/runtime/src crates/serve/src/server.rs \
    crates/serve/src/session.rs; then
    echo "thread::sleep( on the session path: park on the session gate instead" >&2
    exit 1
fi
echo "no thread::sleep( in crates/runtime/src, server.rs, session.rs"
# A served session is the one real-time pipeline: nothing but it (and
# tests) assembles the stage threads a second time.
if git grep -n 'spawn_app_stage(' -- '*.rs' ':!benchmark' ':!tests/*' ':!*/tests/*' \
    ':!crates/runtime/src/stages.rs' ':!crates/serve/src/session.rs'; then
    echo "a second pipeline: only crates/serve/src/session.rs spawns the stage threads" >&2
    exit 1
fi
echo "spawn_app_stage( is called from session.rs only"
# Algorithm 1 is written once, in odr_core::ProxyCycle, which the DES and the
# served proxy thread both step (DESIGN.md §18.9): a driver that steps the
# regulator itself is a second copy, free to drift from the first.
if git grep -nE 'on_frame_processed|cancel_pending_sleep|with_max_debt' -- \
    crates/pipeline/src crates/runtime/src crates/serve/src; then
    echo "a second Algorithm 1: step odr_core::ProxyCycle instead of the regulator" >&2
    exit 1
fi
echo "Algorithm 1 is stepped through ProxyCycle only"
# The app loop is written once too, in odr_core::AppCycle, which the DES
# and the served render thread both step (DESIGN.md §18.10): a driver that
# paces frames or marks PriorityFrames itself is a second copy.
if git grep -nE 'PriorityGate|IntervalPacer|begin_frame|input_arrived' -- \
    crates/pipeline/src crates/runtime/src crates/serve/src; then
    echo "a second app loop: step odr_core::AppCycle instead of a pacer or gate" >&2
    exit 1
fi
echo "the app loop is stepped through AppCycle only"

echo "== odr-check: byte-determinism differential =="
# The analyzer itself must be deterministic: two runs of the lint pass
# (which now spans the atomics, taint, and graph rule families) and two
# renderings of the API surface, the call graph, and the effect surface
# must be byte-identical.
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
    --trace-out "$trace_file" --trace-format jsonl >"$out_traced" 2>/dev/null
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
# The class-memoized analytic path must push 100k sessions through the
# CLI in one short run — this is the million-session fast path at a
# CI-friendly size (the >= 100x floor over FullDes is checked after the
# benchmark smoke below, from its own rows).
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

echo "== cluster saturated differential (retry storm + kill, each placement policy) =="
# The pool above is never full: nothing is shed or retried. This one is
# (16 nodes, 20 arrivals/s of the paper's mix: ~5 in 6 shed, ~200
# requeues, a kill into a full pool), so every arrival and retry is
# answered from the quotes the control plane keeps between membership
# changes (DESIGN.md §11.2), under each policy's pick.
for policy in first-fit best-fit odr-aware; do
    for t in 1 "$threads"; do
        cargo run --release -q -p odr-bench --bin odrsim -- \
            --cluster --nodes 16 --arrival-rate 20 --duration 30 --mix paper \
            --kill-node 10:3 --policy "$policy" --threads "$t" \
            >"$tmp/out_saturated_$t" 2>/dev/null
    done
    grep -q ' requeues=[1-9]' "$tmp/out_saturated_1" || {
        echo "cluster saturated differential FAILED: $policy pool never retried" >&2
        exit 1
    }
    if ! cmp -s "$tmp/out_saturated_1" "$tmp/out_saturated_$threads"; then
        echo "cluster saturated differential FAILED: $policy, 1 vs $threads threads differ" >&2
        diff "$tmp/out_saturated_1" "$tmp/out_saturated_$threads" | head -20 >&2
        exit 1
    fi
done
echo "saturated cluster reports identical on 1 vs $threads thread(s), all three policies"

echo "== serving surface: wire property suite + loopback tests =="
# The wire-format property suite (round-trips, truncation, corruption,
# hostile length prefixes) and the client's loopback sessions.
cargo test -q -p odr-serve
cargo test -q -p odr-client

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
timeout 120 target/release/odrsim --serve --listen 127.0.0.1:0 \
    --max-sessions 8 --exit-after 4 >"$serve_log" 2>&1 &
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
echo "4 loopback clients served and drained clean"

echo "== benchmark smoke (all four workloads at 3 s, untraced then traced) =="
# The repo's one benchmark (BENCHMARK.json, benchmark/README.md) must
# build against the tree and come back correct on every workload; the
# numbers of a --quick run are not for comparing.
bash benchmark/run.sh --quick

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
wc -l api-surface.txt effect-surface.txt
echo "odr-check.allow entries: $(grep -cvE '^[[:space:]]*(#|$)' odr-check.allow || true)"
echo "declared cargo features (non-default): $(git ls-files 'Cargo.toml' '*/Cargo.toml' ':!benchmark' |
    xargs awk '/^\[/ { f = ($0 == "[features]") }
               f && /^[a-z0-9_-]+ *=/ && $1 != "default" { n++ }
               END { print n + 0 }')"

echo "ci: all green"
