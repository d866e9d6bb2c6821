#!/usr/bin/env bash
# Alternating pairs: one benchmark workload, two trees, N held-out seeds.
#
#   bash scripts/pairs.sh A_DIR B_DIR WORKLOAD N [SECONDS]
#
# Builds each tree's benchmark with benchmark/run.sh's command, into the
# tree's own target/benchmark, then runs
# `odr-benchmark --workload WORKLOAD --seed s --seconds SECONDS --trace 0`
# (SECONDS defaults to 21) once per tree for each seed s = 9001 ..
# 9000 + N, flipping which tree runs first from one seed to the next, so
# a slow or fast phase of the host lands on both sides. It prints every
# run, then for each end-to-end metric of A's BENCHMARK.json every pair's
# B/A ratio, their median and quartiles, the count of pairs in which B is
# better, and each side's median and quartiles of the raw values. With
# A_DIR = B_DIR (one build, run twice per seed) it is the A/A pass: the
# spread that a claimed change has to clear.
set -euo pipefail

if [ $# -lt 4 ] || [ $# -gt 5 ]; then
    echo "usage: bash scripts/pairs.sh A_DIR B_DIR WORKLOAD N [SECONDS]" >&2
    exit 2
fi
a_dir="$(cd "$1" && pwd)"
b_dir="$(cd "$2" && pwd)"
workload="$3"
pairs="$4"
seconds="${5:-21}"
case "$pairs$seconds" in
*[!0-9]*) echo "N and SECONDS are whole numbers" >&2; exit 2 ;;
esac

build() {
    (cd "$1" && CARGO_TARGET_DIR="$1/target/benchmark" \
        cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
}
build "$a_dir"
[ "$b_dir" = "$a_dir" ] || build "$b_dir"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
runs="$tmp/runs"
: >"$runs"
failed=0

# Runs tree $2 (side $1) on seed $3 and appends "seed side metric value"
# for each end-to-end figure on the run's result line.
run() {
    local side="$1" dir="$2" seed="$3" line
    line="$(cd "$dir" && "$dir/target/benchmark/release/odr-benchmark" \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 2>/dev/null |
        tail -n 1)" || true
    echo "seed $seed $side $line"
    if [[ "$line" != '{"correct": true'* ]] || [[ "$line" != *'"failed": 0,'* ]]; then
        failed=$((failed + 1))
        return
    fi
    grep -oE '"[a-z0-9_]+": \{"value": [-0-9.eE+]+' <<<"$line" |
        sed -E 's/^"([a-z0-9_]+)": \{"value": (.*)$/\1 \2/' |
        while read -r metric value; do
            echo "$seed $side $metric $value" >>"$runs"
        done
}

echo "== $workload: $pairs pairs at $seconds s, A = $a_dir, B = $b_dir =="
for ((i = 1; i <= pairs; i++)); do
    seed=$((9000 + i))
    if ((i % 2)); then
        run A "$a_dir" "$seed"
        run B "$b_dir" "$seed"
    else
        run B "$b_dir" "$seed"
        run A "$a_dir" "$seed"
    fi
done

# "name better" for each end-to-end metric, in BENCHMARK.json's order.
grep -oE '\{"name": "[a-z0-9_]+", "unit": "[^"]*", "better": "(higher|lower)", "bound"' \
    "$a_dir/BENCHMARK.json" |
    sed -E 's/^\{"name": "([a-z0-9_]+)".*"better": "(higher|lower)".*$/\1 \2/' >"$tmp/metrics"

echo
echo "metric better: B/A per pair (seed order); ratio median [Q1, Q3]; B better in k/n; A median [Q1, Q3] -> B median [Q1, Q3]"
awk '
    function sort(v, n,    i, j, t) {
        for (i = 2; i <= n; i++) {
            t = v[i]
            for (j = i - 1; j >= 1 && v[j] > t; j--) v[j + 1] = v[j]
            v[j + 1] = t
        }
    }
    # Quantile q of the sorted v[1..n], interpolated between ranks.
    function quantile(v, n, q,    p, lo) {
        p = 1 + (n - 1) * q
        lo = int(p)
        return lo >= n ? v[n] : v[lo] + (p - lo) * (v[lo + 1] - v[lo])
    }
    # "median [Q1, Q3]" of v[1..n], left unsorted.
    function triple(v, n,    c, k) {
        for (k = 1; k <= n; k++) c[k] = v[k]
        sort(c, n)
        return sprintf("%.6g [%.6g, %.6g]", quantile(c, n, 0.5), quantile(c, n, 0.25), quantile(c, n, 0.75))
    }
    FNR == NR { better[$1] = $2; order[++m] = $1; next }
    { value[$3, $2, $1] = $4; seeds[$1] = 1 }
    END {
        ns = 0
        for (s in seeds) seed[++ns] = s + 0
        sort(seed, ns)
        for (k = 1; k <= m; k++) {
            name = order[k]
            n = 0; wins = 0; list = ""
            split("", r); split("", av); split("", bv)
            for (i = 1; i <= ns; i++) {
                s = seed[i]
                if (!((name, "A", s) in value) || !((name, "B", s) in value)) continue
                x = value[name, "A", s]; y = value[name, "B", s]
                if (x == 0) continue
                n++
                r[n] = y / x; av[n] = x; bv[n] = y
                list = list sprintf(" %.3f", r[n])
                if ((better[name] == "higher" && y > x) || (better[name] == "lower" && y < x)) wins++
            }
            if (n == 0) { printf "%s %s: no pair\n", name, better[name]; continue }
            printf "%s %s:%s; %s; B better in %d/%d; %s -> %s\n", name, better[name], list,
                triple(r, n), wins, n, triple(av, n), triple(bv, n)
        }
    }' "$tmp/metrics" "$runs"

if ((failed)); then
    echo "$failed run(s) failed or were not correct; their pairs are left out" >&2
    exit 1
fi
