#!/usr/bin/env bash
# Alternating pairs of benchmark runs of two revisions, and per metric
# the numbers a speed-up claim is judged on.
#
#   scripts/pairs.sh <parent> [<change>] [--pairs N] [--seed S]
#                    [--seconds T] [--workloads "W ..."] [--out FILE]
#
# Each revision is exported with `git archive` into a directory of its
# own, and its benchmark is built there into a target dir of its own;
# without <change>, the working tree as it stands is the change. (An
# export, not a `git worktree`: running this leaves no worktree behind in
# the repository.) For each workload (default: every one in
# BENCHMARK.json), pair i of N (default 10) runs
#
#   benchmark/run.sh --workload W --seed S+i --seconds T --trace 0
#
# for both revisions, S default 901 and T default 15: the parent first
# in even pairs and the change first in odd ones (ABBA), so the order of
# a pair cancels out over the pairs. Then, per workload and end-to-end
# metric, it prints the parent's and the change's medians, the parent's
# interquartile range, the range of the pairs' change/parent ratios, and
# in how many pairs the change was better (by the metric's `better` in
# BENCHMARK.json); --out also writes that and every run's value as JSON.
# Nothing under benchmark/ is changed; the exports and builds go to a
# temporary directory, removed on exit.
set -euo pipefail

usage() {
    echo "usage: scripts/pairs.sh <parent> [<change>] [--pairs N] [--seed S] [--seconds T] [--workloads \"W ...\"] [--out FILE]" >&2
    exit 2
}

root=$(cd "$(dirname "$0")/.." && pwd)
parent="" change="" pairs=10 seed=901 seconds=15 workloads="" out=""
while [ $# -gt 0 ]; do
    case $1 in
        --pairs) pairs=$2; shift 2 ;;
        --seed) seed=$2; shift 2 ;;
        --seconds) seconds=$2; shift 2 ;;
        --workloads) workloads=$2; shift 2 ;;
        --out) out=$2; shift 2 ;;
        -*) usage ;;
        *)
            if [ -z "$parent" ]; then parent=$1
            elif [ -z "$change" ]; then change=$1
            else usage
            fi
            shift ;;
    esac
done
[ -n "$parent" ] || usage
[ "$pairs" -ge 1 ] 2>/dev/null || usage

# name better: the end-to-end metrics and their directions.
metrics=$(tr -d '\n' < "$root/BENCHMARK.json" | grep -o '"end_to_end": *\[[^]]*\]' |
    grep -o '"name": *"[a-z0-9_]*"[^}]*"better": *"[a-z]*"' |
    sed -E 's/"name": *"([a-z0-9_]*)".*"better": *"([a-z]*)"/\1 \2/')
if [ -z "$workloads" ]; then
    workloads=$(tr -d '\n' < "$root/BENCHMARK.json" | grep -o '"workloads": *\[.*\]' |
        grep -o '"name": *"[a-z0-9_]*"' | sed -E 's/"name": *"(.*)"/\1/' | tr '\n' ' ')
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# export <rev> <dir>: a clean copy of <rev>, or of the working tree.
export_rev() {
    mkdir -p "$2"
    if [ -n "$1" ]; then
        git -C "$root" archive "$1" | tar -x -C "$2"
    else
        (cd "$root" && git ls-files -co --exclude-standard -z |
            tar -c --null -T - --ignore-failed-read 2>/dev/null) | tar -x -C "$2"
    fi
}
export_rev "$parent" "$work/A"
export_rev "$change" "$work/B"

# run <A|B> <workload> <seed>: one benchmark run; its result object.
run() {
    (cd "$work/$1" && CARGO_TARGET_DIR="$work/$1-target" benchmark/run.sh \
        --workload "$2" --seed "$3" --seconds "$seconds" --trace 0 | tail -n 1)
}

# One line per run and metric: workload metric pair A|B value.
values="$work/values"
: > "$values"
for w in $workloads; do
    for ((i = 0; i < pairs; i++)); do
        s=$((seed + i))
        if ((i % 2 == 0)); then order="A B"; else order="B A"; fi
        for side in $order; do
            result=$(run "$side" "$w" "$s")
            echo "$result" | grep -q '"correct": *true' || {
                echo "error: $w seed $s ($side) did not check out: $result" >&2
                exit 1
            }
            while read -r name _; do
                v=$(echo "$result" | grep -o "\"$name\": *{\"value\": *[-0-9.eE+]*" | sed 's/.*: *//')
                [ -n "$v" ] && echo "$w $name $i $side $v" >> "$values"
            done <<< "$metrics"
            echo "$w seed $s $side done" >&2
        done
    done
done

# Per workload and metric, from the values: medians, the parent's IQR,
# the ratio range and the wins. Quartiles interpolate linearly between
# order statistics.
summary=$(awk -v metrics="$(echo "$metrics" | tr '\n' ';')" '
function sortn(a, n,    i, j, t) {
    for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t }
}
function q(a, n, p,    h, lo) { h = (n - 1) * p + 1; lo = int(h); return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo]) }
BEGIN {
    m = split(metrics, parts, ";")
    for (i = 1; i <= m; i++) { split(parts[i], f, " "); better[f[1]] = f[2]; order[i] = f[1] }
}
{ key = $1 SUBSEP $2; v[key, $3, $4] = $5; if (!(key in seen)) { seen[key] = 1; keys[++nk] = key } if ($3 + 1 > np[key]) np[key] = $3 + 1 }
END {
    for (k = 1; k <= nk; k++) {
        key = keys[k]; split(key, wm, SUBSEP); n = 0; wins = 0; rmin = ""; rmax = ""
        runs = ""
        for (i = 0; i < np[key]; i++) {
            if (!((key, i, "A") in v) || !((key, i, "B") in v)) continue
            a = v[key, i, "A"]; b = v[key, i, "B"]; n++
            A[n] = a; B[n] = b; r = a == 0 ? 1 : b / a
            if (rmin == "" || r < rmin) rmin = r
            if (rmax == "" || r > rmax) rmax = r
            if ((better[wm[2]] == "higher" && b > a) || (better[wm[2]] == "lower" && b < a)) wins++
            runs = runs (runs == "" ? "" : ", ") "[" a ", " b "]"
        }
        if (n == 0) continue
        sortn(A, n); sortn(B, n)
        printf "%s %s %.6g %.6g %.6g %.4f %.4f %d %d %s\n", wm[1], wm[2], q(A, n, 0.5), q(B, n, 0.5), q(A, n, 0.75) - q(A, n, 0.25), rmin, rmax, wins, n, runs
    }
}' "$values")

printf '%-10s %-27s %12s %12s %10s %15s %6s\n' workload metric parent change parent_iqr ratio_range wins
while read -r w name a b iqr rmin rmax wins n _; do
    printf '%-10s %-27s %12s %12s %10s %15s %6s\n' "$w" "$name" "$a" "$b" "$iqr" "$rmin–$rmax" "$wins/$n"
done <<< "$summary"

if [ -n "$out" ]; then
    {
        echo "{"
        echo "  \"parent\": \"$parent\","
        echo "  \"change\": \"${change:-working tree}\","
        echo "  \"pairs\": $pairs, \"first_seed\": $seed, \"seconds\": $seconds,"
        echo "  \"order\": \"ABBA: pair i runs the parent first when i is even\","
        echo "  \"cells\": ["
        first=1
        while read -r w name a b iqr rmin rmax wins n runs; do
            [ $first -eq 1 ] || echo ","
            first=0
            printf '    {"workload": "%s", "metric": "%s", "parent_median": %s, "change_median": %s, "parent_iqr": %s, "ratio_min": %s, "ratio_max": %s, "change_wins": %s, "pairs": %s, "runs": [%s]}' \
                "$w" "$name" "$a" "$b" "$iqr" "$rmin" "$rmax" "$wins" "$n" "$runs"
        done <<< "$summary"
        echo
        echo "  ]"
        echo "}"
    } > "$out"
fi
