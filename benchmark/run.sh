#!/usr/bin/env bash
# Build the benchmark from source, then run it.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one run, result line last
#   benchmark/run.sh [--seed N] [--quick] [--reps N] [--aa] [--out FILE]   every workload
#   benchmark/run.sh compare A.json B.json
#
# Run it from the repository root. The build goes to CARGO_TARGET_DIR when
# that is set (a relative value is relative to the current directory, as
# cargo reads it) and to benchmark/target otherwise. Nothing is fetched:
# the package depends on ../crates/* and ../vendor/rand by path only.
set -euo pipefail

dir=$(dirname "$0")
target=${CARGO_TARGET_DIR:-$dir/target}
export CARGO_TARGET_DIR=$target
export CARGO_NET_OFFLINE=true

# Cargo's own output goes to stderr; stdout carries only the results.
cargo build --release --offline --quiet --manifest-path "$dir/Cargo.toml" 1>&2

exec "$target/release/uncat-benchmark" --dir "$dir" "$@"
