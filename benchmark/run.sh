#!/usr/bin/env bash
# Build the benchmark and run it.
#
#   run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of stdout is its result
#   run.sh [--seed N] [--seconds S] [--repeat K]
#       every workload, timed and traced; with K > 1 also the noise table
#
# Run it from anywhere: paths are taken from this script's own location.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
target="${CARGO_TARGET_DIR:-$here/target}"

# Build output goes to stderr so that stdout carries results only.
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2

exec "$target/release/critique-benchmark" --out "$here/out" "$@"
