#!/usr/bin/env bash
# Builds `prsim` and the serving benchmark from source, then runs one
# benchmark workload:
#
#   bash servebench/run.sh --workload query_resident --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default: .bench_build in the
# repository root); the benchmark's scratch files go under it as well.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
target="${CARGO_TARGET_DIR:-$root/.bench_build}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p prsim-cli >&2
cargo build --release --offline --quiet --manifest-path "$root/servebench/Cargo.toml" >&2

exec "$target/release/servebench" \
    --prsim "$target/release/prsim" \
    --work-dir "$target/servebench-work" \
    "$@"
