#!/usr/bin/env bash
# Build the release `lcdc` binary and the harness from source, then run
# the benchmark. See benchmark/README.md; flags are the harness's:
#   run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--quick]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$root/.bench_build}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin lcdc >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/lcdc-benchmark" --lcdc "$target/release/lcdc" --out "$here/out" "$@"
