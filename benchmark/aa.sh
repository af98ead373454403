#!/usr/bin/env bash
# A/A check: run the end-to-end suite N times (default 2) on the same
# build and print, per workload x metric, the first and last value, the
# widest relative gap and the bound. Exits non-zero when a gap exceeds
# its bound or an operation failed.
#   aa.sh [N] [--seed S] [--workload NAME] [--quick]
set -euo pipefail
runs=2
if [[ "${1:-}" =~ ^[0-9]+$ ]]; then
  runs="$1"
  shift
fi
exec "$(dirname "${BASH_SOURCE[0]}")/run.sh" --aa "$runs" "$@"
