#!/usr/bin/env bash
# Builds parcel_bench from this checkout (once) and runs one workload:
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root. The build lives in .bench_build/benchmark.
# --trace 1 writes the Chrome trace to .bench_build/trace-NAME-N.json and
# makes the last line report the per-layer metrics instead of the
# end-to-end ones. Every other argument goes to parcel_bench unchanged.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
build=.bench_build/benchmark

args=()
workload=""
seed="2014"
trace="0"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --trace)
      [[ $# -ge 2 ]] || { echo "error: --trace expects 0 or 1" >&2; exit 2; }
      trace="$2"
      shift 2
      ;;
    --workload|--seed)
      [[ $# -ge 2 ]] || { echo "error: $1 expects a value" >&2; exit 2; }
      [[ "$1" == --workload ]] && workload="$2" || seed="$2"
      args+=("$1" "$2")
      shift 2
      ;;
    *)
      args+=("$1")
      shift
      ;;
  esac
done
case "$trace" in
  0) ;;
  1) args+=(--trace ".bench_build/trace-${workload}-${seed}.json") ;;
  *) echo "error: --trace expects 0 or 1, got '$trace'" >&2; exit 2 ;;
esac

if [[ ! -f "$build/CMakeCache.txt" ]]; then
  # A half-configured tree would be reused by the next run; drop it.
  cmake -S benchmark -B "$build" -DCMAKE_BUILD_TYPE=Release >&2 || {
    rm -rf "$build"
    exit 1
  }
fi
cmake --build "$build" -j4 --target parcel_bench >&2

exec "$build/parcel_bench" "${args[@]}"
