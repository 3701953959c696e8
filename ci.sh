#!/usr/bin/env bash
# Minimal CI: Release build (warnings are errors tree-wide) + full test
# suite (which checks every paper figure in --quick mode and the faults,
# adaptive, fleet and parse-cache harnesses against their golden stdout,
# and runs the allocation guards and the arena-bytes and joules-per-event
# ceilings), the figure driver's full-size --jobs 1 vs --jobs 4 byte
# identity, its full-size golden and its unknown-id rejection,
# parcel_bench's own unit tests (benchmark/tests, which cover the JSON
# library every BENCH_*.json goes through), the parcel-lint determinism
# gate, then the one wall-clock gate: parcel_bench's four workloads on
# this change and on its parent commit, both built here in Release, judged
# by `parcel_bench --compare` (any end-to-end metric worse than its
# BENCHMARK.json bound, or a differing digest, fails; doctored result
# files must be rejected). Then the harness smokes (parcel_figures
# parse-cache, faults, fleet and adaptive), whose exit codes are the gates
# and whose BENCH_*.json must equal the committed files. Then a
# ThreadSanitizer build that runs the parallel-runner, parse-cache and
# callback tests to prove the fan-out and the per-thread callback block
# cache race-free, an AddressSanitizer build that runs the full suite once
# to prove the zero-copy string_view plumbing never dangles (the arena
# poisons memory its containers release, so a view into it is reported
# too), and an UndefinedBehaviorSanitizer build (-fno-sanitize-recover:
# first report aborts) over the full suite.
# Usage: ./ci.sh [jobs]
set -euo pipefail
cd "$(dirname "$0")"

JOBS="${1:-$(nproc)}"

echo "==> Release build + ctest (includes the parcel_lint_tree gate)"
cmake -B build-ci -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-ci -j "$JOBS"
ctest --test-dir build-ci --output-on-failure -j "$JOBS"

echo "==> Figure driver: every figure byte-identical across --jobs"
# ctest already ran `parcel_figures --quick all`; this runs the default
# (34-page) grid serially and on four workers and compares the bytes.
FIGURES=./build-ci/bench/parcel_figures
"$FIGURES" all --jobs 1 > build-ci/figures_jobs1.txt
"$FIGURES" all --jobs 4 > build-ci/figures_jobs4.txt
cmp build-ci/figures_jobs1.txt build-ci/figures_jobs4.txt
echo "parcel_figures all: --jobs 1 and --jobs 4 byte-identical"
# ...and against the pinned default-grid output (re-pin recipe:
# EXPERIMENTS.md "Golden outputs").
cmp build-ci/figures_jobs1.txt tests/golden/parcel_figures_all.txt
echo "parcel_figures all: byte-identical to tests/golden/parcel_figures_all.txt"
rc=0
"$FIGURES" nope 2> /dev/null || rc=$?
if [ "$rc" -ne 2 ]; then
  echo "parcel_figures exit code on an unknown figure: $rc (want 2)"
  exit 1
fi
echo "parcel_figures correctly rejects an unknown figure (exit 2)"

echo "==> parcel_bench unit tests (incl. the JSON library bench/ links)"
cmake -S benchmark -B build-benchmark -DCMAKE_BUILD_TYPE=Release
cmake --build build-benchmark -j "$JOBS"
ctest --test-dir build-benchmark --output-on-failure -j "$JOBS"

echo "==> parcel-lint: tree must be clean, seeded violations must fail"
# The whole-program analyzer (taint + layers + mutex annotations) lexes
# and indexes each file exactly once; the 5s ceiling keeps that contract
# honest as the tree grows.
timeout 5 ./build-ci/tools/parcel-lint/parcel-lint \
  --config lint.rules --root . src bench
LINT=./build-ci/tools/parcel-lint/parcel-lint
must_fail_lint() {
  local what="$1"; shift
  local rc=0
  "$LINT" "$@" > /dev/null || rc=$?
  if [ "$rc" -ne 1 ]; then
    echo "parcel-lint exit code on seeded $what: $rc (want 1)"
    exit 1
  fi
  echo "parcel-lint correctly rejects the seeded $what (exit 1)"
}
must_fail_lint "determinism violation" \
  --root tests/lint_fixtures nondet_random_bad.cpp
must_fail_lint "transitive taint chain" \
  --root tests/lint_fixtures transitive_chain.cpp
must_fail_lint "layering violation (upward include + cycle)" \
  --config tests/lint_fixtures/layers/layers.rules \
  --root tests/lint_fixtures/layers .
must_fail_lint "unannotated mutex" \
  --root tests/lint_fixtures mutex_unannotated_bad.hpp

echo "==> clang -Wthread-safety: annotated locking discipline"
# PARCEL_GUARDED_BY / PARCEL_ACQUIRE expand to clang's thread-safety
# attributes (src/util/thread_annotations.hpp); only clang can check
# them, so this leg is skipped — loudly — where clang is unavailable.
if command -v clang++ > /dev/null 2>&1; then
  clang++ -fsyntax-only -std=c++20 -Isrc \
    -Wno-everything -Wthread-safety -Werror \
    src/web/parse_cache.cpp src/core/parallel_runner.cpp
  echo "thread-safety analysis clean"
else
  echo "SKIPPED: clang++ not installed on this runner (gcc ignores the"
  echo "thread-safety attributes; parcel-lint's mutex-unannotated rule"
  echo "still enforces the annotation convention above)"
fi

echo "==> clang-tidy gate (.clang-tidy over compile_commands.json)"
if command -v clang-tidy > /dev/null 2>&1; then
  git ls-files 'src/*.cpp' 'src/**/*.cpp' | xargs \
    clang-tidy -p build-ci --quiet --warnings-as-errors='*'
  echo "clang-tidy clean"
else
  echo "SKIPPED: clang-tidy not installed on this runner"
fi

echo "==> Same-host wall clock: parcel_bench against the parent commit"
# parcel_bench is the one wall-clock instrument (bench/ reads no clock).
# Its end-to-end metrics are judged against the parent commit built and
# run on this host, never against numbers from another machine. The parent
# is HEAD when the working tree has uncommitted changes, HEAD^ otherwise.
if [ -n "$(git status --porcelain)" ]; then PARENT=HEAD; else PARENT=HEAD^; fi
echo "parent: $PARENT ($(git rev-parse --short "$PARENT"))"
rm -rf build-parent
mkdir -p build-parent/src build-parent/runs/parent build-parent/runs/change
git archive "$PARENT" | tar -x -C build-parent/src
cmake -S build-parent/src/benchmark -B build-parent/benchmark \
  -DCMAKE_BUILD_TYPE=Release
cmake --build build-parent/benchmark -j "$JOBS" --target parcel_bench
# Four workloads x five seeds, 5 s each, alternating which side runs first.
# Every run must exit 0; at seed 2014 that includes its pinned digest.
bench_run() {  # SIDE WORKLOAD SEED
  local bin=build-benchmark/parcel_bench
  if [ "$1" = parent ]; then bin=build-parent/benchmark/parcel_bench; fi
  "$bin" --workload "$2" --seed "$3" --seconds 5 \
    --out "build-parent/runs/$1/$2-$3.json" > /dev/null
}
order="parent change"
for w in paper-grid fresh-pages live-faults fleet-stream; do
  for s in 2014 2015 2016 2017 2018; do
    for side in $order; do bench_run "$side" "$w" "$s"; done
    if [ "$order" = "parent change" ]; then order="change parent"
    else order="parent change"; fi
  done
done
# Exit 1 on any `worse` end-to-end metric (bounds: BENCHMARK.json) or on a
# seed whose two output digests differ.
./build-benchmark/parcel_bench --compare build-parent/runs/parent \
  build-parent/runs/change
echo "==> Same-host wall clock: seeded bad result files must fail"
# Copies the change-side runs, pipes each file matching GLOB through the
# remaining arguments (a filter command), and wants --compare's exit code
# WANT ("nonzero": any failure).
must_fail_compare() {
  local what="$1" want="$2" glob="$3"; shift 3
  local dir=build-parent/runs/doctored rc=0 f
  rm -rf "$dir" && cp -r build-parent/runs/change "$dir"
  for f in "$dir"/$glob; do "$@" < "$f" > "$f.tmp" && mv "$f.tmp" "$f"; done
  # The braces also silence the shell's own report of a crashed child.
  { (ulimit -c 0; ./build-benchmark/parcel_bench --compare \
    build-parent/runs/parent "$dir") > /dev/null; } 2> /dev/null || rc=$?
  if [ "$want" = nonzero ] && [ "$rc" -ne 0 ]; then rc=nonzero; fi
  if [ "$rc" != "$want" ]; then
    echo "parcel_bench --compare exit code on $what: $rc (want $want)"
    exit 1
  fi
  echo "parcel_bench --compare correctly rejects $what (exit $want)"
}
# Half the paper-grid throughput is a regression far past the 20% bound.
must_fail_compare "paper-grid ops_per_s halved" 1 'paper-grid-*.json' awk '
  match($0, /"ops_per_s": \{"value": [^,}]+/) {
    n = length("\"ops_per_s\": {\"value\": ")
    v = substr($0, RSTART + n, RLENGTH - n) * 0.5
    $0 = substr($0, 1, RSTART + n - 1) sprintf("%.17g", v) \
         substr($0, RSTART + RLENGTH)
  }
  { print }'
must_fail_compare "a changed output digest" 1 'paper-grid-2014.json' \
  sed -E 's/("digest": ")[^"]*/\10x0/'
# An unreadable value must fail too. --compare aborts on it today instead of
# exiting 2 (ROADMAP item 3), so any nonzero exit passes this leg.
must_fail_compare "a non-numeric metric value" nonzero 'paper-grid-2014.json' \
  sed -E 's/("ops_per_s": \{"value": )[^,}]*/\1"x"/'

# The harness smokes run the arguments that wrote the committed
# BENCH_*.json files; each exit code is a gate, and each written file must
# equal the committed one byte for byte (every value in them is simulated).
# The --quick forms are golden ctests.
committed_json() {
  cmp "build-ci/bench/$1" "$1"
  echo "$1: byte-identical to the committed file"
}

echo "==> Parse cache smoke (12-page corpus, hit rate must be > 0)"
# parse-cache exits nonzero when the scan-workload hit rate is zero or a
# warm cache's end-to-end results differ from a cold one's. The report
# records --jobs, so it is fixed here.
(cd build-ci/bench && ./parcel_figures parse-cache --jobs 1)
committed_json BENCH_parse_cache.json

echo "==> Faulted smoke (fixed seed: must complete and exercise fallback)"
# faults exits nonzero unless every run completes, the planned crash
# forces direct-to-origin fallback, and jobs=1 == jobs=4.
(cd build-ci/bench && ./parcel_figures faults --quick)

# fleet exits nonzero unless every leg holds: amplification, knee and
# shedding; bitwise identity across --jobs 1 and 4; the shard
# sweep's tiering physics; 100% completion and engaged handoffs after the
# crash; and, on the streaming leg, epoch-parallel identity plus the
# peak-RSS ceiling (sub-linear memory in K). The defaults are the run
# that produced BENCH_fleet.json: K levels 4/8/16 (amplification, knee,
# shedding), the K=100000 streaming leg, the N=1..8 shard sweep and the
# N=4 mid-run crash handoff.
echo "==> Fleet smoke (knee, K=100000 streaming, shard sweep, crash handoff)"
(cd build-ci/bench && ./parcel_figures fleet)
committed_json BENCH_fleet.json

echo "==> Adaptive bundling smoke (fade sweep: controller vs fixed grid)"
# adaptive exits nonzero unless the closed-loop controller beats every
# fixed bundle size on the canonical fade sweep, jobs=1 and jobs=4 runs
# are bitwise identical, and a controller whose target clamps are
# pinned to 512K leaves the trace byte-for-byte the fixed 512K scheme's.
(cd build-ci/bench && ./parcel_figures adaptive)
committed_json BENCH_adaptive.json

echo "==> ThreadSanitizer: parallel runner + parse cache + fleet + callback cache race-free"
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DPARCEL_SANITIZE=thread
cmake --build build-tsan -j "$JOBS" --target parcel_tests
./build-tsan/tests/parcel_tests \
  --gtest_filter='Callback.*:ParallelRunner.*:RunExperiments.*:RunGrid.*:ParseCacheTest.*:FaultedRuns.*:FleetRunner.*:FleetStreaming.*:SharedStore.*:ProxyCompute.*:ShardRouter.*:ProxyComputeCrash.*:ShardedFleet.*:ShardedStreaming.*:AdaptiveE2E.*:FleetArrivals.*'

echo "==> AddressSanitizer: full suite (zero-copy views must not dangle)"
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DPARCEL_SANITIZE=address
cmake --build build-asan -j "$JOBS" --target parcel_tests
./build-asan/tests/parcel_tests

echo "==> UndefinedBehaviorSanitizer: full suite (first UB report aborts)"
cmake -B build-ubsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DPARCEL_SANITIZE=undefined
cmake --build build-ubsan -j "$JOBS" --target parcel_tests
./build-ubsan/tests/parcel_tests

echo "==> CI green"
