#!/usr/bin/env bash
# Minimal CI: Release build (warnings are errors tree-wide) + full test
# suite (which checks every paper figure in --quick mode and the faults,
# adaptive and parse-cache harnesses against their golden stdout, and
# runs the allocation guards), the figure driver's full-size --jobs 1 vs
# --jobs 4 byte identity, its full-size golden and its unknown-id
# rejection, parcel_bench's own unit tests (benchmark/tests, which cover
# the JSON library every BENCH_*.json goes through), the parcel-lint
# determinism gate, the kernel-throughput gate (current numbers vs the
# checked-in BENCH_kernel.json baseline, >10% regression fails; doctored
# baselines and a garbled value must be rejected), then the harness smokes
# (parcel_figures parse-cache, faults, fleet and adaptive), whose exit
# codes are the gates. Then a ThreadSanitizer build that runs the
# parallel-runner, parse-cache and callback tests to prove the fan-out
# and the per-thread callback block cache race-free, an AddressSanitizer build that runs the full suite once to
# prove the zero-copy string_view plumbing never dangles (the arena
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

echo "==> Kernel throughput gate (events/sec, replay, bytes-per-load)"
# Full mode: the checked-in BENCH_kernel.json baseline was recorded in
# full mode, and quick mode's smaller working set measures a different
# cache regime. The compare leg fails on >10% throughput regression or
# >10% allocation growth; see EXPERIMENTS.md for the regen recipe.
(cd build-ci/bench && ./bench_kernel_throughput)
./build-ci/bench/bench_kernel_throughput --compare \
  build-ci/bench/BENCH_kernel.json BENCH_kernel.json
echo "==> Kernel throughput gate: seeded bad inputs must fail"
KERNEL=./build-ci/bench/bench_kernel_throughput
must_fail_kernel_gate() {
  local what="$1" want="$2"; shift 2
  local rc=0
  "$KERNEL" --compare "$@" > /dev/null || rc=$?
  if [ "$rc" -ne "$want" ]; then
    echo "kernel gate exit code on $what: $rc (want $want)"
    exit 1
  fi
  echo "kernel gate correctly rejects $what (exit $want)"
}
# A 100x-faster baseline makes the current events/sec a regression.
sed -E 's/("scheduler_events_per_sec": )([0-9.e+]+)/\1\2e2/' \
  BENCH_kernel.json > build-ci/bench/BENCH_kernel_doctored.json
must_fail_kernel_gate "a doctored 100x-faster baseline" 1 \
  build-ci/bench/BENCH_kernel.json build-ci/bench/BENCH_kernel_doctored.json
# Shrinking the baseline makes the current simulated energy-per-event look
# like a >10% regression.
sed -E 's/("sim_joules_per_event": )([0-9.e+-]+)/\11e-9/' \
  BENCH_kernel.json > build-ci/bench/BENCH_kernel_energy_doctored.json
must_fail_kernel_gate "a doctored joules-per-event baseline" 1 \
  build-ci/bench/BENCH_kernel.json \
  build-ci/bench/BENCH_kernel_energy_doctored.json
# A non-numeric gated value is a usage error, never a silent zero.
sed -E 's/("bytes_allocated_per_load": )[0-9.e+]+/\1"x"/' \
  build-ci/bench/BENCH_kernel.json > build-ci/bench/BENCH_kernel_garbled.json
must_fail_kernel_gate "a garbled gated value" 2 \
  build-ci/bench/BENCH_kernel_garbled.json BENCH_kernel.json

echo "==> Parse cache smoke (2-page corpus, hit rate must be > 0)"
# parse-cache exits nonzero when the scan-workload hit rate is zero or a
# warm cache's end-to-end results differ from a cold one's.
(cd build-ci/bench && ./parcel_figures parse-cache --pages 2 --rounds 1)

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

echo "==> Adaptive bundling smoke (fade sweep: controller vs fixed grid)"
# adaptive exits nonzero unless the closed-loop controller beats every
# fixed bundle size on the canonical fade sweep, jobs=1 and jobs=4 runs
# are bitwise identical, and a controller whose target clamps are
# pinned to 512K leaves the trace byte-for-byte the fixed 512K scheme's.
(cd build-ci/bench && ./parcel_figures adaptive --quick)

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
