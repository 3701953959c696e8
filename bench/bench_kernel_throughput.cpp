// Kernel-throughput gate (DESIGN.md §11): pins the three numbers the
// arena + SoA work is accountable for — scheduler events/sec,
// trace-records-replayed/sec, and bytes-allocated-per-load — into
// BENCH_kernel.json, and doubles as the comparator ci.sh uses to fail the
// build when any of them regresses more than 10% against the checked-in
// baseline:
//
//   bench_kernel_throughput [--quick]        # measure, write JSON
//   bench_kernel_throughput --compare CUR BASE   # gate, no measurement
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iterator>
#include <stdexcept>
#include <string>

#include "bench/common.hpp"
#include "core/arena.hpp"
#include "core/experiment.hpp"
#include "sim/scheduler.hpp"
#include "trace/packet_trace.hpp"
#include "trace/trace_analyzer.hpp"
#include "util/rng.hpp"
#include "web/generator.hpp"

namespace {

using namespace parcel;
namespace json = bench::json;
// parcel-lint: allow(nondet-time) wall-clock is the measurement here: this bench reports real kernel throughput, not simulated time
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---- Scheduler events/sec -------------------------------------------------

double scheduler_events_per_sec(int chain_events, int reps) {
  auto start = Clock::now();
  std::uint64_t total = 0;
  for (int rep = 0; rep < reps; ++rep) {
    // Per-run arena, exactly as ExperimentRunner::run installs one.
    core::Arena arena;
    core::ArenaScope scope(arena);
    sim::Scheduler sched;
    int remaining = chain_events;
    std::function<void()> tick = [&] {
      if (--remaining > 0) {
        sched.schedule_after(util::Duration::micros(10), tick);
      }
    };
    sched.schedule_after(util::Duration::zero(), tick);
    sched.run();
    total += sched.events_executed();
  }
  return static_cast<double>(total) / seconds_since(start);
}

// ---- Trace replay through the column analyzers ---------------------------

trace::PacketTrace synthetic_trace(std::size_t records) {
  trace::PacketTrace trace;
  util::Rng rng(20140407);
  double t = 0;
  for (std::size_t i = 0; i < records; ++i) {
    t += rng.exponential(0.01);
    trace.record(trace::PacketRecord{
        util::TimePoint::at_seconds(t),
        rng.uniform(0.0, 1.0) < 0.25 ? trace::Direction::kUplink
                                     : trace::Direction::kDownlink,
        rng.uniform(0.0, 1.0) < 0.9 ? trace::PacketKind::kData
                                    : trace::PacketKind::kAck,
        1448, static_cast<std::uint32_t>(1 + i % 6),
        static_cast<std::uint32_t>(1 + i % 40)});
  }
  return trace;
}

/// One replay pass over the trace through the real analyzers: the gap
/// census and byte accounting every figure pipeline runs post-load.
double replay_pass(const trace::PacketTrace& trace) {
  double acc = 0;
  acc += static_cast<double>(trace::TraceAnalyzer::count_gaps_longer_than(
      trace, util::Duration::millis(200)));
  acc += static_cast<double>(trace::TraceAnalyzer::downlink_bytes_before(
      trace, trace.last_time()));
  return acc;
}

double replay_records_per_sec(std::size_t records, int reps) {
  trace::PacketTrace trace = synthetic_trace(records);
  // Each pass walks the record set twice (gap census + byte accounting).
  const double replayed =
      2.0 * static_cast<double>(records) * static_cast<double>(reps);

  double acc = 0;
  auto start = Clock::now();
  for (int rep = 0; rep < reps; ++rep) acc += replay_pass(trace);
  double sec = seconds_since(start);

  // Also keeps the passes observable, so none is optimised away.
  if (acc <= 0) {
    std::fprintf(stderr, "FAIL: trace replay counted no downlink bytes\n");
    std::exit(1);
  }
  return replayed / sec;
}

// ---- Bytes-allocated-per-load ---------------------------------------------

struct LoadStats {
  std::size_t arena_bytes = 0;
  std::size_t arena_allocations = 0;
  /// Simulated radio joules per scheduler event over the measured loads —
  /// a deterministic energy-accounting drift alarm, not a wall-clock
  /// number (ISSUE 7 satellite).
  double sim_joules_per_event = 0;
};

/// Run DIR and PARCEL(IND) loads of one page and return their arena
/// stats; a load the arena served nothing is an accounting failure.
LoadStats measure_load_allocation(const web::WebPage& page) {
  core::RunConfig cfg = bench::replay_run_config(42);
  const core::RunResult runs[] = {
      core::ExperimentRunner::run(core::Scheme::kDir, page, cfg),
      core::ExperimentRunner::run(core::Scheme::kParcelInd, page, cfg)};
  LoadStats stats;
  double joules = 0;
  std::uint64_t events = 0;
  for (const core::RunResult& r : runs) {
    if (r.arena_bytes == 0) {
      std::fprintf(stderr,
                   "FAIL: arena accounting wrong (%s served 0 bytes)\n",
                   core::to_string(r.scheme).c_str());
      std::exit(1);
    }
    stats.arena_bytes += r.arena_bytes;
    stats.arena_allocations += r.arena_allocations;
    joules += r.radio.total.j();
    events += r.events_executed;
  }
  stats.arena_bytes /= std::size(runs);
  stats.arena_allocations /= std::size(runs);
  if (events == 0) {
    std::fprintf(stderr, "FAIL: runs executed zero scheduler events\n");
    std::exit(1);
  }
  stats.sim_joules_per_event = joules / static_cast<double>(events);
  return stats;
}

// ---- Baseline compare ----------------------------------------------------

/// The gated number `key` of `doc`; a missing or non-numeric value is a
/// usage error (exit 2), never a silent zero.
double gated_value(const json::Value& doc, const char* path, const char* key) {
  try {
    return doc.at(key).as_number();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "compare: %s: gated key %s: %s\n", path, key,
                 e.what());
    std::exit(2);
  }
}

/// Gate CURRENT against BASELINE: throughput keys may not drop below 90%
/// of baseline, allocation keys may not exceed 110%. Exit 1 on regression.
int compare_mode(const char* current_path, const char* baseline_path) {
  constexpr double kThroughputFloor = 0.90;
  constexpr double kBytesCeiling = 1.10;
  json::Value current, baseline;
  try {
    current = bench::read_json(current_path);
    baseline = bench::read_json(baseline_path);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "compare: %s\n", e.what());
    return 2;
  }

  struct Gate {
    const char* key;
    bool higher_is_better;
  };
  constexpr Gate kGates[] = {
      {"scheduler_events_per_sec", true},
      {"trace_replay_records_per_sec", true},
      {"bytes_allocated_per_load", false},
      {"sim_joules_per_event", false},
  };

  bool ok = true;
  for (const Gate& g : kGates) {
    double cur = gated_value(current, current_path, g.key);
    double base = gated_value(baseline, baseline_path, g.key);
    double ratio = base != 0 ? cur / base : 1.0;
    bool pass = g.higher_is_better ? ratio >= kThroughputFloor
                                   : ratio <= kBytesCeiling;
    std::printf("%-32s current %.4g  baseline %.4g  ratio %.3f  %s\n", g.key,
                cur, base, ratio, pass ? "ok" : "REGRESSION");
    if (!pass) ok = false;
  }
  if (!ok) {
    std::fprintf(stderr,
                 "kernel throughput gate FAILED: >10%% regression vs %s\n",
                 baseline_path);
    return 1;
  }
  std::printf("kernel throughput gate passed (tolerance 10%%)\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 4 && std::strcmp(argv[1], "--compare") == 0) {
    return compare_mode(argv[2], argv[3]);
  }
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] | %s --compare CURRENT BASELINE\n",
                   argv[0], argv[0]);
      return 2;
    }
  }
  bench::print_header("Kernel throughput",
                      "scheduler events/sec, trace replay, bytes per load");

  const int chain_events = quick ? 50'000 : 200'000;
  const int chain_reps = quick ? 2 : 5;
  const std::size_t replay_records = quick ? 200'000 : 2'000'000;
  const int replay_reps = quick ? 3 : 10;
  const int hw = core::default_jobs();
  std::printf("hardware threads: %d%s\n\n", hw,
              quick ? "  (--quick: reduced workload, JSON not "
                      "baseline-comparable)"
                    : "");

  web::PageSpec spec;
  spec.object_count = 60;
  spec.total_bytes = util::mib(1);
  spec.seed = 77;
  web::WebPage page = web::PageGenerator::generate(spec);

  LoadStats loads = measure_load_allocation(page);
  std::printf("bytes allocated per load (arena): %zu in %zu allocations\n",
              loads.arena_bytes, loads.arena_allocations);
  std::printf("simulated energy per event: %.3g J/event\n",
              loads.sim_joules_per_event);

  double events = scheduler_events_per_sec(chain_events, chain_reps);
  std::printf("scheduler kernel: %.2fM events/s (%d-event chains x%d)\n",
              events / 1e6, chain_events, chain_reps);

  double replay = replay_records_per_sec(replay_records, replay_reps);
  std::printf("trace replay (SoA columns): %.2fM records/s\n", replay / 1e6);

  const json::Value report{json::Value::Object{
      {"hardware_threads", hw},
      {"quick", quick},
      {"scheduler_events_per_sec", events},
      {"trace_replay_records_per_sec", replay},
      {"bytes_allocated_per_load", loads.arena_bytes},
      {"arena_allocations_per_load", loads.arena_allocations},
      {"sim_joules_per_event", loads.sim_joules_per_event},
  }};
  if (!bench::write_json("BENCH_kernel.json", report)) return 1;
  std::printf("\nwrote BENCH_kernel.json\n");
  return 0;
}
