// Kernel-throughput gate (DESIGN.md §11): pins the three numbers the
// arena + SoA work is accountable for — scheduler events/sec,
// trace-records-replayed/sec, and bytes-allocated-per-load — into
// BENCH_kernel.json, and doubles as the comparator ci.sh uses to fail the
// build when any of them regresses more than 10% against the checked-in
// baseline:
//
//   bench_kernel_throughput [--quick]        # measure, write JSON
//   bench_kernel_throughput --compare CUR BASE   # gate, no measurement
//
// The replay measurement races the real SoA analyzers against an
// array-of-structs replica of the pre-SoA trace (same loops, same
// arithmetic, 32-byte record stride instead of per-field columns), so the
// reported speedup is against the actual former layout, not a strawman.
// Before any timing, the bench proves the headline invariant: a full
// experiment run with the arena on is bitwise identical to the same run
// with PARCEL_ARENA off.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

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

// ---- Trace replay: SoA analyzers vs the pre-SoA AoS layout ---------------

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

/// One replay pass over the SoA trace through the real analyzers: the gap
/// census and byte accounting every figure pipeline runs post-load.
double soa_replay_pass(const trace::PacketTrace& trace) {
  double acc = 0;
  acc += static_cast<double>(trace::TraceAnalyzer::count_gaps_longer_than(
      trace, util::Duration::millis(200)));
  acc += static_cast<double>(trace::TraceAnalyzer::downlink_bytes_before(
      trace, trace.last_time()));
  return acc;
}

/// The same pass over the former array-of-structs layout: identical loop
/// structure and arithmetic, full 32-byte PacketRecord stride per read.
double aos_replay_pass(const std::vector<trace::PacketRecord>& records) {
  double acc = 0;
  std::size_t gaps = 0;
  bool have_prev = false;
  util::TimePoint prev = util::TimePoint::origin();
  for (const auto& r : records) {
    if (r.kind != trace::PacketKind::kData) continue;
    if (have_prev && (r.t - prev) > util::Duration::millis(200)) ++gaps;
    prev = r.t;
    have_prev = true;
  }
  acc += static_cast<double>(gaps);
  util::TimePoint cutoff = records.back().t;
  util::Bytes total = 0;
  for (const auto& r : records) {
    if (r.t > cutoff) break;
    if (r.dir == trace::Direction::kDownlink &&
        r.kind == trace::PacketKind::kData) {
      total += r.bytes;
    }
  }
  acc += static_cast<double>(total);
  return acc;
}

struct ReplayResult {
  double soa_records_per_sec = 0;
  double aos_records_per_sec = 0;
};

ReplayResult replay_throughput(std::size_t records, int reps) {
  trace::PacketTrace trace = synthetic_trace(records);
  std::vector<trace::PacketRecord> aos(trace.records().begin(),
                                       trace.records().end());
  // Each pass walks the record set twice (gap census + byte accounting).
  const double replayed =
      2.0 * static_cast<double>(records) * static_cast<double>(reps);

  double soa_acc = 0;
  auto soa_start = Clock::now();
  for (int rep = 0; rep < reps; ++rep) soa_acc += soa_replay_pass(trace);
  double soa_sec = seconds_since(soa_start);

  double aos_acc = 0;
  auto aos_start = Clock::now();
  for (int rep = 0; rep < reps; ++rep) aos_acc += aos_replay_pass(aos);
  double aos_sec = seconds_since(aos_start);

  if (soa_acc != aos_acc) {
    std::fprintf(stderr,
                 "FAIL: SoA and AoS replay disagree (%.17g vs %.17g) — the "
                 "column scans changed semantics\n",
                 soa_acc, aos_acc);
    std::exit(1);
  }
  return ReplayResult{replayed / soa_sec, replayed / aos_sec};
}

// ---- Bytes-allocated-per-load + arena on/off byte-identity ---------------

struct LoadStats {
  std::size_t arena_bytes = 0;
  std::size_t arena_allocations = 0;
  /// Simulated radio joules per scheduler event over the measured loads —
  /// a deterministic energy-accounting drift alarm, not a wall-clock
  /// number (ISSUE 7 satellite).
  double sim_joules_per_event = 0;
};

/// Run DIR and PARCEL(IND) loads of one page twice — arena on, arena off —
/// assert bitwise-identical outcomes, and return the arena-on stats.
LoadStats measure_load_allocation(const web::WebPage& page) {
  core::RunConfig cfg = bench::replay_run_config(42);
  const bool prev = core::arena_enabled();
  auto run_pair = [&] {
    std::vector<core::RunResult> out;
    out.push_back(core::ExperimentRunner::run(core::Scheme::kDir, page, cfg));
    out.push_back(
        core::ExperimentRunner::run(core::Scheme::kParcelInd, page, cfg));
    return out;
  };
  core::set_arena_enabled(true);
  std::vector<core::RunResult> on = run_pair();
  core::set_arena_enabled(false);
  std::vector<core::RunResult> off = run_pair();
  core::set_arena_enabled(prev);

  for (std::size_t i = 0; i < on.size(); ++i) {
    bool same = on[i].olt.sec() == off[i].olt.sec() &&
                on[i].tlt.sec() == off[i].tlt.sec() &&
                on[i].radio.total.j() == off[i].radio.total.j() &&
                on[i].trace.serialize() == off[i].trace.serialize();
    if (!same) {
      std::fprintf(stderr,
                   "FAIL: arena on/off results differ for scheme %s — the "
                   "arena changed simulation behaviour\n",
                   core::to_string(on[i].scheme).c_str());
      std::exit(1);
    }
    if (on[i].arena_bytes == 0 || off[i].arena_bytes != 0) {
      std::fprintf(stderr,
                   "FAIL: arena accounting wrong (on=%zu bytes, off=%zu)\n",
                   on[i].arena_bytes, off[i].arena_bytes);
      std::exit(1);
    }
  }
  LoadStats stats;
  double joules = 0;
  std::uint64_t events = 0;
  for (const core::RunResult& r : on) {
    stats.arena_bytes += r.arena_bytes;
    stats.arena_allocations += r.arena_allocations;
    joules += r.radio.total.j();
    events += r.events_executed;
  }
  stats.arena_bytes /= on.size();
  stats.arena_allocations /= on.size();
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

  std::printf("arena on/off byte-identity: ");
  LoadStats loads = measure_load_allocation(page);
  std::printf("identical\n");
  std::printf("bytes allocated per load (arena): %zu in %zu allocations\n",
              loads.arena_bytes, loads.arena_allocations);
  std::printf("simulated energy per event: %.3g J/event\n",
              loads.sim_joules_per_event);

  double events = scheduler_events_per_sec(chain_events, chain_reps);
  std::printf("scheduler kernel: %.2fM events/s (%d-event chains x%d)\n",
              events / 1e6, chain_events, chain_reps);

  ReplayResult replay = replay_throughput(replay_records, replay_reps);
  std::printf("trace replay (SoA columns):   %.2fM records/s\n",
              replay.soa_records_per_sec / 1e6);
  std::printf("trace replay (AoS baseline):  %.2fM records/s  (SoA %.2fx)\n",
              replay.aos_records_per_sec / 1e6,
              replay.soa_records_per_sec / replay.aos_records_per_sec);

  const json::Value report{json::Value::Object{
      {"hardware_threads", hw},
      {"quick", quick},
      {"scheduler_events_per_sec", events},
      {"trace_replay_records_per_sec", replay.soa_records_per_sec},
      {"trace_replay_aos_records_per_sec", replay.aos_records_per_sec},
      {"trace_replay_speedup_vs_aos",
       replay.soa_records_per_sec / replay.aos_records_per_sec},
      {"bytes_allocated_per_load", loads.arena_bytes},
      {"arena_allocations_per_load", loads.arena_allocations},
      {"sim_joules_per_event", loads.sim_joules_per_event},
      {"arena_identical_results", true},
  }};
  if (!bench::write_json("BENCH_kernel.json", report)) return 1;
  std::printf("\nwrote BENCH_kernel.json\n");
  return 0;
}
