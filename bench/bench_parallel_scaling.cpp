// Parallel-harness scaling benchmark.
//
// Measures corpus wall-clock under the experiment fan-out at jobs ∈
// {1, 2, hardware}, asserting the parallel medians stay bitwise identical
// to the serial ones. Results go to stdout and to BENCH_parallel.json so
// the perf trajectory is machine-trackable. Scheduler throughput is
// measured and gated by bench_kernel_throughput.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "web/parse_cache.hpp"

namespace {

using namespace parcel;
namespace json = bench::json;
// parcel-lint: allow(nondet-time) wall-clock is the measurement here: this bench times real thread scaling, not simulated time
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOptions opts = bench::parse_options(argc, argv);
  bench::print_header("Parallel scaling",
                      "experiment fan-out wall-clock by jobs");

  // jobs ∈ {1, 2, N}: even on a single-core host the 2- and N-thread
  // levels run with real worker threads, so the determinism check always
  // covers genuine concurrency (speedup then simply reports ~1x).
  const int hw = core::default_jobs();
  std::vector<int> job_levels{1, 2, std::max(4, hw)};

  // A corpus slice big enough to keep `hw` workers busy but small enough
  // for a tracking bench. Built once, shared read-only by every worker.
  const int pages = opts.quick ? 6 : std::min(opts.pages, 12);
  const int rounds = std::min(opts.rounds, 2);
  bench::Corpus corpus = bench::build_corpus(pages);
  core::RunConfig cfg = bench::replay_run_config(42);

  std::printf("corpus: %d pages x %d rounds, schemes DIR+PARCEL(IND); "
              "hardware threads: %d\n\n", pages, rounds, hw);

  bench::PageMedians serial_dir, serial_ind;
  std::vector<double> wall_clock(job_levels.size());
  bool identical = true;
  for (std::size_t j = 0; j < job_levels.size(); ++j) {
    // Every job level starts from a cold parse cache; otherwise the first
    // level pays all the scan misses and later levels look faster for
    // reasons that have nothing to do with the worker count.
    web::ParseCache::instance().clear();
    auto start = Clock::now();
    bench::PageMedians dir = bench::run_corpus(core::Scheme::kDir, corpus,
                                               rounds, cfg, job_levels[j]);
    bench::PageMedians ind = bench::run_corpus(core::Scheme::kParcelInd,
                                               corpus, rounds, cfg,
                                               job_levels[j]);
    wall_clock[j] = seconds_since(start);
    if (j == 0) {
      serial_dir = dir;
      serial_ind = ind;
    } else if (!bench::same_medians(dir, serial_dir) ||
               !bench::same_medians(ind, serial_ind)) {
      identical = false;
    }
    bool oversubscribed = job_levels[j] > hw;
    std::printf("jobs=%-2d  corpus wall-clock %.2fs  speedup %.2fx%s\n",
                job_levels[j], wall_clock[j], wall_clock[0] / wall_clock[j],
                oversubscribed
                    ? "  (oversubscribed: more workers than hardware "
                      "threads; determinism check only)"
                    : "");
  }
  // Headline speedup considers only levels the hardware can actually run
  // in parallel; oversubscribed levels exist to exercise determinism
  // under contention, and their <1x ratios are scheduling noise, not a
  // regression.
  double headline_speedup = 1.0;
  for (std::size_t j = 0; j < job_levels.size(); ++j) {
    if (job_levels[j] <= hw) {
      headline_speedup =
          std::max(headline_speedup, wall_clock[0] / wall_clock[j]);
    }
  }
  std::printf("headline speedup (jobs <= hardware threads): %.2fx\n",
              headline_speedup);
  std::printf("parallel medians bitwise-identical to serial: %s\n",
              identical ? "yes" : "NO — DETERMINISM BROKEN");

  // Speedups split by whether the level fits the hardware: only
  // "speedup" rows are meaningful as a perf signal; "oversubscribed"
  // rows run more workers than hardware threads and are kept solely as
  // determinism coverage.
  json::Value wall{json::Value::Object{}}, speedup{json::Value::Object{}},
      oversubscribed{json::Value::Object{}};
  for (std::size_t j = 0; j < job_levels.size(); ++j) {
    const std::string key = "jobs_" + std::to_string(job_levels[j]);
    const double ratio = wall_clock[0] / wall_clock[j];
    wall.set(key, wall_clock[j]);
    if (job_levels[j] <= hw) {
      speedup.set(key, ratio);
    } else {
      oversubscribed.set(key, json::Value::Object{
                                  {"wall_clock_ratio", ratio},
                                  {"excluded_from_headline", true}});
    }
  }
  const json::Value report{json::Value::Object{
      {"hardware_threads", hw},
      {"corpus", json::Value::Object{
                     {"pages", pages},
                     {"rounds", rounds},
                     {"schemes", json::Value::Array{"DIR", "PARCEL(IND)"}}}},
      {"corpus_wall_clock_sec", wall},
      {"speedup", speedup},
      {"headline_speedup", headline_speedup},
      {"oversubscribed", oversubscribed},
      {"deterministic_across_jobs", identical},
  }};
  if (!bench::write_json("BENCH_parallel.json", report)) return 1;
  std::printf("\nwrote BENCH_parallel.json\n");

  return identical ? 0 : 1;
}
