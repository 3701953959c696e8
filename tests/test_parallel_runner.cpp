#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <stdexcept>
#include <vector>

#include "bench/common.hpp"
#include "core/parallel_runner.hpp"
#include "replay/replay_store.hpp"
#include "web/generator.hpp"
#include "web/parse_cache.hpp"

namespace parcel::core {
namespace {

const web::WebPage& test_page() {
  static web::WebPage* page = [] {
    web::PageSpec spec;
    spec.site = "par.example.com";
    spec.object_count = 30;
    spec.total_bytes = util::kib(400);
    spec.seed = 23;
    static replay::ReplayStore store;
    store.record(web::PageGenerator::generate(spec));
    return const_cast<web::WebPage*>(store.find("http://par.example.com/"));
  }();
  return *page;
}

std::vector<Scheme> all_schemes() {
  return {Scheme::kDir,        Scheme::kHttpProxy,  Scheme::kSpdyProxy,
          Scheme::kParcelInd,  Scheme::kParcelOnld, Scheme::kParcel512K,
          Scheme::kParcel1M,   Scheme::kParcel2M,   Scheme::kCloudBrowser,
          Scheme::kParcelAdaptive};
}

TEST(ParallelRunner, DefaultsToHardwareConcurrency) {
  EXPECT_GE(default_jobs(), 1);
  EXPECT_EQ(ParallelRunner(0).jobs(), default_jobs());
  EXPECT_EQ(ParallelRunner(-3).jobs(), default_jobs());
  EXPECT_EQ(ParallelRunner(4).jobs(), 4);
}

TEST(ParallelRunner, CoversEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  ParallelRunner runner(4);
  runner.for_each_index(kN, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelRunner, SingleJobRunsInlineInOrder) {
  std::vector<std::size_t> order;
  ParallelRunner runner(1);
  runner.for_each_index(5, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelRunner, PropagatesTaskExceptions) {
  ParallelRunner runner(4);
  EXPECT_THROW(runner.for_each_index(
                   100,
                   [&](std::size_t i) {
                     if (i == 37) throw std::runtime_error("task 37");
                   }),
               std::runtime_error);
}

TEST(ParallelRunner, ZeroTasksIsANoop) {
  ParallelRunner runner(4);
  runner.for_each_index(0, [](std::size_t) { FAIL(); });
}

TEST(RunExperiments, ParallelMatchesSerialForEveryScheme) {
  std::vector<ExperimentTask> tasks;
  std::uint64_t seed = 5;
  for (Scheme s : all_schemes()) {
    RunConfig cfg;
    cfg.seed = seed++;
    cfg.testbed.fade = lte::FadeProcess::Params{};
    cfg.testbed.fade_seed = cfg.seed * 7 + 1;
    tasks.push_back(ExperimentTask{s, &test_page(), cfg});
  }
  std::vector<RunResult> serial = run_experiments(tasks, 1);
  std::vector<RunResult> parallel = run_experiments(tasks, 4);
  // The determinism contract: a RunResult is identical, field for field,
  // whether the run executed inline or on a worker thread.
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(to_string(tasks[i].scheme));
    EXPECT_TRUE(serial[i] == parallel[i]);
  }
}

TEST(RunExperiments, ColdParseCacheBitwiseIdenticalToWarm) {
  std::vector<ExperimentTask> tasks;
  std::uint64_t seed = 11;
  for (Scheme s : all_schemes()) {
    RunConfig cfg;
    cfg.seed = seed++;
    tasks.push_back(ExperimentTask{s, &test_page(), cfg});
  }

  // Cold: every first lookup of a content misses and scans it.
  web::ParseCache::instance().clear();
  web::ParseCache::instance().reset_stats();
  std::vector<RunResult> cold = run_experiments(tasks, 2);
  EXPECT_GT(web::ParseCache::instance().stats().misses(), 0u);

  web::ParseCache::instance().reset_stats();
  std::vector<RunResult> warm1 = run_experiments(tasks, 1);
  std::vector<RunResult> warm4 = run_experiments(tasks, 4);

  // Scanners are pure functions of content bytes, so memoization must be
  // invisible in the results — for every scheme, for any jobs count.
  ASSERT_EQ(cold.size(), warm1.size());
  ASSERT_EQ(cold.size(), warm4.size());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    SCOPED_TRACE(to_string(tasks[i].scheme));
    EXPECT_TRUE(cold[i] == warm1[i]);
    EXPECT_TRUE(cold[i] == warm4[i]);
  }
  // And the warm cache did serve the repeated scans.
  EXPECT_GT(web::ParseCache::instance().stats().hits(), 0u);
  web::ParseCache::instance().clear();
}

TEST(RunGrid, Jobs4BitwiseIdenticalToJobs1) {
  RunConfig base;
  base.testbed.fade = lte::FadeProcess::Params{};
  const std::vector<Scheme> schemes = all_schemes();

  const std::vector<PageMedians> serial =
      run_grid({&test_page()}, schemes, 3, base, {}, 1);
  const std::vector<PageMedians> parallel =
      run_grid({&test_page()}, schemes, 3, base, {}, 4);

  // The figures are built from these medians; they must not move.
  ASSERT_EQ(serial.size(), schemes.size());
  EXPECT_TRUE(serial == parallel);
}

TEST(RunGrid, OversubscribedJobsStillIdentical) {
  // More workers than tasks must not change anything either.
  const std::vector<Scheme> schemes{Scheme::kDir, Scheme::kParcelInd};
  const RunConfig base;
  const std::vector<PageMedians> serial =
      run_grid({&test_page()}, schemes, 2, base, {}, 1);
  const std::vector<PageMedians> parallel =
      run_grid({&test_page()}, schemes, 2, base, {}, 16);
  EXPECT_TRUE(serial == parallel);
}

TEST(RunGrid, CorpusFromColdCacheIdenticalAtEveryJobsLevel) {
  // The figures' DIR + PARCEL(IND) corpus grid at jobs 1, 2 and
  // max(4, hardware threads). Each level starts from a cold parse cache,
  // so concurrent misses are covered as well as hits, and even a
  // single-core host runs the 2- and N-thread levels on real workers.
  const bench::Corpus corpus = bench::build_corpus(6);
  const RunConfig base = bench::replay_run_config({}, 42);
  const std::vector<Scheme> schemes{Scheme::kDir, Scheme::kParcelInd};
  auto run_at = [&](int jobs) {
    web::ParseCache::instance().clear();
    return run_grid(corpus.replayed, schemes, 2, base, {}, jobs);
  };
  const std::vector<PageMedians> serial = run_at(1);
  ASSERT_EQ(serial.size(), schemes.size());
  ASSERT_EQ(serial[0].olt_sec.size(), corpus.replayed.size());
  EXPECT_TRUE(run_at(2) == serial);
  EXPECT_TRUE(run_at(std::max(4, default_jobs())) == serial);
  web::ParseCache::instance().clear();
}

}  // namespace
}  // namespace parcel::core
