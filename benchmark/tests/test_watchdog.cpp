#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "watchdog.hpp"
#include "workloads.hpp"

namespace parcel::perf {
namespace {

using std::chrono::milliseconds;

// Each test ends the watchdog's scope (joining its thread) before reading
// what the stall handler wrote.

TEST(Watchdog, FiresOnceOnAStalledOp) {
  std::atomic<int> calls{0};
  std::atomic<long long> idle_ms{0};
  bool fired = false;
  {
    Watchdog dog(milliseconds(100), [&](milliseconds idle) {
      idle_ms = idle.count();
      ++calls;
    });
    // The stalled op: no beat for several limits.
    std::this_thread::sleep_for(milliseconds(500));
    fired = dog.fired();
  }
  EXPECT_TRUE(fired);
  EXPECT_EQ(calls.load(), 1);
  EXPECT_GE(idle_ms.load(), 100);
}

TEST(Watchdog, QuietWhileOpsComplete) {
  std::atomic<int> calls{0};
  bool fired = true;
  {
    Watchdog dog(milliseconds(200), [&](milliseconds) { ++calls; });
    for (int i = 0; i < 30; ++i) {
      std::this_thread::sleep_for(milliseconds(20));
      dog.beat();
    }
    fired = dog.fired();
  }
  EXPECT_FALSE(fired);
  EXPECT_EQ(calls.load(), 0);
}

TEST(Watchdog, ReportsTheOpInFlight) {
  Progress progress;
  Progress::Snapshot seen;
  {
    Watchdog dog(milliseconds(100), [&](milliseconds) { seen = progress.snapshot(); });
    progress.attach(&dog);
    progress.start("live-faults", "loss=0.02");
    progress.begin_op(0, "http://a/", "DIR", 1);
    progress.end_op(1, false);
    progress.begin_op(1, "http://b/", "PARCEL-ADAPT", 260);
    std::this_thread::sleep_for(milliseconds(500));  // op 1 never returns
    progress.attach(nullptr);
  }
  EXPECT_EQ(seen.workload, "live-faults");
  EXPECT_EQ(seen.op, 1u);
  EXPECT_EQ(seen.page, "http://b/");
  EXPECT_EQ(seen.scheme, "PARCEL-ADAPT");
  EXPECT_EQ(seen.run_seed, 260u);
  EXPECT_EQ(seen.faults, "loss=0.02");
  EXPECT_EQ(seen.attempted, 1u);
}

}  // namespace
}  // namespace parcel::perf
