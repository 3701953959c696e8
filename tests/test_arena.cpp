// Per-run arena allocator (DESIGN.md §11): bump mechanics, the
// thread-local scope plumbing, results that outlive their run's arena,
// and the ASan poisoning that reports views dangling into released
// arena memory.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory_resource>
#include <string>
#include <string_view>
#include <thread>

#include "core/arena.hpp"
#include "core/experiment.hpp"
#include "sim/scheduler.hpp"
#include "web/generator.hpp"

namespace parcel::core {
namespace {

TEST(Arena, BumpAllocatesAndCountsBytes) {
  Arena arena;
  void* a = arena.allocate(100, 8);
  void* b = arena.allocate(100, 8);
  EXPECT_NE(a, nullptr);
  EXPECT_NE(b, nullptr);
  EXPECT_NE(a, b);
  EXPECT_EQ(arena.bytes_allocated(), 200u);
  EXPECT_EQ(arena.allocation_count(), 2u);
  EXPECT_GE(arena.bytes_reserved(), 200u);
}

TEST(Arena, RespectsAlignment) {
  Arena arena;
  arena.allocate(1, 1);
  for (std::size_t align : {8u, 16u, 64u}) {
    void* p = arena.allocate(3, align);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u)
        << "align " << align;
  }
}

TEST(Arena, GrowsChunksAndHandlesOversizedRequests) {
  Arena arena(1024);
  // Exhaust the first chunk and force growth.
  for (int i = 0; i < 64; ++i) arena.allocate(64, 8);
  EXPECT_GE(arena.chunk_count(), 2u);
  // A request bigger than any chunk gets a dedicated one.
  void* big = arena.allocate(1 << 20, 8);
  EXPECT_NE(big, nullptr);
  EXPECT_GE(arena.bytes_reserved(), static_cast<std::size_t>(1 << 20));
}

TEST(Arena, ResetRetainsCapacityAndRewinds) {
  Arena arena(1024);
  for (int i = 0; i < 64; ++i) arena.allocate(64, 8);
  std::size_t reserved = arena.bytes_reserved();
  arena.reset();
  EXPECT_EQ(arena.bytes_allocated(), 0u);
  EXPECT_EQ(arena.allocation_count(), 0u);
  EXPECT_EQ(arena.reset_count(), 1u);
  EXPECT_EQ(arena.bytes_reserved(), reserved);  // capacity kept
  // Recycled capacity serves the next round without growing.
  std::size_t chunks = arena.chunk_count();
  for (int i = 0; i < 64; ++i) arena.allocate(64, 8);
  EXPECT_EQ(arena.chunk_count(), chunks);
}

TEST(Arena, ZeroByteAllocationYieldsDistinctPointers) {
  Arena arena;
  void* a = arena.allocate(0, 1);
  void* b = arena.allocate(0, 1);
  EXPECT_NE(a, b);
}

TEST(ArenaScope, InstallsAndRestoresThreadLocalResource) {
  std::pmr::memory_resource* before = run_resource();
  {
    Arena arena;
    ArenaScope scope(arena);
    EXPECT_NE(run_resource(), before);
    // Nested scopes shadow and restore in LIFO order.
    {
      Arena inner;
      ArenaScope inner_scope(inner);
      std::pmr::vector<int> v(run_resource());
      v.push_back(7);
      EXPECT_GT(inner.bytes_allocated(), 0u);
      EXPECT_EQ(arena.bytes_allocated(), 0u);
    }
    std::pmr::vector<int> v(run_resource());
    v.push_back(7);
    EXPECT_GT(arena.bytes_allocated(), 0u);
  }
  EXPECT_EQ(run_resource(), before);
}

TEST(ArenaScope, IsThreadLocal) {
  Arena arena;
  ArenaScope scope(arena);
  std::pmr::memory_resource* other_thread = nullptr;
  std::thread t([&] { other_thread = run_resource(); });
  t.join();
  EXPECT_EQ(other_thread, std::pmr::get_default_resource());
  EXPECT_NE(run_resource(), std::pmr::get_default_resource());
}

TEST(ArenaScope, SchedulerDrawsFromActiveArena) {
  Arena arena;
  ArenaScope scope(arena);
  sim::Scheduler sched;
  int fired = 0;
  for (int i = 0; i < 1000; ++i) {
    sched.schedule_after(util::Duration::micros(i), [&] { ++fired; });
  }
  sched.run();
  EXPECT_EQ(fired, 1000);
  EXPECT_GT(arena.bytes_allocated(), 0u);
}

// A result never retains arena memory: the trace a run returns is still
// usable, and equal to a second run's, long after both runs' arenas died.
TEST(ArenaIdentity, ResultOutlivesItsRunsArena) {
  web::PageSpec spec;
  spec.object_count = 25;
  spec.total_bytes = util::kib(600);
  spec.seed = 11;
  web::WebPage page = web::PageGenerator::generate(spec);
  RunConfig cfg;
  cfg.seed = 5;

  RunResult first = ExperimentRunner::run(Scheme::kParcelInd, page, cfg);
  // The second run may reuse the heap the first run's arena released.
  RunResult second = ExperimentRunner::run(Scheme::kParcelInd, page, cfg);

  ASSERT_GT(first.trace.size(), 0u);
  EXPECT_TRUE(first == second);  // reads every trace column of both
  EXPECT_GT(first.arena_bytes, 0u);
  EXPECT_GT(first.arena_allocations, 0u);
}

// ASan builds poison arena memory by hand (core/arena.hpp), so a view
// into a pmr buffer its container released, or an overflow into the gap
// after an allocation, is reported as the heap would report it.
TEST(ArenaAsan, ReleasedBufferAndGapGranuleArePoisoned) {
#ifndef PARCEL_ASAN
  GTEST_SKIP() << "arena poisoning is compiled only into ASan builds";
#else
  Arena arena;
  ArenaScope scope(arena);
  std::pmr::string s("a string too long for the small-buffer optimisation",
                     run_resource());
  const std::string_view old_view = s;
  s.append(s.capacity(), 'x');  // reallocates and releases the old buffer
  EXPECT_DEATH(
      {
        volatile char c = old_view[0];
        static_cast<void>(c);
      },
      "use-after-poison");

  auto* a = static_cast<char*>(arena.allocate(8, 8));
  auto* b = static_cast<char*>(arena.allocate(8, 8));
  EXPECT_FALSE(__asan_address_is_poisoned(a + 7));
  EXPECT_TRUE(__asan_address_is_poisoned(a + 8));  // the gap granule
  EXPECT_GE(b - a, 16);
  arena.reset();
  EXPECT_TRUE(__asan_address_is_poisoned(a));
#endif
}

}  // namespace
}  // namespace parcel::core
