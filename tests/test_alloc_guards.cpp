// Allocation guards, in their own executable because they replace the
// global operator new with a counting hook. The scheduler kernel must not
// allocate per event, and a full page load must divert a healthy share of
// its container allocations into the per-run arena (DESIGN.md §11) while
// keeping its global heap traffic within a per-event and per-load budget,
// fair-weather and faulted, and its arena bytes and simulated joules per event under fixed ceilings.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory_resource>
#include <new>
#include <string>

#include "bench/common.hpp"
#include "core/experiment.hpp"
#include "net/url.hpp"
#include "sim/fault_plan.hpp"
#include "sim/scheduler.hpp"
#include "web/generator.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};
}  // namespace

// noinline on every replaced operator: once GCC inlines a body it sees the
// raw std::malloc/std::free inside, pairs it against the *other* side of a
// new/delete pair at some call site, and emits a bogus
// -Wmismatched-new-delete.  Opaque calls keep the pairing at the operator
// level, where it is correct by construction (all six route to malloc/free).
__attribute__((noinline)) void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p,
                                               std::size_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p,
                                                 std::size_t) noexcept {
  std::free(p);
}

namespace {

using namespace parcel;

const web::WebPage& guard_page() {
  static web::WebPage page = [] {
    web::PageSpec spec;
    spec.object_count = 120;
    spec.total_bytes = util::mib(1.5);
    spec.seed = 77;
    return web::PageGenerator::generate(spec);
  }();
  return page;
}

// Counting pmr resource: libstdc++'s new_delete_resource allocates
// through a path the replaced operator new above cannot interpose (its
// calls bind inside the library), so pmr traffic is invisible to the
// malloc hook. Installing this as the process default resource makes
// every container that falls back to the default resource — pmr traffic
// that escapes the per-run arena — observable.
class CountingResource final : public std::pmr::memory_resource {
 public:
  [[nodiscard]] std::uint64_t allocations() const { return allocations_; }
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }

 private:
  void* do_allocate(std::size_t bytes, std::size_t align) override {
    ++allocations_;
    bytes_ += bytes;
    return std::pmr::new_delete_resource()->allocate(bytes, align);
  }
  void do_deallocate(void* p, std::size_t bytes,
                     std::size_t align) noexcept override {
    std::pmr::new_delete_resource()->deallocate(p, bytes, align);
  }
  [[nodiscard]] bool do_is_equal(
      const std::pmr::memory_resource& other) const noexcept override {
    return this == &other;
  }

  std::uint64_t allocations_ = 0;
  std::uint64_t bytes_ = 0;
};

// The kernel fast path: a million fire-and-forget events must not
// allocate per event (handles are (seq, slot) pairs; keys live in the heap
// vector and closures in the slot pool, whose regrowth goes through pmr
// and is not visible to this hook). The budget covers small constant
// noise only — any per-event std::function or shared_ptr allocation blows
// it by four orders.
TEST(AllocationGuard, SchedulerDoesNotAllocatePerEvent) {
  constexpr std::size_t kEvents = 1'000'000;
  constexpr std::uint64_t kAllocBudget = 64;
  sim::Scheduler sched;
  const std::uint64_t before = g_allocations.load();
  for (std::size_t i = 0; i < kEvents; ++i) {
    sched.schedule_after(util::Duration::micros(1), [] {});
  }
  ASSERT_EQ(sched.pending_events(), kEvents);
  sched.run();
  const std::uint64_t allocs = g_allocations.load() - before;
  ASSERT_EQ(sched.events_executed(), kEvents);
  std::printf("scheduler: %llu allocations for %zu schedule+fire events\n",
              static_cast<unsigned long long>(allocs), kEvents);
  EXPECT_LE(allocs, kAllocBudget) << "the kernel allocates per event again";
}

// Cancellation: a cancel frees the event's slot and closure at once and
// leaves a stale key that compaction drops in place (erase and rebuild
// within the heap's own storage). A million schedule+cancel pairs, once
// warm, must not allocate per pair, nor per compaction.
TEST(AllocationGuard, SchedulerCancelDoesNotAllocate) {
  constexpr std::size_t kPairs = 1'000'000;
  constexpr std::uint64_t kAllocBudget = 64;
  sim::Scheduler sched;
  auto churn = [&sched](std::size_t pairs) {
    for (std::size_t i = 0; i < pairs; ++i) {
      sched.schedule_after(util::Duration::seconds(1), [] {}).cancel();
    }
  };
  churn(1'000);  // warm: the heap reaches its compaction high-water mark
  const std::uint64_t before = g_allocations.load();
  churn(kPairs);
  const std::uint64_t allocs = g_allocations.load() - before;
  EXPECT_LE(sched.pending_events(), 128u);
  sched.run();
  EXPECT_EQ(sched.events_executed(), 0u);
  std::printf("scheduler: %llu allocations for %zu schedule+cancel pairs\n",
              static_cast<unsigned long long>(allocs), kPairs);
  EXPECT_LE(allocs, kAllocBudget) << "cancel or compaction allocates again";
}

// A Url is one pointer to a shared immutable record: copying, assigning
// and destroying one moves a count and nothing else. A million cycles on
// a URL whose host and path outgrow the small-string buffer must make no
// global allocation; with four strings per Url they made two per copy.
TEST(AllocationGuard, UrlCopyDoesNotAllocate) {
  constexpr std::size_t kCycles = 1'000'000;
  const net::Url a =
      net::Url::parse("http://static.cdn.example.com/assets/js/app.bundle.js");
  const net::Url b =
      net::Url::parse("https://images.example.org/gallery/photo-0001.jpg?s=2");
  net::Url held = b;
  std::size_t same = 0;
  const std::uint64_t before = g_allocations.load();
  for (std::size_t i = 0; i < kCycles; ++i) {
    net::Url copy = (i & 1) != 0 ? a : b;
    held = copy;
    same += held == copy ? 1 : 0;
  }
  const std::uint64_t allocs = g_allocations.load() - before;
  std::printf("url: %llu allocations for %zu copy/assign/destroy cycles\n",
              static_cast<unsigned long long>(allocs), kCycles);
  EXPECT_EQ(same, kCycles);
  EXPECT_EQ(allocs, 0u) << "copying a Url allocates again";
}

// Per-load heap traffic, in two parts. Arena routing: a page load must
// divert a material number of container allocations into the bump
// allocator — the scheduler heap, trace columns and browser bookkeeping
// all bump instead of hitting the heap; if the count collapses, some hot
// container silently stopped drawing from run_resource(). Global budget:
// through the operator-new hook, a DIR and a PARCEL(IND) load must each
// stay within kMaxAllocsPerEvent global allocations per executed event,
// and the PARCEL(IND) load within kMaxParcelBytes. The budgets sit at most
// 1.25x above the measured loads (0.81 and 1.13 allocations per event,
// 617,834 bytes; 1.16 and 1.77, 704,156 bytes while every Url copy copied
// four strings; 1.41 and 2.07 while every response built its content type
// as a std::string and the engine's fetch callback was a copied
// std::function): a Url back to copying its strings, a kernel continuation
// back on std::function, a per-burst closure that skips the callback block
// cache, or a queue that allocates per element blows them, and so do
// deep-copied burst callbacks or a bundle built as a string and re-parsed
// on delivery.
TEST(AllocationGuard, PageLoadUsesArenaWithinGlobalBudget) {
  constexpr std::size_t kMinSavedAllocs = 100;
  constexpr double kMaxAllocsPerEvent = 1.40;
  constexpr std::uint64_t kMaxParcelBytes = 770'000;
  const core::RunConfig cfg = bench::replay_run_config({}, 42);
  const web::WebPage& page = guard_page();

  // Warm the parse cache and lazy singletons so each pass measures the
  // load itself, not one-time setup.
  core::ExperimentRunner::run(core::Scheme::kDir, page, cfg);
  CountingResource counting;
  std::pmr::memory_resource* saved = std::pmr::set_default_resource(&counting);
  const core::RunResult routed =
      core::ExperimentRunner::run(core::Scheme::kDir, page, cfg);
  std::pmr::set_default_resource(saved);
  std::printf("arena: %llu default-resource allocations (%llu bytes) per "
              "load; arena served %zu allocations (%zu bytes)\n",
              static_cast<unsigned long long>(counting.allocations()),
              static_cast<unsigned long long>(counting.bytes()),
              routed.arena_allocations, routed.arena_bytes);
  EXPECT_GE(routed.arena_allocations, kMinSavedAllocs)
      << "the arena serves too little";

  for (core::Scheme scheme : {core::Scheme::kDir, core::Scheme::kParcelInd}) {
    core::ExperimentRunner::run(scheme, page, cfg);  // warm, as above
    const std::uint64_t allocs_before = g_allocations.load();
    const std::uint64_t bytes_before = g_alloc_bytes.load();
    const core::RunResult r = core::ExperimentRunner::run(scheme, page, cfg);
    const std::uint64_t allocs = g_allocations.load() - allocs_before;
    const std::uint64_t bytes = g_alloc_bytes.load() - bytes_before;
    const double per_event =
        static_cast<double>(allocs) /
        static_cast<double>(std::max<std::uint64_t>(r.events_executed, 1));
    const std::string name = core::to_string(scheme);
    std::printf("%s: %llu global allocations for %llu events (%.2f per "
                "event), %llu bytes\n",
                name.c_str(), static_cast<unsigned long long>(allocs),
                static_cast<unsigned long long>(r.events_executed), per_event,
                static_cast<unsigned long long>(bytes));
    EXPECT_LE(per_event, kMaxAllocsPerEvent) << name;
    if (scheme == core::Scheme::kParcelInd) {
      EXPECT_LE(bytes, kMaxParcelBytes) << name;
    }
  }
}

// The same global budget on the faulted request path: the live
// configuration (heterogeneous origin delays, AR(1) fade) under 2% burst
// loss and 2% origin errors, which arms a retransmission guard per TCP
// burst and a timeout and retry state per object fetch. Seed 43 is one at
// which both loads complete (at seed 42 the DIR load does not). The
// budgets sit 1.25x above the measured loads (0.79 and 1.10 allocations
// per event; 1.21 and 1.80 while every Url copy copied four strings; 1.33
// and 2.24 before that; 2.24 and 3.06 when the guard and the retry state
// were shared_ptrs and every attempt copied the URL into three closures):
// a per-burst or per-attempt heap object, or a Url whose copy allocates,
// blows them.
TEST(AllocationGuard, FaultedLoadWithinGlobalBudget) {
  constexpr std::uint64_t kSeed = 43;
  constexpr double kMaxDirAllocsPerEvent = 0.98;
  constexpr double kMaxParcelAllocsPerEvent = 1.37;
  core::RunConfig cfg = bench::replay_run_config({}, kSeed);
  cfg.testbed.heterogeneous_server_delays = true;
  cfg.testbed.fade = lte::FadeProcess::Params{};
  cfg.testbed.faults = sim::FaultPlan::parse("loss=0.02,serror=0.02");
  cfg.testbed.faults.seed = kSeed;
  const web::WebPage& page = guard_page();

  for (core::Scheme scheme : {core::Scheme::kDir, core::Scheme::kParcelInd}) {
    core::ExperimentRunner::run(scheme, page, cfg);  // warm
    const std::uint64_t allocs_before = g_allocations.load();
    const core::RunResult r = core::ExperimentRunner::run(scheme, page, cfg);
    const std::uint64_t allocs = g_allocations.load() - allocs_before;
    const double per_event =
        static_cast<double>(allocs) /
        static_cast<double>(std::max<std::uint64_t>(r.events_executed, 1));
    const std::string name = core::to_string(scheme);
    std::printf("faulted %s: %llu global allocations for %llu events (%.2f "
                "per event), %llu retransmits\n",
                name.c_str(), static_cast<unsigned long long>(allocs),
                static_cast<unsigned long long>(r.events_executed), per_event,
                static_cast<unsigned long long>(r.retransmits));
    ASSERT_TRUE(r.ok) << name << ": the faulted load did not complete";
    EXPECT_GT(r.retransmits, 0u) << name << ": the loss plan did not bite";
    EXPECT_LE(per_event, scheme == core::Scheme::kDir
                             ? kMaxDirAllocsPerEvent
                             : kMaxParcelAllocsPerEvent)
        << name;
  }
}

// Arena bytes and simulated joules per scheduler event for one DIR and one
// PARCEL(IND) load of a 60-object, 1 MiB page. Neither depends on the host,
// so both are held to fixed ceilings 10% above the recorded loads: a mean
// of 46,966 arena bytes per load (87,358 while a Url held four strings
// inline in every arena-backed ledger entry and fetch record), and
// 0.00582863178 J per event. More arena
// bytes means a container grew or a per-run structure was added; more
// joules per event means the energy accounting drifted or the simulation
// lost events.
TEST(AllocationGuard, ArenaBytesAndJoulesPerEventWithinCeilings) {
  constexpr double kMaxArenaBytesPerLoad = 1.10 * 46'966;
  constexpr double kMaxJoulesPerEvent = 1.10 * 0.00582863178;
  web::PageSpec spec;
  spec.object_count = 60;
  spec.total_bytes = util::mib(1);
  spec.seed = 77;
  const web::WebPage page = web::PageGenerator::generate(spec);
  const core::RunConfig cfg = bench::replay_run_config({}, 42);

  std::size_t arena_bytes = 0;
  double joules = 0;
  std::uint64_t events = 0;
  for (core::Scheme scheme : {core::Scheme::kDir, core::Scheme::kParcelInd}) {
    const core::RunResult r = core::ExperimentRunner::run(scheme, page, cfg);
    EXPECT_GT(r.arena_bytes, 0u)
        << core::to_string(scheme) << ": the arena served nothing";
    arena_bytes += r.arena_bytes;
    joules += r.radio.total.j();
    events += r.events_executed;
  }
  ASSERT_GT(events, 0u) << "the loads executed no scheduler event";
  const std::size_t bytes_per_load = arena_bytes / 2;
  const double joules_per_event = joules / static_cast<double>(events);
  std::printf("arena: %zu bytes per load; %.9g J per event\n",
              bytes_per_load, joules_per_event);
  EXPECT_LE(static_cast<double>(bytes_per_load), kMaxArenaBytesPerLoad);
  EXPECT_LE(joules_per_event, kMaxJoulesPerEvent);
}

}  // namespace
