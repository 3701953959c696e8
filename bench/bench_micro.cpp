// Microbenchmarks (google-benchmark) for the substrate hot paths: the
// parsers the proxy runs per page, the MHTML codec on the push path, the
// event kernel, Rng fork cost, a warm parse-cache hit, and the trace
// energy analyzer. Also hosts two allocation regressions that run before
// the benchmarks under a counting operator-new hook: the scheduler kernel
// must not allocate per event, and a full page load must divert a healthy
// share of its container allocations into the per-run arena (DESIGN.md
// §11) while keeping its global heap traffic within a per-event and
// per-load budget.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <memory_resource>
#include <new>
#include <string>

#include "bench/common.hpp"
#include "core/arena.hpp"
#include "core/experiment.hpp"
#include "lte/energy.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"
#include "web/css.hpp"
#include "web/generator.hpp"
#include "web/html.hpp"
#include "web/js.hpp"
#include "web/mhtml.hpp"
#include "web/parse_cache.hpp"

// Counting allocation hook (this binary only): lets the regression below
// measure exactly how many heap allocations the scheduler hot path makes.
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

const web::WebPage& bench_page() {
  static web::WebPage page = [] {
    web::PageSpec spec;
    spec.object_count = 120;
    spec.total_bytes = util::mib(1.5);
    spec.seed = 77;
    return web::PageGenerator::generate(spec);
  }();
  return page;
}

void BM_MiniHtmlScan(benchmark::State& state) {
  const std::string& html = bench_page().main().text();
  for (auto _ : state) {
    benchmark::DoNotOptimize(web::MiniHtml::scan(html));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(html.size()));
}
BENCHMARK(BM_MiniHtmlScan);

void BM_MiniJsRun(benchmark::State& state) {
  std::string js;
  for (const web::WebObject* obj : bench_page().objects()) {
    if (obj->type == web::ObjectType::kJs) {
      js = obj->text();
      break;
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(web::MiniJs::run(js));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(js.size()));
}
BENCHMARK(BM_MiniJsRun);

void BM_MiniCssScan(benchmark::State& state) {
  std::string css;
  for (const web::WebObject* obj : bench_page().objects()) {
    if (obj->type == web::ObjectType::kCss) {
      css = obj->text();
      break;
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(web::MiniCss::scan(css));
  }
}
BENCHMARK(BM_MiniCssScan);

void BM_PageGeneration(benchmark::State& state) {
  web::PageSpec spec;
  spec.object_count = static_cast<int>(state.range(0));
  spec.total_bytes = util::mib(1);
  spec.seed = 3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(web::PageGenerator::generate(spec));
  }
}
BENCHMARK(BM_PageGeneration)->Arg(40)->Arg(120)->Arg(400);

void BM_MhtmlRoundTrip(benchmark::State& state) {
  web::MhtmlWriter writer;
  int added = 0;
  for (const web::WebObject* obj : bench_page().objects()) {
    writer.add(*obj);
    if (++added >= 40) break;
  }
  for (auto _ : state) {
    std::string wire = writer.serialize();
    benchmark::DoNotOptimize(web::MhtmlReader::parse(wire));
  }
}
BENCHMARK(BM_MhtmlRoundTrip);

void BM_SchedulerThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler sched;
    int remaining = 10'000;
    std::function<void()> tick = [&] {
      if (--remaining > 0) {
        sched.schedule_after(util::Duration::micros(10), tick);
      }
    };
    sched.schedule_at(util::TimePoint::origin(), tick);
    sched.run();
    benchmark::DoNotOptimize(sched.events_executed());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 10'000);
}
BENCHMARK(BM_SchedulerThroughput);

void BM_SchedulerScheduleCancel(benchmark::State& state) {
  // The proxy's completion heuristic re-arms (cancel + reschedule) a
  // timer on every intercepted object; this measures that path.
  for (auto _ : state) {
    sim::Scheduler sched;
    sim::EventHandle timer;
    for (int i = 0; i < 1'000; ++i) {
      timer.cancel();
      timer = sched.schedule_after(util::Duration::seconds(1.5), [] {});
    }
    sched.run();
    benchmark::DoNotOptimize(sched.events_executed());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1'000);
}
BENCHMARK(BM_SchedulerScheduleCancel);

void BM_RngForkFirstDraw(benchmark::State& state) {
  // A run forks about a dozen streams and draws from each only a few
  // times, so fork plus first draw is the engine cost a load pays.
  util::Rng parent(2014);
  for (auto _ : state) {
    util::Rng child = parent.fork();
    benchmark::DoNotOptimize(child.next_u64());
  }
}
BENCHMARK(BM_RngForkFirstDraw);

void BM_ParseCacheHitOwnPin(benchmark::State& state) {
  // A warm lookup on the bytes the entry was first scanned from: the
  // grid's common case (corpus strings re-scanned under every scheme).
  std::string text;
  for (int i = 0; text.size() < 32 * 1024; ++i) {
    text += "fetch(\"/asset/" + std::to_string(i) + ".json\");\n";
  }
  auto script = std::make_shared<const std::string>(std::move(text));
  web::ParseCache& cache = web::ParseCache::instance();
  cache.js(*script, script);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.js(*script, script));
  }
  cache.clear();
}
BENCHMARK(BM_ParseCacheHitOwnPin);

// Regression guard for the kernel fast path: a million fire-and-forget
// events must not allocate per event (handles are (seq, slot) pairs; keys
// live in the heap vector and closures in the slot pool, whose regrowth
// goes through pmr and is not visible to this hook). The budget covers
// small constant noise only — any per-event
// std::function or shared_ptr allocation blows it by four orders.
void scheduler_allocation_regression() {
  constexpr std::size_t kEvents = 1'000'000;
  constexpr std::uint64_t kAllocBudget = 64;
  sim::Scheduler sched;
  const std::uint64_t before = g_allocations.load();
  for (std::size_t i = 0; i < kEvents; ++i) {
    sched.schedule_after(util::Duration::micros(1), [] {});
  }
  if (sched.pending_events() != kEvents) {
    std::fprintf(stderr, "scheduler regression: expected %zu pending, %zu\n",
                 kEvents, sched.pending_events());
    std::exit(1);
  }
  sched.run();
  const std::uint64_t allocs = g_allocations.load() - before;
  if (sched.events_executed() != kEvents) {
    std::fprintf(stderr, "scheduler regression: executed %llu of %zu\n",
                 static_cast<unsigned long long>(sched.events_executed()),
                 kEvents);
    std::exit(1);
  }
  if (allocs > kAllocBudget) {
    std::fprintf(stderr,
                 "scheduler regression: %llu allocations for %zu no-op "
                 "events (budget %llu) — the kernel allocates per event "
                 "again\n",
                 static_cast<unsigned long long>(allocs), kEvents,
                 static_cast<unsigned long long>(kAllocBudget));
    std::exit(1);
  }
  std::printf("scheduler alloc regression OK: %llu allocations for %zu "
              "schedule+fire events\n",
              static_cast<unsigned long long>(allocs), kEvents);
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

// Regression guard for per-load heap traffic, in two parts.
//
// Arena routing: a page load must divert a material number of container
// allocations into the bump allocator — the scheduler heap, trace columns
// and browser bookkeeping all bump instead of hitting the heap. If the
// count collapses, some hot container silently stopped drawing from
// run_resource().
//
// Global budget: through the operator-new hook, a DIR and a PARCEL(IND)
// load of bench_page() must each stay within kMaxAllocsPerEvent global
// allocations per executed event, and the PARCEL(IND) load within
// kMaxParcelBytes. Deep-copied burst callbacks or a bundle built as a
// string and re-parsed on delivery blow these bounds.
void load_allocation_regression() {
  constexpr std::uint64_t kMinSavedAllocs = 100;
  constexpr double kMaxAllocsPerEvent = 6.0;
  const std::uint64_t kMaxParcelBytes =
      static_cast<std::uint64_t>(util::mib(1.5));
  core::RunConfig cfg = bench::replay_run_config(42);
  const web::WebPage& page = bench_page();

  // Warm the parse cache and lazy singletons so the pass measures the
  // load itself, not one-time setup.
  core::ExperimentRunner::run(core::Scheme::kDir, page, cfg);
  CountingResource counting;
  std::pmr::memory_resource* saved = std::pmr::set_default_resource(&counting);
  const core::RunResult routed =
      core::ExperimentRunner::run(core::Scheme::kDir, page, cfg);
  std::pmr::set_default_resource(saved);

  if (routed.arena_allocations < kMinSavedAllocs) {
    std::fprintf(stderr,
                 "load alloc regression: arena serves too little — %zu "
                 "allocations per load (need >= %llu)\n",
                 routed.arena_allocations,
                 static_cast<unsigned long long>(kMinSavedAllocs));
    std::exit(1);
  }
  std::printf("load alloc regression OK: %llu default-resource allocations "
              "(%llu bytes) per load; arena served %zu allocations (%zu "
              "bytes)\n",
              static_cast<unsigned long long>(counting.allocations()),
              static_cast<unsigned long long>(counting.bytes()),
              routed.arena_allocations, routed.arena_bytes);

  bool over_budget = false;
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
    const bool bytes_over =
        scheme == core::Scheme::kParcelInd && bytes > kMaxParcelBytes;
    const bool over = per_event > kMaxAllocsPerEvent || bytes_over;
    over_budget = over_budget || over;
    std::printf("load alloc budget %s: %s %llu global allocations for %llu "
                "events (%.2f per event, budget %.1f), %llu bytes\n",
                over ? "EXCEEDED" : "OK", core::to_string(scheme).c_str(),
                static_cast<unsigned long long>(allocs),
                static_cast<unsigned long long>(r.events_executed), per_event,
                kMaxAllocsPerEvent, static_cast<unsigned long long>(bytes));
  }
  if (over_budget) {
    std::fprintf(stderr,
                 "load alloc regression: a page load exceeds its global "
                 "allocation budget (%.1f per event; %llu bytes for "
                 "PARCEL(IND)) — see the lines above\n",
                 kMaxAllocsPerEvent,
                 static_cast<unsigned long long>(kMaxParcelBytes));
    std::exit(1);
  }
}

void BM_EnergyAnalyzer(benchmark::State& state) {
  trace::PacketTrace trace;
  util::Rng rng(5);
  double t = 0;
  for (int i = 0; i < 2000; ++i) {
    t += rng.exponential(0.05);
    trace.record(trace::PacketRecord{util::TimePoint::at_seconds(t),
                                     trace::Direction::kDownlink,
                                     trace::PacketKind::kData, 1448, 1, 1});
  }
  lte::EnergyAnalyzer analyzer{lte::RrcConfig{}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer.analyze(trace, true));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2000);
}
BENCHMARK(BM_EnergyAnalyzer);

}  // namespace

int main(int argc, char** argv) {
  scheduler_allocation_regression();
  load_allocation_regression();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
