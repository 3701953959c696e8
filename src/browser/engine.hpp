// BrowserEngine: the shared page-load machine.
//
// Drives a page load the way WebKit/Gecko do at the granularity this
// study needs: incremental HTML scanning on a single main thread,
// synchronous <script src> blocking the parser until fetched *and*
// executed, CSS scanned on arrival for url() dependencies, JS execution
// revealing dynamically identified objects, async scripts running after
// onload (ad/widget clusters — the paper's post-onload requests), and an
// onload event that fires when the blocking set drains.
//
// The same engine instance class serves as: the DIR client browser, the
// PARCEL proxy's headless load engine, the PARCEL client's renderer, and
// the cloud browser's server-side engine — each differing only in the
// Fetcher behind it and its device speed (EngineConfig).
//
// All tokenization goes through web::ParseCache: scan artifacts are
// memoized per distinct content bytes across every engine, run and worker
// thread, and their string_views borrow from the immutable string the
// cache returns as the pin (zero copies on the hot path). Simulated parse/exec *cost* is
// unaffected — the cache only removes real host CPU.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <memory_resource>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "browser/fetcher.hpp"
#include "core/arena.hpp"
#include "browser/ledger.hpp"
#include "browser/main_thread.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"
#include "web/html.hpp"
#include "web/js.hpp"

namespace parcel::browser {

struct EngineConfig {
  /// HTML/CSS scanning throughput of this device's main thread.
  double parse_bytes_per_sec = 2.0e6;
  /// MiniJs work units per second.
  double js_units_per_sec = 25.0;
  /// Async (ad/widget) scripts execute this long after onload — the
  /// source of the paper's post-onload object requests.
  Duration async_exec_min = Duration::millis(200);
  Duration async_exec_max = Duration::millis(2500);
  /// Cost of a cache lookup / local display on interaction.
  double click_work_units = 2.0;
};

/// Device cache: fetched results keyed by interned URL identity. Lives in
/// the per-run arena (all holders — engines, retired session engines, the
/// proxy's warm cache — die with the run).
using FetchCache =
    std::pmr::unordered_map<net::UrlId, FetchResult, net::UrlIdHash>;

class BrowserEngine {
 public:
  struct Callbacks {
    std::function<void(TimePoint)> on_onload;
    std::function<void(TimePoint)> on_complete;
  };

  BrowserEngine(sim::Scheduler& sched, Fetcher& fetcher, EngineConfig config,
                util::Rng rng, std::string name);

  /// Begin loading; callbacks fire at the onload event and when the last
  /// object (including post-onload asyncs) has arrived and executed.
  void load(const net::Url& main_url, Callbacks callbacks);

  /// Simulate a user click on handler `index` (registered by page JS via
  /// onClick). Executes the handler locally; fetches the target only if
  /// it is not already cached. `on_done` fires when the result is
  /// displayed.
  void click(int index, std::function<void()> on_done);

  [[nodiscard]] bool has_click_handler(int index) const {
    return click_handlers_.contains(index);
  }

  // --- Run metrics ----------------------------------------------------
  [[nodiscard]] const ObjectLedger& ledger() const { return ledger_; }
  [[nodiscard]] bool onload_fired() const { return onload_time_.has_value(); }
  [[nodiscard]] TimePoint onload_time() const;
  [[nodiscard]] bool completed() const { return complete_time_.has_value(); }
  [[nodiscard]] TimePoint complete_time() const;
  [[nodiscard]] Duration cpu_busy() const { return main_thread_.busy_total(); }
  [[nodiscard]] std::size_t fetches_issued() const { return fetches_issued_; }
  /// Objects served from the (pre-seeded) device cache without network.
  [[nodiscard]] std::size_t cache_loads() const { return cache_loads_; }
  [[nodiscard]] bool is_cached(const net::Url& url) const {
    return cache_.contains(url.id());
  }

  /// Seed the device cache from a previous page's engine (multi-page
  /// session support, §7.3: "some objects in subsequent pages of a
  /// session could potentially be cached in the device"). Must be called
  /// before load().
  void preload_cache(const FetchCache& c);

  /// The device cache after a load; feed to the next page's engine.
  [[nodiscard]] const FetchCache& cache() const { return cache_; }

 private:
  struct ParseJob {
    /// Shared scan artifact (from the parse cache, or freshly scanned).
    std::shared_ptr<const std::vector<web::HtmlToken>> tokens;
    /// Pins the string every token's views borrow from: the pin the parse
    /// cache returned, which on a hit is the entry's own copy of the
    /// document, not necessarily the fetched one.
    std::shared_ptr<const std::string> content;
    std::size_t next = 0;
    Duration per_token = Duration::zero();
    net::Url base;
  };

  void issue_fetch(const net::Url& url, web::ObjectType hint, bool blocking,
                   bool randomized, bool parser_gate);
  void on_fetch_result(std::uint32_t id, bool blocking, bool parser_gate,
                       const FetchResult& result);
  void start_parse(const FetchResult& html);
  void parser_step();
  /// Execute a script body. `code` borrows from the string `pin` keeps
  /// alive (the whole script file, or for inline scripts the document pin
  /// the parse cache returned).
  void execute_script(std::string_view code,
                      const std::shared_ptr<const std::string>& pin,
                      const net::Url& base, bool blocking,
                      std::function<void()> after);
  void schedule_async_exec(FetchResult script);
  void reveal(const std::vector<web::Reference>& refs, const net::Url& base,
              bool blocking);
  void check_onload();
  void check_complete();

  sim::Scheduler& sched_;
  Fetcher& fetcher_;
  EngineConfig config_;
  util::Rng rng_;
  std::string name_;
  MainThread main_thread_;
  ObjectLedger ledger_;
  Callbacks callbacks_;

  net::Url main_url_;
  bool load_started_ = false;
  std::optional<ParseJob> parse_;
  bool parser_done_ = false;
  bool parser_gated_ = false;  // waiting on a sync script

  // Per-load bookkeeping: bucket arrays and nodes bump out of the run
  // arena when one is in scope (DESIGN.md §11).
  FetchCache cache_{core::run_resource()};
  std::pmr::unordered_set<net::UrlId, net::UrlIdHash> requested_{
      core::run_resource()};
  std::size_t outstanding_blocking_ = 0;
  std::size_t outstanding_total_ = 0;
  std::size_t pending_async_execs_ = 0;
  std::size_t fetches_issued_ = 0;
  std::size_t cache_loads_ = 0;

  /// Async executions deferred until onload fires: (post-onload delay,
  /// runnable).
  std::pmr::vector<std::pair<Duration, std::function<void()>>>
      pending_async_runs_{core::run_resource()};

  std::map<int, net::Url> click_handlers_;
  std::optional<TimePoint> onload_time_;
  std::optional<TimePoint> complete_time_;
};

}  // namespace parcel::browser
