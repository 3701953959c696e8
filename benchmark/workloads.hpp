// The four workloads. Each runs closed-loop on the calling thread — one op
// at a time, the next only after the previous returns — for the requested
// number of seconds, checking every op's output as it goes.
//
//   paper-grid    the 34-page alexa34 corpus under the seven Table-1
//                 schemes, replay config: warm parse cache, the grid every
//                 figure bench runs.
//   fresh-pages   never-seen alexa34 pages, 25 per chunk, under DIR and
//                 PARCEL(IND): every scan misses the cache.
//   live-faults   the 12-page ad-heavy mix under the §8.4 live config with
//                 loss and origin errors: retransmits, retries, the
//                 degradation ladder and the controller under loss.
//   fleet-stream  a sharded streaming fleet over a light 4-page corpus: the
//                 only workload through run_fleet. Its per-session
//                 micro-simulations take nearly all of the time.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>

#include "cli.hpp"
#include "report.hpp"
#include "spans.hpp"
#include "watchdog.hpp"

namespace parcel::perf {

/// What the watchdog reports when an op stops returning. The workload
/// loop updates it around every op; the watchdog thread reads it.
class Progress {
 public:
  struct Snapshot {
    std::string workload;
    std::string faults;
    std::uint64_t op = 0;
    std::string page;
    std::string scheme;
    std::uint64_t run_seed = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
  };

  /// The watchdog end_op() and beat() report progress to (may be null).
  void attach(Watchdog* watchdog) { watchdog_ = watchdog; }

  void start(const std::string& workload, const std::string& faults);
  void begin_op(std::uint64_t op, const std::string& page, const std::string& scheme,
                std::uint64_t run_seed);
  /// Marks the op done (counted as attempted, and failed when `failed`)
  /// and beats the watchdog.
  void end_op(std::uint64_t ops, bool failed);
  /// Beats the watchdog for progress that is not a timed op (set-up work).
  void beat();
  [[nodiscard]] Snapshot snapshot() const;

 private:
  Watchdog* watchdog_ = nullptr;
  mutable std::mutex mutex_;
  Snapshot state_;  // guarded by mutex_
};

/// Runs `opts.workload` for `opts.seconds`. `spans` is null for an
/// untraced run; a traced run also runs every layer replica.
[[nodiscard]] RunReport run_workload(const Options& opts, Progress& progress,
                                     SpanRecorder* spans);

/// The digest a correct build produces for `workload` at the default
/// seed, or 0 when none is pinned.
[[nodiscard]] std::uint64_t pinned_digest(const std::string& workload, std::uint64_t seed);

}  // namespace parcel::perf
