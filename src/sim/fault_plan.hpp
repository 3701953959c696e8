// FaultPlan: a deterministic, declarative schedule of injected faults.
//
// The paper evaluates on a *real* LTE network — variable signal, flaky
// middleboxes, origin servers that stall — while a simulator is fair
// weather by default. A FaultPlan describes the weather: per-burst loss
// probability, time-windowed link blackouts (outages/handoffs visible to
// the RRC), bandwidth-collapse episodes, origin-server stall/error
// windows, and a whole-proxy crash/restart event. Everything is driven by
// an explicit seed, so a faulted run replays bit-for-bit and the parallel
// harness's jobs=1 vs jobs=N identity is preserved.
//
// The plan is pure data (sim layer); net::FaultInjector turns it into
// per-run runtime state that links and servers consult.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/units.hpp"

namespace parcel::sim {

using util::Duration;
using util::TimePoint;

/// Half-open time window [start, start + length). Zero-length windows are
/// legal and match nothing.
struct FaultWindow {
  TimePoint start;
  Duration length;

  [[nodiscard]] TimePoint end() const { return start + length; }
  [[nodiscard]] bool contains(TimePoint t) const {
    return t >= start && t < end();
  }
};

struct FaultPlan {
  /// Seeds the injector's draw streams (loss, server errors). Replaying
  /// with the same plan + seed reproduces every fault bit-for-bit.
  std::uint64_t seed = 1;

  /// Per-burst loss probability on fault-carrying links, in [0, 1].
  double loss_probability = 0.0;

  /// Link unavailable: bursts arriving during a window are deferred to the
  /// window's end (handoff/outage semantics — queued, not destroyed).
  std::vector<FaultWindow> blackouts;

  /// Bandwidth collapse: effective rate is multiplied by collapse_factor
  /// inside these windows.
  std::vector<FaultWindow> collapses;
  double collapse_factor = 0.25;  // in (0, 1]

  /// Origin-server faults: probability a request is answered 503, and
  /// windows during which responses are delayed by server_stall_extra.
  double server_error_probability = 0.0;
  std::vector<FaultWindow> server_stalls;
  Duration server_stall_extra = Duration::seconds(2.0);

  /// Whole-proxy crash: the proxy process dies at this instant (page state
  /// lost, no further bundles or completion notes). Optionally restarts
  /// after proxy_restart_after; the interrupted load is NOT resumed —
  /// recovery is client-driven (see DESIGN.md §7 degradation ladder).
  std::optional<TimePoint> proxy_crash_at;
  std::optional<Duration> proxy_restart_after;

  /// True when any fault source is active. A disabled plan leaves the
  /// substrate byte-identical to a build without the fault layer.
  [[nodiscard]] bool enabled() const;

  /// Reject malformed plans (probabilities outside [0, 1], negative
  /// durations, restart without crash) with a descriptive
  /// std::invalid_argument. Called by Testbed and core::run_grid.
  void validate() const;

  /// Canonical spec string (round-trips through parse()).
  [[nodiscard]] std::string str() const;

  [[nodiscard]] static FaultPlan off() { return FaultPlan{}; }

  /// Parse a comma-separated spec, e.g.
  ///   "loss=0.05,blackout=2+0.5,collapse=1+3,cfactor=0.2,serror=0.1,
  ///    sstall=0.5+2,sextra=1.5,crash=1.2,restart=4,seed=9"
  /// Windows use START+LENGTH in seconds and keys are repeatable for the
  /// window kinds. "off" (or empty) yields a disabled plan. Malformed
  /// specs throw std::invalid_argument; the result is validate()d.
  static FaultPlan parse(const std::string& spec);
};

}  // namespace parcel::sim
