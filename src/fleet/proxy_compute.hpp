// ProxyCompute: a deterministic model of the proxy's CPU as a shared,
// contended resource (ISSUE 5, tentpole b).
//
// The per-session simulations model proxy processing at well-provisioned
// single-session speed; what they cannot see is *contention* — Zambre et
// al.'s parallel browser-engine study shows queueing, not single-session
// latency, dominates once many clients share one engine host. ProxyCompute
// supplies that axis: a fixed pool of workers on a sim::Scheduler
// timeline, per-task service costs for the proxy's three work kinds
// (origin fetch, parse/scan, bundle assembly), FIFO dispatch, and a
// bounded queue for admission control.
//
// Only *waiting* (queueing delay plus outage deferral) is exported to the
// fleet timeline: the service time itself is already inside the
// per-session micro-simulation, so adding it again would double-count
// (DESIGN.md §10). Service costs exist to occupy workers and create the
// contention that produces the waits.
//
// Determinism: dispatch order is the submission order. Blackout windows
// from a sim::FaultPlan (the proxy shares the weather with the rest of
// the run) defer service starts to the window's end.
//
// Lock discipline (DESIGN.md §14.3): none — the pool model mutates only
// on the single macro-simulation timeline. Future mutable state shared
// with worker threads must use util::Mutex + PARCEL_GUARDED_BY
// (src/util/thread_annotations.hpp); parcel-lint enforces the annotation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>

#include "sim/fault_plan.hpp"
#include "sim/scheduler.hpp"
#include "util/units.hpp"

namespace parcel::fleet {

using util::Bytes;
using util::Duration;
using util::TimePoint;

/// kTransfer is the sharded fleet's L2 tier pull (ISSUE 8): a sibling
/// shard already holds the artifact, so the proxy moves bytes over the
/// backplane instead of re-fetching (and re-parsing) from origin.
enum class TaskKind : std::uint8_t { kFetch, kParse, kBundle, kTransfer };
[[nodiscard]] std::string_view to_string(TaskKind k);

/// Service time = base(kind) + bytes / rate(kind). Rates of 0 mean the
/// byte-proportional term is skipped (not a division by zero).
struct TaskCosts {
  Duration fetch_base = Duration::millis(2);
  double fetch_bytes_per_sec = 200e6 / 8.0;  // egress-limited
  Duration parse_base = Duration::millis(1);
  double parse_bytes_per_sec = 50e6;  // server-class scan rate
  Duration bundle_base = Duration::millis(1);
  double bundle_bytes_per_sec = 400e6;  // memcpy + MHTML framing
  /// L2 pull: cheaper than origin fetch+parse, dearer than an L1 hit
  /// (which is free). Defaults to ~4 ms/MiB of backplane against the
  /// 40 ms/MiB origin egress above; bench --l2-cost retunes it.
  Duration transfer_base = Duration::micros(200);
  double transfer_bytes_per_sec = 256e6;  // intra-tier backplane

  [[nodiscard]] Duration service_time(TaskKind kind, Bytes bytes) const;

  /// Zero-cost model: every task completes the instant it is dispatched.
  /// FleetRunner with idle costs reproduces the single-client harness
  /// byte-for-byte (the K=1 regression pin).
  static TaskCosts idle();
};

struct ProxyComputeConfig {
  /// Concurrent service slots (the proxy's cores). Must be >= 1.
  int workers = 4;
  /// Admission bounds — a client's whole task batch is refused (503-style
  /// shed, FleetRunner) when either would be exceeded; 0 / zero disables.
  /// max_queue bounds *tasks* waiting (not in service); max_backlog
  /// bounds the *service seconds* queued — the proxy's estimate of how
  /// far behind it is, which is what a real load shedder keys on.
  std::size_t max_queue = 0;
  Duration max_backlog = Duration::zero();
  TaskCosts costs;

  /// Uncontended model for regression pins: zero costs, so no run is ever
  /// delayed and no queue ever forms.
  static ProxyComputeConfig idle();

  /// Throws std::invalid_argument on nonsense (workers < 1, negative
  /// costs, non-positive rates when a base cost expects them).
  void validate() const;
};

class ProxyCompute {
 public:
  /// `faults` may be null; only its blackout windows are consulted (the
  /// proxy host shares the run's weather). Borrowed, must outlive *this.
  ProxyCompute(sim::Scheduler& sched, ProxyComputeConfig config,
               const sim::FaultPlan* faults = nullptr);

  /// Completion callback: fires on the scheduler timeline when the task
  /// finishes service. `waited` is service_start - submit time (queueing
  /// delay including blackout deferral).
  using Done = std::function<void(TimePoint finished, Duration waited)>;

  /// Would a batch of `tasks` more tasks costing `batch_cost` service
  /// seconds still respect the admission bounds? (FleetRunner asks once
  /// per client, before submitting any.)
  [[nodiscard]] bool can_accept(std::size_t tasks,
                                Duration batch_cost = Duration::zero()) const;

  /// Service cost this pool would charge (for admission estimates).
  [[nodiscard]] Duration cost_of(TaskKind kind, Bytes bytes) const {
    return config_.costs.service_time(kind, bytes);
  }

  /// Enqueue one task; tasks enter service in submission order.
  void submit(TaskKind kind, Bytes bytes, Done done);

  /// Kill the pool at the current scheduler instant (a shard crash,
  /// ISSUE 8): every queued task is dropped and every in-service task is
  /// voided — its completion event still fires but contributes nothing
  /// (no stats, no Done callback; the work died with the process).
  /// Dispatch stays frozen and can_accept() refuses everything until
  /// restart(). Returns the number of tasks killed (queued + in-flight),
  /// also accumulated in Stats::crash_killed.
  std::size_t crash();

  /// Rejoin after crash(): all worker slots come back idle and dispatch
  /// resumes. Tasks submitted while dead were queued and now run.
  void restart();

  [[nodiscard]] bool dead() const { return dead_; }

  struct Stats {
    std::uint64_t completed = 0;
    /// Batches refused by can_accept are counted by the caller; this
    /// tracks tasks that went through service.
    double fetch_busy_sec = 0.0;
    double parse_busy_sec = 0.0;
    double bundle_busy_sec = 0.0;
    double transfer_busy_sec = 0.0;
    /// Tasks destroyed by crash() — queued drops plus voided in-flight.
    std::uint64_t crash_killed = 0;
    /// Completion time of the last task to finish service (origin when
    /// nothing completed). Epoch-parallel fleet execution checks this
    /// against the next epoch's first arrival: the pool must have gone
    /// idle strictly before it (DESIGN.md §12).
    TimePoint last_finish;
    [[nodiscard]] double busy_sec() const {
      return fetch_busy_sec + parse_busy_sec + bundle_busy_sec +
             transfer_busy_sec;
    }
    /// The cache-amplification metric: origin-facing work actually
    /// executed (fetch + parse), excluding per-session bundling.
    [[nodiscard]] double fetch_parse_sec() const {
      return fetch_busy_sec + parse_busy_sec;
    }
    /// Fold another pool's stats in: sums, and the later last_finish.
    Stats& operator+=(const Stats& o) {
      completed += o.completed;
      fetch_busy_sec += o.fetch_busy_sec;
      parse_busy_sec += o.parse_busy_sec;
      bundle_busy_sec += o.bundle_busy_sec;
      transfer_busy_sec += o.transfer_busy_sec;
      crash_killed += o.crash_killed;
      last_finish = std::max(last_finish, o.last_finish);
      return *this;
    }
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::size_t queued() const { return queue_.size(); }
  /// Service seconds currently waiting (not yet in service).
  [[nodiscard]] Duration backlog() const { return backlog_; }
  [[nodiscard]] int idle_workers() const { return idle_workers_; }

 private:
  struct Task {
    TaskKind kind = TaskKind::kFetch;
    Duration cost = Duration::zero();
    TimePoint submitted;
    Done done;
  };

  void dispatch();
  [[nodiscard]] TimePoint defer_past_blackouts(TimePoint start) const;

  sim::Scheduler& sched_;
  ProxyComputeConfig config_;
  const sim::FaultPlan* faults_ = nullptr;

  int idle_workers_ = 0;
  /// Crash state: while dead_, nothing dispatches. generation_ bumps on
  /// every crash; completion events carry the generation they started
  /// under and void themselves when it no longer matches.
  bool dead_ = false;
  std::uint64_t generation_ = 0;
  /// Waiting tasks (not in service), oldest at the front.
  std::deque<Task> queue_;
  Duration backlog_ = Duration::zero();
  Stats stats_;
};

}  // namespace parcel::fleet
