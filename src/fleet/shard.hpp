// ProxyShard + ShardedFleet: N independent proxies behind a rendezvous-
// hash front, with a tiered object store and crash-driven session handoff
// (ISSUE 8 tentpole; ROADMAP item 1; DESIGN.md §13).
//
// One ProxyShard is §10's single-proxy model — its own SharedObjectStore
// (the L1) and its own ProxyCompute pool — replicated N times on one
// sim::Scheduler timeline. In front sits a ShardRouter mapping each
// client's key to a live shard, and beneath sits one shared L2
// SharedObjectStore: an L1 miss that a sibling shard has already
// published is served by a kTransfer task (configurable backplane cost,
// cheaper than origin fetch + parse, dearer than the free L1 hit), and a
// full miss fetches from origin and publishes to both tiers.
//
// Crash-driven handoff: when the fleet-layer FaultPlan
// (FleetConfig::shard_faults) schedules a proxy crash, the seeded victim
// shard dies mid-run — its queue is dropped, its in-flight service is
// voided, its L1 is lost — and every session it had not finished is
// re-routed by the same rendezvous front (now excluding the victim) and
// resubmitted against the surviving shards' L1s and the shared L2.
// Rendezvous hashing makes the remap minimal: only the victim's keys
// move. On restart the shard rejoins the front with a cold L1. Every
// handoff decision derives from seeded state (arrival process, fault
// plan, routing salt) — never from execution order — so sharded fleet
// runs stay bitwise identical across --jobs and reruns.
//
// Store-warming model (inherited from §10): tiers are warmed at *request*
// time, not at task completion, so store evolution stays a pure function
// of the request sequence — the property the epoch-parallel snapshot
// replay (§12) depends on. A crash therefore loses the victim's L1 but
// not its L2 publications; redo accounting counts the service seconds
// re-executed and the bytes the tier had to move a second time
// (origin refetch + backplane transfer) for migrated sessions.
//
// Lock discipline (DESIGN.md §14.3): none — shards, router, and both
// store tiers mutate only on the single macro-simulation timeline, and
// keeping them mutex-free is what makes crash/handoff replay exact. Any
// future cross-thread state must use util::Mutex + PARCEL_GUARDED_BY
// (src/util/thread_annotations.hpp); parcel-lint enforces the annotation.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "fleet/fleet_runner.hpp"
#include "fleet/proxy_compute.hpp"
#include "fleet/shard_router.hpp"
#include "fleet/shared_store.hpp"
#include "sim/scheduler.hpp"

namespace parcel::fleet {

/// SoA view of the macro timeline's inputs. Element i is client base + i;
/// `base` is the global index of element 0, so epoch subspans keep one
/// client identity (for routing) no matter how the timeline was
/// partitioned.
struct MacroColumns {
  std::span<const double> arrival_sec;
  std::span<const std::uint32_t> page_index;
  std::size_t base = 0;
};

/// SoA macro outputs, indexed like the columns. The handoff columns are
/// zero except for sessions migrated off a crashed shard.
struct MacroOut {
  std::vector<std::uint8_t> shed;
  std::vector<double> max_wait_sec;
  std::vector<double> done_sec;
  /// Times this session was handed off to a surviving shard.
  std::vector<std::uint8_t> handoffs;
  /// Crash instant -> the session's proxy work re-completed (seconds).
  std::vector<double> recovery_sec;
  /// Service seconds re-executed for this session after the crash.
  std::vector<double> redo_sec;
  /// Bytes the tier moved a second time for this session (origin refetch
  /// plus L2 backplane transfer).
  std::vector<std::int64_t> redo_bytes;
  explicit MacroOut(std::size_t n)
      : shed(n, 0),
        max_wait_sec(n, 0.0),
        done_sec(n, 0.0),
        handoffs(n, 0),
        recovery_sec(n, 0.0),
        redo_sec(n, 0.0),
        redo_bytes(n, 0) {}
};

/// Store contents of a sharded fleet at an instant: one L1 per shard plus
/// the shared L2. The fleet runner forks these at epoch boundaries and
/// checks them after (DESIGN.md §12 invariant).
struct ShardSnapshot {
  std::vector<SharedObjectStore> l1;
  SharedObjectStore l2;
};

/// One proxy node: §10's single-proxy model as a value the fleet owns N
/// of. The compute pool shares the fleet's scheduler timeline; blackout
/// windows (from the run's base fault plan) apply to every shard — the
/// tier shares the weather.
class ProxyShard {
 public:
  ProxyShard(int id, sim::Scheduler& sched, const ProxyComputeConfig& config,
             SharedObjectStore l1_store, const sim::FaultPlan* blackouts)
      : id_(id), compute(sched, config, blackouts), l1(std::move(l1_store)) {}

  [[nodiscard]] int id() const { return id_; }

 private:
  int id_ = 0;

 public:
  ProxyCompute compute;
  SharedObjectStore l1;
};

/// Aggregated fleet counters (exact integer/double sums — no sketches).
struct ShardedFleetStats {
  std::vector<SharedObjectStore::Stats> l1;  // per shard, index = shard id
  SharedObjectStore::Stats l2;
  /// Summed over shards; last_finish is the max.
  ProxyCompute::Stats compute;
  std::uint64_t crash_handoffs = 0;
  std::uint64_t crash_killed_tasks = 0;
  double redo_sec_total = 0.0;
  util::Bytes redo_bytes_total = 0;

  /// Aggregate L1 stats (plain sums over shards).
  [[nodiscard]] SharedObjectStore::Stats l1_total() const;
};

/// The sharded macro simulation: owns the shards, the router, and the L2;
/// schedules arrivals, admission, store tiering, and the crash/handoff/
/// restart events on the caller's scheduler. Usable for a whole fleet or
/// for one epoch (pass the epoch's starting snapshot).
class ShardedFleet {
 public:
  /// `config` must outlive *this (the blackout plan pointer is borrowed).
  /// `start` seeds the store tiers (epoch-parallel execution); null means
  /// every tier starts cold.
  ShardedFleet(sim::Scheduler& sched, const FleetConfig& config,
               const ShardSnapshot* start = nullptr);

  /// Schedule all of `cols` (plus the config's crash/restart events, which
  /// are absolute fleet times) and drain the scheduler. Fills `out`, which
  /// must be sized to cols.arrival_sec.size().
  void run(const std::vector<const web::WebPage*>& corpus,
           const MacroColumns& cols, MacroOut& out);

  [[nodiscard]] ShardedFleetStats stats() const;
  [[nodiscard]] ShardSnapshot snapshot() const;
  [[nodiscard]] bool snapshot_equal(const ShardSnapshot& other) const;

  [[nodiscard]] int shards() const { return static_cast<int>(nodes_.size()); }

  /// The seeded crash victim for this config (pure function of
  /// shard_faults.seed and shards; no execution-order input).
  [[nodiscard]] static int crash_victim(const FleetConfig& config);

 private:
  void on_arrival(const std::vector<const web::WebPage*>& corpus,
                  const MacroColumns& cols, std::size_t i, MacroOut& out);
  void on_crash(const std::vector<const web::WebPage*>& corpus,
                const MacroColumns& cols, MacroOut& out);
  /// Request the tiers and submit the surviving work for client-slot `i`
  /// on shard `s`; when `redo` is set, accumulate handoff redo accounting
  /// into `out`.
  void submit_batch(std::size_t i, int s, const web::WebPage& page,
                    MacroOut& out, bool redo);

  sim::Scheduler& sched_;
  const FleetConfig& config_;
  ShardRouter router_;
  std::vector<std::unique_ptr<ProxyShard>> nodes_;
  SharedObjectStore l2_;
  bool l2_enabled_ = false;
  int victim_ = -1;
  double crash_sec_ = 0.0;
  bool crashed_ = false;

  // Per-client-slot macro state (sized by run()).
  std::vector<int> shard_of_;
  std::vector<int> outstanding_;

  std::uint64_t crash_handoffs_ = 0;
  std::uint64_t crash_killed_ = 0;
  double redo_sec_total_ = 0.0;
  util::Bytes redo_bytes_total_ = 0;
};

/// Build the cold starting snapshot for `config`: one empty L1 per shard
/// and an empty L2.
[[nodiscard]] ShardSnapshot make_cold_snapshot(const FleetConfig& config);

/// Advance `snap` by the store-only effects of clients [begin, end) of
/// `cols`: route each client, request its page's objects against its
/// shard's L1 and (on miss, when sharded) the L2. This is the epoch-
/// parallel snapshot pre-pass — valid exactly when no shedding and no
/// crash can occur, i.e. whenever plan_epochs returned a parallel plan.
void replay_store_requests(const std::vector<const web::WebPage*>& corpus,
                           const ClientColumns& cols, std::size_t begin,
                           std::size_t end, const FleetConfig& config,
                           ShardSnapshot& snap);

}  // namespace parcel::fleet
