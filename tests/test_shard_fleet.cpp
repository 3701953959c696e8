#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/experiment.hpp"
#include "fleet/fleet_runner.hpp"
#include "fleet/proxy_compute.hpp"
#include "fleet/shard.hpp"
#include "fleet/shard_router.hpp"
#include "fleet/shared_store.hpp"
#include "replay/replay_store.hpp"
#include "sim/fault_plan.hpp"
#include "sim/scheduler.hpp"
#include "web/generator.hpp"
#include "web/object.hpp"

namespace parcel::fleet {
namespace {

// A small replayed corpus shared by the sharded-fleet tests (same pattern
// as test_fleet: static store keeps the snapshots alive).
const std::vector<const web::WebPage*>& test_corpus() {
  static std::vector<const web::WebPage*>* corpus = [] {
    static replay::ReplayStore store;
    auto* pages = new std::vector<const web::WebPage*>;
    for (int p = 0; p < 2; ++p) {
      web::PageSpec spec;
      spec.site = "shard" + std::to_string(p) + ".example.com";
      spec.object_count = 24;
      spec.total_bytes = util::kib(300);
      spec.seed = 80 + static_cast<std::uint64_t>(p);
      store.record(web::PageGenerator::generate(spec));
      pages->push_back(
          store.find("http://shard" + std::to_string(p) + ".example.com/"));
    }
    return pages;
  }();
  return *corpus;
}

// A contended sharded fleet whose arrival window straddles the crash
// instant used by the handoff tests below.
FleetConfig sharded_config(int shards, int clients) {
  FleetConfig cfg;
  cfg.clients = clients;
  cfg.arrival_seed = 5;
  cfg.mean_interarrival = util::Duration::millis(2);
  cfg.compute.workers = 2;
  cfg.base.seed = 31;
  cfg.shards = shards;
  return cfg;
}

// Bitwise comparison of two sharded exact-mode runs, including the ISSUE 8
// surface (per-client handoff columns, tier stats, crash counters).
void expect_sharded_identical(const FleetMetrics& a, const FleetMetrics& b) {
  ASSERT_EQ(a.clients.size(), b.clients.size());
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.shed, b.shed);
  for (std::size_t i = 0; i < a.clients.size(); ++i) {
    SCOPED_TRACE("client " + std::to_string(i));
    EXPECT_EQ(a.clients[i].shed, b.clients[i].shed);
    EXPECT_EQ(a.clients[i].queue_wait.sec(), b.clients[i].queue_wait.sec());
    EXPECT_EQ(a.clients[i].olt.sec(), b.clients[i].olt.sec());
    EXPECT_EQ(a.clients[i].handoffs, b.clients[i].handoffs);
    EXPECT_EQ(a.clients[i].recovery.sec(), b.clients[i].recovery.sec());
    EXPECT_EQ(a.clients[i].redo_sec, b.clients[i].redo_sec);
    EXPECT_EQ(a.clients[i].redo_bytes, b.clients[i].redo_bytes);
  }
  EXPECT_EQ(a.olt_p95, b.olt_p95);
  EXPECT_EQ(a.wait_p95, b.wait_p95);
  EXPECT_EQ(a.store.hits, b.store.hits);
  EXPECT_EQ(a.store.misses, b.store.misses);
  ASSERT_EQ(a.l1_shards.size(), b.l1_shards.size());
  for (std::size_t s = 0; s < a.l1_shards.size(); ++s) {
    EXPECT_EQ(a.l1_shards[s].hits, b.l1_shards[s].hits);
    EXPECT_EQ(a.l1_shards[s].misses, b.l1_shards[s].misses);
  }
  EXPECT_EQ(a.l2.hits, b.l2.hits);
  EXPECT_EQ(a.l2.misses, b.l2.misses);
  EXPECT_EQ(a.compute.completed, b.compute.completed);
  EXPECT_EQ(a.compute.transfer_busy_sec, b.compute.transfer_busy_sec);
  EXPECT_EQ(a.crash_handoffs, b.crash_handoffs);
  EXPECT_EQ(a.crash_killed_tasks, b.crash_killed_tasks);
  EXPECT_EQ(a.redo_sec_total, b.redo_sec_total);
  EXPECT_EQ(a.redo_bytes_total, b.redo_bytes_total);
  EXPECT_EQ(a.recovery_sec_total, b.recovery_sec_total);
  EXPECT_EQ(a.recovery_sec_max, b.recovery_sec_max);
  EXPECT_EQ(a.fault_retransmits, b.fault_retransmits);
  EXPECT_EQ(a.fault_drops, b.fault_drops);
  EXPECT_EQ(a.fault_deferrals, b.fault_deferrals);
  EXPECT_EQ(a.direct_fetches, b.direct_fetches);
  EXPECT_EQ(a.degraded_sessions, b.degraded_sessions);
}

// ---------------------------------------------------------------------
// ShardRouter: the rendezvous properties the handoff design rests on
// (ISSUE 8 satellite: property test for minimal remapping).

TEST(ShardRouter, KillingOneShardRemapsOnlyItsKeys) {
  // The minimal-disruption property, pinned exactly: kill 1 of N and (a)
  // every key that was NOT on the victim keeps its shard (zero survivor
  // churn), (b) every key that WAS on the victim moves to a live shard,
  // (c) the moved population is the victim's population, about K/N, and
  // (d) revival restores the original map bit-for-bit.
  const int N = 8;
  const int K = 4096;
  for (int victim : {0, 3, 7}) {
    SCOPED_TRACE("victim " + std::to_string(victim));
    ShardRouter router(N);
    std::vector<int> before(K);
    for (int c = 0; c < K; ++c) {
      before[static_cast<std::size_t>(c)] =
          router.route(ShardRouter::client_key(c));
    }

    router.set_alive(victim, false);
    EXPECT_EQ(router.alive_count(), N - 1);
    int moved = 0;
    for (int c = 0; c < K; ++c) {
      int was = before[static_cast<std::size_t>(c)];
      int now = router.route(ShardRouter::client_key(c));
      if (was == victim) {
        ++moved;
        EXPECT_NE(now, victim);
      } else {
        EXPECT_EQ(now, was) << "survivor churn at key " << c;
      }
    }
    // Rendezvous balance: the victim held roughly K/N keys. The bound is
    // loose (3 sigma-ish) but fails immediately if the mix is broken.
    EXPECT_GT(moved, K / N / 2);
    EXPECT_LT(moved, 2 * K / N);

    router.set_alive(victim, true);
    for (int c = 0; c < K; ++c) {
      EXPECT_EQ(router.route(ShardRouter::client_key(c)),
                before[static_cast<std::size_t>(c)]);
    }
  }
}

TEST(ShardRouter, RoutingIsAPureFunctionOfSaltAndKey) {
  // Two instances, same salt: identical maps (this is what makes sharded
  // runs identical across --jobs — routing has no execution-order input).
  ShardRouter a(5, 42);
  ShardRouter b(5, 42);
  ShardRouter c(5, 43);
  bool salt_matters = false;
  for (int k = 0; k < 512; ++k) {
    std::uint64_t key = ShardRouter::client_key(k);
    EXPECT_EQ(a.route(key), b.route(key));
    // Repeated queries are stable (stateless scoring).
    EXPECT_EQ(a.route(key), a.route(key));
    salt_matters |= a.route(key) != c.route(key);
  }
  EXPECT_TRUE(salt_matters);
}

TEST(ShardRouter, ValidatesAndRefusesToRouteWhenAllDead) {
  EXPECT_THROW(ShardRouter(0), std::invalid_argument);
  ShardRouter router(2);
  EXPECT_TRUE(router.alive(0));
  router.set_alive(0, false);
  router.set_alive(1, false);
  EXPECT_EQ(router.alive_count(), 0);
  EXPECT_THROW(static_cast<void>(router.route(ShardRouter::client_key(1))),
               std::logic_error);
}

// ---------------------------------------------------------------------
// ProxyCompute crash/restart semantics

TEST(ProxyComputeCrash, CrashDropsQueueVoidsInFlightAndRestartRecovers) {
  sim::Scheduler sched;
  ProxyComputeConfig cfg;
  cfg.workers = 1;
  cfg.costs = TaskCosts::idle();
  cfg.costs.fetch_base = util::Duration::seconds(1.0);
  ProxyCompute compute(sched, cfg);

  int completions = 0;
  auto done = [&](util::TimePoint, util::Duration) { ++completions; };
  for (int i = 0; i < 3; ++i) {
    compute.submit(TaskKind::kFetch, 0, done);
  }
  // Crash mid-service of task 0: one in-flight + two queued die.
  sched.schedule_at(
      util::TimePoint::origin() + util::Duration::seconds(0.5), [&] {
        EXPECT_EQ(compute.crash(), 3u);
        EXPECT_TRUE(compute.dead());
        EXPECT_EQ(compute.queued(), 0u);
        EXPECT_FALSE(compute.can_accept(1));
      });
  sched.run();

  // The in-flight task's completion event fired at t=1.0 but was voided:
  // no callback, no stats.
  EXPECT_EQ(completions, 0);
  EXPECT_EQ(compute.stats().completed, 0u);
  EXPECT_EQ(compute.stats().crash_killed, 3u);
  EXPECT_DOUBLE_EQ(compute.stats().fetch_busy_sec, 0.0);

  // Restart: the pool serves again, and only post-restart work counts.
  compute.restart();
  EXPECT_FALSE(compute.dead());
  EXPECT_TRUE(compute.can_accept(1));
  compute.submit(TaskKind::kFetch, 0, done);
  sched.run();
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(compute.stats().completed, 1u);
  EXPECT_DOUBLE_EQ(compute.stats().fetch_busy_sec, 1.0);
}

TEST(ProxyComputeCrash, TransferTasksAreCostedAndCounted) {
  sim::Scheduler sched;
  ProxyComputeConfig cfg;
  cfg.workers = 1;
  cfg.costs = TaskCosts::idle();
  cfg.costs.transfer_base = util::Duration::millis(1);
  cfg.costs.transfer_bytes_per_sec = 1e6;  // 1 MB/s backplane
  ProxyCompute compute(sched, cfg);
  std::vector<double> finished;
  compute.submit(TaskKind::kTransfer, 500000,
                 [&](util::TimePoint f, util::Duration) {
                   finished.push_back(f.sec());
                 });
  sched.run();
  ASSERT_EQ(finished.size(), 1u);
  EXPECT_DOUBLE_EQ(finished[0], 0.501);  // 1 ms base + 0.5 s byte term
  EXPECT_DOUBLE_EQ(compute.stats().transfer_busy_sec, 0.501);
  EXPECT_DOUBLE_EQ(compute.stats().busy_sec(), 0.501);
  // Transfers are tier moves, not origin work.
  EXPECT_DOUBLE_EQ(compute.stats().fetch_parse_sec(), 0.0);
}

// ---------------------------------------------------------------------
// FleetConfig validation for the sharded surface

TEST(ShardedFleetConfig, ValidateRejectsShardNonsense) {
  FleetConfig cfg = sharded_config(2, 4);
  EXPECT_NO_THROW(cfg.validate());

  FleetConfig bad = cfg;
  bad.shards = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);

  // A crash needs a survivor: shards == 1 plus a crash plan is nonsense.
  bad = cfg;
  bad.shards = 1;
  bad.shard_faults = sim::FaultPlan::parse("crash=0.01,restart=0.05");
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad.shards = 2;
  EXPECT_NO_THROW(bad.validate());
}

// ---------------------------------------------------------------------
// Sharded fleet: tiering, determinism, and the single-shard pin

TEST(ShardedFleet, SingleShardKeepsTheSingleProxySurface) {
  // shards == 1 must present §10's surface: no per-shard stats, an idle
  // L2, and zero crash counters.
  FleetConfig cfg = sharded_config(1, 8);
  FleetMetrics m = run_fleet(test_corpus(), cfg);
  EXPECT_EQ(m.shards, 1);
  EXPECT_TRUE(m.l1_shards.empty());
  EXPECT_EQ(m.l2.hits + m.l2.misses, 0u);
  EXPECT_EQ(m.crash_handoffs, 0u);
  EXPECT_EQ(m.crash_killed_tasks, 0u);
  EXPECT_EQ(m.redo_bytes_total, 0);
  EXPECT_GT(m.store.hits + m.store.misses, 0u);
}

TEST(ShardedFleet, L2AbsorbsSiblingShardMisses) {
  // Splitting the fleet dilutes every L1 (fewer sessions warm each), but
  // the shared L2 turns the diluted misses into backplane transfers.
  FleetConfig one = sharded_config(1, 16);
  FleetConfig four = sharded_config(4, 16);
  FleetMetrics m1 = run_fleet(test_corpus(), one);
  FleetMetrics m4 = run_fleet(test_corpus(), four);

  ASSERT_EQ(m4.shards, 4);
  ASSERT_EQ(m4.l1_shards.size(), 4u);
  EXPECT_LT(m4.store.hit_rate(), m1.store.hit_rate());
  EXPECT_GT(m4.l2.hits, 0u);
  EXPECT_GT(m4.compute.transfer_busy_sec, 0.0);
  // The aggregate L1 stats are the plain per-shard sums.
  std::uint64_t hits = 0, misses = 0;
  for (const SharedObjectStore::Stats& s : m4.l1_shards) {
    hits += s.hits;
    misses += s.misses;
  }
  EXPECT_EQ(m4.store.hits, hits);
  EXPECT_EQ(m4.store.misses, misses);
  // Only L1 misses consult the L2, and each consultation resolves.
  EXPECT_EQ(m4.l2.hits + m4.l2.misses, misses);
}

TEST(ShardedFleet, Jobs4BitwiseIdenticalToJobs1AtFourShards) {
  FleetConfig cfg = sharded_config(4, 16);
  cfg.jobs = 1;
  FleetMetrics serial = run_fleet(test_corpus(), cfg);
  cfg.jobs = 4;
  FleetMetrics parallel = run_fleet(test_corpus(), cfg);
  expect_sharded_identical(serial, parallel);
  EXPECT_GT(serial.compute.transfer_busy_sec, 0.0);  // non-vacuous tiering
}

// ---------------------------------------------------------------------
// Crash-driven session handoff

TEST(ShardedFleet, CrashHandoffCompletesEverySessionDeterministically) {
  FleetConfig cfg = sharded_config(4, 24);
  // Crash in the middle of the arrival window, restart 50 ms later.
  cfg.shard_faults = sim::FaultPlan::parse("crash=0.024,restart=0.05,seed=9");

  int victim = ShardedFleet::crash_victim(cfg);
  EXPECT_GE(victim, 0);
  EXPECT_LT(victim, cfg.shards);

  cfg.jobs = 1;
  FleetMetrics m = run_fleet(test_corpus(), cfg);

  // Robustness headline: the crash sheds nobody — every admitted session
  // completes on a survivor.
  EXPECT_EQ(m.shed, 0);
  EXPECT_EQ(m.admitted, 24);
  EXPECT_GT(m.crash_handoffs, 0u);
  EXPECT_GT(m.crash_killed_tasks, 0u);
  EXPECT_GT(m.redo_sec_total, 0.0);
  EXPECT_GT(m.redo_bytes_total, 0);
  EXPECT_GT(m.recovery_sec_total, 0.0);
  EXPECT_GT(m.recovery_sec_max, 0.0);
  EXPECT_LE(m.recovery_sec_max, m.recovery_sec_total);

  // Per-client accounting is consistent with the fleet totals.
  std::uint64_t handoffs = 0;
  double recovery = 0.0, redo_sec = 0.0;
  util::Bytes redo_bytes = 0;
  for (const FleetClientResult& r : m.clients) {
    handoffs += static_cast<std::uint64_t>(r.handoffs);
    recovery += r.recovery.sec();
    redo_sec += r.redo_sec;
    redo_bytes += r.redo_bytes;
    if (r.handoffs > 0) {
      EXPECT_GT(r.recovery.sec(), 0.0);
    } else {
      EXPECT_EQ(r.recovery.sec(), 0.0);
      EXPECT_EQ(r.redo_bytes, 0);
    }
  }
  EXPECT_EQ(handoffs, m.crash_handoffs);
  EXPECT_DOUBLE_EQ(recovery, m.recovery_sec_total);
  EXPECT_DOUBLE_EQ(redo_sec, m.redo_sec_total);
  EXPECT_EQ(redo_bytes, m.redo_bytes_total);

  // The whole crashed run replays bitwise across --jobs.
  cfg.jobs = 4;
  FleetMetrics parallel = run_fleet(test_corpus(), cfg);
  expect_sharded_identical(m, parallel);
}

TEST(ShardedFleet, RestartedVictimRejoinsWithAColdL1) {
  // Drive ShardedFleet directly so the store tiers are observable: every
  // arrival lands before the restart, so after the crash clears the
  // victim's L1 nothing repopulates it — the snapshot must show it empty
  // while survivors stay warm. Heavy fetch costs keep the victim's work
  // in flight at the crash instant.
  FleetConfig cfg = sharded_config(4, 16);
  cfg.compute.costs.fetch_base = util::Duration::millis(10);
  cfg.shard_faults = sim::FaultPlan::parse("crash=0.02,restart=0.05,seed=9");
  cfg.validate();

  const auto& corpus = test_corpus();
  const int K = 16;
  std::vector<double> arrival_sec;
  std::vector<std::uint32_t> page_index;
  for (int i = 0; i < K; ++i) {
    arrival_sec.push_back(0.001 * i);
    page_index.push_back(static_cast<std::uint32_t>(i) %
                         static_cast<std::uint32_t>(corpus.size()));
  }
  MacroColumns cols;
  cols.arrival_sec = arrival_sec;
  cols.page_index = page_index;

  sim::Scheduler sched;
  ShardedFleet fleet(sched, cfg);
  MacroOut out(static_cast<std::size_t>(K));
  fleet.run(corpus, cols, out);

  int victim = ShardedFleet::crash_victim(cfg);
  ShardSnapshot snap = fleet.snapshot();
  ASSERT_EQ(snap.l1.size(), 4u);
  EXPECT_EQ(snap.l1[static_cast<std::size_t>(victim)].entries(), 0u);
  std::size_t survivor_entries = 0;
  for (int s = 0; s < 4; ++s) {
    if (s != victim) {
      survivor_entries += snap.l1[static_cast<std::size_t>(s)].entries();
    }
  }
  EXPECT_GT(survivor_entries, 0u);
  // The L2 kept the victim's publications (request-time warming): the
  // crash cost an L1, not the tier's knowledge.
  EXPECT_GT(snap.l2.entries(), 0u);
  for (int i = 0; i < K; ++i) {
    EXPECT_EQ(out.shed[static_cast<std::size_t>(i)], 0);
    EXPECT_GT(out.done_sec[static_cast<std::size_t>(i)], 0.0);
  }
  ShardedFleetStats st = fleet.stats();
  EXPECT_GT(st.crash_handoffs, 0u);
  EXPECT_EQ(st.crash_killed_tasks, st.compute.crash_killed);
}

// ---------------------------------------------------------------------
// Streaming mode composition (sketches, epoch planning, counters)

TEST(ShardedStreaming, EpochParallelShardedIdenticalAcrossJobs) {
  // Sparse arrivals, no crash: the planner may still split a sharded
  // fleet, and any --jobs value must fold to bitwise-equal metrics,
  // including the new tier stats and exact fault counters.
  FleetConfig cfg = sharded_config(4, 12);
  cfg.mean_interarrival = util::Duration::seconds(5);
  cfg.streaming = true;
  cfg.epoch_min_sessions = 2;

  cfg.jobs = 1;
  FleetMetrics serial = run_fleet(test_corpus(), cfg);
  cfg.jobs = 4;
  FleetMetrics parallel = run_fleet(test_corpus(), cfg);

  EXPECT_GT(serial.epochs, 1);
  EXPECT_TRUE(serial.epoch_parallel);
  EXPECT_EQ(serial.epoch_degrade_reason, "");
  EXPECT_TRUE(serial.streaming);
  EXPECT_TRUE(serial.clients.empty());
  EXPECT_EQ(serial.olt_stats, parallel.olt_stats);
  EXPECT_EQ(serial.wait_stats, parallel.wait_stats);
  EXPECT_EQ(serial.recovery_stats, parallel.recovery_stats);
  EXPECT_EQ(serial.store.hits, parallel.store.hits);
  EXPECT_EQ(serial.store.misses, parallel.store.misses);
  ASSERT_EQ(serial.l1_shards.size(), 4u);
  ASSERT_EQ(parallel.l1_shards.size(), 4u);
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(serial.l1_shards[s].hits, parallel.l1_shards[s].hits);
    EXPECT_EQ(serial.l1_shards[s].misses, parallel.l1_shards[s].misses);
  }
  EXPECT_EQ(serial.l2.hits, parallel.l2.hits);
  EXPECT_EQ(serial.l2.misses, parallel.l2.misses);
  EXPECT_EQ(serial.compute.transfer_busy_sec,
            parallel.compute.transfer_busy_sec);
  EXPECT_EQ(serial.fault_retransmits, parallel.fault_retransmits);
  EXPECT_EQ(serial.fault_drops, parallel.fault_drops);
  EXPECT_EQ(serial.fault_deferrals, parallel.fault_deferrals);
  EXPECT_EQ(serial.direct_fetches, parallel.direct_fetches);
  EXPECT_EQ(serial.degraded_sessions, parallel.degraded_sessions);
}

TEST(ShardedStreaming, CrashDegradesToSerialAndMatchesExactCounters) {
  // A crash couples every session to the crash instant, so the planner
  // must refuse to split — and streaming totals must equal exact mode's
  // (satellite: fault/degradation counters are exact sums in both modes).
  FleetConfig cfg = sharded_config(4, 24);
  cfg.shard_faults = sim::FaultPlan::parse("crash=0.024,restart=0.05,seed=9");

  FleetMetrics exact = run_fleet(test_corpus(), cfg);
  cfg.streaming = true;
  cfg.epoch_min_sessions = 2;
  FleetMetrics stream = run_fleet(test_corpus(), cfg);

  EXPECT_EQ(stream.epochs, 1);
  EXPECT_FALSE(stream.epoch_parallel);
  EXPECT_NE(stream.epoch_degrade_reason.find("crash"), std::string::npos);

  EXPECT_EQ(stream.admitted, exact.admitted);
  EXPECT_EQ(stream.shed, exact.shed);
  EXPECT_EQ(stream.crash_handoffs, exact.crash_handoffs);
  EXPECT_EQ(stream.crash_killed_tasks, exact.crash_killed_tasks);
  EXPECT_EQ(stream.redo_bytes_total, exact.redo_bytes_total);
  EXPECT_DOUBLE_EQ(stream.redo_sec_total, exact.redo_sec_total);
  EXPECT_DOUBLE_EQ(stream.recovery_sec_total, exact.recovery_sec_total);
  EXPECT_DOUBLE_EQ(stream.recovery_sec_max, exact.recovery_sec_max);
  EXPECT_EQ(stream.store.hits, exact.store.hits);
  EXPECT_EQ(stream.store.misses, exact.store.misses);
  EXPECT_EQ(stream.l2.hits, exact.l2.hits);
  EXPECT_EQ(stream.l2.misses, exact.l2.misses);
  EXPECT_EQ(stream.fault_retransmits, exact.fault_retransmits);
  EXPECT_EQ(stream.fault_drops, exact.fault_drops);
  EXPECT_EQ(stream.fault_deferrals, exact.fault_deferrals);
  EXPECT_EQ(stream.direct_fetches, exact.direct_fetches);
  EXPECT_EQ(stream.degraded_sessions, exact.degraded_sessions);

  // The recovery sketch holds exactly the migrated sessions.
  EXPECT_EQ(stream.recovery_stats.count(), exact.crash_handoffs);
  EXPECT_GT(stream.recovery_stats.max(), 0.0);
}

TEST(ShardedStreaming, FaultCountersAreExactSumsInBothModes) {
  // Satellite 1 under an actual session-layer fault plan: the integer
  // counters come from summing RunResult fields, never from sketches, so
  // exact and streaming modes agree to the bit.
  FleetConfig cfg = sharded_config(2, 8);
  cfg.base.testbed.faults =
      sim::FaultPlan::parse("loss=0.05,blackout=1+0.5,seed=3");

  FleetMetrics exact = run_fleet(test_corpus(), cfg);
  cfg.streaming = true;
  cfg.epoch_min_sessions = 2;
  FleetMetrics stream = run_fleet(test_corpus(), cfg);

  // The blackout plan must actually bite somewhere, or this test is
  // vacuous.
  EXPECT_GT(exact.fault_deferrals + exact.fault_drops +
                exact.fault_retransmits + exact.degraded_sessions +
                exact.direct_fetches,
            0u);
  EXPECT_EQ(stream.fault_retransmits, exact.fault_retransmits);
  EXPECT_EQ(stream.fault_drops, exact.fault_drops);
  EXPECT_EQ(stream.fault_deferrals, exact.fault_deferrals);
  EXPECT_EQ(stream.direct_fetches, exact.direct_fetches);
  EXPECT_EQ(stream.degraded_sessions, exact.degraded_sessions);
}

// ---------------------------------------------------------------------
// CLI parsing (bench/common): --l2-cost's reject-garbage contract

TEST(ShardCli, ParseNonnegDoubleStrict) {
  EXPECT_DOUBLE_EQ(bench::parse_nonneg_double("--l2-cost", "0"), 0.0);
  EXPECT_DOUBLE_EQ(bench::parse_nonneg_double("--l2-cost", "4.5"), 4.5);
  EXPECT_DOUBLE_EQ(bench::parse_nonneg_double("--l2-cost", ".5"), 0.5);
  EXPECT_DOUBLE_EQ(bench::parse_nonneg_double("--l2-cost", "2e1"), 20.0);
  for (const char* bad : {"", "-1", "-0", "+2", "inf", "nan", "abc", "4.5x",
                          " 1", "0x10", "1..2"}) {
    SCOPED_TRACE(std::string("input '") + bad + "'");
    EXPECT_THROW(bench::parse_nonneg_double("--l2-cost", bad),
                 std::invalid_argument);
  }
}

}  // namespace
}  // namespace parcel::fleet
