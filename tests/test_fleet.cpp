#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/experiment.hpp"
#include "fleet/epoch_plan.hpp"
#include "fleet/fleet_runner.hpp"
#include "fleet/proxy_compute.hpp"
#include "fleet/shared_store.hpp"
#include "replay/replay_store.hpp"
#include "sim/scheduler.hpp"
#include "web/generator.hpp"
#include "web/object.hpp"

namespace parcel::fleet {
namespace {

// A small replayed corpus shared by the fleet tests (same pattern as
// test_parallel_runner: static store keeps the snapshots alive).
const std::vector<const web::WebPage*>& test_corpus() {
  static std::vector<const web::WebPage*>* corpus = [] {
    static replay::ReplayStore store;
    auto* pages = new std::vector<const web::WebPage*>;
    for (int p = 0; p < 2; ++p) {
      web::PageSpec spec;
      spec.site = "fleet" + std::to_string(p) + ".example.com";
      spec.object_count = 24;
      spec.total_bytes = util::kib(300);
      spec.seed = 40 + static_cast<std::uint64_t>(p);
      store.record(web::PageGenerator::generate(spec));
      pages->push_back(
          store.find("http://fleet" + std::to_string(p) + ".example.com/"));
    }
    return pages;
  }();
  return *corpus;
}

const web::WebPage& test_page() { return *test_corpus()[0]; }

// Synthetic text object whose content the test owns (store keys on the
// content address, so each object needs its own string).
web::WebObject text_object(const std::string& url, util::Bytes size) {
  web::WebObject object;
  object.url = net::Url::parse(url);
  object.type = web::ObjectType::kHtml;
  object.size = size;
  object.content = std::make_shared<const std::string>(
      std::string(static_cast<std::size_t>(size), 'x'));
  return object;
}

web::WebObject opaque_object(const std::string& url, util::Bytes size) {
  web::WebObject object;
  object.url = net::Url::parse(url);
  object.type = web::ObjectType::kImage;
  object.size = size;
  return object;
}

// The single-run determinism contract, borrowed from the parallel-runner
// tests: bitwise, not approximate.
void expect_identical(const core::RunResult& a, const core::RunResult& b) {
  EXPECT_EQ(a.scheme, b.scheme);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.olt.sec(), b.olt.sec());
  EXPECT_EQ(a.tlt.sec(), b.tlt.sec());
  EXPECT_EQ(a.radio.total.j(), b.radio.total.j());
  EXPECT_EQ(a.radio.cr.j(), b.radio.cr.j());
  EXPECT_EQ(a.cpu_busy.sec(), b.cpu_busy.sec());
  EXPECT_EQ(a.radio_http_requests, b.radio_http_requests);
  EXPECT_EQ(a.tcp_connections, b.tcp_connections);
  EXPECT_EQ(a.objects_loaded, b.objects_loaded);
  EXPECT_EQ(a.downlink_bytes, b.downlink_bytes);
  EXPECT_EQ(a.uplink_bytes, b.uplink_bytes);
}

// Per-client sink records plus the exact percentiles taken from them.
void expect_clients_identical(const FleetMetrics& a, const FleetMetrics& b) {
  ASSERT_EQ(a.clients.size(), b.clients.size());
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.shed, b.shed);
  for (std::size_t i = 0; i < a.clients.size(); ++i) {
    SCOPED_TRACE("client " + std::to_string(i));
    EXPECT_EQ(a.clients[i].client, b.clients[i].client);
    EXPECT_EQ(a.clients[i].shed, b.clients[i].shed);
    EXPECT_EQ(a.clients[i].queue_wait.sec(), b.clients[i].queue_wait.sec());
    EXPECT_EQ(a.clients[i].proxy_done.sec(), b.clients[i].proxy_done.sec());
    EXPECT_EQ(a.clients[i].olt.sec(), b.clients[i].olt.sec());
    EXPECT_EQ(a.clients[i].tlt.sec(), b.clients[i].tlt.sec());
    expect_identical(a.clients[i].session, b.clients[i].session);
  }
  EXPECT_EQ(a.olt_p50, b.olt_p50);
  EXPECT_EQ(a.olt_p95, b.olt_p95);
  EXPECT_EQ(a.olt_p99, b.olt_p99);
  EXPECT_EQ(a.wait_p50, b.wait_p50);
  EXPECT_EQ(a.wait_p95, b.wait_p95);
  EXPECT_EQ(a.wait_p99, b.wait_p99);
}

void expect_fleet_identical(const FleetMetrics& a, const FleetMetrics& b) {
  expect_clients_identical(a, b);
  EXPECT_EQ(a.olt_p95, b.olt_p95);
  EXPECT_EQ(a.olt_p99, b.olt_p99);
  EXPECT_EQ(a.wait_p95, b.wait_p95);
  EXPECT_EQ(a.proxy_busy_sec, b.proxy_busy_sec);
  EXPECT_EQ(a.fetch_parse_sec, b.fetch_parse_sec);
  EXPECT_EQ(a.energy_j_total, b.energy_j_total);
  EXPECT_EQ(a.store.hits, b.store.hits);
  EXPECT_EQ(a.store.misses, b.store.misses);
  EXPECT_EQ(a.store.bytes_saved, b.store.bytes_saved);
  EXPECT_EQ(a.compute.completed, b.compute.completed);
}

// ---------------------------------------------------------------------
// SharedObjectStore

TEST(SharedStore, FirstSessionMissesSecondSessionHits) {
  SharedObjectStore store;
  const web::WebPage& page = test_page();
  util::Bytes total = 0;
  for (const web::WebObject* object : page.objects()) {
    EXPECT_FALSE(store.contains(*object));
    SharedObjectStore::Outcome outcome = store.request(*object);
    EXPECT_FALSE(outcome.hit);
    total += object->size;
  }
  std::uint64_t n = store.stats().misses;
  EXPECT_EQ(n, page.objects().size());
  EXPECT_EQ(store.stats().hits, 0u);
  EXPECT_EQ(store.stats().bytes_stored, total);

  util::Bytes saved = 0;
  for (const web::WebObject* object : page.objects()) {
    EXPECT_TRUE(store.contains(*object));
    SharedObjectStore::Outcome outcome = store.request(*object);
    EXPECT_TRUE(outcome.hit);
    saved += outcome.bytes_saved;
  }
  EXPECT_EQ(store.stats().hits, n);
  EXPECT_EQ(store.stats().misses, n);
  EXPECT_EQ(store.stats().bytes_saved, total);
  EXPECT_EQ(saved, total);
  EXPECT_DOUBLE_EQ(store.stats().hit_rate(), 0.5);
}

TEST(SharedStore, TextAndOpaqueKeysAreIndependent) {
  SharedObjectStore store;
  web::WebObject text = text_object("http://k.example.com/a.html", 100);
  web::WebObject image = opaque_object("http://k.example.com/a.html", 100);
  EXPECT_FALSE(store.request(text).hit);
  // Same URL and size, but an opaque body is a different artifact.
  EXPECT_FALSE(store.request(image).hit);
  EXPECT_TRUE(store.request(text).hit);
  EXPECT_TRUE(store.request(image).hit);
  EXPECT_EQ(store.entries(), 2u);
}

TEST(SharedStore, ClearDropsEntriesKeepsCounters) {
  SharedObjectStore store;
  web::WebObject a = text_object("http://c.example.com/a", 64);
  store.request(a);
  store.request(a);
  store.clear();
  EXPECT_EQ(store.entries(), 0u);
  EXPECT_EQ(store.stats().bytes_stored, 0);
  EXPECT_FALSE(store.contains(a));
  // Run totals survive a clear (hits/misses are cumulative accounting).
  EXPECT_EQ(store.stats().hits, 1u);
  EXPECT_EQ(store.stats().misses, 1u);
}

// ---------------------------------------------------------------------
// ProxyCompute

ProxyComputeConfig flat_cost_config(int workers, double task_sec) {
  ProxyComputeConfig cfg;
  cfg.workers = workers;
  cfg.costs = TaskCosts::idle();
  cfg.costs.fetch_base = util::Duration::seconds(task_sec);
  cfg.costs.parse_base = util::Duration::seconds(task_sec);
  cfg.costs.bundle_base = util::Duration::seconds(task_sec);
  return cfg;
}

TEST(ProxyCompute, FifoWaitsAreExactWithOneWorker) {
  sim::Scheduler sched;
  ProxyCompute compute(sched, flat_cost_config(1, 0.010));
  std::vector<double> waited, finished;
  auto done = [&](util::TimePoint f, util::Duration w) {
    finished.push_back(f.sec());
    waited.push_back(w.sec());
  };
  for (int i = 0; i < 3; ++i) {
    compute.submit(TaskKind::kFetch, 0, done);
  }
  sched.run();
  ASSERT_EQ(waited.size(), 3u);
  EXPECT_DOUBLE_EQ(waited[0], 0.000);
  EXPECT_DOUBLE_EQ(waited[1], 0.010);
  EXPECT_DOUBLE_EQ(waited[2], 0.020);
  EXPECT_DOUBLE_EQ(finished[2], 0.030);
  EXPECT_EQ(compute.stats().completed, 3u);
  EXPECT_DOUBLE_EQ(compute.stats().fetch_busy_sec, 0.030);
  EXPECT_EQ(compute.idle_workers(), 1);
  EXPECT_EQ(compute.queued(), 0u);
}

TEST(ProxyCompute, FifoBreaksTiesBySubmissionOrder) {
  sim::Scheduler sched;
  ProxyCompute compute(sched, flat_cost_config(1, 0.005));
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    compute.submit(TaskKind::kParse, 0,
                   [&order, i](util::TimePoint, util::Duration) {
                     order.push_back(i);
                   });
  }
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(ProxyCompute, TaskQueueAdmissionBound) {
  sim::Scheduler sched;
  ProxyComputeConfig cfg = flat_cost_config(1, 1.0);
  cfg.max_queue = 2;
  ProxyCompute compute(sched, cfg);
  auto nop = [](util::TimePoint, util::Duration) {};
  compute.submit(TaskKind::kFetch, 0, nop);  // into service
  EXPECT_TRUE(compute.can_accept(2));
  compute.submit(TaskKind::kFetch, 0, nop);
  compute.submit(TaskKind::kFetch, 0, nop);
  EXPECT_EQ(compute.queued(), 2u);
  EXPECT_FALSE(compute.can_accept(1));
  sched.run();
  EXPECT_TRUE(compute.can_accept(1));
}

TEST(ProxyCompute, BacklogAdmissionBound) {
  sim::Scheduler sched;
  ProxyComputeConfig cfg = flat_cost_config(1, 0.040);
  cfg.max_backlog = util::Duration::millis(50);
  ProxyCompute compute(sched, cfg);
  auto nop = [](util::TimePoint, util::Duration) {};
  compute.submit(TaskKind::kFetch, 0, nop);  // in service, no backlog
  EXPECT_DOUBLE_EQ(compute.backlog().sec(), 0.0);
  EXPECT_TRUE(compute.can_accept(1, util::Duration::millis(40)));
  compute.submit(TaskKind::kFetch, 0, nop);  // queued: 40 ms backlog
  EXPECT_DOUBLE_EQ(compute.backlog().sec(), 0.040);
  EXPECT_FALSE(compute.can_accept(1, util::Duration::millis(20)));
  EXPECT_TRUE(compute.can_accept(1, util::Duration::millis(10)));
  sched.run();
  EXPECT_DOUBLE_EQ(compute.backlog().sec(), 0.0);
}

TEST(ProxyCompute, BlackoutDefersServiceStart) {
  sim::Scheduler sched;
  sim::FaultPlan plan;
  plan.blackouts.push_back(sim::FaultWindow{util::TimePoint::origin(),
                                            util::Duration::millis(100)});
  ProxyCompute compute(sched, flat_cost_config(1, 0.010), &plan);
  double waited = -1.0, finished = -1.0;
  compute.submit(TaskKind::kFetch, 0,
                 [&](util::TimePoint f, util::Duration w) {
                   finished = f.sec();
                   waited = w.sec();
                 });
  sched.run();
  // Submitted at t=0 into the outage: service starts at the window's end.
  EXPECT_DOUBLE_EQ(waited, 0.100);
  EXPECT_DOUBLE_EQ(finished, 0.110);
}

TEST(ProxyCompute, ValidateRejectsNonsense) {
  sim::Scheduler sched;
  ProxyComputeConfig bad_workers;
  bad_workers.workers = 0;
  EXPECT_THROW(ProxyCompute(sched, bad_workers), std::invalid_argument);
  ProxyComputeConfig bad_cost;
  bad_cost.costs.parse_base = util::Duration::seconds(-1.0);
  EXPECT_THROW(ProxyCompute(sched, bad_cost), std::invalid_argument);
  ProxyComputeConfig bad_backlog;
  bad_backlog.max_backlog = util::Duration::seconds(-0.5);
  EXPECT_THROW(ProxyCompute(sched, bad_backlog), std::invalid_argument);
}

// ---------------------------------------------------------------------
// FleetRunner

TEST(FleetRunner, DeriveClientsIsDeterministicAndRoundRobin) {
  FleetConfig cfg;
  cfg.clients = 6;
  cfg.arrival_seed = 99;
  ClientColumns a = derive_client_columns(cfg, 2);
  ClientColumns b = derive_client_columns(cfg, 2);
  ASSERT_EQ(a.size(), 6u);
  EXPECT_EQ(a.arrival_sec[0], 0.0);
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a.arrival_sec[k], b.arrival_sec[k]);
    EXPECT_EQ(a.seed[k], b.seed[k]);
    EXPECT_EQ(a.fade_seed[k], b.fade_seed[k]);
    EXPECT_EQ(a.page_index[k], k % 2);
    if (k > 0) {
      EXPECT_GE(a.arrival_sec[k], a.arrival_sec[k - 1]);
    }
  }
  // Distinct per-client seeds (pure function of the client index).
  EXPECT_NE(a.seed[0], a.seed[1]);
  EXPECT_NE(a.fade_seed[0], a.fade_seed[1]);

  FleetConfig bad = cfg;
  bad.clients = 0;
  EXPECT_THROW((void)derive_client_columns(bad, 2), std::invalid_argument);
  EXPECT_THROW((void)derive_client_columns(cfg, 0), std::invalid_argument);
}

TEST(FleetRunner, SingleClientIdleComputeReproducesExperimentRunner) {
  // The K=1 regression pin (ISSUE 5 satellite): an idle proxy and a lone
  // client must reproduce the single-client harness byte-for-byte.
  FleetConfig cfg;
  cfg.clients = 1;
  cfg.scheme = core::Scheme::kParcelInd;
  cfg.compute = ProxyComputeConfig::idle();
  cfg.base.seed = 7;
  FleetMetrics metrics = run_fleet(test_corpus(), cfg);

  ASSERT_EQ(metrics.admitted, 1);
  EXPECT_EQ(metrics.shed, 0);
  // The sink-keeping run fills the fold surface too.
  EXPECT_EQ(metrics.sessions_ok, 1u);
  EXPECT_EQ(metrics.epochs, 1);
  const FleetClientResult& r = metrics.clients[0];
  EXPECT_EQ(r.queue_wait.sec(), 0.0);

  core::RunConfig expected_cfg = cfg.base;
  expected_cfg.seed = cfg.base.seed + 1;  // derive_client_columns, k = 0
  expected_cfg.testbed.fade_seed = cfg.base.testbed.fade_seed + 1;
  core::RunResult expected = core::ExperimentRunner::run(
      core::Scheme::kParcelInd, test_page(), expected_cfg);
  expect_identical(r.session, expected);
  // With zero waits the fleet-adjusted timeline IS the session timeline.
  EXPECT_EQ(r.olt.sec(), expected.olt.sec());
  EXPECT_EQ(r.tlt.sec(), expected.tlt.sec());
}

TEST(FleetRunner, ExplicitSpecsMirrorRunRoundsByteForByte) {
  // Same grid, two harnesses: run_rounds' (round x scheme) sweep vs one
  // derived fleet per scheme i. Client k's seeds are base.seed +
  // 1000003 k + 1 and base.fade_seed + 7919 k + 1; offsetting the bases
  // by 97 i - 1 and 31 i gives exactly run_rounds' seeds for round k.
  std::vector<core::Scheme> schemes{core::Scheme::kDir,
                                    core::Scheme::kParcelInd};
  core::RoundsConfig rounds_cfg;
  rounds_cfg.rounds = 2;
  rounds_cfg.discard_first_round = false;
  rounds_cfg.base.seed = 21;
  core::RoundsOutcome rounds =
      core::run_rounds(test_page(), schemes, rounds_cfg);
  ASSERT_EQ(rounds.rounds_kept, 2);

  std::vector<const web::WebPage*> corpus{&test_page()};
  for (std::size_t i = 0; i < schemes.size(); ++i) {
    FleetConfig cfg;
    cfg.clients = rounds_cfg.rounds;
    cfg.scheme = schemes[i];
    cfg.compute = ProxyComputeConfig::idle();
    cfg.base = rounds_cfg.base;
    cfg.base.seed = rounds_cfg.base.seed + 97ULL * i - 1;
    cfg.base.testbed.fade_seed = rounds_cfg.base.testbed.fade_seed + 31ULL * i;
    FleetMetrics metrics = run_fleet(corpus, cfg);
    ASSERT_EQ(metrics.admitted, rounds_cfg.rounds);

    for (int round = 0; round < rounds_cfg.rounds; ++round) {
      SCOPED_TRACE("round " + std::to_string(round) + " " +
                   core::to_string(schemes[i]));
      const auto k = static_cast<std::size_t>(round);
      expect_identical(metrics.clients[k].session,
                       rounds.series.at(schemes[i]).runs[k]);
    }
  }
}

TEST(FleetRunner, Jobs4BitwiseIdenticalToJobs1) {
  FleetConfig cfg;
  cfg.clients = 8;
  cfg.arrival_seed = 5;
  cfg.mean_interarrival = util::Duration::millis(50);
  cfg.compute.workers = 2;  // contended: real waits in the results
  cfg.base.seed = 31;

  cfg.jobs = 1;
  FleetMetrics serial = run_fleet(test_corpus(), cfg);
  cfg.jobs = 4;
  FleetMetrics parallel = run_fleet(test_corpus(), cfg);
  expect_fleet_identical(serial, parallel);
  // Contention actually happened (the identity wasn't vacuous).
  EXPECT_GT(serial.wait_p95, 0.0);
}

TEST(FleetRunner, SharedStoreHitRatePin) {
  // K=8 round-robin over 2 pages: clients 0-1 warm the store, clients
  // 2-7 hit everything. Exact counts, not approximations.
  FleetConfig cfg;
  cfg.clients = 8;
  cfg.compute = ProxyComputeConfig::idle();
  cfg.base.seed = 3;
  FleetMetrics metrics = run_fleet(test_corpus(), cfg);

  std::uint64_t objects_per_round = 0;
  util::Bytes bytes_per_round = 0;
  for (const web::WebPage* page : test_corpus()) {
    objects_per_round += page->objects().size();
    for (const web::WebObject* object : page->objects()) {
      bytes_per_round += object->size;
    }
  }
  ASSERT_EQ(metrics.admitted, 8);
  EXPECT_EQ(metrics.store.misses, objects_per_round);
  EXPECT_EQ(metrics.store.hits, 3 * objects_per_round);
  EXPECT_EQ(metrics.store.bytes_saved, 3 * bytes_per_round);
  EXPECT_DOUBLE_EQ(metrics.store.hit_rate(), 0.75);
}

TEST(FleetRunner, BlackoutFillsQueueAndShedsLateArrivals) {
  // During a proxy-side blackout nothing dispatches, so client 0's batch
  // camps in the queue and every later arrival is refused 503-style.
  const web::WebPage& page = test_page();
  std::size_t batch = 1;
  for (const web::WebObject* object : page.objects()) {
    batch += web::is_parseable(object->type) ? 2u : 1u;
  }

  FleetConfig cfg;
  cfg.clients = 5;
  cfg.mean_interarrival = util::Duration::millis(50);
  cfg.compute = ProxyComputeConfig::idle();
  cfg.compute.max_queue = batch;
  cfg.base.seed = 11;
  std::vector<const web::WebPage*> corpus{&page};

  // Control: no faults, idle compute — the queue never fills.
  FleetMetrics calm = run_fleet(corpus, cfg);
  EXPECT_EQ(calm.shed, 0);
  EXPECT_EQ(calm.admitted, 5);

  // Blackout spanning every arrival: client 0's cold batch camps in the
  // queue. Client 1 still fits — the warmed store shrinks its batch to a
  // single bundle task — and everyone after that is refused.
  cfg.base.testbed.faults = sim::FaultPlan::parse("blackout=0+10");
  FleetMetrics stormy = run_fleet(corpus, cfg);
  EXPECT_EQ(stormy.admitted, 2);
  EXPECT_EQ(stormy.shed, 3);
  EXPECT_EQ(stormy.clients[0].queue_wait.sec(), 10.0);
  EXPECT_GT(stormy.clients[1].queue_wait.sec(), 9.0);
  for (std::size_t i = 2; i < stormy.clients.size(); ++i) {
    EXPECT_TRUE(stormy.clients[i].shed);
    EXPECT_EQ(stormy.clients[i].queue_wait.sec(), 0.0);
  }
  // Shed clients never touched the store (admission only peeks): client
  // 0 supplied every miss, client 1 every hit.
  std::uint64_t objects = page.objects().size();
  EXPECT_EQ(stormy.store.misses, objects);
  EXPECT_EQ(stormy.store.hits, objects);
}

// ---------------------------------------------------------------------
// Streaming mode + epoch partition (ISSUE 7)

// Exact nearest-rank percentile over the exact-mode per-client results,
// the statistic the streaming sketch approximates.
double nearest_rank(std::vector<double> values, double pct) {
  std::sort(values.begin(), values.end());
  auto n = static_cast<double>(values.size());
  auto rank = static_cast<std::size_t>(
      std::max(1.0, std::min(n, std::ceil(pct / 100.0 * n))));
  return values[rank - 1];
}

void expect_store_identical(const SharedObjectStore::Stats& a,
                            const SharedObjectStore::Stats& b) {
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.bytes_saved, b.bytes_saved);
  EXPECT_EQ(a.bytes_stored, b.bytes_stored);
}

// Full bitwise comparison of everything the folds produce: integer
// counters, tier and compute stats, sketches (integer bin counts), and
// double sums — the fold order is fixed by client and epoch index, so
// equality is exact, not approximate.
void expect_folds_identical(const FleetMetrics& a, const FleetMetrics& b) {
  EXPECT_EQ(a.epochs, b.epochs);
  EXPECT_EQ(a.epoch_parallel, b.epoch_parallel);
  EXPECT_EQ(a.epoch_degrade_reason, b.epoch_degrade_reason);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_EQ(a.sessions_ok, b.sessions_ok);
  EXPECT_EQ(a.olt_stats, b.olt_stats);
  EXPECT_EQ(a.tlt_stats, b.tlt_stats);
  EXPECT_EQ(a.wait_stats, b.wait_stats);
  EXPECT_EQ(a.energy_stats, b.energy_stats);
  EXPECT_EQ(a.recovery_stats, b.recovery_stats);
  EXPECT_EQ(a.energy_j_total, b.energy_j_total);
  EXPECT_EQ(a.proxy_busy_sec, b.proxy_busy_sec);
  EXPECT_EQ(a.fetch_parse_sec, b.fetch_parse_sec);
  expect_store_identical(a.store, b.store);
  ASSERT_EQ(a.l1_shards.size(), b.l1_shards.size());
  for (std::size_t s = 0; s < a.l1_shards.size(); ++s) {
    expect_store_identical(a.l1_shards[s], b.l1_shards[s]);
  }
  expect_store_identical(a.l2, b.l2);
  EXPECT_EQ(a.compute.completed, b.compute.completed);
  EXPECT_EQ(a.compute.fetch_busy_sec, b.compute.fetch_busy_sec);
  EXPECT_EQ(a.compute.parse_busy_sec, b.compute.parse_busy_sec);
  EXPECT_EQ(a.compute.bundle_busy_sec, b.compute.bundle_busy_sec);
  EXPECT_EQ(a.compute.transfer_busy_sec, b.compute.transfer_busy_sec);
  EXPECT_EQ(a.compute.crash_killed, b.compute.crash_killed);
  EXPECT_EQ(a.compute.last_finish.sec(), b.compute.last_finish.sec());
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

// Two streaming runs: the folds plus the sketch-backed percentiles.
void expect_streaming_identical(const FleetMetrics& a, const FleetMetrics& b) {
  EXPECT_TRUE(a.streaming);
  EXPECT_TRUE(b.streaming);
  expect_folds_identical(a, b);
  EXPECT_EQ(a.olt_p50, b.olt_p50);
  EXPECT_EQ(a.olt_p95, b.olt_p95);
  EXPECT_EQ(a.olt_p99, b.olt_p99);
  EXPECT_EQ(a.wait_p95, b.wait_p95);
}

TEST(FleetStreaming, MatchesExactModeWithinDocumentedBound) {
  // Same fleet, both pipelines: integer counters must agree exactly;
  // sketch-backed quantiles within the documented relative-error bound of
  // the exact nearest-rank statistic; double sums to fold-order slack.
  FleetConfig cfg;
  cfg.clients = 12;
  cfg.arrival_seed = 5;
  cfg.mean_interarrival = util::Duration::millis(50);
  cfg.compute.workers = 2;  // contended: nonzero waits in both pipelines
  cfg.base.seed = 31;

  FleetMetrics exact = run_fleet(test_corpus(), cfg);
  cfg.streaming = true;
  cfg.epoch_min_sessions = 2;
  FleetMetrics stream = run_fleet(test_corpus(), cfg);

  EXPECT_TRUE(stream.streaming);
  EXPECT_TRUE(stream.clients.empty());  // never materialized
  EXPECT_EQ(stream.admitted, exact.admitted);
  EXPECT_EQ(stream.shed, exact.shed);
  EXPECT_EQ(stream.store.hits, exact.store.hits);
  EXPECT_EQ(stream.store.misses, exact.store.misses);
  EXPECT_EQ(stream.store.bytes_saved, exact.store.bytes_saved);
  EXPECT_EQ(stream.store.bytes_stored, exact.store.bytes_stored);
  EXPECT_EQ(stream.compute.completed, exact.compute.completed);
  EXPECT_EQ(stream.sessions_ok, static_cast<std::uint64_t>(exact.admitted));
  EXPECT_NEAR(stream.energy_j_total, exact.energy_j_total,
              1e-9 * exact.energy_j_total);
  EXPECT_NEAR(stream.proxy_busy_sec, exact.proxy_busy_sec,
              1e-9 * exact.proxy_busy_sec + 1e-12);

  std::vector<double> olts, waits;
  for (const FleetClientResult& r : exact.clients) {
    if (r.shed) continue;
    olts.push_back(r.olt.sec());
    waits.push_back(r.queue_wait.sec());
  }
  double bound = stream.olt_stats.histogram().relative_error_bound();
  for (double pct : {50.0, 95.0, 99.0}) {
    double e = nearest_rank(olts, pct);
    EXPECT_NEAR(stream.olt_stats.quantile(pct), e, bound * e + 1e-12);
  }
  double w95 = nearest_rank(waits, 95.0);
  EXPECT_NEAR(stream.wait_p95, w95, bound * w95 + 1e-12);
}

TEST(FleetStreaming, EpochParallelBitwiseIdenticalAcrossJobs) {
  // Sparse arrivals + small min epoch: the planner must find several
  // non-interacting epochs, and any --jobs value must produce bitwise
  // identical metrics (integer merges; fixed epoch-order double folds).
  FleetConfig cfg;
  cfg.clients = 10;
  cfg.arrival_seed = 7;
  cfg.mean_interarrival = util::Duration::seconds(5);  // drained between
  cfg.base.seed = 13;
  cfg.streaming = true;
  cfg.epoch_min_sessions = 2;

  cfg.jobs = 1;
  FleetMetrics serial = run_fleet(test_corpus(), cfg);
  cfg.jobs = 4;
  FleetMetrics parallel = run_fleet(test_corpus(), cfg);

  // Non-vacuous: the plan actually split and ran epoch-parallel.
  EXPECT_GT(serial.epochs, 1);
  EXPECT_TRUE(serial.epoch_parallel);
  EXPECT_EQ(serial.epoch_degrade_reason, "");
  expect_streaming_identical(serial, parallel);
}

TEST(FleetStreaming, AdmissionBoundsDegradeToOneSerialEpoch) {
  // Shedding couples the store to live queue state, so the planner must
  // refuse to split — and the streaming result still matches exact mode.
  FleetConfig cfg;
  cfg.clients = 6;
  cfg.mean_interarrival = util::Duration::millis(1);
  cfg.compute.workers = 1;
  cfg.compute.max_queue = 8;  // admission bound -> interaction possible
  cfg.base.seed = 17;

  FleetMetrics exact = run_fleet(test_corpus(), cfg);
  cfg.streaming = true;
  FleetMetrics stream = run_fleet(test_corpus(), cfg);
  EXPECT_EQ(stream.epochs, 1);
  EXPECT_FALSE(stream.epoch_parallel);
  EXPECT_NE(stream.epoch_degrade_reason, "");
  EXPECT_EQ(stream.admitted, exact.admitted);
  EXPECT_EQ(stream.shed, exact.shed);
  EXPECT_EQ(stream.store.hits, exact.store.hits);
  EXPECT_EQ(stream.store.misses, exact.store.misses);
}

TEST(FleetStreaming, BlackoutsDegradeToOneSerialEpoch) {
  FleetConfig cfg;
  cfg.clients = 4;
  cfg.base.seed = 23;
  cfg.base.testbed.faults = sim::FaultPlan::parse("blackout=0+0.05");
  cfg.streaming = true;
  cfg.epoch_min_sessions = 1;
  FleetMetrics stream = run_fleet(test_corpus(), cfg);
  EXPECT_EQ(stream.epochs, 1);
  EXPECT_FALSE(stream.epoch_parallel);
  EXPECT_NE(stream.epoch_degrade_reason, "");
  EXPECT_EQ(stream.admitted, 4);
}

TEST(FleetStreaming, SingleClientStreamingMatchesHarnessPin) {
  // Streaming K=1: one epoch, one session, and the sketch holds exactly
  // the single-client harness's OLT (within the bin bound).
  FleetConfig cfg;
  cfg.clients = 1;
  cfg.compute = ProxyComputeConfig::idle();
  cfg.base.seed = 7;
  cfg.streaming = true;
  FleetMetrics stream = run_fleet(test_corpus(), cfg);

  core::RunConfig expected_cfg = cfg.base;
  expected_cfg.seed = cfg.base.seed + 1;
  expected_cfg.testbed.fade_seed = cfg.base.testbed.fade_seed + 1;
  core::RunResult expected = core::ExperimentRunner::run(
      core::Scheme::kParcelInd, test_page(), expected_cfg);

  EXPECT_EQ(stream.admitted, 1);
  EXPECT_EQ(stream.epochs, 1);
  ASSERT_EQ(stream.olt_stats.count(), 1u);
  // Exact fields of the sketch are exact: min == max == the session OLT.
  EXPECT_EQ(stream.olt_stats.min(), expected.olt.sec());
  EXPECT_EQ(stream.olt_stats.max(), expected.olt.sec());
  EXPECT_EQ(stream.energy_j_total, expected.radio.total.j());
}

TEST(FleetStreaming, EpochPartitionPropertyAcrossArrivalRates) {
  // Property over an arrival-rate grid: plans always cover [0, K) with
  // consecutive epochs, honor the minimum size on every epoch except the
  // last, and every parallel plan passes the runner's checked invariants
  // (run_fleet throws std::logic_error on any boundary violation).
  for (double interarrival_ms : {1.0, 20.0, 500.0, 5000.0}) {
    for (std::uint64_t seed : {1ULL, 9ULL}) {
      SCOPED_TRACE("interarrival_ms=" + std::to_string(interarrival_ms) +
                   " seed=" + std::to_string(seed));
      FleetConfig cfg;
      cfg.clients = 12;
      cfg.arrival_seed = seed;
      cfg.mean_interarrival = util::Duration::millis(interarrival_ms);
      cfg.base.seed = 3 + seed;
      cfg.streaming = true;
      cfg.epoch_min_sessions = 3;
      cfg.jobs = 2;

      ClientColumns cols = derive_client_columns(cfg, test_corpus().size());
      EpochPlan plan = plan_epochs(test_corpus(), cols, cfg);
      ASSERT_FALSE(plan.epochs.empty());
      EXPECT_EQ(plan.epochs.front().begin, 0u);
      EXPECT_EQ(plan.epochs.back().end, cols.size());
      for (std::size_t e = 0; e < plan.epochs.size(); ++e) {
        EXPECT_LT(plan.epochs[e].begin, plan.epochs[e].end);
        if (e > 0) {
          EXPECT_EQ(plan.epochs[e].begin, plan.epochs[e - 1].end);
        }
        if (e + 1 < plan.epochs.size()) {
          EXPECT_GE(plan.epochs[e].end - plan.epochs[e].begin, 3u);
        }
      }

      // The checked invariant is the real property: a bad boundary throws.
      FleetMetrics m = run_fleet(test_corpus(), cfg);
      EXPECT_EQ(m.admitted + m.shed, cfg.clients);
      EXPECT_EQ(m.epochs, static_cast<int>(plan.epochs.size()));
    }
  }
}

TEST(FleetStreaming, SinkOnlyObservesAMultiEpochRun) {
  // Keeping per-client results must not change a single fold: the same
  // epoch-parallel config with and without the sink is bitwise equal.
  FleetConfig cfg;
  cfg.clients = 10;
  cfg.arrival_seed = 7;
  cfg.mean_interarrival = util::Duration::seconds(5);  // drained between
  cfg.base.seed = 13;
  cfg.epoch_min_sessions = 2;
  cfg.jobs = 2;

  FleetMetrics sink = run_fleet(test_corpus(), cfg);
  cfg.streaming = true;
  FleetMetrics stream = run_fleet(test_corpus(), cfg);

  EXPECT_GT(sink.epochs, 1);  // non-vacuous: the plan split
  EXPECT_FALSE(sink.streaming);
  ASSERT_EQ(sink.clients.size(), 10u);
  EXPECT_TRUE(stream.clients.empty());
  expect_folds_identical(sink, stream);

  // Nor do the kept results depend on the partition: one epoch holding
  // all K clients yields the same per-client records.
  cfg.streaming = false;
  cfg.epoch_min_sessions = cfg.clients;
  FleetMetrics one = run_fleet(test_corpus(), cfg);
  EXPECT_EQ(one.epochs, 1);
  expect_clients_identical(sink, one);
  EXPECT_EQ(sink.sessions_ok, one.sessions_ok);
  EXPECT_EQ(sink.olt_stats.histogram(), one.olt_stats.histogram());
  expect_store_identical(sink.store, one.store);
  EXPECT_EQ(sink.compute.completed, one.compute.completed);
}

TEST(FleetStreaming, SinkOnlyObservesAShardedCrashRun) {
  // The degraded serial path with handoffs: the sink-keeping run and the
  // streaming run fold to bitwise-equal metrics, crash accounting included.
  FleetConfig cfg;
  cfg.clients = 24;
  cfg.arrival_seed = 5;
  cfg.mean_interarrival = util::Duration::millis(2);
  cfg.compute.workers = 2;
  cfg.base.seed = 31;
  cfg.shards = 4;
  cfg.shard_faults = sim::FaultPlan::parse("crash=0.024,restart=0.05,seed=9");
  cfg.epoch_min_sessions = 2;
  cfg.jobs = 2;

  FleetMetrics sink = run_fleet(test_corpus(), cfg);
  cfg.streaming = true;
  FleetMetrics stream = run_fleet(test_corpus(), cfg);

  EXPECT_GT(sink.crash_handoffs, 0u);  // non-vacuous: sessions migrated
  ASSERT_EQ(sink.clients.size(), 24u);
  EXPECT_TRUE(stream.clients.empty());
  expect_folds_identical(sink, stream);
}

TEST(FleetStreaming, StreamingRejectsExplicitSpecs) {
  FleetConfig bad;
  bad.streaming = true;
  bad.epoch_min_sessions = 0;
  EXPECT_THROW((void)run_fleet(test_corpus(), bad), std::invalid_argument);
}

// ---------------------------------------------------------------------
// CLI parsing (bench/common): the reject-garbage contract

TEST(FleetCli, ParsePositiveIntStrict) {
  EXPECT_EQ(bench::parse_positive_int("--clients", "16"), 16);
  EXPECT_EQ(bench::parse_positive_int("--workers", "1"), 1);
  EXPECT_THROW(bench::parse_positive_int("--clients", ""),
               std::invalid_argument);
  EXPECT_THROW(bench::parse_positive_int("--clients", "abc"),
               std::invalid_argument);
  EXPECT_THROW(bench::parse_positive_int("--clients", "12x"),
               std::invalid_argument);
  EXPECT_THROW(bench::parse_positive_int("--clients", "0"),
               std::invalid_argument);
  EXPECT_THROW(bench::parse_positive_int("--clients", "-4"),
               std::invalid_argument);
  EXPECT_THROW(bench::parse_positive_int("--clients", "1e3"),
               std::invalid_argument);
  EXPECT_THROW(bench::parse_positive_int("--clients", "99999999999999999999"),
               std::invalid_argument);
  EXPECT_THROW(bench::parse_positive_int("--clients", "1000001"),
               std::invalid_argument);
}

TEST(FleetCli, ParseU64Strict) {
  EXPECT_EQ(bench::parse_u64("--arrival-seed", "0"), 0u);
  EXPECT_EQ(bench::parse_u64("--arrival-seed", "2014"), 2014u);
  EXPECT_EQ(bench::parse_u64("--arrival-seed", "18446744073709551615"),
            18446744073709551615ULL);
  EXPECT_THROW(bench::parse_u64("--arrival-seed", ""),
               std::invalid_argument);
  EXPECT_THROW(bench::parse_u64("--arrival-seed", "seed"),
               std::invalid_argument);
  EXPECT_THROW(bench::parse_u64("--arrival-seed", "7 "),
               std::invalid_argument);
  EXPECT_THROW(bench::parse_u64("--arrival-seed", "-1"),
               std::invalid_argument);
  EXPECT_THROW(bench::parse_u64("--arrival-seed", "+5"),
               std::invalid_argument);
}

}  // namespace
}  // namespace parcel::fleet
