// Fault-injection subsystem tests: plan parsing/validation, injector
// schedule semantics, TCP loss recovery, NetworkFetcher's retry ladder, the
// proxy-crash -> direct-fetch degradation ladder, and determinism of
// faulted runs across jobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "browser/dir_browser.hpp"
#include "core/experiment.hpp"
#include "core/parallel_runner.hpp"
#include "net/fault_injector.hpp"
#include "net/network.hpp"
#include "net/tcp.hpp"
#include "replay/replay_store.hpp"
#include "sim/fault_plan.hpp"
#include "sim/scheduler.hpp"
#include "web/generator.hpp"

namespace parcel {
namespace {

using util::BitRate;
using util::Duration;
using util::TimePoint;

TimePoint at(double sec) { return TimePoint::at_seconds(sec); }

// ---- FaultPlan ---------------------------------------------------------

TEST(FaultPlan, DefaultAndOffSpecAreDisabled) {
  EXPECT_FALSE(sim::FaultPlan{}.enabled());
  EXPECT_FALSE(sim::FaultPlan::off().enabled());
  EXPECT_FALSE(sim::FaultPlan::parse("").enabled());
  EXPECT_FALSE(sim::FaultPlan::parse("off").enabled());
  EXPECT_EQ(sim::FaultPlan{}.str(), "off");
}

TEST(FaultPlan, ParsesFullSpec) {
  sim::FaultPlan plan = sim::FaultPlan::parse(
      "loss=0.05,blackout=2+0.5,blackout=4+1,collapse=1+3,cfactor=0.2,"
      "serror=0.1,sstall=0.5+2,sextra=1.5,crash=1.2,restart=4,seed=9");
  EXPECT_TRUE(plan.enabled());
  EXPECT_DOUBLE_EQ(plan.loss_probability, 0.05);
  ASSERT_EQ(plan.blackouts.size(), 2u);
  EXPECT_DOUBLE_EQ(plan.blackouts[1].start.sec(), 4.0);
  ASSERT_EQ(plan.collapses.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.collapse_factor, 0.2);
  EXPECT_DOUBLE_EQ(plan.server_error_probability, 0.1);
  ASSERT_EQ(plan.server_stalls.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.server_stall_extra.sec(), 1.5);
  ASSERT_TRUE(plan.proxy_crash_at.has_value());
  EXPECT_DOUBLE_EQ(plan.proxy_crash_at->sec(), 1.2);
  ASSERT_TRUE(plan.proxy_restart_after.has_value());
  EXPECT_DOUBLE_EQ(plan.proxy_restart_after->sec(), 4.0);
  EXPECT_EQ(plan.seed, 9u);
}

TEST(FaultPlan, StrRoundTripsThroughParse) {
  sim::FaultPlan plan = sim::FaultPlan::parse(
      "loss=0.03,blackout=1.5+0.25,crash=2,restart=3,seed=42");
  EXPECT_EQ(sim::FaultPlan::parse(plan.str()).str(), plan.str());
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW(sim::FaultPlan::parse("loss=1.5"), std::invalid_argument);
  EXPECT_THROW(sim::FaultPlan::parse("loss=-0.1"), std::invalid_argument);
  EXPECT_THROW(sim::FaultPlan::parse("blackout=-1+2"), std::invalid_argument);
  EXPECT_THROW(sim::FaultPlan::parse("blackout=2+-1"), std::invalid_argument);
  EXPECT_THROW(sim::FaultPlan::parse("blackout=2"), std::invalid_argument);
  EXPECT_THROW(sim::FaultPlan::parse("collapse=1+1,cfactor=0"),
               std::invalid_argument);
  EXPECT_THROW(sim::FaultPlan::parse("collapse=1+1,cfactor=1.2"),
               std::invalid_argument);
  EXPECT_THROW(sim::FaultPlan::parse("restart=2"), std::invalid_argument);
  EXPECT_THROW(sim::FaultPlan::parse("crash=-1"), std::invalid_argument);
  EXPECT_THROW(sim::FaultPlan::parse("bogus=1"), std::invalid_argument);
  EXPECT_THROW(sim::FaultPlan::parse("loss=abc"), std::invalid_argument);
  EXPECT_THROW(sim::FaultPlan::parse("loss"), std::invalid_argument);
}

TEST(FaultWindow, HalfOpenEdges) {
  sim::FaultWindow w{at(2.0), Duration::seconds(0.5)};
  EXPECT_TRUE(w.contains(at(2.0)));   // start inclusive
  EXPECT_TRUE(w.contains(at(2.49)));
  EXPECT_FALSE(w.contains(at(2.5)));  // end exclusive
  EXPECT_FALSE(w.contains(at(1.99)));

  sim::FaultWindow zero{at(3.0), Duration::zero()};
  EXPECT_FALSE(zero.contains(at(3.0)));  // zero-length matches nothing
}

// ---- FaultInjector -----------------------------------------------------

TEST(FaultInjector, BlackoutDefersIntoWindowEndAndFollowsChains) {
  sim::FaultPlan plan;
  plan.blackouts = {{at(2.0), Duration::seconds(1.0)},
                    {at(3.0), Duration::seconds(0.5)}};
  net::FaultInjector inj(plan);
  net::BurstInfo info;

  EXPECT_DOUBLE_EQ(inj.blackout_release(at(1.9), 100, info).sec(), 1.9);
  // Deferred to 3.0, which lands in the second window -> 3.5.
  EXPECT_DOUBLE_EQ(inj.blackout_release(at(2.2), 100, info).sec(), 3.5);
  // Window ends are exclusive: a burst at the end is not deferred.
  EXPECT_DOUBLE_EQ(inj.blackout_release(at(3.5), 100, info).sec(), 3.5);
  EXPECT_EQ(inj.deferrals(), 1u);
}

TEST(FaultInjector, ZeroLengthBlackoutIsInert) {
  sim::FaultPlan plan;
  plan.blackouts = {{at(2.0), Duration::zero()}};
  net::FaultInjector inj(plan);
  net::BurstInfo info;
  EXPECT_DOUBLE_EQ(inj.blackout_release(at(2.0), 100, info).sec(), 2.0);
  EXPECT_EQ(inj.deferrals(), 0u);
}

TEST(FaultInjector, CollapseMultiplierOnlyInsideWindows) {
  sim::FaultPlan plan;
  plan.collapses = {{at(1.0), Duration::seconds(2.0)}};
  plan.collapse_factor = 0.25;
  net::FaultInjector inj(plan);
  net::BurstInfo info;
  EXPECT_DOUBLE_EQ(inj.rate_multiplier(at(0.5), 100, info), 1.0);
  EXPECT_DOUBLE_EQ(inj.rate_multiplier(at(1.0), 100, info), 0.25);
  EXPECT_DOUBLE_EQ(inj.rate_multiplier(at(3.0), 100, info), 1.0);
  EXPECT_EQ(inj.collapsed_bursts(), 1u);
}

TEST(FaultInjector, LossStreamIsDeterministicPerSeed) {
  sim::FaultPlan plan;
  plan.loss_probability = 0.3;
  plan.seed = 77;
  net::FaultInjector a(plan), b(plan);
  net::BurstInfo info;
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.drop_burst(at(0.01 * i), 1000, info),
              b.drop_burst(at(0.01 * i), 1000, info));
  }
  EXPECT_EQ(a.drops(), b.drops());
  EXPECT_GT(a.drops(), 0u);
  EXPECT_LT(a.drops(), 200u);
}

TEST(FaultInjector, DropNextForcesExactlyNDrops) {
  net::FaultInjector inj(sim::FaultPlan{});  // no probabilistic loss
  net::BurstInfo info;
  inj.drop_next(2);
  EXPECT_TRUE(inj.drop_burst(at(0.0), 100, info));
  EXPECT_TRUE(inj.drop_burst(at(0.1), 100, info));
  EXPECT_FALSE(inj.drop_burst(at(0.2), 100, info));
  EXPECT_EQ(inj.drops(), 2u);
}

// ---- TCP loss recovery -------------------------------------------------

struct TcpFaultFixture : ::testing::Test {
  sim::Scheduler sched;
  net::DuplexLink link{sched, "l", BitRate::mbps(80), BitRate::mbps(80),
                       Duration::millis(25)};
  net::Path path{{&link}};
  net::FaultInjector inj{sim::FaultPlan{}};
  net::TcpParams params;

  TcpFaultFixture() {
    link.up().set_fault_injector(&inj);
    link.down().set_fault_injector(&inj);
    params.loss_recovery = true;
  }
};

TEST_F(TcpFaultFixture, RtoRetransmitsADroppedBurst) {
  net::TcpConnection conn(sched, path, params, 1);
  double done = -1;
  conn.connect([&] {
    inj.drop_next(1);
    conn.send_to_server(5'000, 1, [&](TimePoint t) { done = t.sec(); });
  });
  sched.run();
  EXPECT_GT(done, 0.0);  // delivered despite the drop
  EXPECT_EQ(conn.retransmits(), 1u);
  EXPECT_EQ(conn.spurious_retransmits(), 0u);
  EXPECT_FALSE(conn.broken());
  // Recovery waited at least one RTO.
  EXPECT_GE(done, params.min_rto.sec());
}

TEST_F(TcpFaultFixture, ExhaustedRetransmitsBreakTheConnection) {
  params.max_retransmits = 2;
  net::TcpConnection conn(sched, path, params, 1);
  bool delivered = false;
  conn.connect([&] {
    inj.drop_next(10);  // every copy dies
    conn.send_to_server(5'000, 1, [&](TimePoint) { delivered = true; });
  });
  sched.run();  // must terminate: no infinite retransmission
  EXPECT_FALSE(delivered);
  EXPECT_TRUE(conn.broken());
  EXPECT_EQ(conn.retransmits(), 2u);
}

TEST_F(TcpFaultFixture, RecoveryIsOptIn) {
  params.loss_recovery = false;
  net::TcpConnection conn(sched, path, params, 1);
  bool delivered = false;
  conn.connect([&] {
    inj.drop_next(1);
    conn.send_to_server(5'000, 1, [&](TimePoint) { delivered = true; });
  });
  sched.run();
  EXPECT_FALSE(delivered);  // without recovery, the loss is final
  EXPECT_EQ(conn.retransmits(), 0u);
}

TEST_F(TcpFaultFixture, LateOriginalMakesItsRetransmissionSpurious) {
  // A blackout holds the original burst past its RTO. The retransmitted
  // copy queues behind it on the same link, so both arrive: the first
  // delivers, the second only counts as spurious.
  sim::FaultPlan plan;
  plan.blackouts = {{at(0.2), Duration::seconds(2.0)}};
  net::FaultInjector blackout(plan);
  link.up().set_fault_injector(&blackout);
  link.down().set_fault_injector(&blackout);
  net::TcpConnection conn(sched, path, params, 1);
  int deliveries = 0;
  double done = -1;
  conn.connect([&] {
    sched.schedule_at(at(0.3), [&] {
      conn.send_to_server(5'000, 1, [&](TimePoint t) {
        ++deliveries;
        done = t.sec();
      });
    });
  });
  sched.run();
  EXPECT_EQ(deliveries, 1);
  EXPECT_EQ(conn.retransmits(), 1u);
  EXPECT_EQ(conn.spurious_retransmits(), 1u);
  EXPECT_FALSE(conn.broken());
  EXPECT_GE(done, 2.2);  // held until the blackout lifted
}

TEST_F(TcpFaultFixture, DeliveredBurstsLeaveNoQueuedTimers) {
  // Every guarded burst arms an RTO timer (min_rto = 1 s) that delivery
  // cancels. A cancelled timer frees its event at once and leaves only a
  // stale key, which compaction drops; so a few hundred bursts delivered
  // well inside one RTO must not leave a few hundred timers queued.
  constexpr int kBursts = 300;
  net::TcpConnection conn(sched, path, params, 1);
  int delivered = 0;
  std::size_t queued_after_last = 0;
  double last_delivery = -1;
  conn.connect([&] {
    for (int i = 0; i < kBursts; ++i) {
      conn.send_to_server(2'000, static_cast<std::uint32_t>(i),
                          [&](TimePoint t) {
        if (++delivered < kBursts) return;
        queued_after_last = sched.pending_events();
        last_delivery = t.sec();
      });
    }
  });
  sched.run();
  ASSERT_EQ(delivered, kBursts);
  EXPECT_LT(last_delivery, params.min_rto.sec());  // every timer outlived it
  EXPECT_EQ(conn.retransmits(), 0u);
  EXPECT_LT(queued_after_last, 100u);
  EXPECT_EQ(sched.pending_events(), 0u);
}

// ---- NetworkFetcher retry ladder ---------------------------------------

/// Origin stub with a scripted answer per request: a status after a think
/// time, or silence (status 0: the responder is kept and never called).
/// Requests past the end of the script repeat its last entry.
class ScriptedEndpoint final : public net::HttpEndpoint {
 public:
  struct Reply {
    int status;
    Duration think;
  };

  ScriptedEndpoint(sim::Scheduler& sched, std::vector<Reply> script)
      : sched_(sched), script_(std::move(script)) {}

  void handle(const net::HttpRequest& request, Responder respond) override {
    const Reply reply = script_[std::min(requests_, script_.size() - 1)];
    ++requests_;
    if (reply.status == 0) {
      silent_.push_back(std::move(respond));
      return;
    }
    net::HttpResponse resp;
    resp.status = reply.status;
    resp.url = request.url;
    resp.body_bytes = 2'000;
    sched_.schedule_after(reply.think, [resp = std::move(resp),
                                        respond = std::move(respond)]() mutable {
      respond(std::move(resp));
    });
  }

  [[nodiscard]] std::size_t requests() const { return requests_; }

 private:
  sim::Scheduler& sched_;
  std::vector<Reply> script_;
  std::size_t requests_ = 0;
  std::vector<Responder> silent_;
};

/// One object fetched from "origin.example" with a 1 s object timeout, two
/// retries and a 250 ms backoff (500 ms before the second retry).
struct FetchLadderFixture : ::testing::Test {
  sim::Scheduler sched;
  net::Network network{sched};
  browser::DirConfig config;
  std::vector<browser::FetchResult> results;  // one entry per on_result call
  double result_at = -1;

  FetchLadderFixture() {
    net::DuplexLink& link = network.add_link(
        "l", BitRate::mbps(20), BitRate::mbps(20), Duration::millis(20));
    network.set_route("client", "dns", net::Path({&link}));
    network.set_route("client", "origin.example", net::Path({&link}));
    config.object_timeout = Duration::seconds(1.0);
    config.max_fetch_retries = 2;
    config.retry_backoff = Duration::millis(250);
  }

  void fetch_one(browser::NetworkFetcher& fetcher) {
    fetcher.fetch(net::Url::parse("http://origin.example/app.js"),
                  web::ObjectType::kJs, /*randomized=*/false, 1,
                  [this](browser::FetchResult r) {
                    results.push_back(std::move(r));
                    result_at = sched.now().sec();
                  });
  }
};

TEST_F(FetchLadderFixture, ServerErrorThenSuccessRetriesOnce) {
  ScriptedEndpoint origin(sched, {{503, Duration::millis(10)},
                                  {200, Duration::millis(10)}});
  network.register_endpoint("origin.example", origin);
  browser::NetworkFetcher fetcher(network, "client", config, util::Rng(1));
  fetch_one(fetcher);
  sched.run();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, 200);
  EXPECT_EQ(results[0].url.str(), "http://origin.example/app.js");
  EXPECT_EQ(fetcher.fetch_retries(), 1u);
  EXPECT_EQ(fetcher.fetch_timeouts(), 0u);
  EXPECT_EQ(origin.requests(), 2u);
}

TEST_F(FetchLadderFixture, PersistentServerErrorDeliversTheLastAnswer) {
  ScriptedEndpoint origin(sched, {{503, Duration::millis(10)}});
  network.register_endpoint("origin.example", origin);
  browser::NetworkFetcher fetcher(network, "client", config, util::Rng(1));
  fetch_one(fetcher);
  sched.run();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, 503);
  EXPECT_EQ(fetcher.fetch_retries(), 2u);
  EXPECT_EQ(fetcher.fetch_timeouts(), 0u);
  EXPECT_EQ(origin.requests(), 3u);
}

TEST_F(FetchLadderFixture, SilentEndpointGetsOneSynthesizedGatewayTimeout) {
  ScriptedEndpoint origin(sched, {{0, Duration::zero()}});
  network.register_endpoint("origin.example", origin);
  browser::NetworkFetcher fetcher(network, "client", config, util::Rng(1));
  fetch_one(fetcher);
  sched.run();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, 504);
  EXPECT_EQ(results[0].type, web::ObjectType::kJs);
  EXPECT_EQ(results[0].url.str(), "http://origin.example/app.js");
  // Three timeouts of 1 s plus the 250 ms and 500 ms backoffs.
  EXPECT_DOUBLE_EQ(result_at, 3.0 * 1.0 + 0.25 + 0.5);
  EXPECT_EQ(fetcher.fetch_timeouts(), 3u);
  EXPECT_EQ(fetcher.fetch_retries(), 2u);
  EXPECT_EQ(origin.requests(), 3u);
}

TEST_F(FetchLadderFixture, ResponseAfterTheGatewayTimeoutIsIgnored) {
  // Every attempt is answered, but 10 s later: all three answers land
  // after the ladder has given up at 3.75 s.
  ScriptedEndpoint origin(sched, {{200, Duration::seconds(10.0)}});
  network.register_endpoint("origin.example", origin);
  browser::NetworkFetcher fetcher(network, "client", config, util::Rng(1));
  fetch_one(fetcher);
  sched.run();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, 504);
  EXPECT_DOUBLE_EQ(result_at, 3.75);
  EXPECT_EQ(origin.requests(), 3u);
  EXPECT_GT(sched.now().sec(), 10.0) << "the late answers were delivered";
}

// ---- Experiment-level integration --------------------------------------

const web::WebPage& test_page() {
  static web::WebPage* page = [] {
    web::PageSpec spec;
    spec.site = "flt.example.com";
    spec.object_count = 30;
    spec.total_bytes = util::kib(400);
    spec.seed = 29;
    static replay::ReplayStore store;
    store.record(web::PageGenerator::generate(spec));
    return const_cast<web::WebPage*>(store.find("http://flt.example.com/"));
  }();
  return *page;
}

TEST(FaultedRuns, ProxyCrashDegradesToDirectFetchAndCompletes) {
  core::RunConfig cfg;
  cfg.seed = 5;
  cfg.testbed.faults.proxy_crash_at = at(1.0);  // mid-load
  core::RunResult r =
      core::ExperimentRunner::run(core::Scheme::kParcelInd, test_page(), cfg);
  EXPECT_TRUE(r.ok) << "degraded load must still complete, never hang";
  EXPECT_TRUE(r.degraded);
  EXPECT_GT(r.direct_fetches, 0u);
  EXPECT_EQ(r.trace.fault_count(trace::FaultKind::kProxyCrash), 1u);
  EXPECT_EQ(r.trace.fault_count(trace::FaultKind::kDegraded), 1u);
}

TEST(FaultedRuns, ProxyRestartDoesNotResumeButClientStillRecovers) {
  core::RunConfig cfg;
  cfg.seed = 5;
  cfg.testbed.faults.proxy_crash_at = at(1.0);
  cfg.testbed.faults.proxy_restart_after = Duration::seconds(2.0);
  core::RunResult r =
      core::ExperimentRunner::run(core::Scheme::kParcelInd, test_page(), cfg);
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.degraded);  // page state died with the old process
  EXPECT_GT(r.direct_fetches, 0u);
  EXPECT_EQ(r.trace.fault_count(trace::FaultKind::kProxyRestart), 1u);
}

TEST(FaultedRuns, LossAndBlackoutRunsCompleteWithRecoveryMetrics) {
  core::RunConfig cfg;
  cfg.seed = 9;
  cfg.testbed.faults = sim::FaultPlan::parse("loss=0.05,blackout=1+0.5,seed=3");
  for (core::Scheme s : {core::Scheme::kDir, core::Scheme::kParcelInd}) {
    SCOPED_TRACE(core::to_string(s));
    core::RunResult r = core::ExperimentRunner::run(s, test_page(), cfg);
    EXPECT_TRUE(r.ok);
    EXPECT_GT(r.fault_drops + r.fault_deferrals, 0u);
    EXPECT_EQ(r.fault_drops,
              r.trace.fault_count(trace::FaultKind::kLoss));
    if (r.fault_drops > 0) {
      EXPECT_GT(r.retransmits, 0u);
    }
    if (!r.trace.fault_events().empty()) {
      EXPECT_GE(r.recovery.sec(), 0.0);
    }
  }
}

TEST(FaultedRuns, BitwiseIdenticalAcrossJobs) {
  std::vector<core::ExperimentTask> tasks;
  std::uint64_t seed = 13;
  for (core::Scheme s : {core::Scheme::kDir, core::Scheme::kParcelInd,
                         core::Scheme::kParcel512K}) {
    core::RunConfig cfg;
    cfg.seed = seed++;
    cfg.testbed.faults =
        sim::FaultPlan::parse("loss=0.03,blackout=1.5+0.5,crash=1,seed=11");
    tasks.push_back(core::ExperimentTask{s, &test_page(), cfg});
  }
  std::vector<core::RunResult> serial = core::run_experiments(tasks, 1);
  std::vector<core::RunResult> parallel = core::run_experiments(tasks, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(core::to_string(tasks[i].scheme));
    EXPECT_TRUE(serial[i] == parallel[i]);
  }
}

TEST(FaultedRuns, FaultsOffTracesCarryNoFaultLines) {
  core::RunConfig cfg;
  cfg.seed = 21;
  core::RunResult a =
      core::ExperimentRunner::run(core::Scheme::kParcelInd, test_page(), cfg);
  core::RunResult b =
      core::ExperimentRunner::run(core::Scheme::kParcelInd, test_page(), cfg);
  EXPECT_TRUE(a.trace.fault_events().empty());
  EXPECT_EQ(a.degraded, false);
  EXPECT_EQ(a.retransmits, 0u);
  EXPECT_EQ(a.direct_fetches, 0u);
  // Same seed, fault-free: the serialized capture is byte-identical and
  // fault-format-free.
  std::string text = a.trace.serialize();
  EXPECT_EQ(text, b.trace.serialize());
  EXPECT_EQ(text.find("\nF "), std::string::npos);
  EXPECT_NE(text.rfind("F ", 0), 0u);  // no leading fault line either
}

TEST(RunGrid, RejectsBadConfigsWithClearErrors) {
  const std::vector<const web::WebPage*> pages{&test_page()};
  const std::vector<core::Scheme> schemes{core::Scheme::kDir};
  core::RunConfig base;
  EXPECT_THROW((void)core::run_grid(pages, schemes, 0, base),
               std::invalid_argument);
  base.testbed.faults.loss_probability = 2.0;  // malformed plan
  EXPECT_THROW((void)core::run_grid(pages, schemes, 2, base),
               std::invalid_argument);
}

}  // namespace
}  // namespace parcel
