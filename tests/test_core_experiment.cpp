#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "replay/replay_store.hpp"
#include "util/stats.hpp"
#include "web/generator.hpp"

namespace parcel::core {
namespace {

const web::WebPage& replayed_page(const std::string& site, int objects,
                                  std::uint64_t seed) {
  static replay::ReplayStore store;
  web::PageSpec spec;
  spec.site = site;
  spec.object_count = objects;
  spec.total_bytes = util::kib(500);
  spec.seed = seed;
  store.record(web::PageGenerator::generate(spec));
  return *store.find("http://" + site + "/");
}

const web::WebPage& test_page() {
  static const web::WebPage& page = replayed_page("exp.example.com", 40, 17);
  return page;
}

const web::WebPage& second_page() {
  static const web::WebPage& page = replayed_page("exp2.example.com", 30, 18);
  return page;
}

TEST(ExperimentRunner, DirRunBasicInvariants) {
  RunConfig cfg;
  RunResult r = ExperimentRunner::run(Scheme::kDir, test_page(), cfg);
  EXPECT_TRUE(r.ok);
  EXPECT_GT(r.olt.sec(), 0.0);
  EXPECT_GE(r.tlt, r.olt);
  // DIR issues one HTTP request per object over the radio and resolves
  // every domain (Table 1).
  EXPECT_EQ(r.radio_http_requests, test_page().object_count());
  EXPECT_EQ(r.dns_lookups, test_page().domain_names().size());
  EXPECT_GT(r.tcp_connections, 1u);
  EXPECT_GT(r.radio.total.j(), 0.0);
  EXPECT_GT(r.downlink_bytes,
            static_cast<util::Bytes>(test_page().total_bytes()));
}

TEST(ExperimentRunner, ParcelRunBasicInvariants) {
  RunConfig cfg;
  RunResult r = ExperimentRunner::run(Scheme::kParcelInd, test_page(), cfg);
  EXPECT_TRUE(r.ok);
  // Table 1: single connection, single client HTTP request, object
  // identification at the proxy, no client DNS.
  EXPECT_EQ(r.tcp_connections, 1u);
  EXPECT_EQ(r.radio_http_requests, 1u);
  EXPECT_EQ(r.dns_lookups, 0u);
  EXPECT_EQ(r.objects_loaded, test_page().object_count());
  EXPECT_GT(r.bundles, 0u);
}

TEST(ExperimentRunner, CloudBrowserTransfersSnapshotOnly) {
  RunConfig cfg;
  RunResult r = ExperimentRunner::run(Scheme::kCloudBrowser, test_page(), cfg);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.tcp_connections, 1u);
  // Compressed snapshot: fewer bytes over the radio than the page.
  EXPECT_LT(r.downlink_bytes,
            static_cast<util::Bytes>(test_page().total_bytes()));
  EXPECT_DOUBLE_EQ(r.olt.sec(), r.tlt.sec());
}

TEST(ExperimentRunner, ParcelBeatsDirOnLatencyAndEnergy) {
  RunConfig cfg;
  RunResult dir = ExperimentRunner::run(Scheme::kDir, test_page(), cfg);
  RunResult ind = ExperimentRunner::run(Scheme::kParcelInd, test_page(), cfg);
  EXPECT_LT(ind.olt, dir.olt);
  EXPECT_LT(ind.radio.total, dir.radio.total);
  // PARCEL batches transfers: fewer CR<->DRX transitions (Fig 7a).
  EXPECT_LT(ind.radio.cr_drx_transitions, dir.radio.cr_drx_transitions);
}

TEST(ExperimentRunner, BundlingTradesLatencyForCrEnergy) {
  RunConfig cfg;
  RunResult ind = ExperimentRunner::run(Scheme::kParcelInd, test_page(), cfg);
  RunResult onld =
      ExperimentRunner::run(Scheme::kParcelOnld, test_page(), cfg);
  // Fig 9a: bundling increases OLT relative to IND.
  EXPECT_GE(onld.olt.sec(), ind.olt.sec() - 0.05);
  // Batch transfer shrinks the high-power CR window.
  EXPECT_LT(onld.radio.cr, ind.radio.cr);
}

TEST(ExperimentRunner, DeterministicForSameSeed) {
  RunConfig cfg;
  cfg.seed = 77;
  RunResult a = ExperimentRunner::run(Scheme::kParcel512K, test_page(), cfg);
  RunResult b = ExperimentRunner::run(Scheme::kParcel512K, test_page(), cfg);
  EXPECT_TRUE(a == b);
}

TEST(ExperimentRunner, EqualityCoversTimelineEventsAndTrace) {
  RunConfig cfg;
  cfg.seed = 77;
  const RunResult a =
      ExperimentRunner::run(Scheme::kParcel512K, test_page(), cfg);
  ASSERT_FALSE(a.radio.timeline.empty());

  RunResult timeline = a;
  timeline.radio.timeline.back().end += util::Duration::micros(1);
  EXPECT_FALSE(a == timeline);

  RunResult events = a;
  ++events.events_executed;
  EXPECT_FALSE(a == events);

  RunResult faulted = a;
  faulted.trace.record_fault(trace::FaultEvent{
      a.trace.last_time(), trace::FaultKind::kLoss, 1, 1});
  EXPECT_FALSE(a == faulted);
}

TEST(ExperimentRunner, SchemeNamesAndHelpers) {
  struct Row {
    Scheme scheme;
    const char* name;
    std::optional<util::Bytes> threshold;  // set iff a PARCEL scheme
  };
  const Row rows[] = {
      {Scheme::kDir, "DIR", std::nullopt},
      {Scheme::kHttpProxy, "HTTP-PROXY", std::nullopt},
      {Scheme::kSpdyProxy, "SPDY-PROXY", std::nullopt},
      {Scheme::kParcelInd, "PARCEL(IND)", 0},
      {Scheme::kParcelOnld, "PARCEL(ONLD)", BundleConfig::kUnbounded},
      {Scheme::kParcel512K, "PARCEL(512K)", util::kib(512)},
      {Scheme::kParcel1M, "PARCEL(1M)", util::mib(1)},
      {Scheme::kParcel2M, "PARCEL(2M)", util::mib(2)},
      {Scheme::kCloudBrowser, "CB", std::nullopt},
      {Scheme::kParcelAdaptive, "PARCEL-ADAPT", util::kib(512)},
  };
  for (const Row& row : rows) {
    EXPECT_EQ(to_string(row.scheme), row.name);
    EXPECT_EQ(is_parcel(row.scheme), row.threshold.has_value()) << row.name;
    if (row.threshold) {
      EXPECT_EQ(bundle_for(row.scheme).threshold, *row.threshold) << row.name;
    } else {
      EXPECT_THROW((void)bundle_for(row.scheme), std::invalid_argument)
          << row.name;
    }
  }
}

TEST(RunGrid, AggregatesPerPageMedians) {
  RunConfig base;
  base.testbed.fade = lte::FadeProcess::Params{};
  const std::vector<PageMedians> grid = run_grid(
      {&test_page()}, {Scheme::kDir, Scheme::kParcelInd}, 3, base);
  ASSERT_EQ(grid.size(), 2u);
  for (const PageMedians& m : grid) {
    ASSERT_EQ(m.olt_sec.size(), 1u);
    EXPECT_GT(m.olt_sec[0], 0.0);
    EXPECT_GE(m.tlt_sec[0], m.olt_sec[0]);
    EXPECT_GT(m.radio_j[0], 0.0);
    EXPECT_GE(m.radio_j[0], m.cr_j[0]);
    EXPECT_EQ(m.page_bytes[0], static_cast<double>(test_page().total_bytes()));
  }
  // Table 1's columns: PARCEL loads over a single connection.
  EXPECT_GT(grid[0].tcp_connections[0], 1.0);
  EXPECT_EQ(grid[1].tcp_connections[0], 1.0);
}

TEST(RunGrid, SeedsFollowTheStrideFormula) {
  // Fig 10's strides: run r of page p is seeded 101 + 211 p + 13 r, its
  // fade 3 seed + 1, and both schemes of one (p, r) share the seeds. Every
  // figure's bytes depend on this formula, so recompute it by hand.
  const std::vector<const web::WebPage*> pages{&test_page(), &second_page()};
  const std::vector<Scheme> schemes{Scheme::kDir, Scheme::kParcelInd};
  constexpr int kRounds = 2;
  RunConfig base;
  base.seed = 101;
  base.testbed.fade = lte::FadeProcess::Params{};
  const std::vector<PageMedians> grid = run_grid(
      pages, schemes, kRounds, base,
      {.per_page = 211, .per_round = 13, .offset = 0, .fade_mul = 3});
  ASSERT_EQ(grid.size(), schemes.size());

  bool rounds_differ = false;
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    SCOPED_TRACE(to_string(schemes[s]));
    PageMedians expected;
    for (std::size_t p = 0; p < pages.size(); ++p) {
      std::vector<RunResult> runs;
      for (std::uint64_t r = 0; r < kRounds; ++r) {
        RunConfig cfg = base;
        cfg.seed = 101 + 211 * p + 13 * r;
        cfg.testbed.fade_seed = cfg.seed * 3 + 1;
        runs.push_back(ExperimentRunner::run(schemes[s], *pages[p], cfg));
      }
      auto median_of = [&runs](auto metric) {
        std::vector<double> values;
        for (const RunResult& r : runs) values.push_back(metric(r));
        return util::median(values);
      };
      expected.olt_sec.push_back(
          median_of([](const RunResult& r) { return r.olt.sec(); }));
      expected.tlt_sec.push_back(
          median_of([](const RunResult& r) { return r.tlt.sec(); }));
      expected.radio_j.push_back(
          median_of([](const RunResult& r) { return r.radio.total.j(); }));
      expected.cr_j.push_back(
          median_of([](const RunResult& r) { return r.radio.cr.j(); }));
      expected.requests.push_back(median_of([](const RunResult& r) {
        return static_cast<double>(r.radio_http_requests);
      }));
      expected.tcp_connections.push_back(median_of([](const RunResult& r) {
        return static_cast<double>(r.tcp_connections);
      }));
      expected.page_bytes.push_back(
          static_cast<double>(pages[p]->total_bytes()));
      rounds_differ = rounds_differ || runs[0].olt.sec() != runs[1].olt.sec();
    }
    EXPECT_TRUE(grid[s] == expected);
  }
  // The seeds reach the simulation, so the pin is not vacuous.
  EXPECT_TRUE(rounds_differ);
}

}  // namespace
}  // namespace parcel::core
