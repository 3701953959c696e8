// Protocol-level details of the PARCEL session: bundle accounting, push
// scheduling behaviour per policy, and the MHTML wire discipline.
#include <gtest/gtest.h>

#include "core/session.hpp"
#include "core/testbed.hpp"
#include "replay/replay_store.hpp"
#include "web/generator.hpp"

namespace parcel::core {
namespace {

constexpr BundleConfig kInd{0};
constexpr BundleConfig kOnld{BundleConfig::kUnbounded};

struct DetailFixture : ::testing::Test {
  std::unique_ptr<web::WebPage> live;
  replay::ReplayStore store;
  const web::WebPage* page = nullptr;

  void SetUp() override {
    web::PageSpec spec;
    spec.site = "det.example.com";
    spec.object_count = 28;
    spec.total_bytes = util::kib(400);
    spec.seed = 31;
    live = std::make_unique<web::WebPage>(web::PageGenerator::generate(spec));
    store.record(*live);
    page = store.find(live->main_url().str());
    ASSERT_NE(page, nullptr);
  }

  struct Outcome {
    std::size_t bundles = 0;
    util::Bytes bundle_bytes = 0;
    double olt = 0, tlt = 0;
    bool complete = false;
    trace::PacketTrace trace;  // the client's capture
  };

  Outcome run_policy(BundleConfig bundle) {
    Testbed testbed{TestbedConfig{}};
    testbed.host_page(*page);
    ParcelSessionConfig cfg;
    cfg.proxy.bundle = bundle;
    ParcelSession session(testbed.network(), cfg, util::Rng(7));
    Outcome out;
    ParcelSession::Callbacks cbs;
    cbs.on_onload = [&](util::TimePoint t) { out.olt = t.sec(); };
    cbs.on_complete = [&](util::TimePoint t) {
      out.tlt = t.sec();
      out.complete = true;
    };
    session.load(page->main_url(), std::move(cbs));
    testbed.scheduler().run_until(util::TimePoint::at_seconds(60));
    out.bundles = session.bundles_delivered();
    out.bundle_bytes = session.bundle_bytes_delivered();
    out.trace = testbed.client_trace();
    return out;
  }
};

TEST_F(DetailFixture, IndDeliversOneBundlePerObjectRoughly) {
  Outcome ind = run_policy(kInd);
  ASSERT_TRUE(ind.complete);
  // One push per intercepted object (+1 if a stray flush).
  EXPECT_GE(ind.bundles, page->object_count());
  EXPECT_LE(ind.bundles, page->object_count() + 2);
}

TEST_F(DetailFixture, OnldDeliversFewBundles) {
  Outcome onld = run_policy(kOnld);
  ASSERT_TRUE(onld.complete);
  // One batch at onload + one completion flush (post-onload stragglers).
  EXPECT_LE(onld.bundles, 3u);
  EXPECT_GE(onld.bundles, 1u);
}

TEST_F(DetailFixture, ThresholdBundleCountTracksPageSize) {
  Outcome x128 = run_policy(BundleConfig{util::kib(128)});
  Outcome x512 = run_policy(BundleConfig{util::kib(512)});
  ASSERT_TRUE(x128.complete);
  ASSERT_TRUE(x512.complete);
  EXPECT_GT(x128.bundles, x512.bundles);
  // ~400 KB page: 128 KB threshold yields a handful of bundles.
  EXPECT_GE(x128.bundles, 3u);
}

TEST_F(DetailFixture, BundleBytesCoverPagePlusFraming) {
  Outcome ind = run_policy(kInd);
  auto page_bytes = static_cast<double>(page->total_bytes());
  EXPECT_GT(static_cast<double>(ind.bundle_bytes), page_bytes);
  // MHTML framing is low-overhead (§5.1): well under 10% here.
  EXPECT_LT(static_cast<double>(ind.bundle_bytes), page_bytes * 1.10);
}

TEST_F(DetailFixture, PolicyDoesNotChangeWhatLoadsOnlyWhen) {
  Outcome ind = run_policy(kInd);
  Outcome onld = run_policy(kOnld);
  ASSERT_TRUE(ind.complete);
  ASSERT_TRUE(onld.complete);
  // Same content either way; IND strictly earlier onload.
  EXPECT_LT(ind.olt, onld.olt);
  EXPECT_NEAR(static_cast<double>(ind.bundle_bytes),
              static_cast<double>(onld.bundle_bytes),
              static_cast<double>(page->total_bytes()) * 0.06);
}

// IND and ONLD are the two ends of the PARCEL(X) dial (§4.4, Fig 5):
// X = 1 byte flushes every object as it arrives, and X above the page's
// bytes never flushes on size, only at onload and completion. X = 1 is
// IND only if no object is empty (an empty object would wait for the
// next one), so the page must have none.
TEST_F(DetailFixture, DialEndsAreIndAndOnld) {
  for (const web::WebObject* object : page->objects()) {
    ASSERT_GT(object->size, 0) << object->url.str();
  }
  const Outcome ind = run_policy(kInd);
  const Outcome onld = run_policy(kOnld);
  ASSERT_FALSE(ind.trace == onld.trace);
  EXPECT_TRUE(run_policy(BundleConfig{1}).trace == ind.trace);
  const util::Bytes above_page = page->total_bytes() + 1;
  EXPECT_TRUE(run_policy(BundleConfig{above_page}).trace == onld.trace);
}

TEST_F(DetailFixture, ClientLedgerMatchesProxyLedger) {
  Testbed testbed{TestbedConfig{}};
  testbed.host_page(*page);
  ParcelSession session(testbed.network(), ParcelSessionConfig{},
                        util::Rng(9));
  session.load(page->main_url(), {});
  testbed.scheduler().run_until(util::TimePoint::at_seconds(60));
  // The proxy identified exactly the objects the client's own parse
  // wanted (replayed page: URL sets coincide).
  EXPECT_EQ(session.proxy().engine().ledger().count(),
            session.client_engine().ledger().count());
  // Every client object completed successfully from cache.
  for (const auto& entry : session.client_engine().ledger().entries()) {
    EXPECT_TRUE(entry.completed) << entry.url.str();
    EXPECT_FALSE(entry.failed) << entry.url.str();
  }
}

TEST_F(DetailFixture, CompletionNoteAlwaysArrives) {
  for (auto bundle : {kInd, kOnld}) {
    Testbed testbed{TestbedConfig{}};
    testbed.host_page(*page);
    ParcelSessionConfig cfg;
    cfg.proxy.bundle = bundle;
    ParcelSession session(testbed.network(), cfg, util::Rng(11));
    session.load(page->main_url(), {});
    testbed.scheduler().run_until(util::TimePoint::at_seconds(60));
    EXPECT_TRUE(session.proxy().completion_declared());
    EXPECT_TRUE(session.client_fetcher().completion_received());
  }
}

TEST_F(DetailFixture, UplinkTrafficIsTiny) {
  Testbed testbed{TestbedConfig{}};
  testbed.host_page(*page);
  ParcelSession session(testbed.network(), ParcelSessionConfig{},
                        util::Rng(13));
  session.load(page->main_url(), {});
  testbed.scheduler().run_until(util::TimePoint::at_seconds(60));
  // §4.3: the client sends just the URL request (plus ACKs); uplink is a
  // sliver of downlink.
  EXPECT_LT(testbed.client_trace().uplink_bytes(),
            testbed.client_trace().downlink_bytes() / 50);
}

}  // namespace
}  // namespace parcel::core
