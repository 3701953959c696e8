#include <gtest/gtest.h>

#include "core/bundle_scheduler.hpp"
#include "core/proxy.hpp"
#include "core/testbed.hpp"
#include "web/generator.hpp"

namespace parcel::core {
namespace {

struct Capture {
  std::vector<web::MhtmlWriter> bundles;
  BundleScheduler::Sink sink() {
    return [this](web::MhtmlWriter b) { bundles.push_back(std::move(b)); };
  }
  std::size_t total_parts() const {
    std::size_t n = 0;
    for (const auto& b : bundles) n += b.part_count();
    return n;
  }
};

void feed(BundleScheduler& sched, const std::string& url, util::Bytes size) {
  sched.on_object(net::Url::parse(url), web::ObjectType::kImage, size,
                  nullptr);
}

TEST(BundleScheduler, IndFlushesEveryObjectImmediately) {
  Capture cap;
  BundleScheduler sched(BundleConfig{0}, cap.sink());
  feed(sched, "http://a.example/1.jpg", 1000);
  feed(sched, "http://a.example/2.jpg", 1000);
  EXPECT_EQ(cap.bundles.size(), 2u);
  EXPECT_EQ(cap.total_parts(), 2u);
  sched.on_page_complete();
  EXPECT_EQ(cap.bundles.size(), 2u);  // nothing pending
}

TEST(BundleScheduler, OnloadHoldsUntilOnloadEvent) {
  Capture cap;
  BundleScheduler sched(BundleConfig{BundleConfig::kUnbounded}, cap.sink());
  feed(sched, "http://a.example/1.jpg", 1000);
  feed(sched, "http://a.example/2.jpg", 1000);
  EXPECT_TRUE(cap.bundles.empty());
  EXPECT_EQ(sched.pending_bytes(), 2000);
  sched.on_proxy_onload();
  ASSERT_EQ(cap.bundles.size(), 1u);
  EXPECT_EQ(cap.bundles[0].part_count(), 2u);
  // Post-onload stragglers wait for the completion flush.
  feed(sched, "http://a.example/late.jpg", 500);
  EXPECT_EQ(cap.bundles.size(), 1u);
  sched.on_page_complete();
  ASSERT_EQ(cap.bundles.size(), 2u);
  EXPECT_EQ(cap.bundles[1].part_count(), 1u);
}

TEST(BundleScheduler, ThresholdFlushesAtX) {
  Capture cap;
  BundleScheduler sched(BundleConfig{2500}, cap.sink());
  feed(sched, "http://a.example/1.jpg", 1000);
  feed(sched, "http://a.example/2.jpg", 1000);
  EXPECT_TRUE(cap.bundles.empty());
  feed(sched, "http://a.example/3.jpg", 1000);  // crosses 2500
  ASSERT_EQ(cap.bundles.size(), 1u);
  EXPECT_EQ(cap.bundles[0].part_count(), 3u);
}

TEST(BundleScheduler, ThresholdAlsoFlushesAtOnload) {
  Capture cap;
  BundleScheduler sched(BundleConfig{1'000'000}, cap.sink());
  feed(sched, "http://a.example/1.jpg", 1000);
  sched.on_proxy_onload();
  EXPECT_EQ(cap.bundles.size(), 1u);
}

TEST(BundleScheduler, CompleteFlushesRemainderOnce) {
  Capture cap;
  BundleScheduler sched(BundleConfig{10'000}, cap.sink());
  feed(sched, "http://a.example/1.jpg", 1000);
  sched.on_page_complete();
  EXPECT_EQ(cap.bundles.size(), 1u);
  sched.on_page_complete();  // idempotent on empty
  EXPECT_EQ(cap.bundles.size(), 1u);
  EXPECT_EQ(sched.bundles_sent(), 1u);
}

TEST(BundleScheduler, ValidatesConfig) {
  Capture cap;
  EXPECT_THROW(BundleScheduler(BundleConfig{-1}, cap.sink()),
               std::invalid_argument);
  EXPECT_THROW(BundleScheduler(BundleConfig{0}, nullptr),
               std::invalid_argument);
  BundleScheduler sched(BundleConfig{util::kib(512)}, cap.sink());
  EXPECT_THROW(sched.set_threshold(-1), std::invalid_argument);
  EXPECT_EQ(sched.threshold(), util::kib(512));

  // Threshold 0 is IND: every object, even an empty one, is its own bundle.
  sched.set_threshold(0);
  feed(sched, "http://a.example/1.jpg", 1000);
  feed(sched, "http://a.example/empty.gif", 0);
  EXPECT_EQ(cap.bundles.size(), 2u);
  EXPECT_EQ(sched.pending_bytes(), 0);
}

TEST(BundleConfig, Names) {
  EXPECT_EQ(BundleConfig{}.name(), "PARCEL(IND)");
  EXPECT_EQ(BundleConfig{BundleConfig::kUnbounded}.name(), "PARCEL(ONLD)");
  EXPECT_EQ(BundleConfig{util::kib(512)}.name(), "PARCEL(512K)");
  EXPECT_EQ(BundleConfig{util::mib(1)}.name(), "PARCEL(1M)");
  EXPECT_EQ(BundleConfig{util::mib(2)}.name(), "PARCEL(2M)");
  // X that no larger unit divides prints in the largest one that does.
  EXPECT_EQ(BundleConfig{1}.name(), "PARCEL(1B)");
  EXPECT_EQ(BundleConfig{1023}.name(), "PARCEL(1023B)");
  EXPECT_EQ(BundleConfig{util::kib(1536)}.name(), "PARCEL(1536K)");
  EXPECT_EQ(BundleConfig{util::mib(1) + 1}.name(), "PARCEL(1048577B)");
}

// The push path hands the client the writer's parts and charges the radio
// wire_size() bytes, skipping the MHTML round trip. Every bundle a proxy
// pushes while loading alexa34 pages under PARCEL(IND) and PARCEL(ONLD)
// must make that equivalent to serialize-then-parse.
TEST(BundleHandOff, EqualsTheMhtmlRoundTrip) {
  web::PageGenerator generator(2014);
  std::size_t bundles_checked = 0;
  std::size_t text_parts = 0;
  std::size_t opaque_parts = 0;
  for (const web::PageSpec& spec : generator.corpus_specs(4)) {
    const web::WebPage page = web::PageGenerator::generate(spec);
    for (const BundleConfig& bundle :
         {BundleConfig{0}, BundleConfig{BundleConfig::kUnbounded}}) {
      Testbed testbed{TestbedConfig{}};
      testbed.host_page(page);
      ParcelProxy proxy(testbed.network(), ProxyConfig{.bundle = bundle},
                        util::Rng(spec.seed));
      Capture cap;
      proxy.start(page.main_url(), "ParcelBrowser/1.0", cap.sink(), [] {});
      testbed.scheduler().run_until(util::TimePoint::at_seconds(60));
      ASSERT_TRUE(proxy.completion_declared()) << bundle.name();
      ASSERT_FALSE(cap.bundles.empty()) << bundle.name();

      for (const web::MhtmlWriter& writer : cap.bundles) {
        const std::string wire = writer.serialize();
        EXPECT_EQ(writer.wire_size(), wire.size());
        const std::vector<web::MhtmlPart> parsed =
            web::MhtmlReader::parse(wire);
        const std::vector<web::MhtmlPart> handed =
            web::MhtmlWriter(writer).take_parts();
        ASSERT_EQ(parsed.size(), handed.size());
        for (std::size_t i = 0; i < handed.size(); ++i) {
          EXPECT_EQ(parsed[i].location.str(), handed[i].location.str());
          EXPECT_EQ(parsed[i].location.id(), handed[i].location.id());
          EXPECT_EQ(parsed[i].content_type, handed[i].content_type);
          EXPECT_EQ(parsed[i].body_size, handed[i].body_size);
          if (handed[i].content) {
            ASSERT_NE(parsed[i].content, nullptr);
            EXPECT_EQ(*parsed[i].content, *handed[i].content);
            ++text_parts;
          } else {
            EXPECT_EQ(parsed[i].content, nullptr);
            ++opaque_parts;
          }
        }
        ++bundles_checked;
      }
    }
  }
  EXPECT_GT(bundles_checked, 8u);
  EXPECT_GT(text_parts, 0u);
  EXPECT_GT(opaque_parts, 0u);
}

}  // namespace
}  // namespace parcel::core
