// BrowserEngine edge cases beyond the basic flows: @import chains, deep
// JS chains, inline scripts that reveal fetches, relative URL bases,
// media elements, and async-exec ordering guarantees.
#include <gtest/gtest.h>

#include <map>

#include "browser/engine.hpp"
#include "sim/scheduler.hpp"

namespace parcel::browser {
namespace {

using util::Duration;
using util::TimePoint;

class MapFetcher final : public Fetcher {
 public:
  explicit MapFetcher(sim::Scheduler& sched) : sched_(sched) {}

  void add(const std::string& url, web::ObjectType type,
           const std::string& body) {
    FetchResult r;
    r.url = net::Url::parse(url);
    r.type = type;
    r.content = std::make_shared<const std::string>(body);
    r.size = static_cast<util::Bytes>(body.size());
    objects_[url] = std::move(r);
  }
  void add_opaque(const std::string& url, web::ObjectType type,
                  util::Bytes size) {
    FetchResult r;
    r.url = net::Url::parse(url);
    r.type = type;
    r.size = size;
    objects_[url] = std::move(r);
  }

  void fetch(const net::Url& url, web::ObjectType hint, bool,
             std::uint32_t, FetchCallback cb) override {
    requested.push_back(url.str());
    auto it = objects_.find(url.str());
    FetchResult result;
    if (it == objects_.end()) {
      result.url = url;
      result.status = 404;
      result.size = 256;
    } else {
      result = it->second;
      if ((result.type == web::ObjectType::kJs ||
           result.type == web::ObjectType::kJsAsync) &&
          (hint == web::ObjectType::kJs ||
           hint == web::ObjectType::kJsAsync)) {
        result.type = hint;
      }
    }
    sched_.schedule_after(Duration::millis(20),
                          [result = std::move(result),
                           cb = std::move(cb)]() mutable { cb(result); });
  }

  std::vector<std::string> requested;

 private:
  sim::Scheduler& sched_;
  std::map<std::string, FetchResult> objects_;
};

struct EdgeFixture : ::testing::Test {
  sim::Scheduler sched;
  MapFetcher fetcher{sched};
  EngineConfig config;

  EdgeFixture() {
    config.parse_bytes_per_sec = 2e6;
    config.js_units_per_sec = 200;
    config.async_exec_min = Duration::millis(50);
    config.async_exec_max = Duration::millis(100);
  }

  std::unique_ptr<BrowserEngine> engine() {
    return std::make_unique<BrowserEngine>(sched, fetcher, config,
                                           util::Rng(3), "edge");
  }
};

TEST_F(EdgeFixture, CssImportChainsResolveTransitively) {
  fetcher.add("http://a.example/", web::ObjectType::kHtml,
              "<link rel=\"stylesheet\" href=\"/css/root.css\">");
  fetcher.add("http://a.example/css/root.css", web::ObjectType::kCss,
              "@import url(\"mid.css\");\n.x{background:url(\"/i1.png\");}");
  fetcher.add("http://a.example/css/mid.css", web::ObjectType::kCss,
              ".y{background:url(\"../i2.png\");}");
  fetcher.add_opaque("http://a.example/i1.png", web::ObjectType::kImage, 10);
  fetcher.add_opaque("http://a.example/i2.png", web::ObjectType::kImage, 10);

  auto e = engine();
  e->load(net::Url::parse("http://a.example/"), {});
  sched.run();
  EXPECT_TRUE(e->completed());
  EXPECT_EQ(e->ledger().count(), 5u);
  // @import-ed CSS inherits blocking status: all in the onload set.
  EXPECT_EQ(e->ledger().onload_ids().size(), 5u);
  // Relative resolution: mid.css lives under /css/, i2 one level up.
  EXPECT_TRUE(e->is_cached(net::Url::parse("http://a.example/css/mid.css")));
  EXPECT_TRUE(e->is_cached(net::Url::parse("http://a.example/i2.png")));
}

TEST_F(EdgeFixture, DeepJsChainsRunToTheBottom) {
  fetcher.add("http://a.example/", web::ObjectType::kHtml,
              "<script src=\"/j0.js\"></script>");
  for (int i = 0; i < 4; ++i) {
    fetcher.add("http://a.example/j" + std::to_string(i) + ".js",
                web::ObjectType::kJs,
                "compute(0.5);\nloadScript(\"/j" + std::to_string(i + 1) +
                    ".js\");");
  }
  fetcher.add("http://a.example/j4.js", web::ObjectType::kJs,
              "document.write('<img src=\"/leaf.jpg\">');");
  fetcher.add_opaque("http://a.example/leaf.jpg", web::ObjectType::kImage, 9);

  auto e = engine();
  e->load(net::Url::parse("http://a.example/"), {});
  sched.run();
  EXPECT_TRUE(e->completed());
  EXPECT_EQ(e->ledger().count(), 7u);  // html + 5 js + leaf
  // The leaf was requested last: chain order preserved.
  EXPECT_EQ(fetcher.requested.back(), "http://a.example/leaf.jpg");
}

TEST_F(EdgeFixture, InlineScriptsRevealFetches) {
  fetcher.add("http://a.example/", web::ObjectType::kHtml,
              "<script>\nfetch(\"/api/inline.json\");\ncompute(1);\n</script>");
  fetcher.add("http://a.example/api/inline.json", web::ObjectType::kJson,
              "{}");
  auto e = engine();
  e->load(net::Url::parse("http://a.example/"), {});
  sched.run();
  EXPECT_TRUE(e->completed());
  EXPECT_EQ(e->ledger().count(), 2u);
}

TEST_F(EdgeFixture, MediaElementsAreFetchedOpaque) {
  fetcher.add("http://a.example/", web::ObjectType::kHtml,
              "<video src=\"/clip.mp4\"></video>");
  fetcher.add_opaque("http://a.example/clip.mp4", web::ObjectType::kMedia,
                     500'000);
  auto e = engine();
  e->load(net::Url::parse("http://a.example/"), {});
  sched.run();
  EXPECT_TRUE(e->completed());
  EXPECT_EQ(e->ledger().entry(2).type, web::ObjectType::kMedia);
  EXPECT_EQ(e->ledger().entry(2).size, 500'000);
}

TEST_F(EdgeFixture, AsyncExecutionWaitsForOnload) {
  fetcher.add("http://a.example/", web::ObjectType::kHtml,
              "<script async src=\"/ad.js\"></script>"
              "<script src=\"/slow.js\"></script>");
  fetcher.add("http://a.example/ad.js", web::ObjectType::kJsAsync,
              "fetch(\"/ad.json\");");
  fetcher.add("http://a.example/slow.js", web::ObjectType::kJs,
              "compute(100);");  // 0.5 s of main-thread time
  fetcher.add("http://a.example/ad.json", web::ObjectType::kJson, "{}");

  auto e = engine();
  double onload_at = -1;
  BrowserEngine::Callbacks cbs;
  cbs.on_onload = [&](TimePoint t) { onload_at = t.sec(); };
  e->load(net::Url::parse("http://a.example/"), std::move(cbs));
  sched.run();
  ASSERT_GT(onload_at, 0);
  // The ad JSON request must postdate onload even though ad.js arrived
  // long before (async scripts defer to after the load event).
  const auto& entries = e->ledger().entries();
  for (const auto& entry : entries) {
    if (entry.url.path() == "/ad.json") {
      EXPECT_GT(entry.requested_at.sec(), onload_at);
    }
  }
}

TEST_F(EdgeFixture, EmptyPageCompletesImmediately) {
  fetcher.add("http://a.example/", web::ObjectType::kHtml,
              "<html><body>hello</body></html>");
  auto e = engine();
  e->load(net::Url::parse("http://a.example/"), {});
  sched.run();
  EXPECT_TRUE(e->completed());
  EXPECT_EQ(e->ledger().count(), 1u);
  EXPECT_DOUBLE_EQ(e->onload_time().sec(), e->complete_time().sec());
}

TEST_F(EdgeFixture, FourOhFourScriptUnblocksParser) {
  fetcher.add("http://a.example/", web::ObjectType::kHtml,
              "<script src=\"/gone.js\"></script><img src=\"/after.jpg\">");
  fetcher.add_opaque("http://a.example/after.jpg", web::ObjectType::kImage,
                     7);
  auto e = engine();
  e->load(net::Url::parse("http://a.example/"), {});
  sched.run();
  // Parser resumed past the failed script; the image still loaded.
  EXPECT_TRUE(e->completed());
  EXPECT_TRUE(e->is_cached(net::Url::parse("http://a.example/after.jpg")));
}

}  // namespace
}  // namespace parcel::browser
