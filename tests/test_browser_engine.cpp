#include <gtest/gtest.h>

#include <map>

#include "browser/engine.hpp"
#include "browser/main_thread.hpp"
#include "sim/scheduler.hpp"

namespace parcel::browser {
namespace {

using util::Duration;
using util::TimePoint;

/// In-memory fetcher with a fixed latency per object; records requests.
class FakeFetcher final : public Fetcher {
 public:
  explicit FakeFetcher(sim::Scheduler& sched) : sched_(sched) {}

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

  void fetch(const net::Url& url, web::ObjectType hint, bool randomized,
             std::uint32_t, FetchCallback cb) override {
    (void)randomized;
    requested.push_back(url.str());
    auto it = objects_.find(url.str());
    FetchResult result;
    if (it == objects_.end()) {
      result.url = url;
      result.status = 404;
      result.size = 512;
    } else {
      result = it->second;
      // Sync/async JS share a MIME type; honour the engine's hint.
      if ((result.type == web::ObjectType::kJs ||
           result.type == web::ObjectType::kJsAsync) &&
          (hint == web::ObjectType::kJs ||
           hint == web::ObjectType::kJsAsync)) {
        result.type = hint;
      }
    }
    sched_.schedule_after(latency, [result = std::move(result),
                                    cb = std::move(cb)]() mutable {
      cb(std::move(result));
    });
  }

  Duration latency = Duration::millis(50);
  std::vector<std::string> requested;

 private:
  sim::Scheduler& sched_;
  std::map<std::string, FetchResult> objects_;
};

struct EngineFixture : ::testing::Test {
  sim::Scheduler sched;
  FakeFetcher fetcher{sched};
  EngineConfig config;

  EngineFixture() {
    config.parse_bytes_per_sec = 1e6;
    config.js_units_per_sec = 100;
    config.async_exec_min = Duration::millis(100);
    config.async_exec_max = Duration::millis(200);
  }

  std::unique_ptr<BrowserEngine> make_engine() {
    return std::make_unique<BrowserEngine>(sched, fetcher, config,
                                           util::Rng(1), "test");
  }
};

TEST_F(EngineFixture, LoadsSimplePageAndFiresCallbacks) {
  fetcher.add("http://a.example/", web::ObjectType::kHtml,
              "<html><img src=\"/x.jpg\"></html>");
  fetcher.add_opaque("http://a.example/x.jpg", web::ObjectType::kImage, 1000);

  auto engine = make_engine();
  bool onload = false, complete = false;
  BrowserEngine::Callbacks cbs;
  cbs.on_onload = [&](TimePoint) { onload = true; };
  cbs.on_complete = [&](TimePoint) { complete = true; };
  engine->load(net::Url::parse("http://a.example/"), std::move(cbs));
  sched.run();
  EXPECT_TRUE(onload);
  EXPECT_TRUE(complete);
  EXPECT_LE(engine->onload_time(), engine->complete_time());
  EXPECT_EQ(engine->ledger().count(), 2u);
  EXPECT_GT(engine->cpu_busy().sec(), 0.0);
}

TEST_F(EngineFixture, SyncScriptBlocksParserUntilExecuted) {
  fetcher.add("http://a.example/", web::ObjectType::kHtml,
              "<html><script src=\"/slow.js\"></script>"
              "<img src=\"/late.jpg\"></html>");
  fetcher.add("http://a.example/slow.js", web::ObjectType::kJs,
              "compute(5);");
  fetcher.add_opaque("http://a.example/late.jpg", web::ObjectType::kImage,
                     100);

  auto engine = make_engine();
  engine->load(net::Url::parse("http://a.example/"), {});
  sched.run();
  // The image must have been requested only after the script.
  auto& reqs = fetcher.requested;
  auto js_pos = std::find(reqs.begin(), reqs.end(), "http://a.example/slow.js");
  auto img_pos =
      std::find(reqs.begin(), reqs.end(), "http://a.example/late.jpg");
  ASSERT_NE(js_pos, reqs.end());
  ASSERT_NE(img_pos, reqs.end());
  EXPECT_LT(js_pos - reqs.begin(), img_pos - reqs.begin());
}

TEST_F(EngineFixture, JsRevealedDependenciesAreFetched) {
  fetcher.add("http://a.example/", web::ObjectType::kHtml,
              "<html><script src=\"/a.js\"></script></html>");
  fetcher.add("http://a.example/a.js", web::ObjectType::kJs,
              "loadScript(\"/b.js\");\nfetch(\"/d.json\");");
  fetcher.add("http://a.example/b.js", web::ObjectType::kJs,
              "document.write('<img src=\"/img.jpg\">');");
  fetcher.add("http://a.example/d.json", web::ObjectType::kJson, "{}");
  fetcher.add_opaque("http://a.example/img.jpg", web::ObjectType::kImage, 99);

  auto engine = make_engine();
  engine->load(net::Url::parse("http://a.example/"), {});
  sched.run();
  EXPECT_TRUE(engine->completed());
  EXPECT_EQ(engine->ledger().count(), 5u);
  // All were blocking (revealed by sync scripts): onload set == all.
  EXPECT_EQ(engine->ledger().onload_ids().size(), 5u);
}

TEST_F(EngineFixture, AsyncScriptRunsAfterOnloadProducingPostOnloadFetches) {
  fetcher.add("http://a.example/", web::ObjectType::kHtml,
              "<html><script async src=\"/ad.js\"></script>"
              "<img src=\"/hero.jpg\"></html>");
  fetcher.add("http://a.example/ad.js", web::ObjectType::kJsAsync,
              "fetch(\"/ad.json\");");
  fetcher.add("http://a.example/ad.json", web::ObjectType::kJson, "{}");
  fetcher.add_opaque("http://a.example/hero.jpg", web::ObjectType::kImage,
                     2000);

  auto engine = make_engine();
  engine->load(net::Url::parse("http://a.example/"), {});
  sched.run();
  EXPECT_TRUE(engine->completed());
  EXPECT_GT(engine->complete_time(), engine->onload_time());
  // Neither the async script nor its JSON belongs to the onload set; only
  // the HTML and the hero image do.
  EXPECT_EQ(engine->ledger().onload_ids().size(), 2u);
  EXPECT_EQ(engine->ledger().count(), 4u);
}

TEST_F(EngineFixture, CssRevealsImagesAndFonts) {
  fetcher.add("http://a.example/", web::ObjectType::kHtml,
              "<html><link rel=\"stylesheet\" href=\"/s.css\"></html>");
  fetcher.add("http://a.example/s.css", web::ObjectType::kCss,
              ".a { background-image: url(\"/bg.png\"); }\n"
              "@font-face { src: url(\"/f.woff2\"); }");
  fetcher.add_opaque("http://a.example/bg.png", web::ObjectType::kImage, 10);
  fetcher.add_opaque("http://a.example/f.woff2", web::ObjectType::kFont, 10);

  auto engine = make_engine();
  engine->load(net::Url::parse("http://a.example/"), {});
  sched.run();
  EXPECT_EQ(engine->ledger().count(), 4u);
  EXPECT_TRUE(engine->is_cached(net::Url::parse("http://a.example/bg.png")));
}

TEST_F(EngineFixture, DuplicateReferencesFetchedOnce) {
  fetcher.add("http://a.example/", web::ObjectType::kHtml,
              "<html><img src=\"/same.jpg\"><img src=\"/same.jpg\"></html>");
  fetcher.add_opaque("http://a.example/same.jpg", web::ObjectType::kImage, 5);
  auto engine = make_engine();
  engine->load(net::Url::parse("http://a.example/"), {});
  sched.run();
  EXPECT_EQ(engine->ledger().count(), 2u);
  EXPECT_EQ(engine->fetches_issued(), 2u);
}

TEST_F(EngineFixture, MissingObjectDoesNotStallOnload) {
  fetcher.add("http://a.example/", web::ObjectType::kHtml,
              "<html><img src=\"/gone.jpg\"></html>");
  auto engine = make_engine();
  engine->load(net::Url::parse("http://a.example/"), {});
  sched.run();
  EXPECT_TRUE(engine->onload_fired());
  EXPECT_TRUE(engine->completed());
  EXPECT_TRUE(engine->ledger().entry(2).failed);
}

TEST_F(EngineFixture, ClickHandlersResolveLocallyWhenCached) {
  fetcher.add("http://a.example/", web::ObjectType::kHtml,
              "<html><script src=\"/g.js\"></script></html>");
  fetcher.add("http://a.example/g.js", web::ObjectType::kJs,
              "document.write('<img src=\"/p0.jpg\">');\n"
              "onClick(0, \"/p0.jpg\");\nonClick(1, \"/p1.jpg\");");
  fetcher.add_opaque("http://a.example/p0.jpg", web::ObjectType::kImage, 10);
  fetcher.add_opaque("http://a.example/p1.jpg", web::ObjectType::kImage, 10);

  auto engine = make_engine();
  engine->load(net::Url::parse("http://a.example/"), {});
  sched.run();
  ASSERT_TRUE(engine->has_click_handler(0));
  std::size_t fetches_before = engine->fetches_issued();

  bool done0 = false;
  engine->click(0, [&] { done0 = true; });  // p0 cached during load
  sched.run();
  EXPECT_TRUE(done0);
  EXPECT_EQ(engine->fetches_issued(), fetches_before);  // no network

  bool done1 = false;
  engine->click(1, [&] { done1 = true; });  // p1 never fetched
  sched.run();
  EXPECT_TRUE(done1);
  EXPECT_EQ(engine->fetches_issued(), fetches_before + 1);
  EXPECT_THROW(engine->click(42, [] {}), std::invalid_argument);
}

TEST_F(EngineFixture, LoadTwiceThrows) {
  fetcher.add("http://a.example/", web::ObjectType::kHtml, "<html></html>");
  auto engine = make_engine();
  engine->load(net::Url::parse("http://a.example/"), {});
  EXPECT_THROW(engine->load(net::Url::parse("http://a.example/"), {}),
               std::logic_error);
}

TEST(MainThread, SerializesTasksAndAccumulatesBusyTime) {
  sim::Scheduler sched;
  MainThread thread(sched);
  std::vector<int> order;
  thread.post(Duration::millis(10), true, [&] { order.push_back(1); });
  thread.post(Duration::millis(20), false, [&] { order.push_back(2); });
  EXPECT_EQ(thread.pending_blocking(), 1u);
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_NEAR(thread.busy_total().sec(), 0.030, 1e-9);
  EXPECT_TRUE(thread.idle());
  EXPECT_EQ(thread.pending_blocking(), 0u);
  EXPECT_NEAR(sched.now().sec(), 0.030, 1e-9);
}

TEST(MainThread, RejectsBadTasks) {
  sim::Scheduler sched;
  MainThread thread(sched);
  EXPECT_THROW(thread.post(Duration::millis(1), false, nullptr),
               std::invalid_argument);
  EXPECT_THROW(
      thread.post(Duration::seconds(-1), false, [] {}),
      std::invalid_argument);
}

}  // namespace
}  // namespace parcel::browser
