#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/dns.hpp"
#include "net/url.hpp"
#include "sim/scheduler.hpp"

namespace parcel::net {
namespace {

TEST(Url, ParsesFullUrl) {
  Url u = Url::parse("https://www.example.com/a/b.js?x=1&r=9");
  EXPECT_EQ(u.scheme(), "https");
  EXPECT_EQ(u.host(), "www.example.com");
  EXPECT_EQ(u.path(), "/a/b.js");
  EXPECT_EQ(u.query(), "x=1&r=9");
  EXPECT_TRUE(u.is_https());
  EXPECT_EQ(u.str(), "https://www.example.com/a/b.js?x=1&r=9");
  EXPECT_EQ(u.without_query(), "www.example.com/a/b.js");
}

TEST(Url, DefaultsSchemeAndPath) {
  Url u = Url::parse("example.com");
  EXPECT_EQ(u.scheme(), "http");
  EXPECT_EQ(u.path(), "/");
  EXPECT_FALSE(u.is_https());
}

TEST(Url, EmptyHostThrows) {
  EXPECT_THROW(Url::parse("http:///path"), std::invalid_argument);
}

TEST(Url, ResolveAbsolute) {
  Url base = Url::parse("http://a.example/dir/page.html");
  EXPECT_EQ(base.resolve("http://b.example/x").str(), "http://b.example/x");
  EXPECT_EQ(base.resolve("//c.example/y").str(), "http://c.example/y");
}

TEST(Url, ResolveAbsolutePath) {
  Url base = Url::parse("http://a.example/dir/page.html");
  EXPECT_EQ(base.resolve("/img/z.png?k=1").str(),
            "http://a.example/img/z.png?k=1");
}

TEST(Url, ResolveRelativePath) {
  Url base = Url::parse("http://a.example/dir/page.html");
  EXPECT_EQ(base.resolve("pic.png").str(), "http://a.example/dir/pic.png");
}

TEST(Url, ResolveDotSegments) {
  Url base = Url::parse("http://a.example/css/deep/style.css");
  EXPECT_EQ(base.resolve("../img.png").str(),
            "http://a.example/css/img.png");
  EXPECT_EQ(base.resolve("../../top.png").str(), "http://a.example/top.png");
  EXPECT_EQ(base.resolve("./here.png").str(),
            "http://a.example/css/deep/here.png");
  // Escaping past the root clamps at the root.
  EXPECT_EQ(base.resolve("../../../../x.png").str(),
            "http://a.example/x.png");
}

// RFC 3986 §3: the authority ends at the first '/', '?' or '#', and a
// fragment is never part of the request.
TEST(Url, HostEndsAtQueryOrFragmentAndFragmentIsDropped) {
  const Url q = Url::parse("http://a.com?x=1");
  EXPECT_EQ(q.host(), "a.com");
  EXPECT_EQ(q.path(), "/");
  EXPECT_EQ(q.query(), "x=1");
  EXPECT_EQ(q.str(), "http://a.com/?x=1");

  const Url f = Url::parse("http://a.com/p#frag");
  EXPECT_EQ(f.host(), "a.com");
  EXPECT_EQ(f.path(), "/p");
  EXPECT_EQ(f.query(), "");
  EXPECT_EQ(f, Url::parse("http://a.com/p"));

  const Url hf = Url::parse("http://a.com#frag");
  EXPECT_EQ(hf.host(), "a.com");
  EXPECT_EQ(hf.path(), "/");

  // A '?' or '/' inside the fragment belongs to the fragment.
  const Url qf = Url::parse("http://a.com/p?k=v#f?x=/y");
  EXPECT_EQ(qf.path(), "/p");
  EXPECT_EQ(qf.query(), "k=v");

  // A "://" inside the query is no scheme.
  const Url nested = Url::parse("a.com/go?to=http://b.com/x");
  EXPECT_EQ(nested.scheme(), "http");
  EXPECT_EQ(nested.host(), "a.com");
  EXPECT_EQ(nested.path(), "/go");
  EXPECT_EQ(nested.query(), "to=http://b.com/x");

  EXPECT_THROW(Url::parse("http://?x=1"), std::invalid_argument);
  EXPECT_THROW(Url::parse("http://#f"), std::invalid_argument);
}

// RFC 3986 §3.1, §4.2, §5.2: only a leading scheme makes a reference
// absolute, a query alone keeps the base path, and a trailing "/" or "."
// segment keeps its slash.
TEST(Url, ResolveFollowsRfc3986) {
  const Url base = Url::parse("http://a.com/dir/page.html");
  const Url embedded = base.resolve("next.html?u=http://evil.com/x");
  EXPECT_EQ(embedded.host(), "a.com");
  EXPECT_EQ(embedded.path(), "/dir/next.html");
  EXPECT_EQ(embedded.query(), "u=http://evil.com/x");

  EXPECT_EQ(base.resolve("?q=1").str(), "http://a.com/dir/page.html?q=1");
  EXPECT_EQ(base.resolve("sub/").str(), "http://a.com/dir/sub/");
  EXPECT_EQ(base.resolve("./").str(), "http://a.com/dir/");
  EXPECT_EQ(base.resolve(".").str(), "http://a.com/dir/");
  EXPECT_EQ(base.resolve("..").str(), "http://a.com/");
  EXPECT_EQ(base.resolve("../").str(), "http://a.com/");
  EXPECT_EQ(base.resolve("sub/..").str(), "http://a.com/dir/");
  EXPECT_EQ(base.resolve("pic.png#top").str(), "http://a.com/dir/pic.png");
  EXPECT_EQ(base.resolve("#top"), base);
  EXPECT_EQ(base.resolve(""), base);
}

// Independently parsed equal URLs hold separate records, so equality and
// hashing must come from the components, not the record's address.
TEST(Url, EqualityAndHash) {
  Url a = Url::parse("http://x.example/p");
  Url b = Url::parse("http://x.example/p");
  EXPECT_EQ(a, b);
  EXPECT_EQ(std::hash<Url>{}(a), std::hash<Url>{}(b));
  EXPECT_EQ(a.id(), b.id());
  const Url c = Url::parse("http://x.example/p?q=1");
  EXPECT_NE(a, c);
  EXPECT_NE(a.id(), c.id());
  EXPECT_EQ(a.normalized_id(), c.normalized_id());
  EXPECT_EQ(a.host_id(), c.host_id());
}

void expect_same_url(const Url& u, const Url& want) {
  EXPECT_EQ(u.scheme(), want.scheme());
  EXPECT_EQ(u.host(), want.host());
  EXPECT_EQ(u.path(), want.path());
  EXPECT_EQ(u.query(), want.query());
  EXPECT_EQ(u.id(), want.id());
  EXPECT_EQ(u.normalized_id(), want.normalized_id());
  EXPECT_EQ(u.host_id(), want.host_id());
  EXPECT_EQ(u, want);
}

TEST(Url, CopyMoveAndAssignKeepTheValue) {
  const Url a = Url::parse("https://cdn.example.com/static/app.bundle.js?v=7");
  const Url b = Url::parse("http://other.example.org/index.html");

  Url copy = a;
  expect_same_url(copy, a);

  Url moved = std::move(copy);
  expect_same_url(moved, a);

  Url assigned = b;
  assigned = a;
  expect_same_url(assigned, a);
  expect_same_url(b, Url::parse("http://other.example.org/index.html"));

  Url move_assigned = b;
  move_assigned = std::move(assigned);
  expect_same_url(move_assigned, a);

  Url self = a;
  Url& alias = self;
  self = alias;
  expect_same_url(self, a);

  // A moved-from Url is still a valid value that can be reassigned.
  Url reused = std::move(moved);
  moved = b;
  expect_same_url(moved, b);
  expect_same_url(reused, a);
}

TEST(Url, DefaultUrlIsHttpRootWithPinnedIds) {
  const Url u;
  EXPECT_EQ(u.scheme(), "http");
  EXPECT_EQ(u.host(), "");
  EXPECT_EQ(u.path(), "/");
  EXPECT_EQ(u.query(), "");
  EXPECT_FALSE(u.is_https());
  EXPECT_EQ(u.str(), "http:///");
  EXPECT_EQ(u.id().v, 0xccbc2af437290081ULL);
  EXPECT_EQ(u.normalized_id().v, 0xaf63a24c860189feULL);
  EXPECT_EQ(u.host_id().v, 0xcbf29ce484222325ULL);
  EXPECT_EQ(u.host_id().v, intern_key(""));
  EXPECT_EQ(u, Url());
  const Url copy = u;
  EXPECT_EQ(copy, u);
  EXPECT_NE(u, Url::parse("http://a.example/"));
}

// Copies of one Url made and dropped on several threads at once: the
// shared record must survive every thread and read the same afterwards.
// Run under ThreadSanitizer by ci.sh.
TEST(Url, ConcurrentCopiesOfOneUrl) {
  constexpr int kThreads = 4;
  constexpr int kCopies = 100'000;
  const Url shared = Url::parse("http://shared.example/common/lib.js?q=1");
  const Url want = Url::parse("http://shared.example/common/lib.js?q=1");
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kCopies; ++i) {
        Url copy = shared;
        if (copy.id() != want.id()) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  expect_same_url(shared, want);
}

struct DnsFixture : ::testing::Test {
  sim::Scheduler sched;
  DuplexLink link{sched, "l", util::BitRate::mbps(10), util::BitRate::mbps(10),
                  util::Duration::millis(20)};
  Path path{{&link}};
};

TEST_F(DnsFixture, LookupCostsRttPlusServerLatency) {
  DnsClient dns(sched, path, util::Duration::millis(25), util::Rng(1),
                [] { return 1u; });
  double resolved_at = -1;
  dns.resolve("example.com", [&] { resolved_at = sched.now().sec(); });
  sched.run();
  EXPECT_GT(resolved_at, 0.040);  // at least one RTT
  EXPECT_EQ(dns.lookups_issued(), 1u);
}

TEST_F(DnsFixture, CacheHitIsSynchronousSecondTime) {
  DnsClient dns(sched, path, util::Duration::millis(25), util::Rng(1),
                [] { return 1u; });
  dns.resolve("example.com", [] {});
  sched.run();
  bool hit = false;
  dns.resolve("example.com", [&] { hit = true; });
  EXPECT_TRUE(hit);  // immediate, no event needed
  EXPECT_EQ(dns.cache_hits(), 1u);
  EXPECT_EQ(dns.lookups_issued(), 1u);
}

TEST_F(DnsFixture, DistinctDomainsEachLookedUp) {
  DnsClient dns(sched, path, util::Duration::millis(5), util::Rng(1),
                [] { return 1u; });
  int resolved = 0;
  dns.resolve("a.example", [&] { ++resolved; });
  dns.resolve("b.example", [&] { ++resolved; });
  sched.run();
  EXPECT_EQ(resolved, 2);
  EXPECT_EQ(dns.lookups_issued(), 2u);
}

}  // namespace
}  // namespace parcel::net
