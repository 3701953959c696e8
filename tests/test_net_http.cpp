#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "net/fault_injector.hpp"
#include "net/http.hpp"
#include "net/network.hpp"
#include "sim/fault_plan.hpp"
#include "sim/scheduler.hpp"

namespace parcel::net {
namespace {

using util::BitRate;
using util::Duration;
using util::TimePoint;

/// Endpoint answering every GET with a fixed-size body after a delay.
class FixedEndpoint final : public HttpEndpoint {
 public:
  FixedEndpoint(sim::Scheduler& sched, util::Bytes body, Duration think)
      : sched_(sched), body_(body), think_(think) {}

  void handle(const HttpRequest& request,
              Responder respond) override {
    ++requests_;
    last_request = request;
    HttpResponse resp;
    resp.status = request.method == HttpMethod::kPost ? 204 : 200;
    resp.url = request.url;
    resp.body_bytes = request.method == HttpMethod::kPost ? 0 : body_;
    sched_.schedule_after(think_, [resp, respond = std::move(respond)] {
      respond(resp);
    });
  }

  int requests_ = 0;
  HttpRequest last_request;

 private:
  sim::Scheduler& sched_;
  util::Bytes body_;
  Duration think_;
};

struct HttpFixture : ::testing::Test {
  sim::Scheduler sched;
  DuplexLink link{sched, "l", BitRate::mbps(80), BitRate::mbps(80),
                  Duration::millis(10)};
  Path path{{&link}};
  TcpParams params;
};

TEST_F(HttpFixture, RequestResponseRoundTrip) {
  FixedEndpoint endpoint(sched, 50'000, Duration::millis(30));
  HttpConnection conn(sched, path, endpoint, params, 1);
  HttpRequest req;
  req.url = Url::parse("http://a.example/x.bin");
  int responses = 0;
  conn.fetch(req, 1, [&](const HttpResponse& resp) {
    ++responses;
    EXPECT_EQ(resp.status, 200);
    EXPECT_EQ(resp.body_bytes, 50'000);
    EXPECT_GT(resp.wire_size(), resp.body_bytes);
  });
  sched.run();
  EXPECT_EQ(responses, 1);
  EXPECT_EQ(endpoint.requests_, 1);
}

TEST_F(HttpFixture, ResponsesReturnInRequestOrder) {
  FixedEndpoint endpoint(sched, 1'000, Duration::millis(5));
  HttpConnection conn(sched, path, endpoint, params, 1);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    HttpRequest req;
    req.url = Url::parse("http://a.example/" + std::to_string(i));
    conn.fetch(req, static_cast<std::uint32_t>(i + 1),
               [&order, i](const HttpResponse&) { order.push_back(i); });
  }
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST_F(HttpFixture, PostCarriesBodyAndGets204) {
  FixedEndpoint endpoint(sched, 1'000, Duration::millis(5));
  HttpConnection conn(sched, path, endpoint, params, 1);
  HttpRequest req;
  req.method = HttpMethod::kPost;
  req.url = Url::parse("http://a.example/form");
  req.body_bytes = 2'000;
  int status = 0;
  conn.fetch(req, 1, [&](const HttpResponse& resp) { status = resp.status; });
  sched.run();
  EXPECT_EQ(status, 204);
  EXPECT_EQ(endpoint.last_request.body_bytes, 2'000);
  EXPECT_GT(endpoint.last_request.wire_size(), 2'000);
}

TEST_F(HttpFixture, PoolOpensUpToPerDomainCap) {
  FixedEndpoint endpoint(sched, 10'000, Duration::millis(50));
  Network network(sched);
  network.register_endpoint("a.example", endpoint);
  HttpClientPool pool(
      sched, [this](const std::string&) { return path; },
      [&](const std::string& d) { return network.endpoint(d); },
      [&network]() { return network.next_conn_id(); }, params,
      /*max_conns_per_domain=*/6, /*max_total=*/17);
  int responses = 0;
  for (int i = 0; i < 12; ++i) {
    HttpRequest req;
    req.url = Url::parse("http://a.example/" + std::to_string(i));
    pool.fetch(req, static_cast<std::uint32_t>(i + 1),
               [&](const HttpResponse&) { ++responses; });
  }
  sched.run();
  EXPECT_EQ(responses, 12);
  EXPECT_EQ(pool.connections_opened(), 6u);
  EXPECT_EQ(pool.requests_issued(), 12u);
}

TEST_F(HttpFixture, PoolHonorsGlobalCap) {
  FixedEndpoint endpoint(sched, 10'000, Duration::millis(50));
  Network network(sched);
  std::vector<std::string> domains{"a.example", "b.example", "c.example"};
  for (const auto& d : domains) network.register_endpoint(d, endpoint);
  HttpClientPool pool(
      sched, [this](const std::string&) { return path; },
      [&](const std::string& d) { return network.endpoint(d); },
      [&network]() { return network.next_conn_id(); }, params,
      /*max_conns_per_domain=*/6, /*max_total=*/4);
  int responses = 0;
  for (int i = 0; i < 18; ++i) {
    HttpRequest req;
    req.url = Url::parse("http://" + domains[static_cast<size_t>(i) % 3] +
                         "/" + std::to_string(i));
    pool.fetch(req, static_cast<std::uint32_t>(i + 1),
               [&](const HttpResponse&) { ++responses; });
  }
  sched.run();
  EXPECT_EQ(responses, 18);
  // The cap bounds *concurrency*; lifetime connection count may exceed it
  // as domains take turns, but never the per-domain x domain-count bound.
  EXPECT_LE(pool.peak_concurrency(), 4u);
  EXPECT_LE(pool.connections_opened(), 12u);
}

/// Endpoint whose body size depends on the object id carried in the URL
/// path ("/<id>"), so domains finish out of step and freed slots change
/// hands; records the object ids in the order requests reach it.
class SizedEndpoint final : public HttpEndpoint {
 public:
  explicit SizedEndpoint(sim::Scheduler& sched) : sched_(sched) {}

  void handle(const HttpRequest& request,
              Responder respond) override {
    const auto id = static_cast<std::uint32_t>(
        std::stoul(std::string(request.url.path()).substr(1)));
    arrivals.push_back(id);
    HttpResponse resp;
    resp.url = request.url;
    resp.body_bytes = 2'000 + static_cast<util::Bytes>(id % 7) * 9'000;
    sched_.schedule_after(Duration::millis(5 + id % 3),
                          [resp, respond = std::move(respond)] {
                            respond(resp);
                          });
  }

  std::vector<std::uint32_t> arrivals;

 private:
  sim::Scheduler& sched_;
};

/// Five domains x eight objects against 2 connections per domain and 4 in
/// total: the global cap, not the per-domain one, decides which domain's
/// backlog gets each freed slot.
struct PoolCapFixture : HttpFixture {
  SizedEndpoint endpoint{sched};
  Network network{sched};
  std::vector<std::uint32_t> completed;

  PoolCapFixture() {
    for (const char* d : {"a.example", "b.example", "c.example", "d.example",
                          "e.example"}) {
      network.register_endpoint(d, endpoint);
    }
  }

  HttpClientPool make_pool() {
    return HttpClientPool{
        sched, [this](const std::string&) { return path; },
        [this](const std::string& d) { return network.endpoint(d); },
        [this]() { return network.next_conn_id(); }, params,
        /*max_conns_per_domain=*/2, /*max_total=*/4};
  }

  void fetch_all(HttpClientPool& pool) {
    // Interleave domains in a fixed, non-alphabetical order.
    std::uint32_t id = 1;
    for (int round = 0; round < 8; ++round) {
      for (const char* d : {"c.example", "a.example", "e.example",
                            "b.example", "d.example"}) {
        HttpRequest req;
        req.url = Url::parse(std::string("http://") + d + "/" +
                             std::to_string(id));
        pool.fetch(req, id, [this, id](const HttpResponse&) {
          completed.push_back(id);
        });
        ++id;
      }
    }
  }
};

// Pins the pool's dispatch decisions (which request goes out next, when
// connections open) so a change to its bookkeeping must reproduce them.
TEST_F(PoolCapFixture, DispatchOrderUnderGlobalCapIsPinned) {
  HttpClientPool pool = make_pool();
  fetch_all(pool);
  sched.run();
  const std::vector<std::uint32_t> want_arrivals{
      1,  2,  3,  4,  14, 12, 7,  9,  17, 19, 22, 24, 27, 29,
      32, 37, 34, 39, 6,  11, 5,  10, 16, 21, 15, 26, 20, 31,
      25, 36, 30, 8,  35, 40, 13, 18, 23, 28, 33, 38};
  EXPECT_EQ(endpoint.arrivals, want_arrivals);
  EXPECT_EQ(completed.size(), 40u);
  EXPECT_EQ(pool.peak_concurrency(), 4u);
  EXPECT_EQ(pool.connections_opened(), 10u);
  EXPECT_EQ(pool.requests_issued(), 40u);
}

// A connection broken by loss never answers, so its slot stays busy for
// the rest of the run: the other requests share the remaining three.
TEST_F(PoolCapFixture, BrokenConnectionKeepsItsSlotBusy) {
  FaultInjector inj{sim::FaultPlan{}};
  link.up().set_fault_injector(&inj);
  link.down().set_fault_injector(&inj);
  params.loss_recovery = true;
  params.max_retransmits = 0;  // the first loss breaks its connection
  HttpClientPool pool = make_pool();
  fetch_all(pool);
  sched.schedule_at(TimePoint::origin() + Duration::millis(150),
                    [&inj] { inj.drop_next(1); });
  sched.run();
  const std::vector<std::uint32_t> want_arrivals{
      1,  2,  3,  4,  14, 12, 7,  9,  17, 19, 22, 24, 27, 29,
      32, 34, 39, 37, 6,  11, 5,  16, 21, 26, 31, 10, 36, 15,
      8,  25, 20, 13, 30, 35, 18, 40, 28, 23, 33, 38};
  EXPECT_EQ(endpoint.arrivals, want_arrivals);
  EXPECT_EQ(completed.size(), 39u);  // one request never answers
  EXPECT_EQ(inj.drops(), 1u);
  EXPECT_EQ(pool.retransmits(), 0u);
  EXPECT_EQ(pool.peak_concurrency(), 4u);
  EXPECT_EQ(pool.connections_opened(), 10u);
  EXPECT_EQ(pool.requests_issued(), 40u);
}

TEST_F(HttpFixture, PoolUnknownDomainThrows) {
  Network network(sched);
  HttpClientPool pool(
      sched, [this](const std::string&) { return path; },
      [&](const std::string& d) { return network.endpoint(d); },
      [&network]() { return network.next_conn_id(); }, params, 6, 17);
  HttpRequest req;
  req.url = Url::parse("http://nowhere.example/");
  EXPECT_THROW(pool.fetch(req, 1, [](const HttpResponse&) {}),
               std::runtime_error);
}

TEST(HttpMessage, NoContentHasNoBody) {
  HttpResponse resp;
  resp.status = 204;
  resp.body_bytes = 0;
  EXPECT_FALSE(resp.has_body());
  EXPECT_GT(resp.wire_size(), 0);
}

}  // namespace
}  // namespace parcel::net
