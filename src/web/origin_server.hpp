// OriginServer: the content web server for one domain.
//
// Serves the objects of hosted pages with per-object generation latency.
// Unknown URLs get a small 404. Cache-busted URLs (random query strings)
// resolve to the canonical object, as real CDNs and the paper's replay
// rig do. POST requests are answered with 204 unless a handler is
// registered (used to exercise PARCEL's POST relay path, §4.5).
#pragma once

#include <functional>
#include <string>
#include <unordered_map>

#include "net/http.hpp"
#include "sim/scheduler.hpp"
#include "web/page.hpp"

namespace parcel::net {
class FaultInjector;
}

namespace parcel::web {

class OriginServer final : public net::HttpEndpoint {
 public:
  OriginServer(sim::Scheduler& sched, std::string domain);

  /// Register this domain's slice of `page`. The page must outlive the
  /// server. Safe to host multiple pages.
  void host(const WebPage& page);

  void handle(const net::HttpRequest& request,
              Responder respond) override;

  /// Optional handler for POST bodies; returns the response. When unset,
  /// POSTs get 204 No Content.
  using PostHandler =
      std::function<net::HttpResponse(const net::HttpRequest&)>;
  void set_post_handler(PostHandler handler) {
    post_handler_ = std::move(handler);
  }

  /// Scale every object's think time (models slow origins).
  void set_think_scale(double scale) { think_scale_ = scale; }

  /// Consult an injector for stall windows and 503 answers. Null (the
  /// default) keeps the server fault-free; the injector must outlive the
  /// server (the Testbed owns both).
  void set_fault_injector(net::FaultInjector* faults) { faults_ = faults; }

  [[nodiscard]] const std::string& domain() const { return domain_; }
  [[nodiscard]] std::size_t requests_served() const { return served_; }
  [[nodiscard]] std::size_t not_found_count() const { return not_found_; }

 private:
  [[nodiscard]] const WebObject* lookup(const net::Url& url) const;

  sim::Scheduler& sched_;
  std::string domain_;
  /// Keyed by interned URL identity — no per-request str()/without_query()
  /// string building. Hits are verified against the stored object's URL
  /// components, so a (astronomically unlikely) 64-bit collision degrades
  /// to a 404 rather than serving the wrong object.
  std::unordered_map<net::UrlId, const WebObject*, net::UrlIdHash> by_url_;
  std::unordered_map<net::UrlId, const WebObject*, net::UrlIdHash>
      by_normalized_;
  PostHandler post_handler_;
  net::FaultInjector* faults_ = nullptr;
  double think_scale_ = 1.0;
  std::size_t served_ = 0;
  std::size_t not_found_ = 0;
};

}  // namespace parcel::web
