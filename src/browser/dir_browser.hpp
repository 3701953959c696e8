// DirBrowser: the traditional mobile browser baseline ("DIR", §7.1).
//
// Classic behaviour: DNS lookup per server domain, up to six parallel
// persistent HTTP connections per domain, one HTTP request-response per
// object over the cellular link, parse-as-you-go discovery. Every one of
// those round trips crosses the high-RTT radio — the cost PARCEL removes.
#pragma once

#include <memory>
#include <string>

#include "browser/engine.hpp"
#include "browser/fetcher.hpp"
#include "net/dns.hpp"
#include "net/network.hpp"
#include "util/rc.hpp"

namespace parcel::browser {

struct DirConfig {
  int max_conns_per_domain = 6;
  /// Browser-wide cap on concurrent connections (2014 mobile browsers
  /// held around a dozen sockets total).
  int max_total_connections = 9;
  net::TcpParams tcp;
  EngineConfig engine;
  /// Mean resolver-side latency per uncached DNS lookup.
  Duration dns_latency = Duration::millis(25);

  /// Per-object fetch hardening. Off by default — zero timers armed, so
  /// fair-weather runs stay byte-identical. The experiment harness enables
  /// these only when a fault plan is active.
  Duration object_timeout = Duration::zero();  // zero = no timeout
  int max_fetch_retries = 0;
  Duration retry_backoff = Duration::millis(250);  // doubles per retry
};

/// Fetcher that resolves DNS then issues pooled HTTP requests from the
/// named vantage ("client" for DIR, "proxy" for the PARCEL/CB proxies).
class NetworkFetcher final : public Fetcher {
 public:
  NetworkFetcher(net::Network& network, const std::string& vantage,
                 DirConfig config, util::Rng rng);

  void fetch(const net::Url& url, web::ObjectType hint, bool randomized,
             std::uint32_t object_id, FetchCallback on_result) override;

  /// POST a body to `url`; used by PARCEL's proxy when relaying client
  /// POSTs unmodified (§4.5).
  void post(const net::Url& url, util::Bytes body_bytes,
            std::function<void(const net::HttpResponse&)> on_response);

  [[nodiscard]] std::size_t dns_lookups() const {
    return dns_.lookups_issued();
  }
  [[nodiscard]] std::size_t connections_opened() const {
    return pool_.connections_opened();
  }
  [[nodiscard]] std::size_t requests_issued() const {
    return pool_.requests_issued();
  }
  [[nodiscard]] std::uint64_t fetch_retries() const { return fetch_retries_; }
  [[nodiscard]] std::uint64_t fetch_timeouts() const {
    return fetch_timeouts_;
  }
  [[nodiscard]] std::uint64_t retransmits() const {
    return pool_.retransmits();
  }

 private:
  /// One object's hardened fetch: what to request, whom to answer and the
  /// retry state. The timeout timer, the DNS and response callbacks of
  /// every attempt and the retry timer each capture only this box. The
  /// first completion wins; late copies are ignored.
  struct FetchState {
    FetchState(net::Url u, web::ObjectType h, std::uint32_t id,
               FetchCallback cb)
        : url(std::move(u)), hint(h), object_id(id), on_result(std::move(cb)) {}

    net::Url url;
    web::ObjectType hint;
    std::uint32_t object_id;
    FetchCallback on_result;
    bool done = false;
    int attempt = 0;
    sim::EventHandle timer;
  };

  void fetch_attempt(const util::Rc<FetchState>& state);
  void retry_after_backoff(const util::Rc<FetchState>& state);

  net::Network& network_;
  DirConfig config_;
  util::Rng rng_;
  net::DnsClient dns_;
  net::HttpClientPool pool_;
  std::uint64_t fetch_retries_ = 0;
  std::uint64_t fetch_timeouts_ = 0;
};

/// Convert an HTTP response into the engine's FetchResult, preferring the
/// engine's type hint when the MIME type is ambiguous (sync vs async JS).
[[nodiscard]] FetchResult to_fetch_result(const net::HttpResponse& response,
                                          web::ObjectType hint);

class DirBrowser {
 public:
  DirBrowser(net::Network& network, DirConfig config, util::Rng rng);

  /// Load a page. Calling again models the next page of a browsing
  /// session: a fresh engine carries over the device cache, and the
  /// fetcher keeps its DNS cache and warm connections.
  void load(const net::Url& url, BrowserEngine::Callbacks callbacks);
  void click(int index, std::function<void()> on_done);

  [[nodiscard]] BrowserEngine& engine() { return *engine_; }
  [[nodiscard]] const BrowserEngine& engine() const { return *engine_; }
  [[nodiscard]] NetworkFetcher& fetcher() { return *fetcher_; }

 private:
  net::Network& network_;
  DirConfig config_;
  util::Rng engine_rng_;
  std::unique_ptr<NetworkFetcher> fetcher_;
  std::unique_ptr<BrowserEngine> engine_;
  std::vector<std::unique_ptr<BrowserEngine>> retired_engines_;
};

}  // namespace parcel::browser
