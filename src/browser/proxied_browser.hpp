// Proxy-assisted baselines from Table 1 / §3:
//
//   HTTP proxy — the traditional web proxy (Squid-style, [9]): the proxy
//   resolves DNS and relays each request to origin servers, but the
//   *client* still identifies objects and issues one request-response per
//   object over the radio, across a handful of connections to the proxy.
//
//   SPDY proxy — one multiplexed connection from client to proxy ([5],
//   §4.3's discussion): eliminates per-connection setup and head-of-line
//   request serialization, but object identification remains on the
//   (slow) client, so request issue rate still gates the load — the
//   reason the paper argues SPDY alone does not close the gap.
//
// Both reuse BrowserEngine; only the Fetcher differs.
#pragma once

#include <memory>

#include "browser/dir_browser.hpp"
#include "browser/engine.hpp"
#include "net/dns.hpp"
#include "net/http.hpp"
#include "net/network.hpp"

namespace parcel::browser {

/// Proxy-side relay: answers client requests by fetching from origins
/// over the proxy's own wired paths (with proxy-side DNS).
class RelayProxy final : public net::HttpEndpoint {
 public:
  RelayProxy(net::Network& network, DirConfig fetch_config, util::Rng rng);

  void handle(const net::HttpRequest& request,
              Responder respond) override;

  [[nodiscard]] std::size_t relayed() const { return relayed_; }

 private:
  net::Network& network_;
  util::Rng rng_;
  net::DnsClient dns_;
  net::HttpClientPool pool_;
  std::size_t relayed_ = 0;
};

struct ProxiedBrowserConfig {
  /// Connections the client opens to the proxy (HTTP-proxy mode: a few;
  /// SPDY mode: exactly one).
  int client_connections = 6;
  /// Outstanding requests per connection (1 = HTTP/1.1; >1 = SPDY mux).
  int streams_per_connection = 1;
  net::TcpParams tcp;
  EngineConfig engine;

  static ProxiedBrowserConfig http_proxy();
  static ProxiedBrowserConfig spdy_proxy();
};

/// Client half: engine + fetcher that sends every request to the relay
/// proxy over the radio. No client DNS (the proxy resolves).
class ProxiedBrowser {
 public:
  ProxiedBrowser(net::Network& network, const std::string& proxy_domain,
                 ProxiedBrowserConfig config, util::Rng rng);

  void load(const net::Url& url, BrowserEngine::Callbacks callbacks);
  void click(int index, std::function<void()> on_done);

  [[nodiscard]] BrowserEngine& engine() { return *engine_; }
  [[nodiscard]] const BrowserEngine& engine() const { return *engine_; }
  /// Requests that crossed the radio to the proxy.
  [[nodiscard]] std::size_t requests_issued() const;

 private:
  class ProxiedFetcher final : public Fetcher {
   public:
    ProxiedFetcher(net::Network& network, const std::string& proxy_domain,
                   const ProxiedBrowserConfig& config, util::Rng rng);
    void fetch(const net::Url& url, web::ObjectType hint, bool randomized,
               std::uint32_t object_id,
               std::function<void(FetchResult)> on_result) override;
    std::size_t requests = 0;

   private:
    net::HttpConnection& pick_connection();

    util::Rng rng_;
    std::vector<std::unique_ptr<net::HttpConnection>> conns_;
    std::size_t next_ = 0;
  };

  std::unique_ptr<ProxiedFetcher> fetcher_;
  std::unique_ptr<BrowserEngine> engine_;
};

}  // namespace parcel::browser
