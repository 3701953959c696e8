// CloudBrowser: the cloud-heavy baseline ("CB", §8.2).
//
// Models an Opera-Mini-style thin client: the proxy runs the full page
// load *and all JS*, then ships a compressed rendered snapshot to the
// client over a single connection. The client never executes page JS —
// so every interactive event must travel to the cloud, be executed
// there, and return a fresh snapshot delta. That round trip (and the
// radio promotion it forces after an idle gap) is exactly the behaviour
// the paper's Fig 8 charges against cloud-heavy designs.
#pragma once

#include <map>
#include <memory>
#include <optional>

#include "browser/dir_browser.hpp"
#include "browser/engine.hpp"
#include "browser/ledger.hpp"
#include "browser/main_thread.hpp"
#include "net/network.hpp"

namespace parcel::browser {

struct CloudBrowserConfig {
  /// Proxy-side transformation shrinks page bytes by this factor
  /// (snapshot compression is CB's selling point for first download).
  double snapshot_compression = 0.55;
  /// Fixed overhead per interaction snapshot delta.
  util::Bytes click_delta_overhead = util::kib(40);
  /// Transformation/compression time at the proxy per MB of page.
  Duration transform_per_mb = Duration::millis(350);
  DirConfig proxy_fetch;   // proxy-side engine + fetch settings
  EngineConfig client;     // client render speed
  net::TcpParams tcp;      // client<->proxy connection
};

/// Server half: owns the proxy-side engine per loaded page.
class CloudBrowserProxy final : public net::HttpEndpoint {
 public:
  CloudBrowserProxy(net::Network& network, CloudBrowserConfig config,
                    util::Rng rng);

  void handle(const net::HttpRequest& request,
              Responder respond) override;

  [[nodiscard]] const BrowserEngine* engine() const { return engine_.get(); }

 private:
  net::Network& network_;
  CloudBrowserConfig config_;
  util::Rng rng_;
  std::unique_ptr<NetworkFetcher> fetcher_;
  std::unique_ptr<BrowserEngine> engine_;
};

/// Client half: thin renderer over one persistent connection.
class CloudBrowserClient {
 public:
  /// `proxy_domain` must be registered in the network with a route from
  /// the "client" vantage.
  CloudBrowserClient(net::Network& network, const std::string& proxy_domain,
                     CloudBrowserConfig config);

  void load(const net::Url& url, std::function<void(TimePoint)> on_loaded);
  void click(int index, std::function<void()> on_done);

  [[nodiscard]] const ObjectLedger& ledger() const { return ledger_; }
  [[nodiscard]] Duration cpu_busy() const { return main_thread_.busy_total(); }

 private:
  net::Network& network_;
  CloudBrowserConfig config_;
  MainThread main_thread_;
  ObjectLedger ledger_;
  std::unique_ptr<net::HttpConnection> conn_;
};

}  // namespace parcel::browser
