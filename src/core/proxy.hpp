// ParcelProxy: the cloud half of PARCEL (§4.2, §5.1).
//
// On receiving the URL request it loads the page with a full headless
// browser engine over its well-provisioned paths — resolving DNS,
// parsing HTML, scanning CSS and *executing JS* to identify dynamically
// referenced objects — and intercepts every origin response into the
// BundleScheduler, which pushes MHTML bundles to the client under the
// configured policy. After onload it runs the paper's completion
// heuristic (a window of proxy–server inactivity) and then notifies the
// client, releasing any suppressed client requests as fallbacks.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "browser/dir_browser.hpp"
#include "browser/engine.hpp"
#include "core/bundle_scheduler.hpp"
#include "lte/device.hpp"
#include "net/network.hpp"
#include "util/rng.hpp"

namespace parcel::core {

using util::Duration;
using util::TimePoint;

struct ProxyConfig {
  /// Engine speed + pool settings at the proxy. The proxy is a
  /// well-provisioned server: it parses and runs JS at
  /// lte::DeviceProfile::proxy_server()'s rates (§4.2 "powerful server").
  browser::DirConfig fetch = [] {
    browser::DirConfig cfg;
    const lte::DeviceProfile server = lte::DeviceProfile::proxy_server();
    cfg.engine.parse_bytes_per_sec = server.parse_bytes_per_sec;
    cfg.engine.js_units_per_sec = server.js_units_per_sec;
    return cfg;
  }();
  BundleConfig bundle;
  /// Completion heuristic: declare the page done after this much
  /// proxy–server inactivity following onload (§4.5).
  Duration inactivity_window = Duration::seconds(1.5);
};

/// Fetcher decorator: the Firefox-extension equivalent that intercepts
/// HTTP responses on their way into the proxy engine (§5.1).
class InterceptingFetcher final : public browser::Fetcher {
 public:
  using Interceptor = std::function<void(const browser::FetchResult&)>;

  InterceptingFetcher(browser::Fetcher& inner, Interceptor interceptor);

  void fetch(const net::Url& url, web::ObjectType hint, bool randomized,
             std::uint32_t object_id, browser::FetchCallback on_result) override;

 private:
  browser::Fetcher& inner_;
  Interceptor interceptor_;
};

class ParcelProxy {
 public:
  using PushFn = std::function<void(web::MhtmlWriter bundle)>;
  using NotifyFn = std::function<void()>;

  ParcelProxy(net::Network& network, ProxyConfig config, util::Rng rng);

  /// Serve the client's URL request. `push` carries bundles towards the
  /// client; `notify_complete` is the completion notification.
  void start(const net::Url& url, const std::string& user_agent, PushFn push,
             NotifyFn notify_complete);

  /// Serve a subsequent page of the same session (§4.5 "personalized
  /// proxies ... mirror the state of the objects stored at the client"):
  /// objects already pushed in this session are identified but *not*
  /// re-transmitted — the client has them cached.
  void load_page(const net::Url& url);

  /// Fallback: fetch one object the client found missing and push it as a
  /// single-part bundle (after the heuristic missed it, §4.5).
  void fetch_for_client(const net::Url& url, web::ObjectType hint);

  /// Relay a POST unmodified to the origin (§4.5); the response body is
  /// pushed back as a single-part bundle (or a 204 marker part).
  void relay_post(const net::Url& url, util::Bytes body_bytes);

  /// Mid-load bundle retarget (ctrl::BundleController): the new b*
  /// reaches both the live scheduler (effective at the next bundle
  /// boundary) and the config future pages inherit.
  void set_bundle_threshold(util::Bytes threshold);

  /// The proxy process dies: the in-progress page's state is lost, no
  /// further bundles, pushes, or completion notes are emitted, and
  /// incoming client requests are silently dropped (exactly what a dead
  /// TCP peer looks like at this model's granularity).
  void crash();
  /// A fresh process comes back up. The interrupted load is NOT resumed —
  /// the page state died with the old process; recovery is client-driven.
  /// A later load_page() starts cleanly on the new process.
  void restart();
  [[nodiscard]] bool crashed() const { return crashed_; }
  [[nodiscard]] std::size_t crash_count() const { return crash_count_; }

  [[nodiscard]] bool started() const { return engine_ != nullptr; }
  [[nodiscard]] const browser::BrowserEngine& engine() const;
  [[nodiscard]] bool completion_declared() const {
    return completion_declared_;
  }
  [[nodiscard]] std::optional<TimePoint> onload_time() const;
  [[nodiscard]] const BundleScheduler& scheduler() const;
  [[nodiscard]] std::size_t fallback_serves() const {
    return fallback_serves_;
  }
  /// Objects skipped because the cache mirror says the client has them.
  [[nodiscard]] std::size_t mirror_skips() const { return mirror_skips_; }

 private:
  void arm_completion_timer();
  void begin_load(const net::Url& url,
                  const browser::FetchCache* warm = nullptr);
  void on_intercept(const browser::FetchResult& result);

  net::Network& network_;
  ProxyConfig config_;
  util::Rng rng_;
  PushFn push_;
  NotifyFn notify_complete_;

  std::unique_ptr<browser::NetworkFetcher> net_fetcher_;
  std::unique_ptr<InterceptingFetcher> intercepting_;
  std::unique_ptr<browser::BrowserEngine> engine_;
  std::unique_ptr<BundleScheduler> scheduler_;

  bool onload_seen_ = false;
  bool completion_declared_ = false;
  bool crashed_ = false;
  /// The load that was in flight when the proxy crashed is unrecoverable
  /// even after restart (fresh process, no page state).
  bool page_lost_ = false;
  std::size_t crash_count_ = 0;
  std::size_t fallback_serves_ = 0;
  std::size_t mirror_skips_ = 0;
  /// URLs already delivered to the client this session (the cache
  /// mirror, interned ids); also holds engines of earlier pages whose
  /// scheduled events may still be draining.
  std::unordered_set<net::UrlId, net::UrlIdHash> pushed_;
  std::vector<std::unique_ptr<browser::BrowserEngine>> retired_engines_;
  std::vector<std::unique_ptr<browser::NetworkFetcher>> retired_fetchers_;
  std::vector<std::unique_ptr<InterceptingFetcher>> retired_intercepting_;
  sim::EventHandle completion_timer_;
};

}  // namespace parcel::core
