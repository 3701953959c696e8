// ParcelSession: wires the PARCEL client and proxy over a single TCP
// connection through the radio (Table 1: one connection, one client HTTP
// request per page).
//
// Protocol on the wire (sizes are what cross the simulated radio):
//   client -> proxy : URL request with device attributes (§4.5)
//   proxy  -> client: MHTML bundles (IND / ONLD / PARCEL(X) schedule)
//   proxy  -> client: completion notification
//   client -> proxy : fallback GETs for objects the proxy missed
//
// HTTPS pages bypass the proxy entirely (§4.5): the session falls back to
// a direct DIR-style load.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "browser/dir_browser.hpp"
#include "browser/engine.hpp"
#include "core/client.hpp"
#include "core/proxy.hpp"
#include "net/network.hpp"
#include "net/tcp.hpp"

namespace parcel::core {

struct ParcelSessionConfig {
  ProxyConfig proxy = ProxyConfig::with_bundle(BundleConfig::ind());
  browser::EngineConfig client_engine;
  net::TcpParams tcp;
  /// Domain under which the proxy is reachable from the client vantage.
  std::string proxy_domain = "parcel.proxy";
  std::string user_agent = "ParcelBrowser/1.0 (Android; Webview)";
  std::string screen_info = "720x1280";
  /// Ablation: disable the client's request suppression (§4.5).
  bool client_suppression = true;

  /// Stall watchdog: when the page is incomplete and no bundle or
  /// completion note has arrived for this long, the client presumes the
  /// proxy dead and degrades to direct-to-origin fetches (DESIGN.md §7).
  /// Zero (the default) disables the watchdog — no timer is ever armed.
  util::Duration stall_deadline = util::Duration::zero();
  /// Fetch config for the degraded direct path (the experiment harness
  /// applies the same TCP params and hardening as the rest of the run).
  browser::DirConfig direct_fetch;
};

class ParcelSession {
 public:
  struct Callbacks {
    std::function<void(util::TimePoint)> on_onload;
    /// Fires when the client engine is done AND the proxy has declared
    /// completion AND nothing is left in flight — the end of the TLT
    /// window.
    std::function<void(util::TimePoint)> on_complete;
  };

  ParcelSession(net::Network& network, ParcelSessionConfig config,
                util::Rng rng);

  /// Load a page. The first call opens the session; subsequent calls
  /// continue it on the same connection: the device keeps its cache of
  /// pushed objects, and the personalized proxy's cache mirror ensures
  /// already-delivered objects are not re-transmitted (§4.5, §7.3).
  void load(const net::Url& url, Callbacks callbacks);

  /// Local interaction (§8.2): JS runs on the device; no radio traffic
  /// when the target is cached.
  void click(int index, std::function<void()> on_done);

  /// POST relayed through the proxy unmodified (§4.5).
  void post(const net::Url& url, util::Bytes body_bytes,
            std::function<void()> on_response);

  /// Fault hooks (driven by the experiment harness's fault plan): the
  /// proxy process dies / comes back. Recovery is client-driven — the
  /// stall watchdog notices the silence and degrades to direct fetches.
  void inject_proxy_crash();
  void inject_proxy_restart();

  /// Closed-loop retarget (ISSUE 10): the ctrl::BundleController's new
  /// b* is forwarded to the proxy's bundle scheduler, where it takes
  /// effect at the next bundle boundary. In the real deployment this
  /// rides the uplink as a tiny control message; its bytes are below the
  /// burst granularity the simulator models, so no radio traffic is
  /// charged.
  void retune_bundle_threshold(util::Bytes threshold);

  // --- Introspection ----------------------------------------------------
  [[nodiscard]] browser::BrowserEngine& client_engine();
  [[nodiscard]] const ParcelProxy& proxy() const { return proxy_; }
  [[nodiscard]] const ParcelClientFetcher& client_fetcher() const {
    return fetcher_;
  }
  [[nodiscard]] bool used_direct_path() const {
    return direct_ != nullptr;
  }
  [[nodiscard]] std::size_t bundles_delivered() const {
    return bundles_delivered_;
  }
  [[nodiscard]] util::Bytes bundle_bytes_delivered() const {
    return bundle_bytes_;
  }
  /// True once the stall watchdog gave up on the proxy.
  [[nodiscard]] bool degraded() const { return degraded_at_.has_value(); }
  [[nodiscard]] std::optional<util::TimePoint> degraded_at() const {
    return degraded_at_;
  }
  /// TCP retransmissions on the client's radio-crossing connections (the
  /// proxy link plus the degraded direct path, if it was opened).
  [[nodiscard]] std::uint64_t transport_retransmits() const;

 private:
  void push_bundle(web::MhtmlWriter bundle);
  void send_completion_note();
  void check_session_complete();
  void note_progress();
  void arm_watchdog();
  void on_watchdog();
  void ensure_direct_fetcher();

  net::Network& network_;
  ParcelSessionConfig config_;
  util::Rng rng_;
  Callbacks callbacks_;

  net::TcpConnection conn_;
  ParcelProxy proxy_;
  ParcelClientFetcher fetcher_;
  std::unique_ptr<browser::BrowserEngine> engine_;
  /// Engines of earlier pages in the session, kept alive because late
  /// scheduled events may still reference them.
  std::vector<std::unique_ptr<browser::BrowserEngine>> retired_engines_;
  bool session_open_ = false;
  util::Rng engine_rng_;

  /// HTTPS bypass path.
  std::unique_ptr<browser::DirBrowser> direct_;

  /// Degraded-mode fetcher, constructed lazily at degradation time so
  /// fault-free runs consume no extra RNG forks (byte-identity).
  std::unique_ptr<browser::NetworkFetcher> direct_fetcher_;
  sim::EventHandle watchdog_;
  util::TimePoint last_progress_;
  bool proxy_presumed_dead_ = false;
  std::optional<util::TimePoint> degraded_at_;

  bool client_complete_ = false;
  bool complete_fired_ = false;
  std::size_t pushes_in_flight_ = 0;
  std::size_t bundles_delivered_ = 0;
  /// POST responses awaited: (bundle count to reach, callback).
  std::vector<std::pair<std::size_t, std::function<void()>>> post_waiters_;
  /// Fallback sends raised before the connection established.
  std::vector<std::function<void()>> pending_fallbacks_;
  util::Bytes bundle_bytes_ = 0;
  std::uint32_t next_push_id_ = 50'000;
};

}  // namespace parcel::core
