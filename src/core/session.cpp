#include "core/session.hpp"

#include <stdexcept>

namespace parcel::core {

namespace {
constexpr util::Bytes kCompletionNoteBytes = 160;
}

ParcelSession::ParcelSession(net::Network& network, ParcelSessionConfig config,
                             util::Rng rng)
    : network_(network),
      config_(std::move(config)),
      rng_(rng.fork()),
      conn_(network.scheduler(), network.route("client", config_.proxy_domain),
            config_.tcp, network.next_conn_id()),
      proxy_(network, config_.proxy, rng.fork()),
      fetcher_(network.scheduler(), rng.fork()),
      engine_rng_(rng.fork()) {
  engine_ = std::make_unique<browser::BrowserEngine>(
      network.scheduler(), fetcher_, config_.client_engine,
      engine_rng_.fork(), "parcel-client");
  fetcher_.set_suppression(config_.client_suppression);
  fetcher_.set_fallback([this](const net::Url& url, web::ObjectType hint) {
    // Fallback GET travels up the persistent connection; the proxy
    // fetches and pushes the answer as a single-part bundle. Fallbacks
    // raised before the handshake finishes (possible with suppression
    // disabled) wait for it.
    auto send = [this, url, hint] {
      net::HttpRequest request;
      request.url = url;
      conn_.send_to_server(request.wire_size(), /*object_id=*/0,
                           [this, url, hint](util::TimePoint) {
                             proxy_.fetch_for_client(url, hint);
                           });
    };
    if (conn_.established()) {
      send();
    } else {
      pending_fallbacks_.push_back(std::move(send));
    }
  });
}

browser::BrowserEngine& ParcelSession::client_engine() {
  if (direct_) return direct_->engine();
  return *engine_;
}

void ParcelSession::load(const net::Url& url, Callbacks callbacks) {
  callbacks_ = std::move(callbacks);

  if (url.is_https()) {
    // §4.5: encrypted pages bypass the proxy; fall back to the
    // traditional download path.
    browser::DirConfig direct_cfg;
    direct_cfg.engine = config_.client_engine;
    direct_cfg.tcp = config_.tcp;
    direct_ = std::make_unique<browser::DirBrowser>(network_, direct_cfg,
                                                    rng_.fork());
    browser::BrowserEngine::Callbacks cbs;
    cbs.on_onload = callbacks_.on_onload;
    cbs.on_complete = callbacks_.on_complete;
    direct_->load(url, std::move(cbs));
    return;
  }

  browser::BrowserEngine::Callbacks cbs;
  cbs.on_onload = [this](util::TimePoint t) {
    if (callbacks_.on_onload) callbacks_.on_onload(t);
  };
  cbs.on_complete = [this](util::TimePoint) {
    client_complete_ = true;
    check_session_complete();
  };

  // Client -> proxy: the one URL request, carrying device attributes so
  // the proxy can emulate the client towards origin servers (§4.5).
  net::HttpRequest request;
  request.url = url;
  request.user_agent = config_.user_agent;
  request.screen_info = config_.screen_info;
  util::Bytes request_bytes = request.wire_size();

  if (session_open_) {
    // Subsequent page on the open session: fresh engines, persistent
    // device cache + cache mirror, same connection.
    if (!client_complete_ || !proxy_.completion_declared()) {
      throw std::logic_error(
          "ParcelSession::load: previous page still loading");
    }
    client_complete_ = false;
    complete_fired_ = false;
    fetcher_.on_new_page();
    note_progress();
    arm_watchdog();
    retired_engines_.push_back(std::move(engine_));
    engine_ = std::make_unique<browser::BrowserEngine>(
        network_.scheduler(), fetcher_, config_.client_engine,
        engine_rng_.fork(), "parcel-client");
    conn_.send_to_server(request_bytes, /*object_id=*/0,
                         [this, url](util::TimePoint) {
                           proxy_.load_page(url);
                         });
    engine_->load(url, std::move(cbs));
    return;
  }
  session_open_ = true;
  note_progress();
  arm_watchdog();

  conn_.connect([this, url, request_bytes] {
    conn_.send_to_server(request_bytes, /*object_id=*/0,
                         [this, url](util::TimePoint) {
                           proxy_.start(
                               url, config_.user_agent,
                               [this](web::MhtmlWriter bundle) {
                                 push_bundle(std::move(bundle));
                               },
                               [this] { send_completion_note(); });
                         });
    for (auto& pending : pending_fallbacks_) pending();
    pending_fallbacks_.clear();
  });

  // The client engine starts immediately; its very first fetch (the main
  // HTML) is suppressed until the first bundle delivers it.
  engine_->load(url, std::move(cbs));
}

void ParcelSession::push_bundle(web::MhtmlWriter bundle) {
  // The radio carries the bundle's exact MHTML wire size; the client then
  // receives the parts parse(serialize()) would give it, without the
  // round trip (web/mhtml.hpp).
  auto wire_size = static_cast<util::Bytes>(bundle.wire_size());
  ++pushes_in_flight_;
  conn_.stream_to_client(
      wire_size, next_push_id_++,
      [this, parts = std::move(bundle).take_parts(),
       wire_size](util::TimePoint) mutable {
        note_progress();
        ++bundles_delivered_;
        bundle_bytes_ += wire_size;
        fetcher_.on_bundle_parts(std::move(parts));
        for (std::size_t i = 0; i < post_waiters_.size();) {
          if (bundles_delivered_ >= post_waiters_[i].first) {
            auto cb = std::move(post_waiters_[i].second);
            post_waiters_.erase(post_waiters_.begin() +
                                static_cast<std::ptrdiff_t>(i));
            cb();
          } else {
            ++i;
          }
        }
        --pushes_in_flight_;
        check_session_complete();
      });
}

void ParcelSession::send_completion_note() {
  ++pushes_in_flight_;
  conn_.stream_to_client(kCompletionNoteBytes, /*object_id=*/0,
                         [this](util::TimePoint) {
                           note_progress();
                           fetcher_.on_completion_note();
                           --pushes_in_flight_;
                           check_session_complete();
                         });
}

void ParcelSession::note_progress() {
  last_progress_ = network_.scheduler().now();
}

void ParcelSession::arm_watchdog() {
  if (config_.stall_deadline <= util::Duration::zero()) return;
  watchdog_.cancel();
  watchdog_ = network_.scheduler().schedule_after(config_.stall_deadline,
                                                  [this] { on_watchdog(); });
}

void ParcelSession::on_watchdog() {
  if (complete_fired_ || proxy_presumed_dead_) return;
  util::TimePoint now = network_.scheduler().now();
  if (now - last_progress_ < config_.stall_deadline) {
    // Progress since the timer was armed; watch from the latest beat.
    watchdog_ = network_.scheduler().schedule_at(
        last_progress_ + config_.stall_deadline, [this] { on_watchdog(); });
    return;
  }
  if (fetcher_.parked_count() == 0 && proxy_.completion_declared()) {
    // Quiet because the page is essentially done; let completion land.
    return;
  }
  // The proxy has been silent past the deadline with work outstanding:
  // presume it dead and walk down the degradation ladder — whatever the
  // bundles delivered stays cached, everything else goes direct-to-origin.
  proxy_presumed_dead_ = true;
  degraded_at_ = now;
  ensure_direct_fetcher();
  fetcher_.degrade_to_direct();
  check_session_complete();
}

void ParcelSession::ensure_direct_fetcher() {
  if (direct_fetcher_) return;
  direct_fetcher_ = std::make_unique<browser::NetworkFetcher>(
      network_, "client", config_.direct_fetch, rng_.fork());
  fetcher_.set_direct_fetch(
      [this](const net::Url& url, web::ObjectType hint,
             std::uint32_t object_id,
             std::function<void(browser::FetchResult)> on_result) {
        direct_fetcher_->fetch(url, hint, /*randomized=*/false, object_id,
                               std::move(on_result));
      });
}

void ParcelSession::inject_proxy_crash() { proxy_.crash(); }

void ParcelSession::inject_proxy_restart() { proxy_.restart(); }

void ParcelSession::retune_bundle_threshold(util::Bytes threshold) {
  proxy_.set_bundle_threshold(threshold);
}

std::uint64_t ParcelSession::transport_retransmits() const {
  std::uint64_t n = conn_.retransmits();
  if (direct_fetcher_) n += direct_fetcher_->retransmits();
  return n;
}

void ParcelSession::check_session_complete() {
  if (complete_fired_) return;
  if (!client_complete_) return;
  if (proxy_presumed_dead_) {
    // Degraded completion: the proxy will never declare anything; the
    // page is done when the client engine is done and nothing is parked.
    if (fetcher_.parked_count() != 0) return;
  } else {
    if (!proxy_.completion_declared()) return;
    if (pushes_in_flight_ != 0 || conn_.streaming()) return;
    if (fetcher_.parked_count() != 0) return;
  }
  complete_fired_ = true;
  watchdog_.cancel();
  if (callbacks_.on_complete) {
    callbacks_.on_complete(network_.scheduler().now());
  }
}

void ParcelSession::click(int index, std::function<void()> on_done) {
  client_engine().click(index, std::move(on_done));
}

void ParcelSession::post(const net::Url& url, util::Bytes body_bytes,
                         std::function<void()> on_response) {
  net::HttpRequest request;
  request.method = net::HttpMethod::kPost;
  request.url = url;
  request.body_bytes = body_bytes;
  // The response arrives as a single-part bundle; the application (not
  // the renderer) consumes POST results, so completion is observed by
  // watching the delivered-bundle count.
  post_waiters_.emplace_back(bundles_delivered_ + 1, std::move(on_response));
  conn_.send_to_server(request.wire_size(), /*object_id=*/0,
                       [this, url, body_bytes](util::TimePoint) {
                         proxy_.relay_post(url, body_bytes);
                       });
}

}  // namespace parcel::core
