#include "core/proxy.hpp"

#include <stdexcept>

namespace parcel::core {

InterceptingFetcher::InterceptingFetcher(browser::Fetcher& inner,
                                         Interceptor interceptor)
    : inner_(inner), interceptor_(std::move(interceptor)) {
  if (!interceptor_) {
    throw std::invalid_argument("InterceptingFetcher: null interceptor");
  }
}

void InterceptingFetcher::fetch(
    const net::Url& url, web::ObjectType hint, bool randomized,
    std::uint32_t object_id, browser::FetchCallback on_result) {
  inner_.fetch(url, hint, randomized, object_id,
               [this, on_result = std::move(on_result)](
                   browser::FetchResult result) {
                 if (result.ok()) interceptor_(result);
                 on_result(std::move(result));
               });
}

ParcelProxy::ParcelProxy(net::Network& network, ProxyConfig config,
                         util::Rng rng)
    : network_(network), config_(config), rng_(std::move(rng)) {}

const browser::BrowserEngine& ParcelProxy::engine() const {
  if (!engine_) throw std::logic_error("ParcelProxy: not started");
  return *engine_;
}

std::optional<TimePoint> ParcelProxy::onload_time() const {
  if (engine_ && engine_->onload_fired()) return engine_->onload_time();
  return std::nullopt;
}

const BundleScheduler& ParcelProxy::scheduler() const {
  if (!scheduler_) throw std::logic_error("ParcelProxy: not started");
  return *scheduler_;
}

void ParcelProxy::start(const net::Url& url, const std::string& user_agent,
                        PushFn push, NotifyFn notify_complete) {
  if (engine_) throw std::logic_error("ParcelProxy::start called twice");
  push_ = std::move(push);
  notify_complete_ = std::move(notify_complete);

  // The proxy emulates the client when talking to origin servers
  // (user-agent and screen info forwarded by the client, §4.5).
  (void)user_agent;

  begin_load(url);
}

void ParcelProxy::load_page(const net::Url& url) {
  if (!engine_) throw std::logic_error("ParcelProxy::load_page before start");
  // Retire the previous page's machinery; in-flight callbacks may still
  // reference it, so it is kept alive for the session.
  completion_timer_.cancel();
  retired_engines_.push_back(std::move(engine_));
  retired_intercepting_.push_back(std::move(intercepting_));
  retired_fetchers_.push_back(std::move(net_fetcher_));
  onload_seen_ = false;
  completion_declared_ = false;
  // The proxy caches across the session: objects from earlier pages need
  // no origin round trip (and, via the mirror, no re-push either).
  begin_load(url, &retired_engines_.back()->cache());
}

void ParcelProxy::begin_load(const net::Url& url,
                             const browser::FetchCache* warm) {
  page_lost_ = false;
  scheduler_ = std::make_unique<BundleScheduler>(
      config_.bundle, [this](web::MhtmlWriter bundle) {
        if (crashed_ || page_lost_) return;  // bundle dies with the process
        push_(std::move(bundle));
      });
  net_fetcher_ = std::make_unique<browser::NetworkFetcher>(
      network_, "proxy", config_.fetch, rng_.fork());
  intercepting_ = std::make_unique<InterceptingFetcher>(
      *net_fetcher_,
      [this](const browser::FetchResult& r) { on_intercept(r); });
  engine_ = std::make_unique<browser::BrowserEngine>(
      network_.scheduler(), *intercepting_, config_.fetch.engine, rng_.fork(),
      "parcel-proxy");
  if (warm != nullptr) engine_->preload_cache(*warm);

  browser::BrowserEngine::Callbacks cbs;
  cbs.on_onload = [this](TimePoint) {
    onload_seen_ = true;
    scheduler_->on_proxy_onload();
    arm_completion_timer();
  };
  engine_->load(url, std::move(cbs));
}

void ParcelProxy::on_intercept(const browser::FetchResult& result) {
  // A crashed (or crashed-then-restarted) proxy lost the in-flight page;
  // origin responses still draining through the old engine go nowhere.
  if (crashed_ || page_lost_) return;
  // Cache mirror (§4.5): the personalized proxy tracks what it already
  // sent this client; re-identified objects on later pages of the
  // session are not re-transmitted.
  if (!pushed_.insert(result.url.id()).second) {
    ++mirror_skips_;
    if (onload_seen_ && !completion_declared_) arm_completion_timer();
    return;
  }
  if (completion_declared_) {
    // Late straggler the heuristic missed: push immediately so the
    // client's fallback (or a lucky late bundle) resolves fast.
    scheduler_->on_object(result.url, result.type, result.size,
                          result.content);
    scheduler_->on_page_complete();
    return;
  }
  scheduler_->on_object(result.url, result.type, result.size, result.content);
  if (onload_seen_) arm_completion_timer();
}

void ParcelProxy::arm_completion_timer() {
  completion_timer_.cancel();
  completion_timer_ = network_.scheduler().schedule_after(
      config_.inactivity_window, [this] {
        if (completion_declared_ || crashed_ || page_lost_) return;
        completion_declared_ = true;
        scheduler_->on_page_complete();
        if (notify_complete_) notify_complete_();
      });
}

void ParcelProxy::set_bundle_threshold(util::Bytes threshold) {
  config_.bundle.threshold = threshold;
  if (scheduler_) scheduler_->set_threshold(threshold);
}

void ParcelProxy::crash() {
  if (crashed_) return;
  crashed_ = true;
  page_lost_ = true;
  ++crash_count_;
  completion_timer_.cancel();
}

void ParcelProxy::restart() {
  if (!crashed_) return;
  crashed_ = false;
  // page_lost_ stays set: the new process has no memory of the old load.
}

void ParcelProxy::fetch_for_client(const net::Url& url,
                                   web::ObjectType hint) {
  if (!net_fetcher_) throw std::logic_error("ParcelProxy: not started");
  if (crashed_ || page_lost_) return;  // request vanishes into a dead peer
  ++fallback_serves_;
  net_fetcher_->fetch(url, hint, /*randomized=*/false,
                      /*object_id=*/0,
                      [this, url](browser::FetchResult result) {
                        web::MhtmlWriter bundle;
                        bundle.add_raw(url,
                                       std::string(web::mime_type(result.type)),
                                       result.size, result.content);
                        push_(std::move(bundle));
                      });
}

void ParcelProxy::relay_post(const net::Url& url, util::Bytes body_bytes) {
  if (!net_fetcher_) throw std::logic_error("ParcelProxy: not started");
  if (crashed_ || page_lost_) return;  // request vanishes into a dead peer
  net_fetcher_->post(
      url, body_bytes, [this, url](const net::HttpResponse& response) {
        web::MhtmlWriter bundle;
        if (response.status == 204 || !response.has_body()) {
          // Forward content-less responses unmodified (§4.5).
          bundle.add_raw(url, "application/x-parcel-status", 64, nullptr);
        } else {
          bundle.add_raw(url, std::string(response.content_type),
                         response.body_bytes, response.content);
        }
        push_(std::move(bundle));
      });
}

}  // namespace parcel::core
